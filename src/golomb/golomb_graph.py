"""The complete mixed graph on proper consecutive index intervals of [m].

Vertices are the intervals [a, b] with 1 <= a <= b <= m except [1, m]
itself, so there are m(m+1)/2 - 1 of them. Strict containment fixes an arc
U -> V; every remaining pair is an undirected edge. Two edges are coupled
whenever their endpoint pairs leave the same residual intervals after
removing the common block (equivalently, they lie on the same equal-sum
hyperplane), and an admissible orientation must direct coupled edges the
same way. Because the underlying graph is complete, an admissible acyclic
orientation is the same thing as a strict total order of the intervals
extending containment and respecting the coupling.

These orders index the cells the equal-sum hyperplanes cut the open
simplex into. A gap vector's multiplicity, the number of cell closures
containing it, is counted from the intersection lattice in golomb.lattice.

Enumeration runs in two stages. A depth-first search builds the order
bottom-up: placing an interval next fixes its relative order against
everything unplaced, each such decision fixes the shared direction of a
whole coupling class at once, additive implications between classes
propagate immediately, and the arcs this implies prune later placements.
The search is sound but its combinatorial rules are not known to be
complete, so every surviving order is then decided exactly: a fraction-free
simplex either produces a rational gap vector realizing the order (checked
against every inequality) or a Farkas certificate that none exists (also
checked). Without the propagation m = 6 (20 vertices, 107498 admissible
orders) is out of reach; with it the m = 6 census takes well under a minute.

The search places every first interval in turn, each placement one node,
and the budget caps its nodes: the survivors reach the simplex only once
the whole search has finished within it.

The per-m tables the search reads live on one record in one explicit
cache, `_TABLES`.
"""

from __future__ import annotations

from dataclasses import dataclass

from golomb.arrangement import Interval, golomb_hyperplanes, hyperplane_blocks
from golomb.config import DEFAULT_M_BOUND, resolve_budget
from golomb.errors import BudgetExceededError
from golomb.mixed_graphs import MixedGraph
from golomb.simplex import strict_cone_feasibility


def consecutive_subsets(m: int) -> tuple[Interval, ...]:
    """Proper consecutive subsets of [m] as (start, end) pairs, lexicographic."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return tuple(
        (a, b)
        for a in range(1, m + 1)
        for b in range(a, m + 1)
        if (a, b) != (1, m)
    )


def interval_label(interval: Interval) -> str:
    a, b = interval
    return "".join(str(i) for i in range(a, b + 1))


@dataclass(frozen=True)
class GolombOrientation:
    """A strict total order on the proper consecutive subsets of [m],
    smallest first; equivalently an admissible acyclic orientation of the
    complete mixed graph on those intervals."""

    m: int
    order: tuple[Interval, ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(interval_label(iv) for iv in self.order)


def build_golomb_graph(m: int) -> MixedGraph:
    """The complete mixed graph on consecutive_subsets(m): vertex i+1 is the
    i-th interval, arcs run along strict containment, everything else is an
    undirected edge."""
    tables = _tables(m)
    edges, arcs = [], []
    for i in range(tables.n):
        for j in range(i + 1, tables.n):
            if tables.pair_info[i][j] is not None:
                edges.append((i + 1, j + 1))
            elif tables.incl_pred[j] >> i & 1:
                arcs.append((i + 1, j + 1))
            else:
                arcs.append((j + 1, i + 1))
    return MixedGraph(tables.n, tuple(edges), tuple(arcs))


@dataclass
class _Tables:
    intervals: tuple[Interval, ...]
    hyperplanes: tuple[tuple[int, ...], ...]
    incl_pred: tuple[int, ...]
    pair_info: tuple[tuple[tuple[int, int] | None, ...], ...]
    class_edges: tuple[tuple[tuple[int, int, int], ...], ...]
    # additive sign implications, keyed by one premise hyperplane:
    # (premise sign, other hyperplane, its sign, forced hyperplane, forced sign)
    sum_rules: tuple[tuple[tuple[int, int, int, int, int], ...], ...]

    @property
    def n(self) -> int:
        return len(self.intervals)


# m -> its tables; the only cache in this module
_TABLES: dict[int, _Tables] = {}


def _tables(m: int) -> _Tables:
    if m in _TABLES:
        return _TABLES[m]
    ivs = consecutive_subsets(m)
    n = len(ivs)
    hypers = golomb_hyperplanes(m)
    hindex = {h: k for k, h in enumerate(hypers)}
    sides_index = {blocks: k for k, blocks in enumerate(hyperplane_blocks(m))}
    incl_pred = [0] * n
    pair_info: list[list[tuple[int, int] | None]] = [[None] * n for _ in range(n)]
    class_edges: list[list[tuple[int, int, int]]] = [[] for _ in hypers]
    for i in range(n):
        for j in range(i + 1, n):
            (a, b), (c, d) = ivs[i], ivs[j]
            if a == c:
                incl_pred[j] |= 1 << i
            elif d <= b:
                incl_pred[i] |= 1 << j
            else:
                # a < c and b < d: sum(z_p) = sum(z_q) loses the shared
                # block, leaving the hyperplane with blocks (p - q, q - p);
                # ordering i before j demands its negative side
                k = sides_index[(a, min(b, c - 1)), (max(c, b + 1), d)]
                pair_info[i][j] = (k, -1)
                pair_info[j][i] = (k, 1)
                class_edges[k].append((i, j, -1))
    # Exact additions among signed normals force further signs: whenever
    # s1*h1 + s2*h2 = s3*h3, the sides sign(h1.z) = s1 and sign(h2.z) = s2
    # imply sign(h3.z) = s3. These cut the orders that are pairwise
    # consistent yet realized by no gap vector (weaker gaps summed against
    # larger ones), which transitivity alone cannot see.
    sum_rules: list[list[tuple[int, int, int, int, int]]] = [[] for _ in hypers]
    for k1 in range(len(hypers)):
        for k2 in range(k1 + 1, len(hypers)):
            for s1 in (1, -1):
                for s2 in (1, -1):
                    total = tuple(
                        s1 * a + s2 * b for a, b in zip(hypers[k1], hypers[k2])
                    )
                    for s3, vec in ((1, total), (-1, tuple(-x for x in total))):
                        k3 = hindex.get(vec)
                        if k3 is not None:
                            sum_rules[k1].append((s1, k2, s2, k3, s3))
                            sum_rules[k2].append((s2, k1, s1, k3, s3))
    tables = _TABLES[m] = _Tables(
        intervals=ivs,
        hyperplanes=hypers,
        incl_pred=tuple(incl_pred),
        pair_info=tuple(tuple(row) for row in pair_info),
        class_edges=tuple(tuple(c) for c in class_edges),
        sum_rules=tuple(tuple(r) for r in sum_rules),
    )
    return tables


def _enumerate_orders(m: int, limit: int) -> list[tuple[int, ...]]:
    """Depth-first enumeration of the admissible total orders, as tuples of
    vertex indices. Each placement, the first one too, is a node, and the
    search raises BudgetExceededError at its first node over `limit`.
    Deterministic: candidates, the first placement among them, are tried
    in index order."""
    tables = _tables(m)
    pair_info = tables.pair_info
    class_edges = tables.class_edges
    sum_rules = tables.sum_rules
    pred = list(tables.incl_pred)
    sigma = [0] * len(tables.hyperplanes)
    full = (1 << tables.n) - 1
    order: list[int] = []
    out: list[tuple[int, ...]] = []
    nodes = 0

    def visit(v: int, placed: int) -> None:
        """One node: place v after the vertices in `placed` if every
        constraint allows it, and search on.

        Ordering v before each unplaced u demands one sign per coupling
        class; every applied sign then propagates through the additive rules
        until a fixed point or a contradiction. The signs applied and the
        predecessor masks they overwrote are undone on the way back."""
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise BudgetExceededError(limit, "admissible orientation search")
        rest = full & ~placed & ~(1 << v)
        if pred[v] & rest:
            return
        demanded: dict[int, int] = {}
        row = pair_info[v]
        mask = rest
        while mask:
            low = mask & -mask
            mask ^= low
            info = row[low.bit_length() - 1]
            if info is None:
                continue
            k, pol = info
            cur = sigma[k]
            if cur == 0:
                prev = demanded.get(k)
                if prev is None:
                    demanded[k] = pol
                elif prev != pol:
                    return
            elif cur != pol:
                return
        trail: list[tuple[int, int]] = []
        applied: list[int] = []
        queue = list(demanded.items())
        while queue:
            k, s = queue.pop()
            cur = sigma[k]
            if cur == s:
                continue
            if cur == -s:
                break
            sigma[k] = s
            applied.append(k)
            for i, j, pol in class_edges[k]:
                dst = j if pol == s else i
                src = i if dst == j else j
                trail.append((dst, pred[dst]))
                pred[dst] |= 1 << src
            for s_need, k2, s2, k3, s3 in sum_rules[k]:
                if s == s_need and sigma[k2] == s2:
                    queue.append((k3, s3))
        else:
            # no contradiction: v goes next
            order.append(v)
            if not rest:
                out.append(tuple(order))
            while rest:
                low = rest & -rest
                rest ^= low
                visit(low.bit_length() - 1, placed | 1 << v)
            order.pop()
        for dst, old in reversed(trail):
            pred[dst] = old
        for k in applied:
            sigma[k] = 0

    for first in range(tables.n):
        visit(first, 0)
    return out


def _chain_rows(order: tuple[Interval, ...], m: int) -> list[tuple[int, ...]]:
    """Strict inequalities pinning down the cell of a total order: the
    smallest interval sum is positive and consecutive sums increase. The
    full order (hence every hyperplane side) follows by transitivity."""
    rows = []
    vec = [0] * m
    for i in range(order[0][0], order[0][1] + 1):
        vec[i - 1] = 1
    rows.append(tuple(vec))
    for prev, nxt in zip(order, order[1:]):
        vec = [0] * m
        for i in range(nxt[0], nxt[1] + 1):
            vec[i - 1] += 1
        for i in range(prev[0], prev[1] + 1):
            vec[i - 1] -= 1
        rows.append(tuple(vec))
    return rows


def enumerate_constrained_orientations(
    m: int, *, budget: int | None = None
) -> tuple[GolombOrientation, ...]:
    """All admissible total orders of the intervals, in a fixed depth-first
    order, each certified realizable by an exact feasibility check. Their
    number equals the number of cells of the subdivided simplex and so the
    number of combinatorially different Golomb rulers.

    The budget caps the nodes of the search, which finishes before any
    survivor reaches the simplex, so a census over budget raises without
    an LP. m above DEFAULT_M_BOUND is refused: the census would be
    astronomically large.
    """
    limit = resolve_budget(budget)
    if m > DEFAULT_M_BOUND:
        raise ValueError(f"m={m} is above the enumeration bound {DEFAULT_M_BOUND}")
    tables = _tables(m)
    if tables.n == 0:
        return (GolombOrientation(m, ()),)
    # the whole search runs here, before the first LP
    found = _enumerate_orders(m, limit)
    orders = (tuple(tables.intervals[v] for v in o) for o in found)
    return tuple(
        GolombOrientation(m, order)
        for order in orders
        if strict_cone_feasibility(_chain_rows(order, m))
    )
