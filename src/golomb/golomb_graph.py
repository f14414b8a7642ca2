"""The complete mixed graph on proper consecutive index intervals of [m].

Vertices are the intervals [a, b] with 1 <= a <= b <= m except [1, m]
itself, so there are m(m+1)/2 - 1 of them. Strict containment fixes an arc
U -> V; every remaining pair is an undirected edge. Each interval is read
as its 0/1 indicator vector: two intervals are nested exactly when the
difference of their indicators has one sign, and otherwise that difference
is the normal of an equal-sum hyperplane. Two edges are coupled whenever
they give the same normal, and an admissible orientation must direct
coupled edges the same way. Because the underlying graph is complete, an admissible acyclic
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
from operator import sub

from golomb.arrangement import Interval, golomb_hyperplanes
from golomb.errors import DEFAULT_M_BOUND, DEFAULT_NODE_BUDGET, BudgetExceededError
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
    # each interval's 0/1 indicator vector: its dot product with z is the
    # interval's sum
    indicators: tuple[tuple[int, ...], ...]
    hyperplanes: tuple[tuple[int, ...], ...]
    incl_pred: tuple[int, ...]
    pair_info: tuple[tuple[tuple[int, int] | None, ...], ...]
    # the crossing pairs (i, j), i < j, of each coupling class; i before j
    # is its negative side
    class_edges: tuple[tuple[tuple[int, int], ...], ...]
    # additive sign implications, keyed by one premise hyperplane:
    # (premise sign, other hyperplane, its sign, forced hyperplane, forced sign)
    sum_rules: tuple[tuple[tuple[int, int, int, int, int], ...], ...]

    @property
    def n(self) -> int:
        return len(self.intervals)

    def chain_rows(self, order: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Strict inequalities pinning down the cell of a total order of
        vertex indices: the smallest interval sum is positive and consecutive
        sums increase. The full order (hence every hyperplane side) follows
        by transitivity."""
        ind = self.indicators
        rows = [ind[order[0]]]
        rows += (tuple(map(sub, ind[v], ind[u])) for u, v in zip(order, order[1:]))
        return rows


# m -> its tables; the only cache in this module
_TABLES: dict[int, _Tables] = {}


def _tables(m: int) -> _Tables:
    if m in _TABLES:
        return _TABLES[m]
    ivs = consecutive_subsets(m)
    n = len(ivs)
    ind = tuple(tuple(int(a <= x <= b) for x in range(1, m + 1)) for a, b in ivs)
    hypers = golomb_hyperplanes(m)
    hindex = {h: k for k, h in enumerate(hypers)}
    incl_pred = [0] * n
    pair_info: list[list[tuple[int, int] | None]] = [[None] * n for _ in range(n)]
    class_edges: list[list[tuple[int, int]]] = [[] for _ in hypers]
    for i in range(n):
        for j in range(i + 1, n):
            diff = tuple(map(sub, ind[i], ind[j]))
            k = hindex.get(diff)
            if k is not None:
                # neither interval holds the other: the shared block cancels
                # and leaves a normal, whose first nonzero entry is +1 since
                # i starts first; ordering i before j demands its negative side
                pair_info[i][j] = (k, -1)
                pair_info[j][i] = (k, 1)
                class_edges[k].append((i, j))
            elif max(diff) > 0:
                incl_pred[i] |= 1 << j
            else:
                incl_pred[j] |= 1 << i
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
        indicators=ind,
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

        Ordering v before each unplaced u demands one sign of a coupling
        class; the demands and every sign they imply through the additive
        rules are applied until a fixed point or a contradiction, a class
        demanded or implied with both signs. The fixed point does not depend
        on the order the signs are applied in. The signs applied and the
        predecessor masks they overwrote are undone on the way back."""
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise BudgetExceededError(limit, "admissible orientation search")
        rest = full & ~placed & ~(1 << v)
        if pred[v] & rest:
            return
        row = pair_info[v]
        queue: list[tuple[int, int]] = []
        mask = rest
        while mask:
            low = mask & -mask
            mask ^= low
            info = row[low.bit_length() - 1]
            if info is not None:
                queue.append(info)
        trail: list[tuple[int, int]] = []
        applied: list[int] = []
        while queue:
            k, s = queue.pop()
            cur = sigma[k]
            if cur == s:
                continue
            if cur == -s:
                break
            sigma[k] = s
            applied.append(k)
            for i, j in class_edges[k]:
                src, dst = (i, j) if s < 0 else (j, i)
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


def enumerate_constrained_orientations(
    m: int, *, budget: int = DEFAULT_NODE_BUDGET
) -> tuple[tuple[Interval, ...], ...]:
    """All admissible total orders of the intervals, each a tuple of
    intervals, smallest sum first, in a fixed depth-first order, each
    certified realizable by an exact feasibility check. Each is an
    admissible acyclic orientation of build_golomb_graph(m). Their
    number equals the number of cells of the subdivided simplex and so the
    number of combinatorially different Golomb rulers.

    The budget caps the nodes of the search, which finishes before any
    survivor reaches the simplex, so a census over budget raises without
    an LP. m above DEFAULT_M_BOUND is refused: the census would be
    astronomically large.
    """
    if m > DEFAULT_M_BOUND:
        raise ValueError(f"m={m} is above the enumeration bound {DEFAULT_M_BOUND}")
    tables = _tables(m)
    if tables.n == 0:
        return ((),)
    # the whole search runs here, before the first LP
    found = _enumerate_orders(m, budget)
    return tuple(
        tuple(tables.intervals[v] for v in o)
        for o in found
        if strict_cone_feasibility(tables.chain_rows(o))
    )
