"""General mixed graphs and their coloring/orientation machinery.

A mixed graph has undirected edges, which force different colors on their
endpoints, and directed arcs, which force strictly increasing colors. The
module provides brute-force proper-coloring counts, the chromatic
polynomial by exact interpolation, enumeration of the acyclic orientations
of the undirected part (arcs stay fixed), orientation/coloring
compatibility under weak inequalities, and the check that evaluating the
chromatic polynomial at negative arguments counts colorings weighted by
their number of compatible acyclic orientations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from golomb.errors import DEFAULT_NODE_BUDGET, BudgetExceededError
from golomb.ratpoly import Poly, lagrange, poly_eval

Orientation = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MixedGraph:
    """Simple mixed graph on vertices 1..n.

    Edges are unordered pairs, arcs ordered (tail, head). No loops, and each
    unordered pair may be used at most once across both sets, so a pair of
    antiparallel arcs is rejected at construction.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()
    arcs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise ValueError(f"vertex count 'n' must be a non-negative integer, got {self.n!r}")
        norm_edges = []
        for u, v in self.edges:
            self._check_pair(u, v)
            norm_edges.append((min(u, v), max(u, v)))
        norm_arcs = []
        for u, v in self.arcs:
            self._check_pair(u, v)
            norm_arcs.append((u, v))
        seen: set[tuple[int, int]] = set()
        for pair in norm_edges + [(min(u, v), max(u, v)) for u, v in norm_arcs]:
            if pair in seen:
                raise ValueError(f"duplicate or conflicting pair {{{pair[0]}, {pair[1]}}}")
            seen.add(pair)
        object.__setattr__(self, "edges", tuple(sorted(norm_edges)))
        object.__setattr__(self, "arcs", tuple(sorted(norm_arcs)))

    def _check_pair(self, u: int, v: int) -> None:
        for w in (u, v):
            if not isinstance(w, int) or isinstance(w, bool) or not 1 <= w <= self.n:
                raise ValueError(f"vertex {w!r} outside the integers 1..{self.n}")
        if u == v:
            raise ValueError(f"loop at vertex {u}")


def from_json_dict(data) -> MixedGraph:
    """Build a MixedGraph from {"n": ..., "edges": [[u,v],...], "arcs": [[u,v],...]}."""
    if not isinstance(data, dict):
        raise ValueError("mixed graph input must be a JSON object")
    try:
        n = data["n"]
        edges = data["edges"]
        arcs = data["arcs"]
    except KeyError as exc:
        raise ValueError(f"mixed graph input is missing key {exc.args[0]!r}") from None
    for name, pairs in (("edges", edges), ("arcs", arcs)):
        if not isinstance(pairs, list) or any(
            not isinstance(p, list) or len(p) != 2 for p in pairs
        ):
            raise ValueError(f"'{name}' must be a list of [u, v] pairs")
    return MixedGraph(n, tuple(tuple(e) for e in edges), tuple(tuple(a) for a in arcs))


def _joined(reach: list[int], a: int, b: int) -> list[int]:
    """reach once the arc a -> b is added: every vertex that reaches a now
    reaches all that b reaches."""
    return [r | reach[b] if r >> a & 1 else r for r in reach]


def _arc_reach(g: MixedGraph) -> list[int] | None:
    """Bit w of entry v is set when v reaches w along the arcs (v reaches
    itself), or None when the arcs contain a directed cycle: an arc a -> b
    closes one exactly when b already reaches a."""
    reach = [1 << v for v in range(g.n + 1)]
    for a, b in g.arcs:
        if reach[b] >> a & 1:
            return None
        reach = _joined(reach, a, b)
    return reach


def is_acyclic_mixed(g: MixedGraph) -> bool:
    """True when the arc set alone contains no directed cycle."""
    return _arc_reach(g) is not None


def count_proper_colorings(g: MixedGraph, t: int, *, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Number of maps V -> {1..t} with different colors across every edge and
    strictly increasing colors along every arc. Brute force with early
    pruning; the budget caps t**n."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t**g.n > budget:
        raise BudgetExceededError(budget, f"{t}^{g.n} color assignments")
    if g.n == 0:
        return 1
    if t == 0:
        return 0
    must_differ: list[list[int]] = [[] for _ in range(g.n + 1)]
    must_exceed: list[list[int]] = [[] for _ in range(g.n + 1)]  # c[w] > c[x]
    must_precede: list[list[int]] = [[] for _ in range(g.n + 1)]  # c[w] < c[x]
    for u, v in g.edges:
        must_differ[v].append(u)
    for u, v in g.arcs:
        if u < v:
            must_exceed[v].append(u)
        else:
            must_precede[u].append(v)
    colors = [0] * (g.n + 1)

    def rec(v: int) -> int:
        if v > g.n:
            return 1
        total = 0
        for c in range(1, t + 1):
            if any(colors[u] == c for u in must_differ[v]):
                continue
            if any(colors[u] >= c for u in must_exceed[v]):
                continue
            if any(colors[x] <= c for x in must_precede[v]):
                continue
            colors[v] = c
            total += rec(v + 1)
        colors[v] = 0
        return total

    return rec(1)


def chromatic_polynomial(g: MixedGraph, *, budget: int = DEFAULT_NODE_BUDGET) -> Poly:
    """Coefficients (constant term first) of the proper-coloring count.

    When the arcs contain a directed cycle there are no proper colorings at
    any t and the zero polynomial (0,) is returned; otherwise the count is a
    polynomial of degree exactly n, recovered by interpolation at t = 0..n.
    The budget caps n**n, the largest sample's assignments, checked before
    the first sample.
    """
    if not is_acyclic_mixed(g):
        return (Fraction(0),)
    if g.n**g.n > budget:
        raise BudgetExceededError(budget, f"{g.n}^{g.n} color assignments")
    points = [(t, count_proper_colorings(g, t, budget=budget)) for t in range(g.n + 1)]
    coeffs = lagrange(points, g.n)
    assert g.n == 0 or coeffs[-1] != 0, "coloring count must have degree n"
    return coeffs


def enumerate_acyclic_orientations(
    g: MixedGraph, *, budget: int = DEFAULT_NODE_BUDGET
) -> tuple[Orientation, ...]:
    """Every orientation of the undirected edges (arcs stay fixed) whose
    union digraph is acyclic, in binary-counter order over the sorted edge
    list: bit i of the counter reverses edge i. An orientation is the tuple
    of directed versions of g.edges.

    A depth-first search decides edge e-1 first and edge 0 last, which lists
    in counter order. Each node keeps, per vertex, the bitmask of vertices
    it reaches (_arc_reach), so a choice that closes a directed cycle is
    dropped together with everything below it."""
    e = len(g.edges)
    if 2**e > budget:
        raise BudgetExceededError(budget, f"2^{e} edge orientations")
    reach = _arc_reach(g)
    if reach is None:
        return ()
    out = []
    chosen: list[tuple[int, int]] = [(0, 0)] * e

    def rec(i, reach):
        if i < 0:
            out.append(tuple(chosen))
            return
        u, v = g.edges[i]
        for a, b in ((u, v), (v, u)):
            if not reach[b] >> a & 1:
                chosen[i] = (a, b)
                rec(i - 1, _joined(reach, a, b))

    rec(e - 1, reach)
    return tuple(out)


def compatible_orientation_count(
    g: MixedGraph,
    coloring,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
    orientations: tuple[Orientation, ...] | None = None,
) -> int:
    """Number of acyclic orientations whose every directed edge u -> v, fixed
    arcs included, satisfies coloring[u] <= coloring[v].

    The coloring is a sequence indexed by vertex - 1 and need not be proper.
    """
    c = tuple(coloring)
    if len(c) != g.n:
        raise ValueError(f"coloring must assign all {g.n} vertices")
    if any(x < 0 for x in c):
        raise ValueError("colors must be non-negative")
    if not all(c[u - 1] <= c[v - 1] for u, v in g.arcs):
        return 0
    if orientations is None:
        orientations = enumerate_acyclic_orientations(g, budget=budget)
    return sum(
        1
        for o in orientations
        if all(c[u - 1] <= c[v - 1] for u, v in o)
    )


@dataclass(frozen=True)
class MixedReciprocityReport:
    n: int
    t: int
    lhs: Fraction  # (-1)^n * chi(-t)
    rhs: int       # multiplicity-weighted count of maps V -> {0..t-1}

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def reciprocity_check_mixed(
    g: MixedGraph, t: int, *, budget: int = DEFAULT_NODE_BUDGET
) -> MixedReciprocityReport:
    """Compare (-1)^n chi(-t) against the number of maps V -> {0..t-1}, each
    counted with its number of compatible acyclic orientations.

    The color values 0..t-1 are the t-coloring convention of the identity;
    shifting all colors leaves compatibility unchanged. Maps that already
    violate an arc weakly have no compatible orientation and are summed with
    multiplicity 0 rather than excluded. The budget caps t**n times the
    number of acyclic orientations, checked before chi is computed.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    orientations = enumerate_acyclic_orientations(g, budget=budget)
    if t**g.n * len(orientations) > budget:
        raise BudgetExceededError(
            budget, f"{t}^{g.n} maps times {len(orientations)} acyclic orientations"
        )
    chi = chromatic_polynomial(g, budget=budget)
    lhs = (-1) ** g.n * poly_eval(chi, -t)
    rhs = sum(
        compatible_orientation_count(g, c, orientations=orientations)
        for c in product(range(t), repeat=g.n)
    )
    return MixedReciprocityReport(g.n, t, lhs, rhs)


def chromatic_number(g: MixedGraph, *, budget: int = DEFAULT_NODE_BUDGET) -> int | None:
    """Least t admitting a proper coloring, or None when the arcs contain a
    directed cycle. Coloring by position in any topological order shows an
    acyclic mixed graph is n-colorable, so the search stops at n."""
    if not is_acyclic_mixed(g):
        return None
    for t in range(g.n + 1):
        if count_proper_colorings(g, t, budget=budget) > 0:
            return t
    raise AssertionError("an acyclic mixed graph is always n-colorable")
