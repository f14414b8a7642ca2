"""General mixed graphs and their coloring/orientation machinery.

A mixed graph has undirected edges, which force different colors on their
endpoints, and directed arcs, which force strictly increasing colors. The
module provides brute-force proper-coloring counts, the chromatic
polynomial by exact interpolation on the prefix sums of one coloring
search, enumeration of the acyclic orientations of the undirected part
(arcs stay fixed), and the check that evaluating the chromatic polynomial
at negative arguments counts colorings weighted by their number of
compatible acyclic orientations (weakly increasing along every directed
edge); that weighted count is a subset DP over the weak color levels,
which lists no orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb

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
    return sum(_top_color_counts(g, t, budget))


def _top_color_counts(g: MixedGraph, t: int, budget: int) -> list[int]:
    """Entry s is the number of proper colorings V -> {1..t} whose largest
    color is s, for s = 0..t; a proper coloring into {1..s} is one of these
    whose largest color is at most s, so the prefix sums are the counts at
    every t' <= t. Vertices take colors in index order, and a color that
    breaks an edge or an arc to an already colored vertex is never tried
    further. The budget caps t**n."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t**g.n > budget:
        raise BudgetExceededError(budget, f"{t}^{g.n} color assignments")
    counts = [0] * (t + 1)
    if g.n == 0:
        counts[0] = 1
        return counts
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

    def rec(v: int, top: int) -> None:
        for c in range(1, t + 1):
            if any(colors[u] == c for u in must_differ[v]):
                continue
            if any(colors[u] >= c for u in must_exceed[v]):
                continue
            if any(colors[x] <= c for x in must_precede[v]):
                continue
            if v == g.n:
                counts[max(top, c)] += 1
            else:
                colors[v] = c
                rec(v + 1, max(top, c))
        colors[v] = 0

    rec(1, 0)
    return counts


def chromatic_polynomial(g: MixedGraph, *, budget: int = DEFAULT_NODE_BUDGET) -> Poly:
    """Coefficients (constant term first) of the proper-coloring count.

    When the arcs contain a directed cycle there are no proper colorings at
    any t and the zero polynomial (0,) is returned; otherwise the count is a
    polynomial of degree exactly n, recovered by interpolation at t = 0..n.
    All n+1 samples come from one coloring search at t = n, as the prefix
    sums of its counts by largest color. The budget caps n**n, that
    search's assignments, checked before it starts.
    """
    if not is_acyclic_mixed(g):
        return (Fraction(0),)
    if g.n**g.n > budget:
        raise BudgetExceededError(budget, f"{g.n}^{g.n} color assignments")
    points = list(enumerate(accumulate(_top_color_counts(g, g.n, budget))))
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
    shifting all colors leaves compatibility unchanged. The right-hand side
    is sum_k b_k C(t, k) from _level_counts, so no map and no orientation
    is listed. The budget caps 3**n, the (subset, subset) pairs of its two
    subset DPs, checked before chi is computed.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if 3**g.n > budget:
        raise BudgetExceededError(budget, f"3^{g.n} subset pairs of the mixed reciprocity sum")
    chi = chromatic_polynomial(g, budget=budget)
    lhs = (-1) ** g.n * poly_eval(chi, -t)
    rhs = sum(b * comb(t, k) for k, b in enumerate(_level_counts(g)))
    return MixedReciprocityReport(g.n, t, lhs, rhs)


def _level_counts(g: MixedGraph) -> list[int]:
    """Entry k is b_k, the weighted count of the maps that use exactly k
    given color values; a map V -> {0..t-1} uses k of them in C(t, k) ways.

    Such a map is an ordered partition of V into k nonempty levels, one per
    value in increasing order. An orientation is compatible with it exactly
    when no arc enters an earlier level, every edge between two levels
    points to the later one, and each level's own edges are oriented
    acyclically with its arcs fixed: a directed cycle cannot leave a level,
    since no arc or edge returns to an earlier one. So the weight is the
    product of ao[L] over the levels L, and b_k sums it over the ordered
    partitions with no arc entering an earlier level.

    ao[S], the acyclic orientations of the edges inside S with the arcs
    inside S fixed, is by inclusion-exclusion over the nonempty sets I of
    sources: ao[S] = sum (-1)^(|I|+1) ao[S - I] over the I in S that are
    independent (no edge or arc inside I) and that no arc from S - I
    enters; the edges from I to S - I then point away from I. A directed
    cycle of arcs never loses a vertex, so ao is 0 on every set holding one.
    Both sums run over the (subset, subset) pairs of V, 3**n in all.
    """
    n = g.n
    full = (1 << n) - 1
    adjacent = [0] * n  # vertices joined to v by an edge or an arc
    heads = [0] * n     # heads of the arcs leaving v
    tails = [0] * n     # tails of the arcs entering v
    for u, v in g.edges + g.arcs:
        adjacent[u - 1] |= 1 << (v - 1)
        adjacent[v - 1] |= 1 << (u - 1)
    for u, v in g.arcs:
        heads[u - 1] |= 1 << (v - 1)
        tails[v - 1] |= 1 << (u - 1)
    # the same masks for every subset, each from the subset without its lowest vertex
    near, out, into, sign = [0] * (full + 1), [0] * (full + 1), [0] * (full + 1), [-1] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        near[s] = near[rest] | adjacent[v]
        out[s] = out[rest] | heads[v]
        into[s] = into[rest] | tails[v]
        sign[s] = -sign[rest]
    ao = [1] + [0] * full
    levels: list[list[int]] = [[1]] + [[] for _ in range(full)]  # levels[s][k]: b_k of s
    for s in range(1, full + 1):
        total = 0
        sub = s
        while sub:
            if not near[sub] & sub and not into[sub] & s:
                total += sign[sub] * ao[s ^ sub]
            sub = (sub - 1) & s
        ao[s] = total
        by_k = [0] * (s.bit_count() + 1)
        sub = s
        while sub:
            # sub is the last level of s: no arc may leave it for an earlier one
            if ao[sub] and not out[sub] & (s ^ sub):
                for k, b in enumerate(levels[s ^ sub], 1):
                    by_k[k] += ao[sub] * b
            sub = (sub - 1) & s
        levels[s] = by_k
    return levels[full]


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
