"""Equal-measurement-sum hyperplanes inside the standard simplex.

For gap vectors z in R^m, every pair of disjoint proper consecutive index
intervals (U, V) cuts out the linear hyperplane sum(z_U) = sum(z_V). This
module builds that family, one normal 1_U - 1_V per block pair, enumerates
the vertices of the subdivision it induces on the simplex
{z >= 0, sum z = 1} by unimodular column reduction over a depth-first
search of the constraint subsets that prunes every dependent prefix, and
reports the lcm of the vertex coordinate denominators. The period of the
ruler counting quasipolynomial divides that lcm; equality is observed for
small m but never asserted. The same column reduction, _split, joins the
flats of the intersection lattice in golomb.lattice.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import mul
from typing import Iterator

from golomb.config import resolve_budget
from golomb.errors import BudgetExceededError

Interval = tuple[int, int]
Normal = tuple[int, ...]
Vector = tuple[int, ...]
Point = tuple[Fraction, ...]


def dpcs_pairs(m: int) -> Iterator[tuple[Interval, Interval]]:
    """All pairs of disjoint proper consecutive index intervals
    ((a, b), (c, d)) with 1 <= a <= b < c <= d <= m."""
    for b in range(1, m):
        for a in range(1, b + 1):
            for c in range(b + 1, m + 1):
                for d in range(c, m + 1):
                    yield (a, b), (c, d)


def _normal(blocks: tuple[Interval, Interval], m: int) -> Normal:
    """1_U - 1_V for blocks (U, V): entries 0 and +-1, U's +1 first."""
    (a, b), (c, d) = blocks
    return tuple(1 if a <= i <= b else -1 if c <= i <= d else 0 for i in range(1, m + 1))


def hyperplane_blocks(m: int) -> tuple[tuple[Interval, Interval], ...]:
    """(U, V), U left of V, for every equal-sum hyperplane sum(z_U) = sum(z_V)
    in the order of golomb_hyperplanes: distinct pairs give distinct
    normals, since the +1 entries recover U and the -1 entries V."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return tuple(sorted(dpcs_pairs(m), key=lambda blocks: _normal(blocks, m)))


def golomb_hyperplanes(m: int) -> tuple[Normal, ...]:
    """The normal 1_U - 1_V of every equal-sum hyperplane, sorted; its
    first nonzero entry is +1 and its entries are coprime."""
    return tuple(_normal(blocks, m) for blocks in hyperplane_blocks(m))


def _split(columns, value) -> tuple[Vector | None, list[Vector]]:
    """Unimodular column reduction of `columns` against a linear map, value:
    the columns become one pivot, whose value is the gcd g > 0 of the
    values, and columns on which the map vanishes; together they span the
    same lattice. The pivot is None when the map vanishes on every column."""
    rest, live = [], []
    for c in columns:
        v = value(c)
        if v:
            live.append((v, c))
        else:
            rest.append(c)
    while len(live) > 1:
        live.sort(key=lambda vc: abs(vc[0]))
        v0, c0 = live[0]
        kept = [live[0]]
        for v, c in live[1:]:
            q = v // v0
            c = tuple(a - q * b for a, b in zip(c, c0))
            if v - q * v0:
                kept.append((v - q * v0, c))
            else:
                rest.append(c)
        live = kept
    if not live:
        return None, rest
    v, c = live[0]
    return (c if v > 0 else tuple(-a for a in c)), rest


def iop_vertices(m: int, *, budget: int | None = None) -> tuple[Point, ...]:
    """Vertices of the subdivision of the simplex by the equal-sum family.

    Every point cut out by the affine hull {sum z = 1} together with m-1 of
    the hyperplanes and facets {z_j = 0}, kept when the linear system has a
    unique solution lying in the closed simplex. Deduplicated and sorted;
    empty for m = 1, and m < 1 is refused.

    The subsets are searched depth first in index order, each node carrying
    a basis of the integer points of its rows' kernel, reduced by _split as
    each row joins; a row without a pivot is a dependent prefix and is
    pruned with every extension. At full depth the one column left is the
    primitive direction of the candidate point. The budget caps the number
    of subsets, C(#constraints, m-1), and is checked before any work; no
    budget means that of resolve_budget, as for every other search.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return ()
    constraints: list[Normal] = list(golomb_hyperplanes(m))
    for j in range(m):
        facet = [0] * m
        facet[j] = 1
        constraints.append(tuple(facet))
    n, depth = len(constraints), m - 1
    subsets = comb(n, depth)
    limit = resolve_budget(budget)
    if subsets > limit:
        raise BudgetExceededError(
            limit, f"iop_vertices(m={m}): C({n}, {depth}) = {subsets} constraint subsets"
        )
    found: set[Vector] = set()

    def extend(basis, start: int, k: int) -> None:
        for i in range(start, n - depth + k + 1):
            row = constraints[i]
            pivot, rest = _split(basis, lambda c: sum(map(mul, row, c)))
            if pivot is None:
                continue
            if k + 1 < depth:
                extend(rest, i + 1, k + 1)
                continue
            (c,) = rest
            if sum(c) < 0:
                c = tuple(-x for x in c)
            # other subsets may cut out the same point
            if sum(c) and min(c) >= 0:
                found.add(c)

    extend([tuple(int(i == j) for j in range(m)) for i in range(m)], 0, 0)
    points = []
    for c in found:
        s = sum(c)
        points.append(tuple(Fraction(x, s) for x in c))
    return tuple(sorted(points))


def denominator_lcm(points) -> int:
    """lcm of the coordinate denominators of the given points (1 for none)."""
    return lcm(*(c.denominator for point in points for c in point))


def period_bound(m: int, *, budget: int | None = None) -> int:
    """lcm of the coordinate denominators over all subdivision vertices."""
    return denominator_lcm(iop_vertices(m, budget=budget))
