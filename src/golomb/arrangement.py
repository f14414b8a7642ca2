"""Equal-measurement-sum hyperplanes inside the standard simplex.

For gap vectors z in R^m, every pair of disjoint proper consecutive index
intervals (U, V) cuts out the linear hyperplane sum(z_U) = sum(z_V). This
module builds that family in a canonical deduplicated form, enumerates the
vertices of the subdivision it induces on the simplex {z >= 0, sum z = 1}
by exact rational elimination, and reports the lcm of the vertex coordinate
denominators. The period of the ruler counting quasipolynomial divides that
lcm; equality is observed for small m but never asserted.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from golomb.rulers import dpcs_pairs

Normal = tuple[int, ...]
Point = tuple[Fraction, ...]


def canonical_normal(vec) -> Normal:
    """Scale so the entries are coprime and the first nonzero one is positive."""
    g = gcd(*vec)
    if g == 0:
        raise ValueError("the zero vector is not a hyperplane normal")
    scaled = [x // g for x in vec]
    first = next(x for x in scaled if x != 0)
    if first < 0:
        scaled = [-x for x in scaled]
    return tuple(scaled)


def hyperplane_for_intervals(u, v, m: int) -> Normal:
    """Canonical normal of sum(z_u) = sum(z_v) for disjoint index intervals."""
    vec = [0] * m
    for i in range(u[0], u[1] + 1):
        vec[i - 1] += 1
    for i in range(v[0], v[1] + 1):
        vec[i - 1] -= 1
    return canonical_normal(vec)


def golomb_hyperplanes(m: int) -> tuple[Normal, ...]:
    """One canonical normal per distinct equal-sum equation, sorted.

    Distinct interval pairs never collide after canonicalisation (the
    positive support recovers the left interval), but the dedup pass stays
    so the claim is enforced rather than assumed.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    seen = {hyperplane_for_intervals(u, v, m) for u, v in dpcs_pairs(m)}
    return tuple(sorted(seen))


def _solve_unique(rows, rhs) -> Point | None:
    """Solve a square rational system exactly; None unless the solution is unique."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[r][n] for r in range(n))


def iop_vertices(m: int) -> tuple[Point, ...]:
    """Vertices of the subdivision of the simplex by the equal-sum family.

    Every point cut out by the affine hull {sum z = 1} together with m-1 of
    the hyperplanes and facets {z_j = 0}, kept when the linear system has a
    unique solution lying in the closed simplex. Deduplicated and sorted;
    empty for m < 2.
    """
    if m < 2:
        return ()
    constraints: list[Normal] = list(golomb_hyperplanes(m))
    for j in range(m):
        facet = [0] * m
        facet[j] = 1
        constraints.append(tuple(facet))
    ones = (1,) * m
    rhs = [1] + [0] * (m - 1)
    points: set[Point] = set()
    for subset in combinations(constraints, m - 1):
        sol = _solve_unique([ones, *subset], rhs)
        if sol is not None and all(c >= 0 for c in sol):
            points.add(sol)
    return tuple(sorted(points))


def denominator_lcm(points) -> int:
    """lcm of the coordinate denominators of the given points (1 for none)."""
    return lcm(*(c.denominator for point in points for c in point))


def period_bound(m: int) -> int:
    """lcm of the coordinate denominators over all subdivision vertices."""
    return denominator_lcm(iop_vertices(m))
