"""Equal-measurement-sum hyperplanes inside the standard simplex.

For gap vectors z in R^m, every pair of disjoint proper consecutive index
intervals (U, V) cuts out the linear hyperplane sum(z_U) = sum(z_V). This
module builds that family, one normal 1_U - 1_V per block pair, enumerates
the vertices of the subdivision it induces on the simplex
{z >= 0, sum z = 1} by integer exterior products over a depth-first search
of the constraint subsets that prunes every dependent prefix, and reports
the lcm of the vertex coordinate denominators. The period of the ruler
counting quasipolynomial divides that lcm; equality is observed for small
m but never asserted.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

from golomb.config import resolve_budget
from golomb.errors import BudgetExceededError
from golomb.rulers import Interval, dpcs_pairs

Normal = tuple[int, ...]
Point = tuple[Fraction, ...]


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


def _wedge_terms(m: int) -> tuple[tuple[tuple[tuple[int, int, int], ...], ...], ...]:
    """How appending a row maps a k-vector to a (k+1)-vector, for k < m - 1.

    A k-vector lists the Plücker coordinates of k rows: the k x k
    minors on the column sets of size k, in lexicographic order. Expanding
    the new last row gives the minor on columns t_0 < ... < t_k as
    sum_i (-1)^(k+i) row[t_i] * (minor on the columns without t_i). Entry
    [k][s] lists the (index, sign, column) triples of that sum.
    """
    levels = []
    for k in range(m - 1):
        index = {cols: i for i, cols in enumerate(combinations(range(m), k))}
        levels.append(tuple(
            tuple(
                (index[cols[:i] + cols[i + 1:]], (-1) ** (k + i), col)
                for i, col in enumerate(cols)
            )
            for cols in combinations(range(m), k + 1)
        ))
    return tuple(levels)


def _wedge(p, row, level) -> list[int]:
    """The exterior product of the rows behind `p` with one more row.

    A list, not a tuple: CPython keeps up to 2000 freed tuples of each small
    size for reuse, and the search's short-lived tuples held about 0.1 MiB.
    """
    return [
        sum(sign * row[col] * p[i] for i, sign, col in terms if row[col]) for terms in level
    ]


def _cofactors(p) -> list[int]:
    """Cofactors c of the first row of [1 ... 1; rows], from the (m-1)-vector
    of the rows: c_j = (-1)^j times the minor without column j, so the
    determinant is sum(c) and a unique solution of [1 ... 1; rows] z = e_1
    is z = c / sum(c)."""
    m = len(p)
    return [-p[m - 1 - j] if j % 2 else p[m - 1 - j] for j in range(m)]


def iop_vertices(m: int, *, budget: int | None = None) -> tuple[Point, ...]:
    """Vertices of the subdivision of the simplex by the equal-sum family.

    Every point cut out by the affine hull {sum z = 1} together with m-1 of
    the hyperplanes and facets {z_j = 0}, kept when the linear system has a
    unique solution lying in the closed simplex. Deduplicated and sorted;
    empty for m = 1, and m < 1 is refused.

    The subsets are searched depth first in index order, each node carrying
    the integer exterior product of its rows; a zero product is a dependent
    prefix and is pruned with every extension. The budget caps the number
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
    levels = _wedge_terms(m)
    found: set[tuple[int, ...]] = set()

    def extend(p, start: int, k: int) -> None:
        for i in range(start, n - depth + k + 1):
            q = _wedge(p, constraints[i], levels[k])
            if not any(q):
                continue
            if k + 1 < depth:
                extend(q, i + 1, k + 1)
                continue
            c = _cofactors(q)
            det = sum(c)
            if det < 0:
                c, det = [-x for x in c], -det
            if det and min(c) >= 0:
                # other subsets may cut out the same point at another scale
                g = gcd(*c)
                found.add(tuple(x // g for x in c))

    extend([1], 0, 0)
    points = []
    for c in found:
        det = sum(c)
        points.append(tuple(Fraction(x, det) for x in c))
    return tuple(sorted(points))


def denominator_lcm(points) -> int:
    """lcm of the coordinate denominators of the given points (1 for none)."""
    return lcm(*(c.denominator for point in points for c in point))


def period_bound(m: int, *, budget: int | None = None) -> int:
    """lcm of the coordinate denominators over all subdivision vertices."""
    return denominator_lcm(iop_vertices(m, budget=budget))
