"""Quasipolynomials over exact rationals, built by per-residue interpolation.

A quasipolynomial of period p is p ordinary polynomials, one per residue
class of the argument mod p. Evaluation uses the non-negative residue
convention, so negative arguments land in the residue class the
reciprocity identity expects (with p = 12, t = -1 selects residue 11).

The counting quasipolynomial for Golomb gap vectors with m entries is
produced here by interpolating exhaustive counts: degree m-1, period
the vertex denominator bound, samples at t = 1 .. period*m. Its value at 0
and at negative arguments are outputs of the interpolated object, never
inputs; the raw count at 0 is simply 0, while the quasipolynomial value at
0 is the number of cells of the subdivided simplex.

The reciprocity check weighs every non-negative gap vector of total t by
its multiplicity, the number of cell closures holding it, and sums those
weights from the intersection lattice (Beck-Zaslavsky inside-out
polytopes): rhs(t) = sum of |mu(0̂, u)| * N_u(t) over the flats u of the
equal-sum arrangement that meet the open orthant, where N_u(t) counts the
non-negative integer points of u with sum t. Near z only the hyperplanes
through z matter, and by Zaslavsky's theorem the closures holding z number
sum |mu(0̂, u)| over the flats through z that meet the open cone of
directions keeping z's zero coordinates positive; a flat through z meets
that cone exactly when it meets the open orthant (add a large multiple of
z to a direction in the cone, or read a positive point as a direction),
so mult(z) is that sum over the lattice's flats through z. Exchanging the
two sums gives rhs(t). The lattice module builds the flats and counts
N_u(t): a binomial for R^m, closed form for flats of dimension 2 or less,
a walk over all but one free coordinate above that. The two sides stay
independent: the left comes from ruler counts by interpolation, the right
from the lattice, and neither reads the orientation census.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Mapping

from golomb.errors import (
    DEFAULT_NODE_BUDGET,
    InconsistentValuesError,
    InsufficientPointsError,
    LeadingCoefficientError,
)
from golomb.lattice import orthant_lattice, period_bound, weighted_counts
from golomb.ratpoly import (
    Poly,
    format_fraction,
    lagrange,
    poly_degree,
    poly_eval,
)
from golomb.rulers import check_node_floor, golomb_counts


@dataclass(frozen=True)
class Quasipolynomial:
    period: int
    constituents: tuple[Poly, ...]

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be positive")
        if len(self.constituents) != self.period:
            raise ValueError("need exactly one constituent per residue class")
        if any(len(c) == 0 for c in self.constituents):
            raise ValueError("constituents must be nonempty coefficient tuples")

    def evaluate(self, t: int) -> Fraction:
        """Value at any integer t; t % period is never negative in Python, so
        negative arguments pick the intended residue class."""
        return poly_eval(self.constituents[t % self.period], t)

    @property
    def degree(self) -> int:
        return max(poly_degree(c) for c in self.constituents)

    def minimal_period(self) -> int:
        """Smallest divisor p of the stored period such that constituents
        agreeing mod p are identical. Minimal for the stored data; nothing
        is claimed about periods the data cannot see."""
        for p in range(1, self.period + 1):
            if self.period % p:
                continue
            if all(self.constituents[r] == self.constituents[r % p] for r in range(self.period)):
                return p
        return self.period

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "constituents": [[format_fraction(c) for c in poly] for poly in self.constituents],
        }


def interpolate(values: Mapping[int, int], degree: int, period: int) -> Quasipolynomial:
    """Per-residue interpolation of counting data under a degree and period
    hypothesis.

    Every residue class mod period needs at least degree+1 samples, all with
    t >= 1. Surplus samples must lie on the class polynomial, otherwise the
    hypothesis is rejected; either failure names the offending class.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if period < 1:
        raise ValueError("period must be >= 1")
    if any(t < 1 for t in values):
        raise ValueError("sample arguments must be >= 1")
    constituents = []
    for r in range(period):
        pts = sorted((t, v) for t, v in values.items() if t % period == r)
        if len(pts) < degree + 1:
            raise InsufficientPointsError(r, len(pts), degree + 1)
        coeffs = lagrange(pts[: degree + 1], degree)
        for t, v in pts[degree + 1 :]:
            predicted = poly_eval(coeffs, t)
            if predicted != v:
                raise InconsistentValuesError(r, t, predicted, v)
        constituents.append(coeffs)
    return Quasipolynomial(period, tuple(constituents))


def golomb_quasipolynomial(m: int, *, budget: int = DEFAULT_NODE_BUDGET) -> Quasipolynomial:
    """Counting quasipolynomial for Golomb gap vectors with m entries, on
    the period period_bound(m). The budget caps the lattice joins behind
    the period bound and the nodes of the one ruler search; the search's
    node floor at the least period the bound can be is checked before
    either (_check_least_period_floor)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_least_period_floor(m, budget)
    return _interpolate_counts(m, period_bound(m, budget=budget), budget)


def _check_least_period_floor(m: int, budget: int) -> None:
    """Refuse, before any lattice is built, a ruler search that no
    period bound can make fit. For each k <= m the point (1/k, ..., 1/k, 0,
    ..., 0) with k nonzero entries is a subdivision vertex, cut out by the
    hyperplanes z_i = z_(i+1) for i < k and the facets z_j = 0 for j > k,
    so lcm(1..m) divides period_bound(m), and the samples reach at least
    t = m * lcm(1..m). The floor there exceeds 10^9 nodes for m = 5 and 6,
    and is at most 510 for m <= 4."""
    check_node_floor(m, 1, m * lcm(*range(1, m + 1)), budget)


def _interpolate_counts(m: int, period: int, budget: int) -> Quasipolynomial:
    """Interpolates exhaustive counts at t = 1 .. period*m on degree m-1,
    then verifies that every constituent has leading coefficient 1/(m-1)!.
    The counts come from one ruler search."""
    q = interpolate(golomb_counts(m, 1, period * m, budget=budget), m - 1, period)
    expected = Fraction(1, factorial(m - 1))
    for r, coeffs in enumerate(q.constituents):
        if coeffs[-1] != expected:
            raise LeadingCoefficientError(
                f"residue {r}: leading coefficient {format_fraction(coeffs[-1])}, "
                f"expected {format_fraction(expected)}; wrong period hypothesis or a counting bug"
            )
    return q


@dataclass(frozen=True)
class ReciprocityRow:
    t: int
    lhs: Fraction  # (-1)^(m-1) * q(-t)
    rhs: int       # multiplicity-weighted count of the gap vectors of total t

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class GolombReciprocityReport:
    m: int
    rows: tuple[ReciprocityRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def reciprocity_check_golomb(
    m: int, t_values: Iterable[int], *, budget: int = DEFAULT_NODE_BUDGET
) -> GolombReciprocityReport:
    """For each t >= 0 compare (-1)^(m-1) q(-t) with the sum of multiplicities
    over all non-negative gap vectors of total t. At t = 0 that sum is the
    zero vector's multiplicity, the number of cells: the origin lies in
    every cell closure.

    The sum is sum over u of |mu(0̂, u)| * N_u(t), over the flats u of the
    equal-sum arrangement that meet the open orthant, with N_u(t) the
    non-negative integer points of u of sum t: mult(z) is sum |mu(0̂, u)|
    over those flats through z (see the module docstring). Negative t is
    refused before any work. The budget caps, each on its own, the joins of
    each lattice build, the ruler search and the sum (one node per flat and
    distinct level, plus one per value a flat's walk visits; see
    lattice.weighted_counts). The ruler search's node floor at the least
    possible period comes first, then the lattices of k <= m behind the
    period bound, the node floor for the sample range and the sum, and
    only then the ruler search and the interpolation."""
    t_values = list(t_values)
    if any(t < 0 for t in t_values):
        raise ValueError("t values must be >= 0")
    _check_least_period_floor(m, budget)
    period = period_bound(m, budget=budget)
    check_node_floor(m, 1, period * m, budget)
    rhs = weighted_counts(orthant_lattice(m, budget=budget), set(t_values), budget)
    q = _interpolate_counts(m, period, budget)
    sign = (-1) ** (m - 1)
    rows = tuple(ReciprocityRow(t, sign * q.evaluate(-t), rhs[t]) for t in t_values)
    return GolombReciprocityReport(m, rows)
