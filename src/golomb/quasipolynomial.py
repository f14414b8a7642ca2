"""Quasipolynomials over exact rationals, built by per-residue interpolation.

A quasipolynomial of period p is p ordinary polynomials, one per residue
class of the argument mod p. Evaluation uses the non-negative residue
convention, so negative arguments land in the residue class the
reciprocity identity expects (with p = 12, t = -1 selects residue 11).

The counting quasipolynomial for Golomb gap vectors with m entries is
produced here by interpolating exhaustive counts: degree m-1, period
taken from the vertex denominator bound unless overridden, samples at
t = 1 .. period*m. Its value at 0 and at negative arguments are outputs of
the interpolated object, never inputs; the raw count at 0 is simply 0,
while the quasipolynomial value at 0 is the number of cells of the
subdivided simplex.

The reciprocity check weighs every non-negative gap vector of total t by
its multiplicity, the number of cell closures holding it. That weight
differs from 1 only on the equal-sum hyperplanes: a vector off all of them
has no zero sign, and moving it along (1, ..., 1) into the open simplex
keeps every sign, so it lies in exactly one closure. The sum is therefore
C(t+m-1, m-1) plus mult(z) - 1 over the points on some hyperplane. Those
are found line by line: on the line z_{m-1} = x, z_m = r - x with a fixed
prefix, each hyperplane is affine in x with slope in -2..2, so it holds the
whole line, meets it in one integer x or misses it. A level costs one walk
over its C(t+m-2, m-2) lines instead of one lookup for each of its
C(t+m-1, m-1) points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Mapping

from golomb.arrangement import golomb_hyperplanes, period_bound
from golomb.config import resolve_budget
from golomb.errors import (
    BudgetExceededError,
    InconsistentValuesError,
    InsufficientPointsError,
    LeadingCoefficientError,
)
from golomb.golomb_graph import _multiplicities
from golomb.ratpoly import (
    Poly,
    format_fraction,
    lagrange,
    poly_degree,
    poly_eval,
)
from golomb.rulers import golomb_counts


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

    @classmethod
    def from_json_dict(cls, data) -> "Quasipolynomial":
        if not isinstance(data, dict) or "period" not in data or "constituents" not in data:
            raise ValueError("expected an object with 'period' and 'constituents'")
        constituents = tuple(
            tuple(Fraction(c) for c in poly) for poly in data["constituents"]
        )
        return cls(data["period"], constituents)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Quasipolynomial":
        return cls.from_json_dict(json.loads(text))


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


def golomb_quasipolynomial(
    m: int, period_hint: int | None = None, *, budget: int | None = None
) -> Quasipolynomial:
    """Counting quasipolynomial for Golomb gap vectors with m entries.

    Interpolates exhaustive counts at t = 1 .. period*m on degree m-1, with
    the period taken from the vertex denominator bound unless a hint is
    given, then verifies that every constituent has leading coefficient
    1/(m-1)!. The counts come from one ruler search; the budget caps its
    nodes, and the constraint subsets behind the period bound.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if period_hint is not None and period_hint < 1:
        raise ValueError("period hint must be >= 1")
    period = period_hint if period_hint is not None else period_bound(m, budget=budget)
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


def _line_forms(m: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """Every hyperplane normal h restricted to the lines z_{m-1} = x,
    z_m = r - x: h.z = h_prefix.(z_1..z_{m-2}) + h_m*r + (h_{m-1} - h_m)*x.
    Returns (h_prefix, h_m, slope) per hyperplane."""
    return tuple((h[: m - 2], h[m - 1], h[m - 2] - h[m - 1]) for h in golomb_hyperplanes(m))


def _weighted_level(m: int, t: int, forms, multiplicity) -> int:
    """Sum of multiplicities over the non-negative gap vectors of total t, by
    lines: C(t+m-1, m-1) counts every vector once, and only the points on
    some hyperplane add their multiplicity minus one. On a line a hyperplane
    is affine in x, so it holds the whole line, one x or none."""
    if m == 1:
        return 1  # no hyperplanes; the single vector (t,) lies in the one cell
    extra = 0

    def walk(depth: int, prefix: tuple[int, ...], slack: int, values: list[int]) -> None:
        nonlocal extra
        if depth == m - 2:
            on_hyperplanes: set[int] | range = set()
            for value, (_, last, slope) in zip(values, forms):
                c = value + last * slack
                if slope == 0:
                    if c == 0:
                        on_hyperplanes = range(slack + 1)
                        break
                else:
                    x, off = divmod(-c, slope)
                    if not off and 0 <= x <= slack:
                        on_hyperplanes.add(x)
            for x in on_hyperplanes:
                extra += multiplicity((*prefix, x, slack - x)) - 1
            return
        for z in range(slack + 1):
            walk(
                depth + 1,
                (*prefix, z),
                slack - z,
                [v + form[0][depth] * z for v, form in zip(values, forms)],
            )

    walk(0, (), t, [0] * len(forms))
    return comb(t + m - 1, m - 1) + extra


def reciprocity_check_golomb(
    m: int, t_values: Iterable[int], *, budget: int | None = None
) -> GolombReciprocityReport:
    """For each t >= 0 compare (-1)^(m-1) q(-t) with the sum of multiplicities
    over all non-negative gap vectors of total t. At t = 0 that sum is the
    zero vector's multiplicity, the number of cells: the origin lies in
    every cell closure.

    A gap vector off every hyperplane has no zero sign, so exactly one cell
    closure holds it (moving it along (1, ..., 1) into the open simplex
    keeps every sign). The sum is therefore C(t+m-1, m-1) plus mult(z) - 1
    over the points on the hyperplanes, found line by line; each distinct t
    walks C(t+m-2, m-2) lines (none for m = 1). Negative t is refused, and
    a line count above the budget raises, before any other work."""
    t_values = list(t_values)
    if any(t < 0 for t in t_values):
        raise ValueError("t values must be >= 0")
    levels = set(t_values)
    lines = sum(comb(t + m - 2, m - 2) for t in levels) if m >= 2 else 0
    limit = resolve_budget(budget)
    if lines > limit:
        raise BudgetExceededError(limit, f"{lines} lines of the golomb reciprocity sum")
    q = golomb_quasipolynomial(m, budget=budget)
    sign = (-1) ** (m - 1)
    multiplicity = _multiplicities(m, budget)
    forms = _line_forms(m)
    rhs = {t: _weighted_level(m, t, forms, multiplicity) for t in levels}
    rows = tuple(ReciprocityRow(t, sign * q.evaluate(-t), rhs[t]) for t in t_values)
    return GolombReciprocityReport(m, rows)
