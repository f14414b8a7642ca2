"""Dense polynomials over exact rationals.

Coefficient vectors are tuples of Fraction with the constant term first.
Everything here is exact. Interpolation takes Newton divided differences
and expands the Newton form by nested multiplication, O(d^2) Fraction
operations for degree d.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Poly = tuple[Fraction, ...]


def poly_eval(coeffs: Sequence[Fraction], t) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def poly_degree(p: Sequence[Fraction]) -> int:
    """Index of the last nonzero coefficient; 0 for the zero polynomial."""
    for i in range(len(p) - 1, -1, -1):
        if p[i] != 0:
            return i
    return 0


def lagrange(points: Sequence[tuple[int, int]], degree: int) -> Poly:
    """Coefficients (length degree+1) of the unique polynomial of degree
    <= degree through degree+1 points with distinct abscissae."""
    if len(points) != degree + 1:
        raise ValueError(f"need exactly {degree + 1} points, got {len(points)}")
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation abscissae must be distinct")
    coef = [Fraction(y) for _, y in points]
    for j in range(1, degree + 1):  # coef[i] becomes f[x_0, ..., x_i]
        for i in range(degree, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    out = [coef[degree]]
    for k in range(degree - 1, -1, -1):  # out <- out * (t - x_k) + coef[k]
        x = xs[k]
        shifted = [out[i - 1] - x * out[i] for i in range(1, len(out))]
        out = [coef[k] - x * out[0], *shifted, out[-1]]
    return tuple(out)


def format_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def poly_str(p: Sequence[Fraction], var: str = "t") -> str:
    """Human-readable rendering, highest power first."""
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0 and not (i == 0 and not parts):
            continue
        mag = format_fraction(abs(c))
        if i == 0:
            term = mag
        elif i == 1:
            term = f"{var}" if abs(c) == 1 else f"{mag}*{var}"
        else:
            term = f"{var}^{i}" if abs(c) == 1 else f"{mag}*{var}^{i}"
        if not parts:
            parts.append(term if c >= 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c >= 0 else f"- {term}")
    return " ".join(parts)
