"""Dense polynomials over exact rationals.

Coefficient vectors are tuples of Fraction with the constant term first.
Everything here is small and exact; interpolation never goes past degree
eight in this package, so no effort is spent on being fast.
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


def poly_add(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    n = max(len(p), len(q))
    return tuple(
        (p[i] if i < len(p) else Fraction(0)) + (q[i] if i < len(q) else Fraction(0))
        for i in range(n)
    )


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


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
    total: Poly = (Fraction(0),) * (degree + 1)
    for i, (xi, yi) in enumerate(points):
        num: Poly = (Fraction(1),)
        den = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            num = poly_mul(num, (Fraction(-xj), Fraction(1)))
            den *= xi - xj
        scale = Fraction(yi) / den
        total = poly_add(total, tuple(c * scale for c in num))
    return total


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
