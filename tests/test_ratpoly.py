from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from golomb.ratpoly import lagrange, poly_eval


def poly_add(p, q):
    n = max(len(p), len(q))
    return tuple(
        (p[i] if i < len(p) else Fraction(0)) + (q[i] if i < len(q) else Fraction(0))
        for i in range(n)
    )


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def lagrange_basis(points, degree):
    """The oracle: sum over i of y_i times the i-th Lagrange basis polynomial,
    each expanded by repeated multiplication, O(d^3)."""
    total = (Fraction(0),) * (degree + 1)
    for i, (xi, yi) in enumerate(points):
        num = (Fraction(1),)
        den = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            num = poly_mul(num, (Fraction(-xj), Fraction(1)))
            den *= xi - xj
        scale = Fraction(yi) / den
        total = poly_add(total, tuple(c * scale for c in num))
    return total


@st.composite
def point_sets(draw):
    degree = draw(st.integers(0, 8))
    xs = draw(st.lists(st.integers(-40, 40), min_size=degree + 1, max_size=degree + 1, unique=True))
    ys = draw(st.lists(st.integers(-10**6, 10**6), min_size=degree + 1, max_size=degree + 1))
    return list(zip(xs, ys)), degree


@given(point_sets())
def test_newton_interpolation_matches_the_lagrange_basis(case):
    points, degree = case
    coeffs = lagrange(points, degree)
    assert coeffs == lagrange_basis(points, degree)
    assert len(coeffs) == degree + 1 and all(type(c) is Fraction for c in coeffs)
    assert all(poly_eval(coeffs, x) == y for x, y in points)


def test_interpolation_recovers_a_known_polynomial():
    # t(t - 1)(t - 2)/6 through t = 3, 7, 8, 10
    points = [(t, t * (t - 1) * (t - 2) // 6) for t in (3, 7, 8, 10)]
    assert lagrange(points, 3) == (0, Fraction(1, 3), Fraction(-1, 2), Fraction(1, 6))


def test_interpolation_refuses_bad_point_sets():
    with pytest.raises(ValueError, match="need exactly 3 points, got 2"):
        lagrange([(0, 1), (1, 2)], 2)
    with pytest.raises(ValueError, match="interpolation abscissae must be distinct"):
        lagrange([(0, 1), (0, 2)], 1)
