"""Hyperplane normals up to scale: the canonical form in which the test
modules compare normals built by other routes."""

from math import gcd


def canonical_normal(vec) -> tuple[int, ...]:
    """Scale so the entries are coprime and the first nonzero one is positive."""
    g = gcd(*vec)
    if g == 0:
        raise ValueError("the zero vector is not a hyperplane normal")
    scaled = [x // g for x in vec]
    first = next(x for x in scaled if x != 0)
    if first < 0:
        scaled = [-x for x in scaled]
    return tuple(scaled)
