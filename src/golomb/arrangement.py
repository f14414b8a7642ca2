"""Equal-measurement-sum hyperplanes.

For gap vectors z in R^m, every pair of disjoint proper consecutive index
intervals (U, V) cuts out the linear hyperplane sum(z_U) = sum(z_V). This
module builds that family, one normal 1_U - 1_V per block pair; its
intersection lattice and subdivided simplex are golomb.lattice's.
"""

from __future__ import annotations

from typing import Iterator

Interval = tuple[int, int]
Normal = tuple[int, ...]


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
