"""Multiplicities read off the orientation census: the oracle the test
modules check the intersection lattice against. The census lists every
cell as a total order of the intervals; a non-negative gap vector lies in
the closure of each cell whose hyperplane sides agree with its own
wherever it is off a hyperplane."""

from functools import cache
from itertools import accumulate

from golomb.arrangement import hyperplane_blocks
from golomb.golomb_graph import enumerate_constrained_orientations

blocks = cache(hyperplane_blocks)


def sign_row(m, order) -> tuple[int, ...]:
    """Side of every hyperplane (aligned with golomb_hyperplanes(m)) in the
    cell of a total order of the intervals: -1 when its positive block
    comes first, +1 when its negative block does."""
    pos = {iv: i for i, iv in enumerate(order)}
    return tuple(-1 if pos[left] < pos[right] else 1 for left, right in blocks(m))


@cache
def census_rows(m):
    """The census's orientations, their sign rows (aligned with
    golomb_hyperplanes(m)) and each row's +1 positions as a bit mask."""
    orientations = enumerate_constrained_orientations(m)
    rows = tuple(sign_row(m, o) for o in orientations)
    plus = tuple(sum(1 << k for k, s in enumerate(row) if s > 0) for row in rows)
    return orientations, rows, plus


def point_signs(m, gaps) -> tuple[int, ...]:
    """Sign of normal . z for every hyperplane, from the prefix sums of z:
    the normal's positive block sum minus its negative block sum."""
    prefix = (0, *accumulate(gaps))
    signs = []
    for (a, b), (c, d) in blocks(m):
        diff = prefix[b] - prefix[a - 1] - prefix[d] + prefix[c - 1]
        signs.append((diff > 0) - (diff < 0))
    return tuple(signs)


@cache
def census_multiplicities(m):
    """gaps -> the number of census cells whose closure holds the
    non-negative gap vector gaps, of length m; the zero vector lies in every
    closure. Rows are scanned once per distinct point sign vector."""
    _, _, row_plus = census_rows(m)

    @cache
    def count(point) -> int:
        # the closures that hold the point: every nonzero sign agrees, so
        # the row's +1 positions match the point's on its support
        plus = support = 0
        for k, p in enumerate(point):
            if p:
                support |= 1 << k
                if p > 0:
                    plus |= 1 << k
        return sum(not (plus ^ row) & support for row in row_plus)

    return lambda gaps: count(point_signs(m, gaps))
