"""The intersection lattice joined flat by flat, every mirror included:
the oracle the orbit build of golomb.lattice is checked against. Each
flat is expanded by a join with every hyperplane outside it, as the build
did before it derived one flat of each gap-reversal orbit from the other."""

from operator import itemgetter

from golomb.arrangement import golomb_hyperplanes
from golomb.lattice import _positive_points, _split


def full_lattice(m: int) -> tuple[dict[int, int], int]:
    """mask -> mu(0̂, u) over the flats that meet the open orthant, and the
    joins spent."""
    hypers = golomb_hyperplanes(m)
    masks = [0]
    bases = [tuple((*(int(i == j) for j in range(m)), *(h[i] for h in hypers)) for i in range(m))]
    covers: list[list[int]] = [[]]
    full = (1 << len(hypers)) - 1
    points = {0: [tuple(1 + m * (i == j) for j in range(m)) for i in range(m)]}
    level = [0]
    nodes = 0
    while level:
        index: dict[int, int] = {}
        missed: set[int] = set()
        nxt = []
        reached = {}
        for i in level:
            basis = bases[i]
            if len(basis) == 1:
                continue
            seen = masks[i]
            outside = [k for k in range(len(hypers)) if not seen >> k & 1]
            for k in outside:
                if seen >> k & 1:
                    continue
                nodes += 1
                _, child = _split(basis, itemgetter(m + k))
                nonzero = 0
                for c in child:
                    for j in outside:
                        if c[m + j]:
                            nonzero |= 1 << j
                mask = full ^ nonzero
                seen |= mask
                j = index.get(mask)
                if j is None:
                    if mask in missed:
                        continue
                    found = _positive_points(points[i], hypers[k], child, m)
                    if not found:
                        missed.add(mask)
                        continue
                    j = index[mask] = len(masks)
                    masks.append(mask)
                    bases.append(tuple(child))
                    covers.append([])
                    nxt.append(j)
                    reached[j] = found
                covers[j].append(i)
        level, points = nxt, reached
    below = [0] * len(masks)
    mu = [1] * len(masks)
    for u in range(1, len(masks)):
        down = 0
        for p in covers[u]:
            down |= below[p] | 1 << p
        below[u] = down
        total = 0
        while down:
            low = down & -down
            down ^= low
            total += mu[low.bit_length() - 1]
        mu[u] = -total
    return dict(zip(masks, mu)), nodes
