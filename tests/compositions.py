"""Gap vectors by brute force, point by point and line by line: the
oracles the test modules share."""

from math import comb

from golomb.arrangement import golomb_hyperplanes


def compositions(total, parts):
    """Non-negative integer vectors of the given length and sum, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head, *rest)


def positive_compositions(m, t):
    """Positive integer vectors of length m and sum t, in lexicographic order."""
    if t < m:
        return []
    return [tuple(g + 1 for g in z) for z in compositions(t - m, m)]


def multiplicity_sum(m, t, multiplicity):
    """The right-hand side of Golomb reciprocity summed point by point: the
    multiplicity of every non-negative gap vector of length m and total t."""
    return sum(multiplicity(z) for z in compositions(t, m))


def line_forms(m: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """Every hyperplane normal h restricted to the lines z_{m-1} = x,
    z_m = r - x: h.z = h_prefix.(z_1..z_{m-2}) + h_m*r + (h_{m-1} - h_m)*x.
    Returns (h_prefix, h_m, slope) per hyperplane."""
    return tuple((h[: m - 2], h[m - 1], h[m - 2] - h[m - 1]) for h in golomb_hyperplanes(m))


def weighted_level(m: int, t: int, forms, multiplicity) -> int:
    """Sum of multiplicities over the non-negative gap vectors of total t, by
    lines: C(t+m-1, m-1) counts every vector once, and only the points on
    some hyperplane add their multiplicity minus one. A vector off every
    hyperplane lies in exactly one cell closure (moving it along
    (1, ..., 1) into the open simplex keeps every sign). On a line a
    hyperplane is affine in x with slope in -2..2, so it holds the whole
    line, one x or none."""
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
