"""Gap vectors by brute force: the point-by-point oracles the test modules
share."""


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
