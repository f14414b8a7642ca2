"""The right-hand side of mixed-graph reciprocity by brute force, map by
map and orientation by orientation: the oracle the test modules share."""

from itertools import product

from golomb.mixed_graphs import enumerate_acyclic_orientations


def compatible_orientation_count(g, coloring, orientations=None):
    """Number of acyclic orientations whose every directed edge u -> v, fixed
    arcs included, satisfies coloring[u] <= coloring[v].

    The coloring is a sequence indexed by vertex - 1 and need not be proper.
    """
    c = tuple(coloring)
    assert len(c) == g.n
    if not all(c[u - 1] <= c[v - 1] for u, v in g.arcs):
        return 0
    if orientations is None:
        orientations = enumerate_acyclic_orientations(g)
    return sum(1 for o in orientations if all(c[u - 1] <= c[v - 1] for u, v in o))


def weighted_map_count(g, t):
    """The t^n maps V -> {0..t-1}, each counted with its number of
    compatible acyclic orientations."""
    orientations = enumerate_acyclic_orientations(g)
    return sum(
        compatible_orientation_count(g, c, orientations)
        for c in product(range(t), repeat=g.n)
    )
