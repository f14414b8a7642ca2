"""The flats of the equal-sum arrangement that meet the open orthant, and the
multiplicities read off them, checked against the orientation census
(tests/census.py), the line walk, the subdivision vertices and brute force
over gap vectors."""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from golomb import golomb_graph, lattice as lattice_module
from golomb.arrangement import golomb_hyperplanes, iop_vertices
from golomb.cli import main
from golomb.errors import BudgetExceededError
from golomb.lattice import _level_counter, multiplicity, orthant_lattice, weighted_counts
from golomb.quasipolynomial import reciprocity_check_golomb

from census import census_multiplicities
from compositions import compositions, line_forms, weighted_level

CELLS = {1: 1, 2: 2, 3: 10, 4: 114, 5: 2608}


def on_mask(m, z) -> int:
    """Bit k set when hyperplane k holds z."""
    return sum(
        1 << k for k, h in enumerate(golomb_hyperplanes(m)) if sum(a * b for a, b in zip(h, z)) == 0
    )


@pytest.mark.parametrize("m", sorted(CELLS))
def test_cells_are_the_mobius_sums(m):
    assert sum(abs(f.mu) for f in orthant_lattice(m).flats) == CELLS[m]


def test_flats_per_rank_and_mobius_signs():
    for m, per_rank in [(1, [1]), (2, [1, 1]), (3, [1, 5, 3]), (4, [1, 15, 44, 20]),
                        (5, [1, 35, 306, 697, 266])]:
        flats = orthant_lattice(m).flats
        assert [sum(f.rank == r for f in flats) for r in range(m)] == per_rank
        assert [f.rank for f in flats] == sorted(f.rank for f in flats)
        assert len({f.mask for f in flats}) == len(flats)
        # mu(0̂, u) alternates in sign with the rank in a geometric lattice
        assert all((-1) ** f.rank * f.mu > 0 for f in flats)


def lattice_rays(m):
    """The rank m-1 flats of orthant_lattice(m), as points of the simplex."""
    rays = set()
    for f in orthant_lattice(m).flats:
        if f.rank == m - 1:
            (b,) = f.basis
            rays.add(tuple(Fraction(x, sum(b)) for x in b))
    return rays


@pytest.mark.parametrize("m", [2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_rays_are_the_interior_vertices(m):
    rays = {k: lattice_rays(k) for k in range(1, m + 1)}
    vertices = iop_vertices(m)
    assert rays[m] == {v for v in vertices if min(v) > 0}
    # on the face of a support K the equal-sum family is the |K| family,
    # so every vertex is a ray of the lattice of its support placed on K
    for v in vertices:
        on_support = tuple(x for x in v if x)
        assert on_support in rays[len(on_support)]


def det(rows) -> int:
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * det([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, x in enumerate(rows[0]) if x
    )


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_bases_are_bases_of_the_integer_points_of_their_flats(m):
    hypers = golomb_hyperplanes(m)
    for f in orthant_lattice(m).flats:
        # the mask is exactly the hyperplanes that vanish on the basis
        assert f.mask == sum(
            1 << k for k, h in enumerate(hypers)
            if all(sum(x * y for x, y in zip(h, b)) == 0 for b in f.basis)
        )
        # and the basis spans every integer point of its span: its maximal
        # minors are coprime
        d = len(f.basis)
        minors = [det([[b[r] for b in f.basis] for r in rows]) for rows in combinations(range(m), d)]
        assert gcd(*minors) == 1


@pytest.mark.parametrize("m, t_max", [(2, 12), (3, 12), (4, 9), (5, 6)])
def test_each_flat_counts_its_points(m, t_max):
    flats = orthant_lattice(m).flats
    counters = [_level_counter(f.basis, lambda n: None) for f in flats]
    for t in range(t_max + 1):
        brute = [0] * len(flats)
        for z in compositions(t, m):
            on = on_mask(m, z)
            for i, f in enumerate(flats):
                brute[i] += not f.mask & ~on
        assert [count(t) for count in counters] == brute, (m, t)


@pytest.mark.parametrize("m, t_max", [(1, 30), (2, 30), (3, 30), (4, 16), (5, 8)])
def test_lattice_sums_match_the_line_walk(m, t_max):
    sums = weighted_counts(orthant_lattice(m), range(t_max + 1), 10**9)
    lookup = census_multiplicities(m)
    for t in range(t_max + 1):
        assert sums[t] == weighted_level(m, t, line_forms(m), lookup), (m, t)


@pytest.mark.parametrize("m, t_max", [(1, 20), (2, 20), (3, 12), (4, 9), (5, 6)])
def test_lattice_multiplicities_match_the_census(m, t_max):
    lookup = census_multiplicities(m)
    for t in range(1, t_max + 1):
        for z in compositions(t, m):
            assert multiplicity(z) == lookup(z), z


def test_multiplicity_refuses_vectors_longer_than_six(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a lattice was built above the enumeration bound")

    monkeypatch.setattr(lattice_module, "_build", no_build)
    with pytest.raises(ValueError, match="m=7 is above the enumeration bound 6"):
        multiplicity((1, 2, 3, 4, 5, 6, 7))
    with pytest.raises(ValueError, match="m=7 is above the enumeration bound 6"):
        orthant_lattice(7)


def test_multiplicity_never_runs_the_census(monkeypatch):
    def no_census(*args, **kwargs):
        raise AssertionError("multiplicity ran the orientation census")

    monkeypatch.setattr(golomb_graph, "_enumerate_orders", no_census)
    monkeypatch.setattr(lattice_module, "_LATTICES", {})
    gaps = [(7,), (2, 2), (1, 1, 1), (1, 2, 3, 5), (1, 1, 1, 1, 1)]
    assert [multiplicity(z) for z in gaps] == [1, 2, 6, 4, 250]


def test_cached_lattice_honors_a_later_budget(monkeypatch):
    # the m = 4 build spends 431 joins; a cached lattice answers every later
    # budget as a fresh build would
    monkeypatch.setattr(lattice_module, "_LATTICES", {})
    for _ in ("fresh", "cached"):
        with pytest.raises(BudgetExceededError, match="budget of 430 nodes exceeded in intersection lattice"):
            multiplicity((1, 2, 3, 5), budget=430)
        assert multiplicity((1, 2, 3, 5), budget=431) == 4
    assert list(lattice_module._LATTICES) == [4]


def test_reciprocity_sum_charges_every_walked_value():
    # m = 4, t = 0..9: 800 nodes for the 80 flats at ten levels, and 685
    # for the values the 15 flats of dimension 3 walk on their first free
    # coordinate
    lattice = orthant_lattice(4)
    expected = weighted_counts(lattice, range(10), 1485)
    with pytest.raises(BudgetExceededError, match="golomb reciprocity sum"):
        weighted_counts(lattice, range(10), 1484)
    lookup = census_multiplicities(4)
    assert expected == {t: sum(lookup(z) for z in compositions(t, 4)) for t in range(10)}


def test_lattice_budget_boundary():
    assert (len(orthant_lattice(5).flats), orthant_lattice(5).nodes) == (1305, 13320)
    assert orthant_lattice(4).nodes == 431
    assert orthant_lattice(4, budget=431) == orthant_lattice(4)
    with pytest.raises(BudgetExceededError, match="budget of 430 nodes exceeded in intersection lattice"):
        orthant_lattice(4, budget=430)


def test_lattice_stops_at_the_first_join_over_budget(monkeypatch):
    joins = []
    original = lattice_module._split

    def counted(columns, form):
        joins.append(form)
        return original(columns, form)

    monkeypatch.setattr(lattice_module, "_split", counted)
    monkeypatch.setattr(lattice_module, "_LATTICES", {})
    with pytest.raises(BudgetExceededError):
        orthant_lattice(5, budget=100)
    assert len(joins) == 100


def test_reciprocity_passes_its_budget_to_the_lattice(monkeypatch):
    import golomb.quasipolynomial as quasipolynomial

    budgets = []

    def recorded(m, *, budget=None):
        budgets.append(budget)
        return orthant_lattice(m, budget=budget)

    monkeypatch.setattr(quasipolynomial, "orthant_lattice", recorded)
    assert reciprocity_check_golomb(3, [0, 5], budget=10**6).ok
    assert budgets == [10**6]


def test_reciprocity_needs_no_census(monkeypatch, capsys):
    def no_census(*args, **kwargs):
        raise AssertionError("the reciprocity sum ran the orientation census")

    monkeypatch.setattr(golomb_graph, "_enumerate_orders", no_census)
    monkeypatch.setattr(golomb_graph, "_TABLES", {})
    for m in (1, 2, 3):
        report = reciprocity_check_golomb(m, range(13))
        assert report.ok
        assert report.rows[0].rhs == CELLS[m]
    argv = ["reciprocity", "golomb", "--m", "3", "--t-min", "0", "--t-max", "70"]
    assert main(argv) == 0
    assert "t=70:" in capsys.readouterr().out


@pytest.mark.slow
def test_m6_cells_by_the_lattice():
    # the m = 6 cell count through neither the census search nor its simplex
    lattice = orthant_lattice(6)
    assert (len(lattice.flats), lattice.nodes) == (36519, 633589)
    assert sum(abs(f.mu) for f in lattice.flats) == 107498
