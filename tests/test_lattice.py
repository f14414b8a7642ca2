"""The flats of the equal-sum arrangement that meet the open orthant, checked
against the orientation census, the line walk, the subdivision vertices and
brute force over gap vectors."""

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd

import pytest

from golomb import golomb_graph, lattice as lattice_module
from golomb.arrangement import golomb_hyperplanes, iop_vertices
from golomb.cli import main
from golomb.errors import BudgetExceededError
from golomb.golomb_graph import _multiplicities
from golomb.lattice import _level_counter, orthant_lattice, weighted_counts
from golomb.quasipolynomial import reciprocity_check_golomb

from compositions import compositions, line_forms, weighted_level

CELLS = {1: 1, 2: 2, 3: 10, 4: 114, 5: 2608}


@cache
def lattice(m):
    return orthant_lattice(m)


def on_mask(m, z) -> int:
    """Bit k set when hyperplane k holds z."""
    return sum(
        1 << k for k, h in enumerate(golomb_hyperplanes(m)) if sum(a * b for a, b in zip(h, z)) == 0
    )


def lattice_multiplicity(m, z) -> int:
    """sum of |mu| over the flats through z."""
    on = on_mask(m, z)
    return sum(abs(f.mu) for f in lattice(m).flats if not f.mask & ~on)


@pytest.mark.parametrize("m", sorted(CELLS))
def test_cells_are_the_mobius_sums(m):
    assert sum(abs(f.mu) for f in lattice(m).flats) == CELLS[m]


def test_flats_per_rank_and_mobius_signs():
    for m, per_rank in [(1, [1]), (2, [1, 1]), (3, [1, 5, 3]), (4, [1, 15, 44, 20]),
                        (5, [1, 35, 306, 697, 266])]:
        flats = lattice(m).flats
        assert [sum(f.rank == r for f in flats) for r in range(m)] == per_rank
        assert [f.rank for f in flats] == sorted(f.rank for f in flats)
        assert len({f.mask for f in flats}) == len(flats)
        # mu(0̂, u) alternates in sign with the rank in a geometric lattice
        assert all((-1) ** f.rank * f.mu > 0 for f in flats)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_rays_are_the_interior_vertices(m):
    rays = set()
    for f in lattice(m).flats:
        if f.rank == m - 1:
            (b,) = f.basis
            rays.add(tuple(Fraction(x, sum(b)) for x in b))
    assert rays == {v for v in iop_vertices(m) if min(v) > 0}


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
    for f in lattice(m).flats:
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
    flats = lattice(m).flats
    counters = [_level_counter(f.basis) for f in flats]
    for t in range(t_max + 1):
        brute = [0] * len(flats)
        for z in compositions(t, m):
            on = on_mask(m, z)
            for i, f in enumerate(flats):
                brute[i] += not f.mask & ~on
        assert [count(t) for count in counters] == brute, (m, t)


@pytest.mark.parametrize("m, t_max", [(1, 30), (2, 30), (3, 30), (4, 16), (5, 8)])
def test_lattice_sums_match_the_line_walk(m, t_max):
    sums = weighted_counts(lattice(m), range(t_max + 1))
    lookup = _multiplicities(m)
    for t in range(t_max + 1):
        assert sums[t] == weighted_level(m, t, line_forms(m), lookup), (m, t)


@pytest.mark.parametrize("m, t_max", [(1, 20), (2, 20), (3, 12), (4, 9)])
def test_lattice_multiplicities_match_the_census(m, t_max):
    lookup = _multiplicities(m)
    for t in range(t_max + 1):
        for z in compositions(t, m):
            assert lattice_multiplicity(m, z) == lookup(z), z


def test_lattice_budget_boundary():
    assert lattice(4).nodes == 431
    assert orthant_lattice(4, budget=431) == lattice(4)
    with pytest.raises(BudgetExceededError, match="budget of 430 nodes exceeded in intersection lattice"):
        orthant_lattice(4, budget=430)


def test_lattice_stops_at_the_first_join_over_budget(monkeypatch):
    joins = []
    original = lattice_module._split

    def counted(columns, form):
        joins.append(form)
        return original(columns, form)

    monkeypatch.setattr(lattice_module, "_split", counted)
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

    monkeypatch.setattr(golomb_graph, "_census", no_census)
    monkeypatch.setattr(golomb_graph, "_TABLES", {})
    for m in (1, 2, 3):
        report = reciprocity_check_golomb(m, range(13))
        assert report.ok
        assert report.rows[0].rhs == CELLS[m]
    argv = ["reciprocity", "golomb", "--m", "3", "--t-min", "0", "--t-max", "70"]
    assert main(argv) == 0
    assert "t=70:" in capsys.readouterr().out
