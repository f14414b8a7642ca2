from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import golomb.quasipolynomial as quasipolynomial
from golomb.errors import (
    BudgetExceededError,
    InconsistentValuesError,
    InsufficientPointsError,
    LeadingCoefficientError,
)
from golomb.quasipolynomial import (
    Quasipolynomial,
    golomb_quasipolynomial,
    interpolate,
    reciprocity_check_golomb,
)
from golomb.rulers import golomb_counts

from census import census_multiplicities
from compositions import line_forms, multiplicity_sum, weighted_level

# the m=3 counting quasipolynomial, period 12, constant term first
G3_CONSTITUENTS = {
    0: (F(10), F(-4), F(1, 2)),
    1: (F(5, 2), F(-3), F(1, 2)),
    2: (F(6), F(-4), F(1, 2)),
    3: (F(9, 2), F(-3), F(1, 2)),
    4: (F(8), F(-4), F(1, 2)),
    5: (F(5, 2), F(-3), F(1, 2)),
    6: (F(8), F(-4), F(1, 2)),
    7: (F(5, 2), F(-3), F(1, 2)),
    8: (F(8), F(-4), F(1, 2)),
    9: (F(9, 2), F(-3), F(1, 2)),
    10: (F(6), F(-4), F(1, 2)),
    11: (F(5, 2), F(-3), F(1, 2)),
}


def test_interpolate_constant():
    q = interpolate({1: 7, 2: 7, 3: 7}, degree=0, period=1)
    assert q.constituents == ((F(7),),)
    assert q.evaluate(100) == 7


def test_interpolate_g2_by_hand():
    # counts 0, 0, 2, 2 at t = 1..4: odd lengths give t-1, even give t-2
    q = interpolate({1: 0, 2: 0, 3: 2, 4: 2}, degree=1, period=2)
    assert q.constituents[1] == (F(-1), F(1))
    assert q.constituents[0] == (F(-2), F(1))


def test_interpolate_insufficient_points_names_class():
    with pytest.raises(InsufficientPointsError) as info:
        interpolate({1: 0, 3: 2, 4: 2}, degree=1, period=2)
    assert info.value.residue == 0
    assert info.value.need == 2


def test_interpolate_inconsistent_surplus():
    with pytest.raises(InconsistentValuesError) as info:
        interpolate({2: 0, 4: 2, 1: 1, 3: 2, 5: 99}, degree=1, period=2)
    assert info.value.residue == 1
    assert info.value.t == 5


def test_interpolate_rejects_nonpositive_arguments():
    with pytest.raises(ValueError):
        interpolate({0: 1, 1: 1}, degree=0, period=1)


def test_evaluate_reproduces_samples():
    values = golomb_counts(3, 1, 36)
    q = interpolate(values, degree=2, period=12)
    for t, v in values.items():
        assert q.evaluate(t) == v


def test_negative_arguments_use_nonnegative_residues():
    q = golomb_quasipolynomial(3)
    # -1 lands in residue class 11
    assert q.evaluate(-1) == F(1, 2) + 3 + F(5, 2) == 6
    assert q.evaluate(-13) == q.constituents[11][0] - 13 * q.constituents[11][1] + 169 * q.constituents[11][2]


def test_golomb_quasipolynomial_m3_closed_form():
    q = golomb_quasipolynomial(3)
    assert q.period == 12
    for r, coeffs in G3_CONSTITUENTS.items():
        assert q.constituents[r] == coeffs
    assert q.evaluate(0) == 10
    assert q.minimal_period() == 12


def test_golomb_quasipolynomial_small_m():
    q1 = golomb_quasipolynomial(1)
    assert q1.period == 1 and q1.constituents == ((F(1),),)
    q2 = golomb_quasipolynomial(2)
    assert q2.period == 2
    assert q2.constituents[1] == (F(-1), F(1))
    assert q2.constituents[0] == (F(-2), F(1))


def test_leading_coefficients():
    for m in (1, 2, 3):
        q = golomb_quasipolynomial(m)
        expected = F(1, [1, 1, 2][m - 1])
        assert all(c[-1] == expected for c in q.constituents)


def test_wrong_period_hypothesis_is_diagnosed(monkeypatch):
    # period 5 does not divide into the true period 12; the residue classes
    # then mix incompatible counts and interpolation cannot stay consistent
    monkeypatch.setattr(quasipolynomial, "period_bound", lambda m, budget=None: 5)
    with pytest.raises((LeadingCoefficientError, InconsistentValuesError)):
        golomb_quasipolynomial(3)


def test_m3_coefficient_symmetries():
    q = golomb_quasipolynomial(3)
    # the linear coefficient has period 2
    for r in range(12):
        assert q.constituents[r][1] == q.constituents[(r + 2) % 12][1]
    # the constant term agrees at residues r and -r
    for r in range(12):
        assert q.constituents[r][0] == q.constituents[(-r) % 12][0]


def test_quasipolynomial_matches_brute_force_on_held_out_lengths():
    for m in (1, 2, 3):
        q = golomb_quasipolynomial(m)
        used = q.period * m
        counts = golomb_counts(m, used + 1, used + 2 * q.period)
        for t, count in counts.items():
            assert q.evaluate(t) == count


@given(
    period=st.integers(min_value=1, max_value=3),
    degree=st.integers(min_value=0, max_value=2),
    data=st.data(),
)
def test_interpolation_recovers_random_quasipolynomials(period, degree, data):
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=4)
    constituents = tuple(
        tuple(data.draw(coeff) for _ in range(degree + 1)) for _ in range(period)
    )
    q = Quasipolynomial(period, constituents)
    samples = {}
    t = 1
    while any(
        sum(1 for s in samples if s % period == r) < degree + 1 for r in range(period)
    ):
        samples[t] = q.evaluate(t)
        t += 1
    rebuilt = interpolate(samples, degree, period)
    assert rebuilt == q


def test_reciprocity_m2():
    report = reciprocity_check_golomb(2, range(0, 9))
    assert report.ok
    by_t = {row.t: row for row in report.rows}
    assert by_t[0].lhs == by_t[0].rhs == 2
    # lengths 4: rulers (0,4),(1,3),(3,1),(4,0) once each and (2,2) twice
    assert by_t[4].lhs == by_t[4].rhs == 6


def test_reciprocity_m3_at_zero():
    report = reciprocity_check_golomb(3, [0])
    assert report.ok and report.rows[0].rhs == 10


def test_reciprocity_m1():
    report = reciprocity_check_golomb(1, range(1, 6))
    assert report.ok
    assert all(row.lhs == row.rhs == 1 for row in report.rows)


def test_negative_t_is_refused_before_any_work(monkeypatch):
    import golomb.quasipolynomial as quasipolynomial
    from golomb.cli import main

    def no_work(*args, **kwargs):
        raise AssertionError("the quasipolynomial was built although a t is negative")

    monkeypatch.setattr(quasipolynomial, "golomb_quasipolynomial", no_work)
    for t_values in ([2, -1], iter([0, -3])):
        with pytest.raises(ValueError):
            reciprocity_check_golomb(3, t_values)
    assert main(["reciprocity", "golomb", "--m", "4", "--t", "-1"]) == 1


def line_sum(m, t):
    return weighted_level(m, t, line_forms(m), census_multiplicities(m))


def test_line_sums_match_the_composition_oracle():
    for m, t_max in [(1, 40), (2, 30), (3, 25), (4, 20)]:
        lookup = census_multiplicities(m)
        for t in range(t_max + 1):
            assert line_sum(m, t) == multiplicity_sum(m, t, lookup), (m, t)


@settings(max_examples=25)
@given(
    m=st.sampled_from([2, 3]),
    t_values=st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=4),
    data=st.data(),
)
def test_reciprocity_rows_match_the_oracle_in_order(m, t_values, data):
    # repeat one t and shuffle, so duplicated and unsorted levels are covered
    t_values = data.draw(st.permutations(t_values + t_values[:1]))
    report = reciprocity_check_golomb(m, t_values)
    assert report.ok
    assert [row.t for row in report.rows] == t_values
    lookup = census_multiplicities(m)
    for row in report.rows:
        assert row.rhs == multiplicity_sum(m, row.t, lookup)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=40))
def test_line_sum_m4_matches_the_oracle(t):
    assert line_sum(4, t) == multiplicity_sum(4, t, census_multiplicities(4))


def test_pinned_multiplicity_sums():
    # at t = 0 the sum is the number of cells: 114 for m = 4
    assert line_sum(4, 0) == 114
    (row,) = reciprocity_check_golomb(3, [2000]).rows
    assert row.rhs == row.lhs == golomb_quasipolynomial(3).evaluate(-2000) == 2008008


def test_reciprocity_budget_is_checked_before_the_sum(monkeypatch, capsys):
    import golomb.quasipolynomial as quasipolynomial
    from golomb.cli import main

    # m = 2 has two flats, both closed form: two nodes per level, 200 for
    # t = 0..99; its lattice build and ruler search fit too
    assert reciprocity_check_golomb(2, range(100), budget=200).ok
    with pytest.raises(BudgetExceededError, match="golomb reciprocity sum"):
        reciprocity_check_golomb(2, range(100), budget=199)
    # m = 3 has nine flats, none walked: 900 nodes for t = 0..99 and 3600
    # for t = 0..399, against the 3525 of its ruler search, whose floor of
    # 2112 is checked before the sum
    argv = ["reciprocity", "golomb", "--m", "3", "--t-min", "0", "--t-max", "99", "--budget"]
    assert main([*argv, "4000"]) == 0
    assert "t=99: lhs=5202 rhs=5202 ok" in capsys.readouterr().out
    argv[7] = "399"
    assert main([*argv, "3600"]) == 0
    assert "t=399: lhs=80802 rhs=80802 ok" in capsys.readouterr().out

    def no_work(*args, **kwargs):
        raise AssertionError("the quasipolynomial was built although the sum is over budget")

    monkeypatch.setattr(quasipolynomial, "golomb_quasipolynomial", no_work)
    with pytest.raises(BudgetExceededError, match="golomb reciprocity sum"):
        reciprocity_check_golomb(3, range(400), budget=3599)
    assert main([*argv, "3599"]) == 2
    assert capsys.readouterr().out == ""


def test_requests_out_of_reach_are_refused_before_the_lattice(monkeypatch, capsys):
    import golomb.quasipolynomial as quasipolynomial
    from golomb.cli import main

    def no_lattice(*args, **kwargs):
        raise AssertionError("the lattice was built for a request the budget refuses")

    monkeypatch.setattr(quasipolynomial, "orthant_lattice", no_lattice)
    # m = 7: the period bound would try C(133, 6) constraint subsets
    assert main(["reciprocity", "golomb", "--m", "7", "--t", "0"]) == 2
    assert "iop_vertices(m=7)" in capsys.readouterr().err
    # m = 4: the ruler search over t = 1..3360 needs at least 2.6e12 nodes,
    # whatever levels the sum would cover
    argv = ["reciprocity", "golomb", "--m", "4", "--t-min", "0", "--t-max", "100000"]
    assert main(argv) == 2
    assert "golomb ruler search (at least 2603243205420 nodes" in capsys.readouterr().err
