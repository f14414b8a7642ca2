from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from golomb import simplex
from golomb.simplex import strict_cone_feasibility


def primal_phase1_feasible(rows) -> bool:
    """Independent slow route: phase 1 on the primal side {A z >= 1}.

    z = u - w with u, w >= 0, one surplus and one artificial column per row,
    exact Fraction pivots with Bland's rule. Its verdict is confirmed by a
    witness or a Farkas vector of its own before it is returned.
    """
    n, m = len(rows), len(rows[0])
    width = 2 * m + 2 * n
    tab = []
    for i, row in enumerate(rows):
        r = [Fraction(0)] * (width + 1)
        for j, c in enumerate(row):
            r[j] = Fraction(c)
            r[m + j] = Fraction(-c)
        r[2 * m + i] = Fraction(-1)
        r[2 * m + n + i] = Fraction(1)
        r[width] = Fraction(1)
        tab.append(r)
    basis = [2 * m + n + i for i in range(n)]
    obj = [sum(r[j] for r in tab) for j in range(width + 1)]
    while True:
        col = next((j for j in range(2 * m + n) if obj[j] > 0), None)
        if col is None:
            break
        candidates = [i for i in range(n) if tab[i][col] > 0]
        piv = min(candidates, key=lambda i: (tab[i][width] / tab[i][col], basis[i]))
        pivot_row = [x / tab[piv][col] for x in tab[piv]]
        tab[piv] = pivot_row
        for i in range(n):
            if i != piv and tab[i][col]:
                f = tab[i][col]
                tab[i] = [a - f * b for a, b in zip(tab[i], pivot_row)]
        f = obj[col]
        obj = [a - f * b for a, b in zip(obj, pivot_row)]
        basis[piv] = col
    if obj[width] == 0:
        values = [Fraction(0)] * width
        for i, b in enumerate(basis):
            values[b] = tab[i][width]
        z = [values[j] - values[m + j] for j in range(m)]
        assert all(sum(c * x for c, x in zip(row, z)) >= 1 for row in rows)
        return True
    # the surplus reduced costs give the Farkas vector up to sign
    for sign in (1, -1):
        y = [sign * obj[2 * m + i] for i in range(n)]
        if all(v >= 0 for v in y) and sum(y) > 0 and all(
            sum(y[i] * rows[i][j] for i in range(n)) == 0 for j in range(m)
        ):
            return False
    raise AssertionError("primal oracle produced no valid certificate")


def brute_rational_witness(rows, denominator=2, span=2):
    """Tiny grid search for a strictly feasible point; None if none found."""
    m = len(rows[0])
    grid = [Fraction(k, denominator) for k in range(-span * denominator, span * denominator + 1)]

    def search(prefix):
        if len(prefix) == m:
            return prefix if all(sum(c * x for c, x in zip(r, prefix)) > 0 for r in rows) else None
        for val in grid:
            hit = search(prefix + (val,))
            if hit:
                return hit
        return None

    return search(())


def test_empty_system_is_feasible():
    assert strict_cone_feasibility([])


def test_simple_feasible():
    result = strict_cone_feasibility([(1, 0), (0, 1), (1, -1)])
    assert result.feasible
    z = result.witness
    assert z[0] >= 1 and z[1] >= 1 and z[0] - z[1] >= 1


def test_simple_infeasible_with_certificate():
    result = strict_cone_feasibility([(1, -1), (-1, 1)])
    assert not result.feasible
    y = result.certificate
    assert all(v >= 0 for v in y) and sum(y) > 0
    assert y[0] == y[1]


def test_opposite_pair_infeasible():
    assert not strict_cone_feasibility([(1,), (-1,)])
    assert strict_cone_feasibility([(1,)])
    assert strict_cone_feasibility([(-1,)])


def test_transitive_chain_infeasible():
    # x > y, y > z, z > x
    rows = [(1, -1, 0), (0, 1, -1), (-1, 0, 1)]
    result = strict_cone_feasibility(rows)
    assert not result.feasible


def test_additive_infeasibility():
    # z1 < z3, z2 < z4, yet z1 + z2 > z3 + z4
    rows = [(-1, 0, 1, 0), (0, -1, 0, 1), (1, 1, -1, -1)]
    assert not strict_cone_feasibility(rows)


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        strict_cone_feasibility([(1, 0), (1,)])


@given(
    st.lists(
        st.tuples(*(st.integers(min_value=-2, max_value=2) for _ in range(3))),
        min_size=1,
        max_size=5,
    )
)
def test_against_grid_search(rows):
    rows = [r for r in rows if any(r)]
    if not rows:
        return
    result = strict_cone_feasibility(rows)
    grid_hit = brute_rational_witness(rows)
    if grid_hit is not None:
        assert result.feasible
    if result.feasible:
        assert all(sum(c * x for c, x in zip(r, result.witness)) >= 1 for r in rows)
    else:
        y = result.certificate
        assert all(v >= 0 for v in y) and sum(y) > 0
        for j in range(3):
            assert sum(y[i] * rows[i][j] for i in range(len(rows))) == 0


def assert_certified(rows, result):
    if result.feasible:
        assert all(sum(c * x for c, x in zip(r, result.witness)) >= 1 for r in rows)
    else:
        y = result.certificate
        assert len(y) == len(rows)
        assert all(v >= 0 for v in y) and sum(y) == 1
        for col in zip(*rows):
            assert sum(v * c for v, c in zip(y, col)) == 0


@st.composite
def integer_systems(draw):
    """Small integer systems, with zero, duplicated and opposite rows mixed in."""
    m = draw(st.integers(min_value=1, max_value=4))
    entry = st.integers(min_value=-3, max_value=3)
    rows = draw(st.lists(st.tuples(*([entry] * m)), min_size=1, max_size=6))
    extras = draw(st.lists(st.sampled_from(("zero", "duplicate", "opposite")), max_size=2))
    for kind in extras:
        base = rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))]
        rows.append(
            (0,) * m if kind == "zero" else base if kind == "duplicate" else tuple(-c for c in base)
        )
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order]


@given(integer_systems())
def test_verdict_matches_primal_oracle(rows):
    result = strict_cone_feasibility(rows)
    assert result.feasible == primal_phase1_feasible(rows)
    assert_certified(rows, result)


@pytest.mark.parametrize(
    "rows, feasible",
    [
        ([(0,)], False),
        ([(2,), (3,)], True),
        ([(1,), (1,), (-1,)], False),
        ([(1, 2), (0, 0), (3, 1)], False),
        ([(1, 2), (1, 2)], True),
        ([(1, 2), (-1, -2)], False),
        ([(1, 0, -1), (1, 0, -1), (0, 1, 0)], True),
    ],
)
def test_degenerate_systems(rows, feasible):
    result = strict_cone_feasibility(rows)
    assert result.feasible == feasible == primal_phase1_feasible(rows)
    assert_certified(rows, result)


def test_integer_rechecks_reject_corruption():
    rows = [(1, -1), (-1, 1)]
    assert simplex._verify_certificate(rows, [1, 1])
    assert not simplex._verify_certificate(rows, [1, 2])
    assert not simplex._verify_certificate(rows, [0, 0])
    assert not simplex._verify_certificate([(1,), (0,)], [-1, 1])
    rows = [(1, 0), (0, 1), (1, -1)]
    assert simplex._verify_witness(rows, [-2, -1], 1)
    assert not simplex._verify_witness(rows, [-2, -1], 2)
    assert not simplex._verify_witness(rows, [2, 1], -1)


@pytest.mark.parametrize(
    "check, rows",
    [("_verify_witness", [(1, 0), (0, 1)]), ("_verify_certificate", [(1,), (-1,)])],
)
def test_failed_recheck_raises(monkeypatch, check, rows):
    monkeypatch.setattr(simplex, check, lambda *args: False)
    with pytest.raises(AssertionError):
        strict_cone_feasibility(rows)
