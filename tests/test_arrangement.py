import csv
import io
import json
from fractions import Fraction as F
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from golomb import lattice
from golomb.arrangement import dpcs_pairs, golomb_hyperplanes, hyperplane_blocks
from golomb.cli import main
from golomb.errors import DEFAULT_NODE_BUDGET, BudgetExceededError
from golomb.lattice import _split, iop_vertices, period_bound

from normals import canonical_normal

M3_VERTICES = {
    (F(0), F(0), F(1)),
    (F(1, 2), F(0), F(1, 2)),
    (F(1, 4), F(1, 4), F(1, 2)),
    (F(0), F(1, 2), F(1, 2)),
    (F(1, 3), F(1, 3), F(1, 3)),
    (F(1, 2), F(1, 4), F(1, 4)),
    (F(1), F(0), F(0)),
    (F(1, 2), F(1, 2), F(0)),
    (F(0), F(1), F(0)),
}


def solve_unique(rows, rhs):
    """Solve a square rational system exactly; None unless the solution is unique."""
    n = len(rows)
    a = [[F(x) for x in row] + [F(r)] for row, r in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[r][n] for r in range(n))


def fraction_vertices(m):
    """Oracle: one Gauss-Jordan solve of [1 ... 1; subset] z = e_1 for every
    subset of m-1 hyperplanes and facets, kept when unique and non-negative."""
    constraints = list(golomb_hyperplanes(m))
    constraints += [tuple(int(i == j) for i in range(m)) for j in range(m)]
    ones = (1,) * m
    rhs = [1] + [0] * (m - 1)
    points = set()
    for subset in combinations(constraints, m - 1):
        sol = solve_unique([ones, *subset], rhs)
        if sol is not None and all(c >= 0 for c in sol):
            points.add(sol)
    return tuple(sorted(points))


def rank(rows):
    """Rank by Fraction elimination."""
    a = [[F(x) for x in row] for row in rows]
    r = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col] / a[r][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


@st.composite
def integer_systems(draw):
    """m-1 small integer rows of length m, with zero and repeated rows mixed in."""
    m = draw(st.integers(2, 5))
    entries = st.integers(-3, 3)
    rows = []
    for _ in range(m - 1):
        kind = draw(st.sampled_from(("random", "random", "zero", "repeat", "scaled")))
        if kind == "zero":
            rows.append((0,) * m)
        elif kind in ("repeat", "scaled") and rows:
            factor = 1 if kind == "repeat" else draw(st.sampled_from((-2, -1, 2)))
            rows.append(tuple(factor * x for x in draw(st.sampled_from(rows))))
        else:
            rows.append(tuple(draw(st.lists(entries, min_size=m, max_size=m))))
    return m, rows


@given(integer_systems())
def test_the_column_reduction_matches_the_fraction_solve(system):
    m, rows = system
    basis = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    for k, row in enumerate(rows):
        pivot, basis = _split(basis, lambda c: sum(a * b for a, b in zip(row, c)))
        # no pivot exactly when the row depends on the rows before it
        assert (pivot is None) == (rank(rows[: k + 1]) == rank(rows[:k]))
        assert all(sum(a * b for a, b in zip(r, c)) == 0 for r in rows[: k + 1] for c in basis)
        assert len(basis) == m - rank(rows[: k + 1])
    sol = solve_unique([(1,) * m, *rows], [1] + [0] * (m - 1))
    if len(basis) != 1:
        assert sol is None
        return
    (c,) = basis
    assert gcd(*c) == 1
    if sum(c) == 0:
        assert sol is None
    else:
        assert sol == tuple(F(x, sum(c)) for x in c)


def test_vertices_match_the_fraction_oracle():
    for m in (1, 2, 3, 4):
        assert iop_vertices(m) == fraction_vertices(m)


@pytest.mark.slow
def test_m5_vertices_match_the_fraction_oracle():
    # 411 vertices from C(45, 4) = 148 995 Gauss-Jordan solves
    assert iop_vertices(5) == fraction_vertices(5)


def test_vertex_budget_counts_lattice_joins(monkeypatch):
    # the lattices of m = 1..4 spend 0, 1, 19 and 431 joins; a fresh cache
    # for each call, so a build and not a cached lattice meets the budget
    for call in (iop_vertices, period_bound):
        monkeypatch.setattr(lattice, "_LATTICES", {})
        with pytest.raises(BudgetExceededError, match="intersection lattice of the m=4 hyperplanes"):
            call(4, budget=430)
    monkeypatch.setattr(lattice, "_LATTICES", {})
    assert len(iop_vertices(4, budget=431)) == 42
    monkeypatch.setattr(lattice, "_LATTICES", {})
    assert period_bound(4, budget=431) == 840


def test_vertex_budget_defaults_to_the_node_budget(monkeypatch):
    builds = []
    original = lattice._build

    def recorded(m, limit):
        builds.append((m, limit))
        return original(m, limit)

    monkeypatch.setattr(lattice, "_build", recorded)
    monkeypatch.setattr(lattice, "_LATTICES", {})
    # m = 7 is refused by the enumeration bound before any lattice is built
    for call in (iop_vertices, period_bound):
        with pytest.raises(ValueError, match="m=7 is above the enumeration bound 6"):
            call(7)
    assert builds == []
    assert len(iop_vertices(4)) == 42
    assert builds == [(m, DEFAULT_NODE_BUDGET) for m in (4, 3, 2, 1)]


def test_canonical_normal():
    assert canonical_normal((0, -2, 2)) == (0, 1, -1)
    assert canonical_normal((3, -3, 0)) == (1, -1, 0)
    with pytest.raises(ValueError):
        canonical_normal((0, 0, 0))


def test_hyperplanes_m2_and_m3():
    assert golomb_hyperplanes(2) == ((1, -1),)
    assert set(golomb_hyperplanes(3)) == {
        (1, -1, 0),   # z1 = z2
        (0, 1, -1),   # z2 = z3
        (1, 0, -1),   # z1 = z3
        (1, 1, -1),   # z1 + z2 = z3
        (1, -1, -1),  # z1 = z2 + z3
    }
    assert golomb_hyperplanes(1) == ()


def test_hyperplane_normals_are_canonical_sign_patterns():
    for m in range(1, 9):
        normals = golomb_hyperplanes(m)
        assert len(set(normals)) == len(normals)
        assert list(normals) == sorted(normals)
        for normal in normals:
            assert set(normal) <= {-1, 0, 1}
            assert 1 in normal and -1 in normal
            assert next(x for x in normal if x) == 1
            assert canonical_normal(normal) == normal


def test_hyperplanes_are_the_block_pair_indicators():
    """Normal k is 1_U - 1_V for the k-th block pair (U, V), and the pairs
    are exactly the disjoint pairs of dpcs_pairs, U left of V."""
    for m in range(1, 9):
        blocks = hyperplane_blocks(m)
        assert sorted(blocks) == sorted(dpcs_pairs(m))
        for ((a, b), (c, d)), normal in zip(blocks, golomb_hyperplanes(m), strict=True):
            assert b < c
            assert normal == tuple(
                (a <= x <= b) - (c <= x <= d) for x in range(1, m + 1)
            )
    with pytest.raises(ValueError):
        hyperplane_blocks(0)


def test_deduplication_cross_check():
    # second, independent pass: raw interval pairs, deduplicated as raw
    # vectors without canonicalisation
    for m in (2, 3, 4, 5):
        raw = set()
        for u, v in dpcs_pairs(m):
            vec = [0] * m
            for i in range(u[0], u[1] + 1):
                vec[i - 1] += 1
            for i in range(v[0], v[1] + 1):
                vec[i - 1] -= 1
            raw.add(tuple(vec))
        assert set(golomb_hyperplanes(m)) == {canonical_normal(v) for v in raw}
        assert len(golomb_hyperplanes(m)) == len(raw)


def test_vertices_m2():
    assert set(iop_vertices(2)) == {(F(0), F(1)), (F(1, 2), F(1, 2)), (F(1), F(0))}


def test_vertices_m3_match_known_list():
    assert set(iop_vertices(3)) == M3_VERTICES


def test_vertices_of_m1_are_its_one_point():
    # {z_1 = 1} alone cuts out the one point of the simplex
    assert iop_vertices(1) == ((F(1),),)
    assert period_bound(1) == 1


def test_vertices_refuse_m_below_one():
    for m in (0, -2):
        for call in (iop_vertices, period_bound, golomb_hyperplanes):
            with pytest.raises(ValueError, match="m must be >= 1"):
                call(m)


def test_vertices_satisfy_their_defining_systems():
    # every vertex: in the simplex, and on at least m-1 of the hyperplanes
    # and facets (exact rational arithmetic)
    for m in (2, 3, 4):
        hypers = golomb_hyperplanes(m)
        for point in iop_vertices(m):
            assert sum(point) == 1
            assert all(c >= 0 for c in point)
            on_hyper = sum(
                1 for h in hypers if sum(c * x for c, x in zip(h, point)) == 0
            )
            on_facet = sum(1 for x in point if x == 0)
            assert on_hyper + on_facet >= m - 1


def test_gap_reversal_symmetry():
    for m in (2, 3, 4):
        normals = set(golomb_hyperplanes(m))
        reversed_normals = {canonical_normal(tuple(reversed(n))) for n in normals}
        assert reversed_normals == normals
        points = set(iop_vertices(m))
        assert {tuple(reversed(p)) for p in points} == points


def test_period_bounds():
    assert period_bound(1) == 1
    assert period_bound(2) == 2
    assert period_bound(3) == 12
    assert period_bound(4) == 840
    assert len(iop_vertices(4)) == 42


def test_m5_vertices_and_period_bound():
    points = iop_vertices(5)
    assert len(points) == 411
    assert period_bound(5) == 720720


def test_period_bound_is_denominator_lcm():
    for m in (1, 2, 3, 4, 5):
        denominators = [c.denominator for p in iop_vertices(m) for c in p]
        assert period_bound(m) == lcm(*denominators)


def test_least_period_divides_the_period_bound():
    # (1/k, ..., 1/k, 0, ..., 0) lies on z_i = z_(i+1) for i < k and on the
    # facets z_j = 0 for j > k, so each k <= m gives a vertex with
    # denominator k; the quasipolynomial's early refusal rests on this
    for m in range(1, 6):
        points = set(iop_vertices(m))
        for k in range(1, m + 1):
            assert (F(1, k),) * k + (F(0),) * (m - k) in points
        assert period_bound(m) % lcm(*range(1, m + 1)) == 0


def test_vertex_exports(capsys):
    assert main(["vertices", "--m", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 3
    assert payload["period_bound"] == 12
    assert ["1/4", "1/4", "1/2"] in payload["vertices"]
    assert main(["vertices", "--m", "3", "--format", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == ["z1", "z2", "z3"]
    assert len(rows) == 9
    assert ["0", "0", "1"] in rows
