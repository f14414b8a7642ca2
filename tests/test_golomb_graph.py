import json
import random
from dataclasses import dataclass
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from golomb.arrangement import golomb_hyperplanes, hyperplane_blocks
from golomb.cli import main
from golomb.errors import BudgetExceededError
from golomb.golomb_graph import (
    GolombOrientation,
    _tables,
    build_golomb_graph,
    consecutive_subsets,
    enumerate_constrained_orientations,
    interval_label,
)
from golomb.lattice import multiplicity
from golomb.rulers import is_golomb
from golomb.simplex import strict_cone_feasibility

from census import census_multiplicities, census_rows, point_signs, sign_row
from compositions import positive_compositions
from normals import canonical_normal


def oracle_orientations(m):
    """Independent brute force: filter all permutations of the intervals by
    containment order, coupling consistency, and exact realizability."""

    def contains(big, small):
        return big != small and big[0] <= small[0] and small[1] <= big[1]

    def residuals(p, q):
        (a1, b1), (a2, b2) = p, q
        if b1 < a2 or b2 < a1:
            return p, q
        if a1 < a2:
            return (a1, a2 - 1), (b1 + 1, b2)
        return (b2 + 1, b1), (a2, a1 - 1)

    ivs = consecutive_subsets(m)
    coupled = []
    for i, p in enumerate(ivs):
        for j in range(i + 1, len(ivs)):
            q = ivs[j]
            if contains(p, q) or contains(q, p):
                continue
            u, v = residuals(p, q)
            coupled.append((p, q, u, v))

    def chain_rows(order):
        rows = []
        vec = [0] * m
        for i in range(order[0][0], order[0][1] + 1):
            vec[i - 1] = 1
        rows.append(tuple(vec))
        for prev, nxt in zip(order, order[1:]):
            vec = [0] * m
            for i in range(nxt[0], nxt[1] + 1):
                vec[i - 1] += 1
            for i in range(prev[0], prev[1] + 1):
                vec[i - 1] -= 1
            rows.append(tuple(vec))
        return rows

    found = []
    for perm in permutations(ivs):
        pos = {iv: i for i, iv in enumerate(perm)}
        if any(
            pos[p] > pos[q] for p in ivs for q in ivs if contains(q, p)
        ):
            continue
        if any((pos[p] < pos[q]) != (pos[u] < pos[v]) for p, q, u, v in coupled):
            continue
        if perm and not strict_cone_feasibility(chain_rows(perm)):
            continue
        found.append(perm)
    return found


def test_consecutive_subsets():
    assert consecutive_subsets(1) == ()
    assert consecutive_subsets(2) == ((1, 1), (2, 2))
    assert consecutive_subsets(3) == ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3))
    for m in range(1, 7):
        assert len(consecutive_subsets(m)) == m * (m + 1) // 2 - 1
    assert interval_label((2, 4)) == "234"


def test_golomb_graph_m3_structure():
    g = build_golomb_graph(3)
    ivs = consecutive_subsets(3)
    label = {i + 1: interval_label(iv) for i, iv in enumerate(ivs)}
    arcs = {(label[u], label[v]) for u, v in g.arcs}
    assert g.n == 5
    assert arcs == {("1", "12"), ("2", "12"), ("2", "23"), ("3", "23")}
    edges = {frozenset((label[u], label[v])) for u, v in g.edges}
    assert edges == {
        frozenset(p)
        for p in [("1", "2"), ("1", "3"), ("2", "3"), ("1", "23"), ("3", "12"), ("12", "23")]
    }


def test_golomb_graph_matches_containment():
    def contains(big, small):
        return big != small and big[0] <= small[0] and small[1] <= big[1]

    for m in range(1, 7):
        ivs = consecutive_subsets(m)
        g = build_golomb_graph(m)
        arcs, edges = set(), set()
        for i, p in enumerate(ivs, start=1):
            for j, q in enumerate(ivs, start=1):
                if contains(q, p):
                    arcs.add((i, j))
                elif i < j and not contains(p, q):
                    edges.add((i, j))
        assert g.n == len(ivs)
        assert len(g.arcs) == len(arcs) and set(g.arcs) == arcs
        assert len(g.edges) == len(edges) and set(g.edges) == edges


def test_pair_tables_match_interval_indicators():
    """Each non-nested pair (p, q) sits on the hyperplane of the indicator
    difference d = ind(p) - ind(q), and ordering p first demands its
    negative side exactly when the canonical normal is d itself."""
    for m in range(1, 8):
        tables = _tables(m)
        ivs = tables.intervals
        for i, p in enumerate(ivs):
            for j, q in enumerate(ivs):
                nested = p[0] <= q[0] and q[1] <= p[1] or q[0] <= p[0] and p[1] <= q[1]
                if nested:
                    assert tables.pair_info[i][j] is None
                    continue
                d = tuple(
                    (p[0] <= x <= p[1]) - (q[0] <= x <= q[1]) for x in range(1, m + 1)
                )
                h = canonical_normal(d)
                assert tables.pair_info[i][j] == (
                    tables.hyperplanes.index(h),
                    -1 if h == d else 1,
                )


def test_crossing_pairs_map_to_their_difference_blocks():
    """hyperplane_blocks(m)[k] holds the blocks of normal k; a crossing pair
    p < q lies on the hyperplane with blocks (p - q, q - p), and ordering the
    earlier interval p first is its negative side."""
    for m in range(1, 8):
        tables = _tables(m)
        sides = hyperplane_blocks(m)
        for (u, v), h in zip(sides, tables.hyperplanes, strict=True):
            assert h == tuple(
                (u[0] <= x <= u[1]) - (v[0] <= x <= v[1]) for x in range(1, m + 1)
            )
        ivs = tables.intervals
        for i, p in enumerate(ivs):
            for j in range(i + 1, len(ivs)):
                q = ivs[j]
                only_p = [x for x in range(p[0], p[1] + 1) if not q[0] <= x <= q[1]]
                only_q = [x for x in range(q[0], q[1] + 1) if not p[0] <= x <= p[1]]
                if not only_p or not only_q:
                    assert tables.pair_info[i][j] is None
                    continue
                k, pol = tables.pair_info[i][j]
                assert sides[k] == (
                    (only_p[0], only_p[-1]), (only_q[0], only_q[-1])
                )
                assert pol == -1 and tables.pair_info[j][i] == (k, 1)
                assert (i, j, -1) in tables.class_edges[k]


def test_golomb_graph_small_cases():
    # the full interval [1, m] is not a proper subset and never a vertex
    assert build_golomb_graph(1).n == 0
    g2 = build_golomb_graph(2)
    assert g2.n == 2 and g2.arcs == () and g2.edges == ((1, 2),)


def test_orientation_counts_match_brute_force():
    for m in (1, 2, 3):
        fast = enumerate_constrained_orientations(m)
        brute = oracle_orientations(m)
        assert sorted(o.order for o in fast) == sorted(brute)


@pytest.mark.slow
def test_orientation_count_matches_brute_force_m4():
    fast = enumerate_constrained_orientations(4)
    brute = oracle_orientations(4)
    assert sorted(o.order for o in fast) == sorted(brute)


def test_orientation_counts_small():
    assert len(enumerate_constrained_orientations(1)) == 1
    assert len(enumerate_constrained_orientations(2)) == 2
    assert len(enumerate_constrained_orientations(3)) == 10
    assert len(enumerate_constrained_orientations(4)) == 114


def test_m2_orientations_explicit():
    labels = {o.labels() for o in enumerate_constrained_orientations(2)}
    assert labels == {("1", "2"), ("2", "1")}


def test_known_order_is_found():
    labels = {o.labels() for o in enumerate_constrained_orientations(3)}
    assert ("1", "2", "12", "3", "23") in labels  # realized by gaps (1, 2, 4)


def test_orders_extend_containment():
    for o in enumerate_constrained_orientations(3):
        pos = {iv: i for i, iv in enumerate(o.order)}
        assert pos[(1, 1)] < pos[(1, 2)]
        assert pos[(2, 2)] < pos[(1, 2)]
        assert pos[(2, 2)] < pos[(2, 3)]
        assert pos[(3, 3)] < pos[(2, 3)]


def test_m5_survivors_are_decided_with_certificates():
    from golomb.golomb_graph import _chain_rows, _enumerate_orders, _tables

    intervals = _tables(5).intervals
    orders = _enumerate_orders(5, 10**9)
    infeasible = 0
    for o in orders:
        rows = _chain_rows(tuple(intervals[v] for v in o), 5)
        result = strict_cone_feasibility(rows)
        if result.feasible:
            assert all(sum(c * x for c, x in zip(r, result.witness)) >= 1 for r in rows)
        else:
            infeasible += 1
            y = result.certificate
            assert min(y) >= 0 and sum(y) == 1
            assert all(sum(v * c for v, c in zip(y, col)) == 0 for col in zip(*rows))
    assert (len(orders), infeasible) == (2612, 4)


def test_enumeration_bound_and_budget():
    with pytest.raises(ValueError):
        enumerate_constrained_orientations(7)
    # the m=4 census visits 1625 nodes: 9 first placements and 1616 below them
    assert len(enumerate_constrained_orientations(4, budget=1625)) == 114
    for budget in (50, 460, 1624):
        with pytest.raises(BudgetExceededError):
            enumerate_constrained_orientations(4, budget=budget)


def test_census_fails_before_the_simplex(monkeypatch):
    import golomb.golomb_graph as golomb_graph

    def no_lp(rows):
        raise AssertionError("the simplex ran although the search was over budget")

    # the m=5 census visits 70997 nodes and keeps 2608 of its survivors
    assert len(enumerate_constrained_orientations(5, budget=70997)) == 2608
    monkeypatch.setattr(golomb_graph, "strict_cone_feasibility", no_lp)
    with pytest.raises(BudgetExceededError, match="budget of 70996 nodes"):
        enumerate_constrained_orientations(5, budget=70996)


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6))
def test_point_signs_are_the_signs_of_the_dot_products(gaps):
    expected = []
    for h in golomb_hyperplanes(len(gaps)):
        d = sum(c * g for c, g in zip(h, gaps))
        expected.append(0 if d == 0 else (1 if d > 0 else -1))
    assert point_signs(len(gaps), gaps) == tuple(expected)


def test_memoised_multiplicities_match_multiplicity():
    for m, t_max in [(2, 12), (3, 10), (4, 8)]:
        lookup = census_multiplicities(m)
        for t in range(1, t_max + 1):
            for z in product(range(t + 1), repeat=m):
                if sum(z) == t:
                    assert lookup(z) == multiplicity(z)

    # m = 5 on a sample, against the definition: small entries put most
    # points on several hyperplanes at once
    lookup = census_multiplicities(5)
    orientations = census_rows(5)[0]
    rng = random.Random(5)
    for _ in range(40):
        z = tuple(rng.randrange(4) for _ in range(5))
        if any(z):
            assert lookup(z) == multiplicity(z) == multiplicity_by_definition(z, orientations)


def test_zero_vector_lies_in_every_closure():
    for m in range(1, 5):
        cells = len(enumerate_constrained_orientations(m))
        assert census_multiplicities(m)((0,) * m) == cells


def multiplicity_by_definition(z, orientations):
    """Direct reading: count orientations whose every ordered pair of
    intervals carries a weak sum inequality at z."""
    count = 0
    for o in orientations:
        sums = [sum(z[i - 1] for i in range(a, b + 1)) for a, b in o.order]
        if all(s1 <= s2 for s1, s2 in zip(sums, sums[1:])):
            count += 1
    return count


def test_multiplicity_examples():
    assert multiplicity((1, 3, 2)) == 1
    assert multiplicity((2, 2)) == 2
    assert multiplicity((1, 1, 1)) == 6
    assert multiplicity((7,)) == 1


def test_multiplicity_validation():
    with pytest.raises(ValueError):
        multiplicity((0, 0))
    with pytest.raises(ValueError):
        multiplicity((1, -1))
    with pytest.raises(ValueError):
        multiplicity(())


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=4).map(tuple))
def test_multiplicity_matches_direct_definition(z):
    if not any(z):
        z = z[:-1] + (1,)
    m = len(z)
    orientations = enumerate_constrained_orientations(m)
    assert multiplicity(z) == multiplicity_by_definition(z, orientations)


def test_multiplicity_one_iff_golomb():
    for m in (2, 3):
        for t in range(1, 13):
            for z in positive_compositions(m, t):
                assert (multiplicity(z) == 1) == is_golomb(z)


def test_zero_entries_defeat_golombness_but_not_multiplicity_one():
    # boundary points can sit in a single closed cell without being rulers
    assert multiplicity((0, 1)) == 1
    assert not is_golomb((0, 1))


def test_sign_vectors_are_distinct_and_match_ruler_relations():
    orientations, rows, _ = census_rows(3)
    assert len(set(rows)) == 10

    # the orientation compatible with gaps (1,3,2) must carry its strict signs
    z = (1, 3, 2)
    compatible = [
        row
        for o, row in zip(orientations, rows)
        if multiplicity_by_definition(z, [o]) == 1
    ]
    assert len(compatible) == 1
    for normal, sign in zip(golomb_hyperplanes(3), compatible[0], strict=True):
        value = sum(c * g for c, g in zip(normal, z))
        assert value != 0 and (1 if value > 0 else -1) == sign


def test_sign_vector_m2():
    first = next(
        o for o in enumerate_constrained_orientations(2) if o.labels() == ("1", "2")
    )
    assert golomb_hyperplanes(2) == ((1, -1),)
    assert sign_row(2, first.order) == (-1,)


def test_complement_orientation_is_fixed_point_free_involution():
    # gap reversal z_i -> z_{m+1-i} maps the interval [a, b] to
    # [m+1-b, m+1-a] and permutes the cells, fixing none for m >= 2
    def reversed_order(o):
        return GolombOrientation(o.m, tuple((o.m + 1 - b, o.m + 1 - a) for a, b in o.order))

    for m in (2, 3, 4):
        orientations = set(enumerate_constrained_orientations(m))
        for o in orientations:
            image = reversed_order(o)
            assert image in orientations
            assert image != o
            assert reversed_order(image) == o


@dataclass(frozen=True)
class RealizabilityReport:
    """Outcome of the witness sweep in check_realizability."""

    m: int
    total: int
    realized: int
    unrealized: tuple[GolombOrientation, ...]
    stray_sign_vectors: tuple[tuple[int, ...], ...]
    length_searched: int

    @property
    def ok(self) -> bool:
        return not self.unrealized and not self.stray_sign_vectors


def check_realizability(m: int, *, length_ceiling: int = 60) -> RealizabilityReport:
    """Witness every admissible orientation with an integer Golomb ruler whose
    strict sign pattern realizes its cell, sweeping lengths upward until all
    are seen or the ceiling is reached.

    Orientations left without a witness are reported, never dropped. A sign
    pattern seen on a ruler that matches no orientation would falsify the
    cell/orientation correspondence at this m and is reported as stray.
    """
    orientations, sign_rows, _ = census_rows(m)
    by_signs = dict(zip(sign_rows, orientations))
    assert len(by_signs) == len(orientations), "sign vectors must be pairwise distinct"
    realized: set[tuple[int, ...]] = set()
    stray: set[tuple[int, ...]] = set()
    searched = 0
    for t in range(1, length_ceiling + 1):
        searched = t
        for gaps in filter(is_golomb, positive_compositions(m, t)):
            row = point_signs(m, gaps)
            if row in by_signs:
                realized.add(row)
            else:
                stray.add(row)
        if len(realized) == len(orientations) and not stray:
            break
    unrealized = tuple(o for row, o in by_signs.items() if row not in realized)
    return RealizabilityReport(
        m=m,
        total=len(orientations),
        realized=len(realized),
        unrealized=unrealized,
        stray_sign_vectors=tuple(sorted(stray)),
        length_searched=searched,
    )


def test_realizability_by_integer_rulers():
    for m in (1, 2, 3):
        report = check_realizability(m, length_ceiling=15)
        assert report.ok, (report.unrealized, report.stray_sign_vectors)
    report = check_realizability(4, length_ceiling=30)
    assert report.ok
    assert report.realized == report.total == 114


def test_every_small_ruler_lands_in_exactly_one_region():
    orientations = enumerate_constrained_orientations(3)
    for t in range(6, 16):
        for z in filter(is_golomb, positive_compositions(3, t)):
            assert multiplicity_by_definition(z, orientations) == 1


def test_json_export_schema(capsys):
    assert main(["regions", "--m", "3", "--list", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 3
    assert payload["count"] == 10
    assert len(payload["orientations"]) == 10
    assert all(len(o) == 5 for o in payload["orientations"])
    assert ["1", "2", "12", "3", "23"] in payload["orientations"]

    assert main(["regions", "--m", "1", "--list", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"m": 1, "count": 1, "orientations": [[]]}
