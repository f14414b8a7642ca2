import random
from fractions import Fraction as F
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, strategies as st

import golomb.mixed_graphs as mixed_graphs
from golomb.errors import BudgetExceededError
from golomb.fixtures import TRIANGLE
from golomb.mixed_graphs import (
    MixedGraph,
    chromatic_number,
    chromatic_polynomial,
    compatible_orientation_count,
    count_proper_colorings,
    enumerate_acyclic_orientations,
    from_json_dict,
    is_acyclic_mixed,
    reciprocity_check_mixed,
)
from golomb.ratpoly import poly_eval

TABLE_T2 = {
    (0, 0, 0): 3, (0, 0, 1): 1, (0, 1, 0): 2,
    (0, 1, 1): 2, (1, 1, 0): 1, (1, 1, 1): 3,
}
TABLE_T3 = {
    (0, 0, 0): 3, (0, 0, 1): 1, (0, 0, 2): 1,
    (0, 1, 0): 2, (0, 1, 1): 2, (0, 1, 2): 1,
    (0, 2, 0): 2, (0, 2, 1): 1, (0, 2, 2): 2,
    (1, 1, 0): 1, (1, 1, 1): 3, (1, 1, 2): 1,
    (1, 2, 0): 1, (1, 2, 1): 2, (1, 2, 2): 2,
    (2, 2, 0): 1, (2, 2, 1): 1, (2, 2, 2): 3,
}


def random_mixed_graph(rng, n):
    edges, arcs = [], []
    for u, v in combinations(range(1, n + 1), 2):
        kind = rng.choice(("none", "edge", "arc", "reverse_arc"))
        if kind == "edge":
            edges.append((u, v))
        elif kind == "arc":
            arcs.append((u, v))
        elif kind == "reverse_arc":
            arcs.append((v, u))
    return MixedGraph(n, tuple(edges), tuple(arcs))


def chromatic_poly_deletion_contraction(n, edges):
    """Classical chromatic polynomial of a simple undirected graph as integer
    coefficients (constant first), by deletion and contraction."""
    if not edges:
        return [0] * n + [1]
    edges = sorted(edges)
    (u, v) = edges[0]
    deleted = chromatic_poly_deletion_contraction(n, edges[1:])
    relabel = {w: (w if w < v else (u if w == v else w - 1)) for w in range(1, n + 1)}
    contracted_edges = set()
    for a, b in edges[1:]:
        a2, b2 = relabel[a], relabel[b]
        if a2 != b2:
            contracted_edges.add((min(a2, b2), max(a2, b2)))
    contracted = chromatic_poly_deletion_contraction(n - 1, sorted(contracted_edges))
    out = [0] * max(len(deleted), len(contracted))
    for i, c in enumerate(deleted):
        out[i] += c
    for i, c in enumerate(contracted):
        out[i] -= c
    return out


def test_validation_rejects_bad_pairs():
    with pytest.raises(ValueError, match="loop at vertex 2"):
        MixedGraph(3, edges=((2, 2),))
    with pytest.raises(ValueError, match=r"\{1, 2\}"):
        MixedGraph(3, edges=((1, 2), (2, 1)))
    with pytest.raises(ValueError, match=r"\{1, 2\}"):
        MixedGraph(3, edges=((1, 2),), arcs=((1, 2),))
    with pytest.raises(ValueError, match=r"\{1, 2\}"):
        MixedGraph(3, arcs=((1, 2), (2, 1)))  # antiparallel arcs break simplicity
    with pytest.raises(ValueError, match="outside"):
        MixedGraph(2, edges=((1, 3),))
    with pytest.raises(ValueError):
        MixedGraph(-1)


def test_validation_rejects_booleans():
    # bool is an int subclass, and True == 1 would pass a range check
    for bad in (True, False):
        with pytest.raises(ValueError, match=f"vertex {bad} outside the integers"):
            MixedGraph(2, edges=((bad, 2),))
        with pytest.raises(ValueError, match=f"vertex {bad} outside the integers"):
            MixedGraph(2, arcs=((1, bad),))
        with pytest.raises(ValueError, match=f"'n' must be a non-negative integer, got {bad}"):
            MixedGraph(bad)
    with pytest.raises(ValueError, match="'n' must be a non-negative integer, got '3'"):
        from_json_dict({"n": "3", "edges": [], "arcs": []})
    with pytest.raises(ValueError, match="vertex True"):
        from_json_dict({"n": 2, "edges": [[True, 2]], "arcs": []})
    with pytest.raises(ValueError, match="got True"):
        from_json_dict({"n": True, "edges": [], "arcs": []})


def test_normalisation():
    g = MixedGraph(3, edges=((3, 1),), arcs=((2, 1),))
    assert g.edges == ((1, 3),)
    assert g.arcs == ((2, 1),)


def test_json_round_trip_and_errors():
    payload = {"n": 3, "edges": [[1, 3], [2, 3]], "arcs": [[1, 2]]}
    assert from_json_dict(payload) == TRIANGLE
    with pytest.raises(ValueError, match="missing key"):
        from_json_dict({"n": 3, "edges": []})
    with pytest.raises(ValueError, match="pairs"):
        from_json_dict({"n": 3, "edges": [[1, 2, 3]], "arcs": []})


def test_is_acyclic():
    assert is_acyclic_mixed(TRIANGLE)
    assert not is_acyclic_mixed(MixedGraph(3, (), ((1, 2), (2, 3), (3, 1))))
    assert is_acyclic_mixed(MixedGraph(4, edges=((1, 2), (3, 4))))
    assert is_acyclic_mixed(MixedGraph(0))


def test_coloring_counts_triangle():
    assert count_proper_colorings(TRIANGLE, 3) == 3
    assert count_proper_colorings(TRIANGLE, 4) == 12
    assert count_proper_colorings(TRIANGLE, 2) == 0


def test_coloring_counts_edgeless():
    for n in (1, 2, 3):
        g = MixedGraph(n)
        for t in (0, 1, 2, 3):
            assert count_proper_colorings(g, t) == t**n


def test_coloring_brute_force_cross_check():
    rng = random.Random(7)
    for _ in range(12):
        g = random_mixed_graph(rng, rng.randint(1, 4))
        for t in (0, 1, 2, 3):
            naive = 0
            for colors in product(range(1, t + 1), repeat=g.n):
                if all(colors[u - 1] != colors[v - 1] for u, v in g.edges) and all(
                    colors[u - 1] < colors[v - 1] for u, v in g.arcs
                ):
                    naive += 1
            assert count_proper_colorings(g, t) == naive


def test_chromatic_polynomial_triangle():
    assert chromatic_polynomial(TRIANGLE) == (F(0), F(1), F(-3, 2), F(1, 2))


def test_chromatic_polynomial_simple_cases():
    assert chromatic_polynomial(MixedGraph(1)) == (F(0), F(1))
    assert chromatic_polynomial(MixedGraph(2, (), ((1, 2),))) == (F(0), F(-1, 2), F(1, 2))
    three_cycle = MixedGraph(3, (), ((1, 2), (2, 3), (3, 1)))
    assert chromatic_polynomial(three_cycle) == (F(0),)
    assert chromatic_polynomial(MixedGraph(0)) == (F(1),)


def test_chromatic_polynomial_interpolation_consistency():
    rng = random.Random(11)
    for _ in range(8):
        g = random_mixed_graph(rng, rng.randint(1, 5))
        chi = chromatic_polynomial(g)
        for t in range(g.n + 1, 2 * g.n + 2):
            assert poly_eval(chi, t) == count_proper_colorings(g, t)


def test_classical_chromatic_polynomial_agreement():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(1, 6)
        edges = tuple(
            (u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < 0.45
        )[:8]
        g = MixedGraph(n, edges)
        expected = chromatic_poly_deletion_contraction(n, list(edges))
        assert list(chromatic_polynomial(g)) == expected


def test_acyclic_orientations_triangle():
    orientations = enumerate_acyclic_orientations(TRIANGLE)
    assert len(orientations) == 3
    # each acyclic orientation of the complete mixed triangle induces a
    # unique total order; the three orders are 1<2<3, 1<3<2, 3<1<2
    orders = set()
    for o in orientations:
        arcs = TRIANGLE.arcs + o
        rank = {v: sum(1 for u, w in arcs if w == v) for v in (1, 2, 3)}
        orders.add(tuple(sorted(rank, key=rank.get)))
    assert orders == {(1, 2, 3), (1, 3, 2), (3, 1, 2)}


def test_acyclic_orientations_counts():
    undirected_triangle = MixedGraph(3, ((1, 2), (1, 3), (2, 3)))
    assert len(enumerate_acyclic_orientations(undirected_triangle)) == 6
    with_cycle = MixedGraph(4, ((1, 4),), ((1, 2), (2, 3), (3, 1)))
    assert enumerate_acyclic_orientations(with_cycle) == ()


def orientations_by_counter(g):
    """The oracle: run a binary counter over the 2^e orientations, bit i
    reversing edge i, and keep each whose union digraph is acyclic."""
    out = []
    for bits in range(2 ** len(g.edges)):
        oriented = tuple(
            (v, u) if bits >> i & 1 else (u, v) for i, (u, v) in enumerate(g.edges)
        )
        if is_acyclic_mixed(MixedGraph(g.n, arcs=g.arcs + oriented)):
            out.append(oriented)
    return tuple(out)


def test_pruned_orientations_match_the_counter_in_order():
    rng = random.Random(16)
    for _ in range(150):
        g = random_mixed_graph(rng, rng.randint(0, 7))
        assert enumerate_acyclic_orientations(g) == orientations_by_counter(g)


def test_compatible_orientation_counts_table_rows():
    for coloring, expected in TABLE_T2.items():
        assert compatible_orientation_count(TRIANGLE, coloring) == expected
    for coloring, expected in TABLE_T3.items():
        assert compatible_orientation_count(TRIANGLE, coloring) == expected
    assert sum(TABLE_T2.values()) == 12
    assert sum(TABLE_T3.values()) == 30


def test_compatible_count_zero_when_arc_violated():
    assert compatible_orientation_count(TRIANGLE, (1, 0, 0)) == 0


def test_reciprocity_triangle():
    for t, expected in ((1, 3), (2, 12), (3, 30)):
        report = reciprocity_check_mixed(TRIANGLE, t)
        assert report.ok
        assert report.lhs == report.rhs == expected


def test_reciprocity_random_graphs():
    rng = random.Random(17)
    for _ in range(40):
        g = random_mixed_graph(rng, rng.randint(1, 4))
        for t in (0, 1, 2, 3):
            assert reciprocity_check_mixed(g, t).ok


def test_negative_one_counts_acyclic_orientations():
    rng = random.Random(19)
    for _ in range(25):
        g = random_mixed_graph(rng, rng.randint(1, 4))
        if not is_acyclic_mixed(g):
            continue
        chi = chromatic_polynomial(g)
        assert (-1) ** g.n * poly_eval(chi, -1) == len(enumerate_acyclic_orientations(g))


def count_strict_order_cells(g: MixedGraph) -> int:
    """Independent count of the strict-order cells compatible with the arcs:
    distinct edge sign patterns over all vertex total orders that respect
    every arc. Agrees with the number of acyclic orientations."""
    if g.n > 8:
        raise ValueError("factorial enumeration is limited to n <= 8")
    cells = set()
    for perm in permutations(range(1, g.n + 1)):
        pos = {v: i for i, v in enumerate(perm)}
        if any(pos[u] > pos[v] for u, v in g.arcs):
            continue
        cells.add(tuple(pos[u] < pos[v] for u, v in g.edges))
    return len(cells)


def test_strict_order_cells_match_orientations():
    assert count_strict_order_cells(TRIANGLE) == 3
    rng = random.Random(23)
    for _ in range(25):
        g = random_mixed_graph(rng, rng.randint(1, 4))
        if not is_acyclic_mixed(g):
            continue
        assert count_strict_order_cells(g) == len(enumerate_acyclic_orientations(g))


def test_chromatic_number():
    assert chromatic_number(TRIANGLE) == 3
    assert chromatic_number(MixedGraph(4)) == 1
    assert chromatic_number(MixedGraph(3, (), ((1, 2), (2, 3)))) == 3
    assert chromatic_number(MixedGraph(3, (), ((1, 2), (2, 3), (3, 1)))) is None


def test_budget_limits():
    with pytest.raises(BudgetExceededError):
        count_proper_colorings(MixedGraph(5), 10, budget=100)
    big = MixedGraph(6, tuple(combinations(range(1, 7), 2)))
    refusal = r"^search budget of 100 nodes exceeded in 2\^15 edge orientations$"
    with pytest.raises(BudgetExceededError, match=refusal):
        enumerate_acyclic_orientations(big, budget=100)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=120))
def test_edgeless_reciprocity_closed_form(t, seed):
    # chi = t^n for the edgeless graph; every map has exactly one orientation
    n = seed % 4
    g = MixedGraph(n)
    report = reciprocity_check_mixed(g, t)
    assert report.ok
    assert report.rhs == t**n


def test_reciprocity_budget_is_checked_before_the_sum():
    k = len(enumerate_acyclic_orientations(TRIANGLE))
    assert reciprocity_check_mixed(TRIANGLE, 3, budget=3**3 * k).ok
    with pytest.raises(BudgetExceededError):
        reciprocity_check_mixed(TRIANGLE, 3, budget=3**3 * k - 1)
    with pytest.raises(BudgetExceededError):
        reciprocity_check_mixed(TRIANGLE, 150, budget=1000)


def never_colored(*args, **kwargs):
    raise AssertionError("colorings were counted although the request cannot fit the budget")


def test_reciprocity_refuses_before_computing_chi(monkeypatch):
    # 100^8 maps times the 2 orientations of the one edge exceed 10^9;
    # chi alone would count colorings for t = 0..8 first
    monkeypatch.setattr(mixed_graphs, "count_proper_colorings", never_colored)
    refusal = r"^search budget of 1000000000 nodes exceeded in 100\^8 maps times 2 acyclic orientations$"
    with pytest.raises(BudgetExceededError, match=refusal):
        reciprocity_check_mixed(MixedGraph(8, edges=((1, 2),)), 100, budget=10**9)


def test_chromatic_polynomial_refuses_before_the_first_sample(monkeypatch):
    # the t = 8 sample of an 8-vertex graph has 8^8 assignments; 8^8 > 10^6
    monkeypatch.setattr(mixed_graphs, "count_proper_colorings", never_colored)
    with pytest.raises(BudgetExceededError, match=r"exceeded in 8\^8 color assignments$"):
        chromatic_polynomial(MixedGraph(8), budget=10**6)


def test_chromatic_polynomial_budget_is_the_largest_sample():
    # n^n is the largest sample's t^n, so the budget that fits it fits all
    assert chromatic_polynomial(MixedGraph(4), budget=4**4) == (0, 0, 0, 0, 1)
    with pytest.raises(BudgetExceededError, match=r"4\^4 color assignments"):
        chromatic_polynomial(MixedGraph(4), budget=4**4 - 1)
    # a directed cycle is answered before the budget is read
    assert chromatic_polynomial(MixedGraph(3, arcs=((1, 2), (2, 3), (3, 1))), budget=1) == (0,)
