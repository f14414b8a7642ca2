"""End-to-end acceptance checks.

Every test prints one pass line (visible with -s or on failure) and pins
the exact values and time limits it is accountable for.
"""

import random
import time
from fractions import Fraction as F
from itertools import combinations

import pytest

from golomb.fixtures import KNOWN_COUNTS_M3, TRIANGLE
from golomb.golomb_graph import enumerate_constrained_orientations
from golomb.lattice import iop_vertices, multiplicity, period_bound
from golomb.mixed_graphs import (
    MixedGraph,
    chromatic_polynomial,
    reciprocity_check_mixed,
)
from golomb.quasipolynomial import golomb_quasipolynomial, reciprocity_check_golomb
from golomb.ratpoly import poly_eval
from golomb.rulers import golomb_counts, is_golomb, optimal_length

from compositions import positive_compositions
from test_mixed_graphs import (
    TABLE_T2,
    TABLE_T3,
    chromatic_poly_deletion_contraction,
    random_mixed_graph,
)
from weighted_maps import compatible_orientation_count


# Admissible orientation counts (cells of the subdivided simplex) for m = 1..6.
REGION_COUNTS = {1: 1, 2: 2, 3: 10, 4: 114, 5: 2608, 6: 107498}


def report(name, detail=""):
    print(f"[acceptance] {name}: PASS {detail}".rstrip())


def test_01_reference_counts_m3():
    start = time.perf_counter()
    counts = {t: golomb_counts(3, t, t)[t] for t in range(6, 36)}
    elapsed = time.perf_counter() - start
    assert counts == KNOWN_COUNTS_M3
    assert elapsed < 5.0
    report("1 reference counts m=3, t=6..35", f"({elapsed:.2f}s)")


def test_02_quasipolynomial_m3_closed_form():
    q = golomb_quasipolynomial(3)
    assert q.period == 12
    expected = {
        0: (F(10), F(-4), F(1, 2)),
        1: (F(5, 2), F(-3), F(1, 2)),
        2: (F(6), F(-4), F(1, 2)),
        3: (F(9, 2), F(-3), F(1, 2)),
        4: (F(8), F(-4), F(1, 2)),
    }
    expected.update({5: expected[1], 7: expected[1], 11: expected[1]})
    expected.update({10: expected[2], 9: expected[3], 6: expected[4], 8: expected[4]})
    assert q.constituents == tuple(expected[r] for r in range(12))
    assert len(set(q.constituents)) == 5
    assert all(c[-1] == F(1, 2) for c in q.constituents)
    report("2 closed-form quasipolynomial m=3")


def test_03_vertices_and_period_bound():
    expected = {
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
    assert set(iop_vertices(3)) == expected
    assert period_bound(3) == 12
    report("3 subdivision vertices and period bound m=3")


def test_04_region_counts_m1_to_m5():
    start = time.perf_counter()
    counts = [len(enumerate_constrained_orientations(m)) for m in range(1, 6)]
    elapsed = time.perf_counter() - start
    assert counts == [REGION_COUNTS[m] for m in range(1, 6)] == [1, 2, 10, 114, 2608]
    assert elapsed < 60.0
    report("4 region counts m=1..5 == 1, 2, 10, 114, 2608", f"({elapsed:.1f}s)")


@pytest.mark.slow
def test_04s_region_count_m6():
    start = time.perf_counter()
    count = len(enumerate_constrained_orientations(6))
    elapsed = time.perf_counter() - start
    assert count == REGION_COUNTS[6] == 107498
    assert elapsed < 1800.0
    report("4s region count m=6 == 107498", f"({elapsed:.0f}s)")


def test_05_golomb_reciprocity():
    for m, at_zero in ((2, 2), (3, 10)):
        rep = reciprocity_check_golomb(m, range(0, 9))
        assert rep.ok
        assert rep.rows[0].t == 0 and rep.rows[0].rhs == at_zero
        for row in rep.rows:
            assert row.lhs == row.rhs
    report("5 ruler reciprocity m=2,3 for t=0..8 (2 and 10 at t=0)")


def test_06_triangle_fixture():
    chi = chromatic_polynomial(TRIANGLE)
    assert chi == (F(0), F(1), F(-3, 2), F(1, 2))  # t(t-1)(t-2)/2
    assert (-1) ** 3 * poly_eval(chi, -1) == 3
    assert -poly_eval(chi, -2) == 12
    assert -poly_eval(chi, -3) == 30
    assert len(TABLE_T2) == 6 and len(TABLE_T3) == 18
    for coloring, expected in {**TABLE_T2, **TABLE_T3}.items():
        assert compatible_orientation_count(TRIANGLE, coloring) == expected
    report("6 triangle chromatic polynomial, negatives, multiplicity table")


def test_07_property_suite():
    # multiplicity 1 exactly at Golomb rulers, exhaustively
    for m in range(1, 5):
        for t in range(1, 21):
            for z in positive_compositions(m, t):
                assert (multiplicity(z) == 1) == is_golomb(z)

    # quasipolynomial equals brute force on lengths never interpolated
    for m in (1, 2, 3):
        q = golomb_quasipolynomial(m)
        used = q.period * m
        for t in range(used + 1, used + q.period + 1):
            assert q.evaluate(t) == golomb_counts(m, t, t)[t]

    # classical chromatic polynomial against deletion-contraction
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(1, 6)
        edges = tuple(
            (u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < 0.4
        )[:8]
        expected = chromatic_poly_deletion_contraction(n, list(edges))
        assert list(chromatic_polynomial(MixedGraph(n, edges))) == expected

    # mixed reciprocity on random graphs
    rng = random.Random(31)
    graphs = [random_mixed_graph(rng, rng.randint(1, 4)) for _ in range(100)]
    for g in graphs:
        for t in (1, 2, 3):
            assert reciprocity_check_mixed(g, t).ok
    report("7 property suite (multiplicity, held-out counts, classical chi, reciprocity)")


def test_08_optimal_lengths():
    start = time.perf_counter()
    lengths = [optimal_length(m) for m in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - start
    assert lengths == [1, 3, 6, 11]
    assert elapsed < 10.0
    report("8 optimal ruler lengths m=1..4 == 1, 3, 6, 11", f"({elapsed:.2f}s)")
