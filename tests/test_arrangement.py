import csv
import io
import json
from fractions import Fraction as F
from math import lcm

import pytest

from golomb.arrangement import (
    canonical_normal,
    golomb_hyperplanes,
    hyperplane_for_intervals,
    iop_vertices,
    period_bound,
)
from golomb.cli import main
from golomb.rulers import dpcs_pairs

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
    for m in (2, 3, 4, 5):
        normals = golomb_hyperplanes(m)
        assert len(set(normals)) == len(normals)
        for normal in normals:
            assert set(normal) <= {-1, 0, 1}
            assert 1 in normal and -1 in normal
            assert next(x for x in normal if x) == 1


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


def test_vertices_empty_below_m2():
    assert iop_vertices(1) == ()


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


def test_period_bound_is_denominator_lcm():
    for m in (2, 3, 4):
        denominators = [c.denominator for p in iop_vertices(m) for c in p]
        assert period_bound(m) == lcm(*denominators)


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
