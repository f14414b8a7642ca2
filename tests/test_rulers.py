import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import golomb.rulers as rulers
from golomb.arrangement import dpcs_pairs
from golomb.errors import BudgetExceededError
from golomb.rulers import (
    _first_gap_bound,
    _node_floor,
    _run_search,
    _search,
    golomb_counts,
    is_golomb,
    markings,
    optimal_length,
)

from compositions import positive_compositions

gap_vectors = st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=5).map(tuple)


def is_golomb_by_interval_sums(gaps) -> bool:
    """Recognition via the interval-sum route: every pair of disjoint proper
    consecutive index intervals must carry different gap sums.

    Kept free of shared code with :func:`is_golomb` so the two routes can
    vouch for each other.
    """
    m = len(gaps)
    if m == 0:
        raise ValueError("a ruler needs at least one gap")
    if any(g <= 0 for g in gaps):
        return False
    prefix = [0]
    for g in gaps:
        prefix.append(prefix[-1] + g)
    for (a, b), (c, d) in dpcs_pairs(m):
        if prefix[b] - prefix[a - 1] == prefix[d] - prefix[c - 1]:
            return False
    return True


def golomb_filter(m, t):
    """Every Golomb gap vector with m entries summing to t, in lexicographic
    order: the compositions the interval-sum route accepts."""
    return [z for z in positive_compositions(m, t) if is_golomb_by_interval_sums(z)]


def per_bit_search(m, t_min, t_max, node_budget):
    """The ruler search as it stood before the forbidden-mark mask was
    passed down: every node rebuilds OR_x (seen << x) from all placed marks,
    and every last mark is one call that walks its window bit by bit. Same
    arguments and node totals as `rulers._search`, with counts by length."""
    halve = m >= 2
    counts = [0] * (t_max + 1)
    marks = [0]
    nodes = 0

    def rec(seen, back, z1):
        nonlocal nodes
        k = len(marks) - 1
        x = marks[-1]
        lead = z1 if halve else 0
        forbid = 0
        for xj in marks:
            forbid |= seen << xj
        if k == m - 1:
            lo = max(x + 1 + lead, t_min)
            hi = t_max
        elif k == 0:
            lo, hi = 1, _first_gap_bound(m, t_max)
        else:
            lo = x + 1
            hi = t_max - (m - k - 1) - lead
        if hi < lo:
            return
        nodes += hi - lo + 1
        if nodes > node_budget:
            raise BudgetExceededError(node_budget, "golomb ruler search")
        free = ((1 << (hi + 1)) - (1 << lo)) & ~forbid
        if k == m - 1:
            while free:
                low = free & -free
                free ^= low
                counts[low.bit_length() - 1] += 1
            return
        while free:
            low = free & -free
            free ^= low
            y = low.bit_length() - 1
            marks.append(y)
            rec(seen | ((back << y) >> t_max), back | (1 << (t_max - y)), z1 if k else y)
            marks.pop()

    rec(0, 1 << t_max, 0)
    if halve:
        counts = [2 * c for c in counts]
    return counts, nodes


def test_markings_roundtrip():
    marks = markings((1, 3, 2))
    assert marks == (0, 1, 4, 6)
    assert tuple(b - a for a, b in zip(marks, marks[1:])) == (1, 3, 2)


def test_dpcs_pairs_m3():
    assert list(dpcs_pairs(3)) == [
        ((1, 1), (2, 2)),
        ((1, 1), (2, 3)),
        ((1, 1), (3, 3)),
        ((1, 2), (3, 3)),
        ((2, 2), (3, 3)),
    ]
    assert list(dpcs_pairs(1)) == []


def test_is_golomb_examples():
    assert is_golomb((1, 3, 2))
    assert not is_golomb((1, 2, 3))  # 1 + 2 = 3
    assert is_golomb((2, 3, 4))  # markings 0,2,5,9: differences 2,5,9,3,7,4
    assert not is_golomb((0, 3))
    assert is_golomb((5,))
    with pytest.raises(ValueError):
        is_golomb(())


def test_recognition_routes_agree_exhaustively():
    # the difference-bitmask route and the interval-sum route must agree
    for m in range(1, 6):
        for t in range(1, 26):
            for gaps in positive_compositions(m, t):
                assert is_golomb(gaps) == is_golomb_by_interval_sums(gaps)


@given(gap_vectors)
def test_recognition_routes_agree_random(gaps):
    assert is_golomb(gaps) == is_golomb_by_interval_sums(gaps)


@given(gap_vectors)
def test_complement_involution(gaps):
    # gap reversal preserves the set of marking differences
    assert is_golomb(gaps) == is_golomb(gaps[::-1])


def test_enumerate_examples():
    examples = {
        (3, 6): [(1, 3, 2), (2, 3, 1)],
        (1, 7): [(7,)],
        (2, 5): [(1, 4), (2, 3), (3, 2), (4, 1)],
    }
    for (m, t), expected in examples.items():
        assert golomb_filter(m, t) == expected
        assert golomb_counts(m, t, t)[t] == len(expected)


def test_count_examples():
    assert golomb_counts(3, 18, 18)[18] == 98
    assert golomb_counts(3, 35, 35)[35] == 510
    assert golomb_counts(2, 4, 4)[4] == 2
    assert golomb_counts(5, 0, 0)[0] == 0


def test_counts_even_for_m_at_least_2():
    # gap reversal pairs up rulers; a palindrome would tie z_1 against z_m
    for m in (2, 3, 4):
        for t in range(1, 16):
            rulers = golomb_filter(m, t)
            assert {z[::-1] for z in rulers} == set(rulers)
            assert golomb_counts(m, t, t)[t] % 2 == 0


def test_difference_set_has_full_cardinality():
    for m, t in [(3, 10), (4, 14)]:
        for gaps in golomb_filter(m, t):
            marks = markings(gaps)
            diffs = {b - a for a, b in combinations(marks, 2)}
            assert len(diffs) == m * (m + 1) // 2


def test_counts_vanish_below_optimal_length():
    for m in range(1, 5):
        shortest = optimal_length(m)
        for t in range(1, shortest):
            assert golomb_counts(m, t, t)[t] == 0
        assert golomb_counts(m, shortest, shortest)[shortest] > 0


def test_optimal_lengths():
    assert [optimal_length(m) for m in range(1, 8)] == [1, 3, 6, 11, 17, 25, 34]


def test_optimal_length_shares_one_budget():
    # m = 6 searches t = 21 .. 25 in 2087 + 2909 + 3996 + 5408 + 7236 nodes
    assert optimal_length(6, budget=21636) == 25
    with pytest.raises(BudgetExceededError, match="budget of 21635 nodes"):
        optimal_length(6, budget=21635)


def test_budget_exhaustion():
    # counting m=4, t=30 keeps only z_4 > z_1 and examines 3110 nodes
    assert golomb_counts(4, 30, 30, budget=3110)[30] == 1880
    for budget in (10, 2000, 3109):
        with pytest.raises(BudgetExceededError):
            golomb_counts(4, 30, 30, budget=budget)


def test_node_floor_bounds_the_search():
    # the floor never refuses a search that fits
    for m, t_max, floor, nodes in [(2, 60, 855, 899), (3, 150, 248115, 274750),
                                   (4, 60, 24832, 214568)]:
        assert _node_floor(m, 1, t_max) == floor
        assert _run_search(m, 1, t_max, UNLIMITED)[1] == nodes
    for m, t_max in [(1, 40), (2, 60), (3, 150), (4, 60), (5, 40)]:
        for t_min in (0, 1, 2, t_max // 2, t_max):
            assert _node_floor(m, t_min, t_max) <= _run_search(m, t_min, t_max, UNLIMITED)[1]
    # g_4 to t = 3360, what quasipoly --m 4 asks for, cannot fit in 10^9
    assert _node_floor(4, 1, 3360) > 2 * 10**12


def test_search_refuses_a_budget_below_its_floor(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the search ran although the floor exceeds the budget")

    monkeypatch.setattr(rulers, "_search", never)
    floor = _node_floor(3, 1, 150)
    with pytest.raises(BudgetExceededError, match=f"at least {floor} nodes"):
        golomb_counts(3, 1, 150, budget=floor - 1)


def test_count_matches_enumeration():
    for m, t in [(1, 4), (2, 9), (3, 18), (4, 20), (5, 30)]:
        assert golomb_counts(m, t, t)[t] == len(golomb_filter(m, t))
    with pytest.raises(BudgetExceededError):
        golomb_counts(4, 30, 30, budget=10)


def test_range_counts_match_filter_oracle():
    oracle = {
        (m, t): sum(map(is_golomb_by_interval_sums, positive_compositions(m, t)))
        for m in range(1, 6)
        for t in range(0, 23)
    }
    for m in range(1, 6):
        for t_min, t_max in [(0, 22), (1, 9), (7, 19), (22, 22), (0, 0), (13, 14)]:
            expected = {t: oracle[m, t] for t in range(t_min, t_max + 1)}
            assert golomb_counts(m, t_min, t_max) == expected


def test_range_budget_boundary():
    # one search counts t = 5 .. 25 for m = 4 and examines 4642 nodes
    expected = golomb_counts(4, 5, 25)
    assert golomb_counts(4, 5, 25, budget=4642) == expected
    with pytest.raises(BudgetExceededError):
        golomb_counts(4, 5, 25, budget=4641)


def test_counting_parts_are_added_as_they_arrive():
    # every length adds its rulers to one set of bit-sliced counters; one
    # t-bit counter per length of m = 1, kept until the search ends, would
    # hold about t^2 / 16 bytes, 25 MB at t = 20000
    tracemalloc.start()
    try:
        counts = golomb_counts(1, 1, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == dict.fromkeys(range(1, 20001), 1)
    assert peak < 4 * 2**20


def test_input_validation():
    with pytest.raises(ValueError):
        golomb_counts(0, 1, 5)
    with pytest.raises(ValueError):
        golomb_counts(2, -1, 5)
    with pytest.raises(ValueError):
        golomb_counts(2, 6, 5)


UNLIMITED = 10**12


def whole_search(m, t_min, t_max):
    """`rulers._search` with its bit-sliced counters read bit by bit into
    counts by length (each kept ruler standing for two when m >= 2), the
    form `per_bit_search` returns."""
    planes, nodes = _search(m, t_min, t_max, UNLIMITED)
    weight = 2 if m >= 2 else 1
    counts = [
        weight * sum((plane >> y & 1) << i for i, plane in enumerate(planes))
        for y in range(t_max + 1)
    ]
    return counts, nodes


def test_search_matches_the_per_bit_oracle():
    # the benchmark's sizes: g_3 to t = 150, g_4 to 60, g_5 to 45
    for m, t_max in [(1, 150), (2, 150), (3, 150), (4, 60), (5, 45), (6, 34)]:
        for t_min in (0, 1, t_max // 2, t_max):
            assert whole_search(m, t_min, t_max) == per_bit_search(m, t_min, t_max, UNLIMITED)


def test_single_length_search_matches_the_per_bit_oracle():
    # optimal_length searches one length at a time
    for m, lengths in [(1, [1, 7]), (2, range(1, 31)), (3, range(1, 41)), (4, range(9, 31)),
                       (5, range(15, 31)), (6, range(23, 31))]:
        for t in lengths:
            assert whole_search(m, t, t) == per_bit_search(m, t, t, UNLIMITED)


@given(st.integers(1, 5), st.integers(0, 36), st.integers(0, 36))
def test_search_matches_the_per_bit_oracle_random(m, a, b):
    t_min, t_max = min(a, b), max(a, b)
    assert whole_search(m, t_min, t_max) == per_bit_search(m, t_min, t_max, UNLIMITED)
