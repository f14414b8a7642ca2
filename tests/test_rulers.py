import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import golomb.golomb_graph as golomb_graph
import golomb.rulers as rulers
from golomb.errors import BudgetExceededError
from golomb.rulers import (
    _first_gap_bound,
    _node_floor,
    _run_search,
    _search,
    dpcs_pairs,
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


def per_bit_search(m, t_min, t_max, node_budget, first_gap):
    """The ruler search as it stood before the forbidden-mark mask was
    passed down: every node rebuilds OR_x (seen << x) from all placed marks,
    and every last mark is one call that walks its window bit by bit. Same
    arguments, counts by length and node totals as `rulers._search`."""
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
        if k == 0 and first_gap is not None:
            # for m = 1 the first gap is the last one
            lo = max(lo, first_gap)
            hi = min(hi, first_gap)
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
    # counting m=4, t=30 keeps only z_4 > z_1 and examines 3110 nodes, its
    # largest first-gap part 628: the budget caps the total for any number
    # of jobs
    for jobs in (1, 2):
        assert golomb_counts(4, 30, 30, budget=3110, jobs=jobs)[30] == 1880
        for budget in (10, 2000, 3109):
            with pytest.raises(BudgetExceededError):
                golomb_counts(4, 30, 30, budget=budget, jobs=jobs)


def test_node_floor_bounds_the_search():
    # the floor never refuses a search that fits
    for m, t_max, floor, nodes in [(2, 60, 855, 899), (3, 150, 248115, 274750),
                                   (4, 60, 24832, 214568)]:
        assert _node_floor(m, 1, t_max) == floor
        assert _run_search(m, 1, t_max, UNLIMITED, 1)[1] == nodes
    for m, t_max in [(1, 40), (2, 60), (3, 150), (4, 60), (5, 40)]:
        for t_min in (0, 1, 2, t_max // 2, t_max):
            assert _node_floor(m, t_min, t_max) <= _run_search(m, t_min, t_max, UNLIMITED, 1)[1]
    # g_4 to t = 3360, what quasipoly --m 4 asks for, cannot fit in 10^9
    assert _node_floor(4, 1, 3360) > 2 * 10**12


def test_search_refuses_a_budget_below_its_floor(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a part ran although the floor exceeds the budget")

    monkeypatch.setattr(rulers, "_search", never)
    floor = _node_floor(3, 1, 150)
    with pytest.raises(BudgetExceededError, match=f"at least {floor} nodes"):
        golomb_counts(3, 1, 150, budget=floor - 1)


def test_count_matches_enumeration_serial_and_parallel():
    for m, t in [(1, 4), (2, 9), (3, 18), (4, 20), (5, 30)]:
        count = golomb_counts(m, t, t)[t]
        assert count == len(golomb_filter(m, t))
        assert golomb_counts(m, t, t, jobs=2)[t] == count
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
            for jobs in (1, 2):
                assert golomb_counts(m, t_min, t_max, jobs=jobs) == expected


def test_range_budget_boundary():
    # one search counts t = 5 .. 25 for m = 4 and examines 4642 nodes, however
    # the first gaps are split across jobs
    expected = golomb_counts(4, 5, 25)
    for jobs in (1, 2):
        assert golomb_counts(4, 5, 25, budget=4642, jobs=jobs) == expected
        with pytest.raises(BudgetExceededError):
            golomb_counts(4, 5, 25, budget=4641, jobs=jobs)


def test_counting_parts_are_added_as_they_arrive():
    # each m = 1 part is a t-bit counter, so keeping every part until the
    # last returns would hold about t^2 / 16 bytes, 25 MB at t = 20000
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


def part_search(m, t_min, t_max, node_budget, first_gap):
    """`rulers._search` with its bit-sliced counters read bit by bit into
    counts by length (each kept ruler standing for two when m >= 2), the
    form `per_bit_search` returns."""
    result, nodes = _search(m, t_min, t_max, node_budget, first_gap)
    weight = 2 if m >= 2 else 1
    counts = [
        weight * sum((plane >> y & 1) << i for i, plane in enumerate(result))
        for y in range(t_max + 1)
    ]
    return counts, nodes


def whole_search(m, t_min, t_max):
    """`part_search` over every first gap, summed by length, with the nodes
    of all parts: what `per_bit_search` returns for the whole search
    (first_gap=None)."""
    parts = [
        part_search(m, t_min, t_max, UNLIMITED, first)
        for first in range(1, _first_gap_bound(m, t_max) + 1)
    ]
    nodes = sum(used for _, used in parts)
    return [sum(column) for column in zip([0] * (t_max + 1), *(part for part, _ in parts))], nodes


def test_search_matches_the_per_bit_oracle():
    # the benchmark's sizes: g_3 to t = 150, g_4 to 60, g_5 to 45
    for m, t_max in [(1, 150), (2, 150), (3, 150), (4, 60), (5, 45), (6, 34)]:
        for t_min in (0, 1, t_max // 2, t_max):
            args = (m, t_min, t_max, UNLIMITED, None)
            assert whole_search(m, t_min, t_max) == per_bit_search(*args)
        for first in range(1, _first_gap_bound(m, t_max) + 1):
            args = (m, 1, t_max, UNLIMITED, first)
            assert part_search(*args) == per_bit_search(*args)


def test_single_length_search_matches_the_per_bit_oracle():
    # optimal_length searches one length at a time
    for m, lengths in [(1, [1, 7]), (2, range(1, 31)), (3, range(1, 41)), (4, range(9, 31)),
                       (5, range(15, 31)), (6, range(23, 31))]:
        for t in lengths:
            args = (m, t, t, UNLIMITED, None)
            assert whole_search(m, t, t) == per_bit_search(*args)
            for first in range(1, _first_gap_bound(m, t) + 1):
                args = (m, t, t, UNLIMITED, first)
                assert part_search(*args) == per_bit_search(*args)


@given(st.integers(1, 5), st.integers(0, 36), st.integers(0, 36))
def test_search_matches_the_per_bit_oracle_random(m, a, b):
    t_min, t_max = min(a, b), max(a, b)
    assert whole_search(m, t_min, t_max) == per_bit_search(m, t_min, t_max, UNLIMITED, None)


@pytest.mark.parametrize("search", ["count", "census"])
def test_parallel_search_stops_at_the_first_total_over_budget(monkeypatch, search):
    # the parts arrive in first-choice order: once the first two exceed the
    # budget, no later part may decide the outcome
    if search == "census":
        # m = 5 splits on the first placed interval, 0 .. 13
        module, name, choice = golomb_graph, "_enumerate_orders", 2
        first_two = [(5, UNLIMITED, v) for v in (0, 1)]

        def run(budget):
            golomb_graph._census(5, budget, jobs=2)
    else:
        # m = 4, t = 30 splits on the first gap
        module, name, choice = rulers, "_search", 4
        first_two = [(4, 30, 30, UNLIMITED, g) for g in (1, 2)]

        def run(budget):
            golomb_counts(4, 30, 30, budget=budget, jobs=2)
    original = getattr(module, name)
    nodes = [original(*args)[1] for args in first_two]
    budget = sum(nodes) - 1
    assert budget >= max(nodes)
    last_allowed = first_two[1][choice]

    def later_parts_fail(*args, **kwargs):
        if args[choice] > last_allowed:
            raise AssertionError("a part after the budget ran out decided the outcome")
        return original(*args, **kwargs)

    # the forked workers inherit the patch
    monkeypatch.setattr(module, name, later_parts_fail)
    with pytest.raises(BudgetExceededError):
        run(budget)


@pytest.mark.parametrize("jobs", [1, 2])
def test_parts_run_on_what_is_left_of_the_budget(jobs):
    from golomb.config import run_parts

    budgets = []

    def search(budget, part):
        budgets.append(budget)
        if part > budget:
            raise BudgetExceededError(budget, "a part")
        return 10 * part, part

    # in this process each part gets what the parts before it left; a pool
    # worker gets the whole budget, and a local function reaches it by fork
    taken = []
    assert run_parts(search, [3, 4, 5], 12, jobs, "parts", taken.append) == 12
    assert taken == [30, 40, 50]
    if jobs == 1:
        assert budgets == [12, 9, 5]
    for budget in (11, 4):
        with pytest.raises(BudgetExceededError, match=f"budget of {budget} nodes exceeded in parts$"):
            run_parts(search, [3, 4, 5], budget, jobs, "parts", taken.append)


def test_the_pool_has_at_most_one_worker_per_part(monkeypatch):
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    sizes = []

    class Recorded:
        def Pool(self, processes, *args):
            sizes.append(processes)
            return fork.Pool(processes, *args)

    # run_parts imports multiprocessing on its pool path and reads this attribute
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Recorded())
    # g_3 at t = 10 splits into 4 first gaps; the m = 2 census into 2
    # first placements, then 2 chunks for the simplex
    assert golomb_counts(3, 10, 10, jobs=6) == golomb_counts(3, 10, 10)
    assert sizes == [4]
    assert len(golomb_graph.enumerate_constrained_orientations(2, jobs=6)) == 2
    assert sizes == [4, 2, 2]
