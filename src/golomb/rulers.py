"""Golomb rulers in the gap (measurement) representation.

A ruler with m+1 markings 0 = x_0 < x_1 < ... < x_m = t is stored as its
gap vector z = (z_1, ..., z_m), z_k = x_k - x_{k-1}, of length t = sum(z).
It is a Golomb ruler when all pairwise marking differences x_j - x_k are
distinct. Every difference is the sum of z over a consecutive index
interval, so distinctness is the same as asking that any two disjoint
proper consecutive index intervals of z have different sums.

One depth-first search over the marks serves enumeration and counting.
It carries the set of marking differences used so far as a bitmask, seen,
and the marks themselves reversed in a second mask, back. The allowed
next marks are the window bits outside OR_k (seen << x_k), so the loop
walks set bits only, and one shift of back yields a new mark's
differences. At the last mark every allowed length is a ruler, so one
search counts every length of a range at once. Counting uses gap
reversal: for m >= 2 no Golomb ruler has z_1 = z_m (they are the
differences of two distinct pairs of marks), reversal swaps them, so the
search keeps only z_m > z_1, prunes every level by that bound on the last
gap, and doubles the result. Enumeration keeps every ruler, in
lexicographic order.

A search node is one candidate gap examined: each level adds its window
width before walking its bits. The node budget caps the total over the
whole search, whether it runs in one process or is split on the first gap
across jobs > 1 workers.
"""

from __future__ import annotations

import multiprocessing
from typing import Iterator

from golomb.config import resolve_budget
from golomb.errors import BudgetExceededError, CeilingExceededError

Gaps = tuple[int, ...]
Interval = tuple[int, int]


def dpcs_pairs(m: int) -> Iterator[tuple[Interval, Interval]]:
    """All pairs of disjoint proper consecutive index intervals
    ((a, b), (c, d)) with 1 <= a <= b < c <= d <= m."""
    for b in range(1, m):
        for a in range(1, b + 1):
            for c in range(b + 1, m + 1):
                for d in range(c, m + 1):
                    yield (a, b), (c, d)


def markings(gaps) -> tuple[int, ...]:
    """Marking positions (x_0, ..., x_m) of a gap vector; x_0 = 0."""
    xs = [0]
    for g in gaps:
        xs.append(xs[-1] + g)
    return tuple(xs)


def gaps_from_markings(marks) -> Gaps:
    if len(marks) < 2 or marks[0] != 0:
        raise ValueError("markings must start at 0 and contain at least two entries")
    gaps = tuple(b - a for a, b in zip(marks, marks[1:]))
    if any(g <= 0 for g in gaps):
        raise ValueError("markings must be strictly increasing")
    return gaps


def complement(gaps) -> Gaps:
    """Gap vector read right to left; an involution preserving the Golomb property."""
    return tuple(reversed(gaps))


def is_golomb(gaps) -> bool:
    """True iff all gaps are positive and all pairwise marking differences are distinct."""
    m = len(gaps)
    if m == 0:
        raise ValueError("a ruler needs at least one gap")
    if any(g <= 0 for g in gaps):
        return False
    marks = markings(gaps)
    seen = 0
    for j in range(1, m + 1):
        xj = marks[j]
        for k in range(j):
            bit = 1 << (xj - marks[k])
            if seen & bit:
                return False
            seen |= bit
    return True


def enumerate_golomb_rulers(m: int, t: int, *, budget: int | None = None, jobs: int = 1) -> list[Gaps]:
    """All Golomb gap vectors with m positive entries summing to t, in
    lexicographic order.

    jobs > 1 partitions the search on the first gap and concatenates the
    partial results in first-gap order, so the output is identical for any
    degree of parallelism.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if t < 1:
        raise ValueError("t must be >= 1")
    return _run_search(m, t, t, resolve_budget(budget), jobs, True)


def golomb_counts(
    m: int, t_min: int, t_max: int, *, budget: int | None = None, jobs: int = 1
) -> dict[int, int]:
    """g_m(t), the number of Golomb gap vectors with m positive entries
    summing to t, for every t_min <= t <= t_max, from one search.

    These are literal lattice-point counts: g_m(0) = 0, since no positive
    vector sums to zero. Values of the counting quasipolynomial at 0 or at
    negative arguments live in the quasipolynomial module, not here.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if t_min < 0:
        raise ValueError("t must be >= 0")
    if t_max < t_min:
        raise ValueError("t_max must be >= t_min")
    counts = _run_search(m, t_min, t_max, resolve_budget(budget), jobs, False)
    return {t: counts[t] for t in range(t_min, t_max + 1)}


def count_golomb_rulers(m: int, t: int, *, budget: int | None = None, jobs: int = 1) -> int:
    """Number of Golomb gap vectors with m positive entries summing to t;
    see golomb_counts."""
    return golomb_counts(m, t, t, budget=budget, jobs=jobs)[t]


def _run_search(m: int, t_min: int, t_max: int, node_budget: int, jobs: int, collect: bool):
    """The rulers of length t_max in lexicographic order when collecting,
    else the counts by length; jobs > 1 splits the search on the first gap
    and joins the parts in first-gap order, or sums their counts. The
    budget caps the nodes summed over all parts, as it caps one search."""
    firsts = range(1, _first_gap_bound(m, t_max, not collect) + 1)
    if jobs > 1 and m >= 2 and len(firsts) >= 2:
        tasks = [(m, t_min, t_max, node_budget, first, collect) for first in firsts]
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            parts = pool.starmap(_search, tasks)
        if sum(nodes for _, nodes in parts) > node_budget:
            raise BudgetExceededError(node_budget, "golomb ruler search")
        if collect:
            return [ruler for chunk, _ in parts for ruler in chunk]
        return [sum(column) for column in zip(*(counts for counts, _ in parts))]
    return _search(m, t_min, t_max, node_budget, None, collect)[0]


def _first_gap_bound(m: int, t_max: int, halve: bool) -> int:
    """Largest first gap of a ruler with m gaps and length at most t_max;
    with halving the last gap must exceed it as well."""
    return (t_max - m + 1) // 2 if halve and m >= 2 else t_max - m + 1


def _search(m: int, t_min: int, t_max: int, node_budget: int, first_gap: int | None, collect: bool):
    """One depth-first search over marks and the nodes it examined: the
    rulers of length t_max in lexicographic order when collect is true,
    otherwise the list of counts by length 0 .. t_max.

    seen has bit d for every difference d of the marks placed so far, back
    has bit t_max - x for every placed mark x. A mark y is allowed next
    exactly when no y - x is in seen, that is when y lies outside
    OR_x (seen << x); its new differences are (back << y) >> t_max.
    """
    halve = not collect and m >= 2
    counts = [0] * (t_max + 1)
    out: list[Gaps] = []
    marks = [0]
    nodes = 0

    def rec(seen: int, back: int, z1: int) -> None:
        nonlocal nodes
        k = len(marks) - 1
        x = marks[-1]
        # with halving the last gap must exceed the first gap z1
        lead = z1 if halve else 0
        forbid = 0
        for xj in marks:
            forbid |= seen << xj
        if k == m - 1:
            lo = max(x + 1 + lead, t_min)
            hi = t_max
        elif k == 0:
            lo, hi = 1, _first_gap_bound(m, t_max, halve)
            if first_gap is not None:
                lo = max(lo, first_gap)
                hi = min(hi, first_gap)
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
                y = low.bit_length() - 1
                if collect:
                    out.append((*(b - a for a, b in zip(marks, marks[1:])), y - x))
                else:
                    counts[y] += 1
            return
        while free:
            low = free & -free
            free ^= low
            y = low.bit_length() - 1
            marks.append(y)
            rec(seen | ((back << y) >> t_max), back | (1 << (t_max - y)), z1 if k else y)
            marks.pop()

    rec(0, 1 << t_max, 0)
    if collect:
        return out, nodes
    if halve:
        counts = [2 * c for c in counts]
    return counts, nodes


def optimal_length(m: int, *, ceiling: int | None = None, budget: int | None = None) -> int:
    """Least t >= 1 admitting a Golomb ruler with m gaps.

    The m(m+1)/2 pairwise differences are distinct positive integers <= t,
    so the search may start at t = m(m+1)/2. The default ceiling m*m + 1
    comfortably covers m <= 6.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    limit = ceiling if ceiling is not None else m * m + 1
    start = m * (m + 1) // 2
    for t in range(start, limit + 1):
        if count_golomb_rulers(m, t, budget=budget) > 0:
            return t
    raise CeilingExceededError(limit, f"optimal Golomb ruler length for m={m}")
