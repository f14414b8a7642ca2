"""Golomb rulers in the gap (measurement) representation.

A ruler with m+1 markings 0 = x_0 < x_1 < ... < x_m = t is stored as its
gap vector z = (z_1, ..., z_m), z_k = x_k - x_{k-1}, of length t = sum(z).
It is a Golomb ruler when all pairwise marking differences x_j - x_k are
distinct. Every difference is the sum of z over a consecutive index
interval, so distinctness is the same as asking that any two disjoint
proper consecutive index intervals of z have different sums.

The enumerator is deliberately a brute-force oracle: a depth-first search
over gaps that carries the set of marking differences used so far in a
bitmask and prunes as soon as a difference repeats or the remaining length
cannot be filled with positive gaps. Counting runs the same search and
only tallies the rulers it reaches, so no list is built. The node budget
caps the total over the whole search, whether it runs in one process or
is split across jobs > 1 workers.
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
    return _run_search(m, t, resolve_budget(budget), jobs, True)


def _run_search(m: int, t: int, node_budget: int, jobs: int, collect: bool):
    """The ruler list when collecting, else just its length; jobs > 1 splits
    the search on the first gap and joins the parts in first-gap order. The
    budget caps the nodes summed over all parts, as it caps one search."""
    if jobs > 1 and m >= 2 and t - m + 1 >= 2:
        tasks = [(m, t, node_budget, first, collect) for first in range(1, t - m + 2)]
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            parts = pool.starmap(_search, tasks)
        if sum(nodes for _, nodes in parts) > node_budget:
            raise BudgetExceededError(node_budget, "golomb ruler search")
        chunks = [chunk for chunk, _ in parts]
        return [ruler for chunk in chunks for ruler in chunk] if collect else sum(chunks)
    return _search(m, t, node_budget, None, collect)[0]


def _search(m: int, t: int, node_budget: int, first_gap: int | None, collect: bool):
    """One depth-first search and the nodes it visited: the rulers found in
    lexicographic order when collect is true, otherwise only their number."""
    out: list[Gaps] = []
    found = 0
    marks = [0]
    nodes = 0

    def rec(seen: int) -> None:
        nonlocal nodes, found
        k = len(marks) - 1
        x = marks[-1]
        if k == m - 1:
            lo = hi = t - x
            if lo < 1:
                return
        else:
            lo, hi = 1, t - x - (m - k - 1)
        if k == 0 and first_gap is not None:
            lo = max(lo, first_gap)
            hi = min(hi, first_gap)
        for g in range(lo, hi + 1):
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(node_budget, "golomb ruler search")
            y = x + g
            new = 0
            ok = True
            for xk in marks:
                bit = 1 << (y - xk)
                if (seen | new) & bit:
                    ok = False
                    break
                new |= bit
            if not ok:
                continue
            marks.append(y)
            if k + 1 < m:
                rec(seen | new)
            elif collect:
                out.append(tuple(b - a for a, b in zip(marks, marks[1:])))
            else:
                found += 1
            marks.pop()

    rec(0)
    return (out if collect else found), nodes


def count_golomb_rulers(m: int, t: int, *, budget: int | None = None, jobs: int = 1) -> int:
    """Number of Golomb gap vectors with m positive entries summing to t.

    This is a literal lattice-point count: it is 0 for t = 0 (no positive
    vector sums to zero). Values of the counting quasipolynomial at 0 or at
    negative arguments live in the quasipolynomial module, not here.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return 0
    return _run_search(m, t, resolve_budget(budget), jobs, False)


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
