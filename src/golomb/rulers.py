"""Golomb rulers in the gap (measurement) representation.

A ruler with m+1 markings 0 = x_0 < x_1 < ... < x_m = t is stored as its
gap vector z = (z_1, ..., z_m), z_k = x_k - x_{k-1}, of length t = sum(z).
It is a Golomb ruler when all pairwise marking differences x_j - x_k are
distinct. Every difference is the sum of z over a consecutive index
interval, so distinctness is the same as asking that any two disjoint
proper consecutive index intervals of z have different sums.

One depth-first search over the marks counts them. It carries the set of
marking differences used so far as a bitmask, seen, the marks themselves
reversed in a second mask, back, and the marks that would repeat a
difference, forbid = OR_k (seen << x_k). The allowed next marks are the
window bits outside forbid, so the loop walks set bits only; one shift of
back yields a new mark's differences, and forbid is passed down with one
shift of the new seen, exact above the new mark (see _search). At the
last mark every allowed length is a ruler, so the node that places mark
m-1 reads its children's windows of last marks inline and adds each
window, a mask over lengths, to bit-sliced counters: one search counts
every length of a range at once, with no call and no loop per ruler, and
each part's counters are added in the same form as the part returns, and
read once. Every search with m >= 2 uses gap reversal: no Golomb ruler
has z_1 = z_m (they are the differences of two distinct pairs of marks),
reversal swaps them, so the search keeps only z_m > z_1, prunes every
level by that bound on the last gap, and doubles the result.

A search node is one candidate gap examined: each level adds its window
width before walking its bits, the last mark's level too, although it is
read inline rather than called. The search runs in parts, one per first
gap, each counting its own first gap as one node, so the parts add up to
the nodes of one whole search; config.run_parts runs them in first-gap
order, and the first running total over the node budget raises.
"""

from __future__ import annotations

from functools import partial
from itertools import count
from math import comb
from typing import Iterator

from golomb.config import resolve_budget, run_parts
from golomb.errors import BudgetExceededError

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
    counts = _run_search(m, t_min, t_max, resolve_budget(budget), jobs)[0]
    return {t: counts[t] for t in range(t_min, t_max + 1)}


def _run_search(m: int, t_min: int, t_max: int, node_budget: int, jobs: int):
    """The counts by length 0 .. t_max and the nodes spent: one search per
    first gap, run by config.run_parts once the budget covers _node_floor,
    each part's bit-sliced counters added to the total as it arrives."""
    check_node_floor(m, t_min, t_max, node_budget)
    # each part's counters ripple into the total from their own plane; the
    # total, at most the nodes and so the budget, is read once
    total = [0] * node_budget.bit_length()

    def add(planes) -> None:
        for i, mask in enumerate(planes):
            while mask:
                p = total[i]
                total[i] = p ^ mask
                mask &= p
                i += 1

    firsts = range(1, _first_gap_bound(m, t_max) + 1)
    nodes = run_parts(
        partial(_search, m, t_min, t_max), firsts, node_budget, jobs, "golomb ruler search", add
    )
    # for m >= 2 each counted ruler stands for itself and its reversal
    weight = 2 if m >= 2 else 1
    counts = [0] * (t_max + 1)
    for i, p in enumerate(total):
        while p:
            low = p & -p
            p ^= low
            counts[low.bit_length() - 1] += weight << i
    return counts, nodes


def check_node_floor(m: int, t_min: int, t_max: int, node_budget: int) -> None:
    """Raise BudgetExceededError when the search over lengths t_min .. t_max
    needs more nodes than node_budget by _node_floor. Every search makes
    this check before its parts run; a caller with other work to do before
    a count can make it first."""
    floor = _node_floor(m, t_min, t_max)
    if floor > node_budget:
        raise BudgetExceededError(
            node_budget, f"golomb ruler search (at least {floor} nodes for t = {t_min}..{t_max})"
        )


def _node_floor(m: int, t_min: int, t_max: int) -> int:
    """A lower bound on the nodes of the search over lengths t_min .. t_max:
    each kept ruler is a set bit of a window whose width counts, so at least
    sum_t g_m(t), half that for m >= 2. For t >= 2 each of the
    H = C(m+2, 4) hyperplanes holds at most C(t-2, m-2) of the C(t-1, m-1)
    positive gap vectors of total t (fixing all gaps but one per block fixes
    those two), so g_m(t) >= C(t-1, m-1) - H C(t-2, m-2), which is summed
    from t = H(m-1) + 1, where it turns non-negative."""
    hyperplanes = comb(m + 2, 4)
    lo = max(t_min, 2, hyperplanes * (m - 1) + 1)
    if t_max < lo:
        return 0
    floor = comb(t_max, m) - comb(lo - 1, m)
    floor -= hyperplanes * (comb(t_max - 1, m - 1) - comb(lo - 2, m - 1))
    return floor // (2 if m >= 2 else 1)


def _first_gap_bound(m: int, t_max: int) -> int:
    """Largest first gap of a kept ruler with m gaps and length at most
    t_max; for m >= 2 the last gap must exceed it as well."""
    return (t_max - m + 1) // 2 if m >= 2 else t_max


def _search(m: int, t_min: int, t_max: int, node_budget: int, first_gap: int):
    """One depth-first search over the marks after a first gap of at most
    _first_gap_bound(m, t_max): the bit-sliced counters by length
    0 .. t_max of the rulers it keeps (with z_m > z_1 for m >= 2), and the
    nodes it examined, that gap included.

    seen has bit d for every difference d of the marks placed so far, back
    has bit t_max - x for every placed mark x, and a mark y is allowed next
    exactly when no y - x is in seen, that is when y lies outside
    forbid = OR_x (seen << x). A child that places y gets
    seen' = seen | ((back << y) >> t_max) and forbid | (seen' << y). That
    is exact above y, the only bits later windows read: the new shifted
    differences y + x_j - x_i are y itself (i = j), below y (x_j < x_i),
    or y + d with d = x_j - x_i in seen, which seen' << y covers.

    The node that places mark m-1 reads each child's window of last marks
    inline instead of recursing, and adds that window, a mask over lengths,
    to bit-sliced counters: bit y of planes[i] is bit i of the count for
    length y, and the mask ripples its carries up the planes. The nodes are
    those of a search that recursed to the last mark: each examined window,
    that of the last mark too, adds its width and is checked against the
    budget.
    """
    if m == 1:
        # the one gap is the length, a node when it is one asked for
        nodes = int(first_gap >= t_min)
        if nodes > node_budget:
            raise BudgetExceededError(node_budget, "golomb ruler search")
        return [nodes << first_gap], nodes
    top = 1 << (t_max + 1)
    # every count is at most the nodes spent, so at most the budget, and
    # fits in its bit length of planes
    planes = [0] * node_budget.bit_length()
    nodes = 0

    def rec(k: int, x: int, seen: int, back: int, forbid: int) -> None:
        # places mark k + 1 after the marks 0 .. x
        nonlocal nodes
        if k:
            # room for the later marks; the last gap must exceed the first
            lo = x + 1
            hi = t_max - (m - k - 1) - first_gap
        else:
            lo = hi = first_gap
        if hi < lo:
            return
        nodes += hi - lo + 1
        if nodes > node_budget:
            raise BudgetExceededError(node_budget, "golomb ruler search")
        free = ((1 << (hi + 1)) - (1 << lo)) & ~forbid
        if k < m - 2:
            while free:
                low = free & -free
                free ^= low
                y = low.bit_length() - 1
                s = seen | ((back << y) >> t_max)
                rec(k + 1, y, s, back | (1 << (t_max - y)), forbid | (s << y))
            return
        while free:
            low = free & -free
            free ^= low
            y = low.bit_length() - 1
            # the last mark's window
            lo = y + 1 + first_gap
            if lo < t_min:
                lo = t_min
            if lo > t_max:
                continue
            nodes += t_max - lo + 1
            if nodes > node_budget:
                raise BudgetExceededError(node_budget, "golomb ruler search")
            s = seen | ((back << y) >> t_max)
            last = (top - (1 << lo)) & ~(forbid | (s << y))
            i = 0
            while last:
                p = planes[i]
                planes[i] = p ^ last
                last &= p
                i += 1

    rec(0, 0, 0, 1 << t_max, 0)
    return planes, nodes


def optimal_length(m: int, *, budget: int | None = None) -> int:
    """Least t >= 1 admitting a Golomb ruler with m gaps.

    The m(m+1)/2 pairwise differences are distinct positive integers <= t,
    so the search starts at t = m(m+1)/2, and ends: the marks
    0, 1, 3, ..., 2^m - 1 make a ruler for every m. The lengths share one
    budget, each searched on what the ones before it left, and the first
    running total above it raises.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    limit = resolve_budget(budget)
    used = 0
    for t in count(m * (m + 1) // 2):
        try:
            counts, nodes = _run_search(m, t, t, limit - used, 1)
        except BudgetExceededError as exc:
            raise BudgetExceededError(limit, exc.where) from None
        if counts[t]:
            return t
        used += nodes
