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
the counters are read once, when it ends. Every search with m >= 2 uses
gap reversal: no Golomb ruler has z_1 = z_m (they are the differences of
two distinct pairs of marks), reversal swaps them, so the search keeps
only z_m > z_1, prunes every level by that bound on the last gap, and
doubles the result.

A search node is one candidate gap examined: each level adds its window
width before walking its bits, the last mark's level too, although it is
read inline rather than called, and each first gap is one node. The
search raises as soon as its node total passes the budget.
"""

from __future__ import annotations

from itertools import count
from math import comb

from golomb.errors import DEFAULT_NODE_BUDGET, BudgetExceededError


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
    m: int, t_min: int, t_max: int, *, budget: int = DEFAULT_NODE_BUDGET
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
    counts = _run_search(m, t_min, t_max, budget)[0]
    return {t: counts[t] for t in range(t_min, t_max + 1)}


def _run_search(m: int, t_min: int, t_max: int, node_budget: int):
    """The counts by length 0 .. t_max and the nodes spent by the one
    search, run once the budget covers _node_floor."""
    check_node_floor(m, t_min, t_max, node_budget)
    planes, nodes = _search(m, t_min, t_max, node_budget)
    # for m >= 2 each counted ruler stands for itself and its reversal
    weight = 2 if m >= 2 else 1
    counts = [0] * (t_max + 1)
    for i, p in enumerate(planes):
        while p:
            low = p & -p
            p ^= low
            counts[low.bit_length() - 1] += weight << i
    return counts, nodes


def check_node_floor(m: int, t_min: int, t_max: int, node_budget: int) -> None:
    """Raise BudgetExceededError when the search over lengths t_min .. t_max
    needs more nodes than node_budget by _node_floor. Every search makes
    this check before it starts; a caller with other work to do before
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
    """Largest first gap of a kept ruler with m >= 2 gaps and length at
    most t_max: the last gap must exceed it."""
    return (t_max - m + 1) // 2


def _search(m: int, t_min: int, t_max: int, node_budget: int):
    """The depth-first search over the marks, every first gap in turn: the
    bit-sliced counters by length 0 .. t_max of the rulers it keeps (with
    z_m > z_1 for m >= 2), and the nodes it examined, one per first gap
    among them.

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
        # the one gap is the length, a node for each length asked for
        lo = max(t_min, 1)
        nodes = max(t_max - lo + 1, 0)
        if nodes > node_budget:
            raise BudgetExceededError(node_budget, "golomb ruler search")
        return [(1 << (t_max + 1)) - (1 << lo)], nodes
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
            # the first gap, one node, set by the loop below
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

    for first_gap in range(1, _first_gap_bound(m, t_max) + 1):
        rec(0, 0, 0, 1 << t_max, 0)
    return planes, nodes


def optimal_length(m: int, *, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Least t >= 1 admitting a Golomb ruler with m gaps.

    The m(m+1)/2 pairwise differences are distinct positive integers <= t,
    so the search starts at t = m(m+1)/2, and ends: the marks
    0, 1, 3, ..., 2^m - 1 make a ruler for every m. The lengths share one
    budget, each searched on what the ones before it left, and the first
    running total above it raises.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    used = 0
    for t in count(m * (m + 1) // 2):
        try:
            counts, nodes = _run_search(m, t, t, budget - used)
        except BudgetExceededError as exc:
            raise BudgetExceededError(budget, exc.where) from None
        if counts[t]:
            return t
        used += nodes
