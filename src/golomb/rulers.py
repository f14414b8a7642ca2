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
shift of the new seen, exact above the new mark (see _search). The node
that places mark m-1 counts every ruler below it without a call per
ruler: when it has many allowed marks, by one product of two big integers
whose fields count the pairs of last two marks for every length at once
(Kronecker substitution), added into a field accumulator; otherwise it
walks its allowed marks and adds each child's window of last marks, a
mask over lengths, to bit-sliced counters. One search counts every
length of a range; the counters are read once, when it ends, and the
accumulator also whenever its fields could overflow. Every search with
m >= 2 uses gap reversal: no Golomb ruler has z_1 = z_m (they are the
differences of two distinct pairs of marks), reversal swaps them, so the
search keeps only z_m > z_1, prunes every level by that bound on the last
gap, and doubles the result.

A search node is one candidate gap examined: each level adds its window
width before walking its bits, the last mark's level too, although it is
read inline rather than called, and each first gap is one node. The
search raises as soon as a node takes its total past the budget.
"""

from __future__ import annotations

import struct
from itertools import count
from math import comb

from golomb.errors import DEFAULT_NODE_BUDGET, BudgetExceededError

# the allowed marks m-1 from which a search node counts its last two marks
# by one product instead of a walk (see _search)
_DENSE = 12
_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")
_FIELD_CODES = {2: "H", 4: "I", 8: "Q"}


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
    counts, nodes = _search(m, t_min, t_max, node_budget)
    if m >= 2:
        # each counted ruler stands for itself and its reversal
        counts = [2 * c for c in counts]
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
    counts by length 0 .. t_max of the rulers it keeps (with z_m > z_1 for
    m >= 2), and the nodes it examined, one per first gap among them.

    seen has bit d for every difference d of the marks placed so far, back
    has bit t_max - x for every placed mark x, and a mark y is allowed next
    exactly when no y - x is in seen, that is when y lies outside
    forbid = OR_x (seen << x). A child that places y gets
    seen' = seen | ((back << y) >> t_max) and forbid | (seen' << y). That
    is exact above y, the only bits later windows read: the new shifted
    differences y + x_j - x_i are y itself (i = j), below y (x_j < x_i),
    or y + d with d = x_j - x_i in seen, which seen' << y covers.

    The node that places mark m-1 counts its pairs (y, z) of last two
    marks without a call per y. With A its allowed marks y and
    B = {d > z_1 : d not in seen}, a length z in t_min .. t_max outside
    forbid is a ruler once for every y in A with z - y in B, except where
    z - y repeats a difference y - x of a placed mark x:

        count(z) = #{y in A : z - y in B}
                   - #{x placed : (z + x) / 2 in A, (z - x) / 2 > z_1}.

    When A has at least _DENSE marks, the first term is one product of A
    and B, each spread into W-bit fields (Kronecker substitution), and the
    second is m-1 shifts of A spread at stride 2W (_last_pairs); the
    fields of other lengths are masked off, and the rest is added to a
    field accumulator. A field of one node is at most |A| <= t_max, so W
    is the least of 16, 32, 64 bits that holds t_max (8-bit fields would
    flush every node or two), and the accumulator is added into the counts
    before the |A| summed since its last flush could pass 2^W - 1. A node
    with fewer marks walks them, and adds each window of last marks, a
    mask over lengths, to bit-sliced counters: bit y of planes[i] is bit i
    of the count for length y, and the mask ripples its carries up the
    planes. _DENSE is a measured constant, not an option: below about a
    dozen marks the spreads and the product cost more than the walk, above
    it less, at every range measured (t_max from 34 to 1000), so no caller
    would want another value.

    The nodes are those of a search that recursed to the last mark: each
    examined window, that of the last mark too, adds its width. Every node
    checks the budget once it has added its windows; the node that places
    mark m-1 adds those of all its last marks first, in closed form
    (_window_total) when it counts by product. As the total only grows,
    the verdict is that of a check after every window.
    """
    if m == 1:
        # the one gap is the length, a node for each length asked for
        lo = max(t_min, 1)
        nodes = max(t_max - lo + 1, 0)
        if nodes > node_budget:
            raise BudgetExceededError(node_budget, "golomb ruler search")
        return [int(t >= lo) for t in range(t_max + 1)], nodes
    top = 1 << (t_max + 1)
    # every count is at most the nodes spent, so at most the budget, and
    # fits in its bit length of planes
    planes = [0] * node_budget.bit_length()
    counts = [0] * (t_max + 1)
    # the field accumulator, w bytes a length, takes spare more marks of
    # dense nodes before a field could overflow
    w = 2
    while t_max >> (8 * w):
        w *= 2
    field_max = (1 << (8 * w)) - 1
    acc = 0
    spare = field_max
    positions = _position_masks(t_max)
    nodes = 0

    def rec(k: int, x: int, seen: int, back: int, forbid: int) -> None:
        # places mark k + 1 after the marks 0 .. x
        nonlocal nodes, acc, spare
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
        # every y of free has a non-empty window of last marks,
        # max(y + 1 + first_gap, t_min) .. t_max, as y <= t_max - 1 - first_gap
        size = free.bit_count()
        if size >= _DENSE:
            nodes += _window_total(free, size, first_gap, t_min, t_max, positions)
            if size > spare:
                _add_fields(counts, acc, w)
                acc = 0
                spare = field_max
            spare -= size
            acc += _last_pairs(free, lo, seen, back, forbid, first_gap, t_min, t_max, w)
        else:
            while free:
                low = free & -free
                free ^= low
                y = low.bit_length() - 1
                # the last mark's window
                lo = y + 1 + first_gap
                if lo < t_min:
                    lo = t_min
                nodes += t_max - lo + 1
                s = seen | ((back << y) >> t_max)
                last = (top - (1 << lo)) & ~(forbid | (s << y))
                i = 0
                while last:
                    p = planes[i]
                    planes[i] = p ^ last
                    last &= p
                    i += 1
        if nodes > node_budget:
            raise BudgetExceededError(node_budget, "golomb ruler search")

    for first_gap in range(1, _first_gap_bound(m, t_max) + 1):
        rec(0, 0, 0, 1 << t_max, 0)
    _add_fields(counts, acc, w)
    for i, p in enumerate(planes):
        while p:
            low = p & -p
            p ^= low
            counts[low.bit_length() - 1] += 1 << i
    return counts, nodes


def _window_total(
    free: int, size: int, first_gap: int, t_min: int, t_max: int, positions: list[int]
) -> int:
    """The summed widths of the last-mark windows max(y + 1 + first_gap,
    t_min) .. t_max of the size marks y of free: t_max - t_min + 1 up to
    y = t_min - 1 - first_gap, t_max - first_gap - y above."""
    cut = t_min - first_gap
    upper = free >> cut << cut if cut > 0 else free
    above = upper.bit_count()
    total = (size - above) * (t_max - t_min + 1) + above * (t_max - first_gap)
    return total - sum((upper & p).bit_count() << j for j, p in enumerate(positions))


def _last_pairs(
    free: int, lo: int, seen: int, back: int, forbid: int,
    first_gap: int, t_min: int, t_max: int, w: int,
) -> int:
    """The rulers of one node that places mark m-1, by length: field z of
    the result, w bytes wide, counts the pairs (y, z) of last two marks
    with y in free, its allowed marks from lo up (see _search)."""
    width = 8 * w
    # field i of the spread of A is y = lo + i, of B d = first_gap + 1 + i,
    # so of their product the length base + i
    base = lo + first_gap + 1
    n = t_max - base + 1
    marks = free >> lo
    pairs = _spread(marks, n, w) * _spread(~seen >> (first_gap + 1) & ((1 << n) - 1), n, w)
    doubled = _spread(marks, n, 2 * w)
    while back:
        low = back & -back
        back ^= low
        x = t_max + 1 - low.bit_length()
        # the y of free above x + first_gap, each at field 2 y - x - base
        skip = max(x + first_gap + 1 - lo, 0)
        pairs -= doubled >> (2 * width * skip) << (width * (2 * skip + lo - x - first_gap - 1))
    # a field up to t_max loses only pairs the product counted, as y >= lo
    # keeps z - y in B's n fields; above t_max a subtraction may borrow, but
    # only upwards, and the mask drops those fields
    allowed = ((1 << (t_max + 1)) - (1 << max(t_min, base))) & ~forbid
    return (pairs & _spread(allowed >> base, n, w) * ((1 << width) - 1)) << (width * base)


def _spread(mask: int, n: int, w: int) -> int:
    """Bits 0 .. n-1 of mask, which is below 2^n, spread into fields of w
    bytes: bit y of mask is bit 8 w y of the result."""
    fields = bytearray(n * w)
    fields[w - 1 :: w] = format(mask, f"0{n}b").encode().translate(_ZERO_ONE)
    return int.from_bytes(fields, "big")


def _add_fields(counts: list[int], acc: int, w: int) -> None:
    """Add field t of acc, w bytes wide, to counts[t] for every t."""
    if acc:
        n = len(counts)
        fields = struct.unpack(f"<{n}{_FIELD_CODES[w]}", acc.to_bytes(n * w, "little"))
        counts[:] = map(int.__add__, counts, fields)


def _position_masks(t_max: int) -> list[int]:
    """masks[j] has bit y, for 0 <= y <= t_max, exactly when y has bit j,
    so a mask A has sum(y in A) = sum((A & masks[j]).bit_count() << j)."""
    masks = []
    for j in range(t_max.bit_length()):
        period = 2 << j
        repeats = ((1 << (period * (t_max // period + 1))) - 1) // ((1 << period) - 1)
        masks.append((((1 << (1 << j)) - 1) << (1 << j)) * repeats & ((2 << t_max) - 1))
    return masks


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
