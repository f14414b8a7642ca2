"""The flats of the equal-sum arrangement that meet the open orthant, and
the vertices of the subdivided simplex read off them.

A flat is an intersection of equal-sum hyperplanes (those of
arrangement.golomb_hyperplanes), ordered by reverse inclusion with R^m
itself as the bottom 0̂. The flats that meet the open orthant
{z : z_j > 0 for every j} form a down-set: a flat holding a positive point
lies in every flat below it. Only those are built, rank by rank, and each
comes with its Möbius value mu(0̂, u), which the down-set determines.

A flat is keyed by the bitmask of the hyperplanes that contain it, and
carries an integer basis of its integer points Z^m ∩ u. Joining a
hyperplane h reduces the basis columns against h by unimodular column
operations (_split, Euclid on the values h.b): one column keeps the gcd
of the values, the others vanish on h and are a basis of the integer
points of the join. Each column carries its products with every
hyperplane, which the same column operations keep exact, so the
hyperplanes holding a join are read off them, only those outside the
parent, whose hyperplanes hold every column already. A hyperplane
already in an earlier child's closure gives that child again and is
skipped; every other join is a search node counted against the budget.

A new flat needs an exact verdict: does it meet the open orthant? Each
flat of the rank being joined keeps up to m positive integer points on
it; R^m keeps 1 + m e_i, which put every normal 1_U - 1_V on both sides.
A point of the parent on h carries over, and points p, q on opposite
sides of h give (h.p) q - (h.q) p, positive and on h. A one-column join
meets the orthant when its column has one strict sign; any other join
with no point runs the LP (simplex.strict_cone_feasibility).

Zaslavsky's theorem for an arrangement restricted to an open convex set
counts the cells of the orthant as the sum of |mu(0̂, u)| over these flats
(1, 2, 10, 114, 2608 for m = 1..5), and the multiplicity of a non-negative
gap vector z as that sum over the flats through z, which `multiplicity`
reads off the lattice; weighted_counts sums it over the gap vectors of
total t as sum over u of |mu(0̂, u)| * N_u(t), where N_u(t) counts the
non-negative integer points of u with coordinate sum t. The
quasipolynomial module explains why, and checks reciprocity with it.

The vertices of the simplex {z >= 0, sum z = 1} subdivided by the family
are read off the rays, the one-column flats. On the face whose support T
has k coordinates, the normals taking both signs on T restrict to the
family of R^k, and the others cut no point positive on T; so the
vertices with support T are the rays of orthant_lattice(k), placed on T
and scaled to sum 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, product
from math import comb, lcm
from operator import itemgetter, mul

from golomb.arrangement import golomb_hyperplanes
from golomb.errors import DEFAULT_M_BOUND, DEFAULT_NODE_BUDGET, BudgetExceededError
from golomb.simplex import strict_cone_feasibility

Vector = tuple[int, ...]
Point = tuple[Fraction, ...]


def _split(columns, value) -> tuple[Vector | None, list[Vector]]:
    """Unimodular column reduction of `columns` against a linear map, value:
    the columns become one pivot, whose value is the gcd g > 0 of the
    values, and columns on which the map vanishes; together they span the
    same lattice. The pivot is None when the map vanishes on every column."""
    rest, live = [], []
    for c in columns:
        v = value(c)
        if v:
            live.append((v, c))
        else:
            rest.append(c)
    while len(live) > 1:
        live.sort(key=lambda vc: abs(vc[0]))
        v0, c0 = live[0]
        kept = [live[0]]
        for v, c in live[1:]:
            q = v // v0
            c = tuple(a - q * b for a, b in zip(c, c0))
            if v - q * v0:
                kept.append((v - q * v0, c))
            else:
                rest.append(c)
        live = kept
    if not live:
        return None, rest
    v, c = live[0]
    return (c if v > 0 else tuple(-a for a in c)), rest


@dataclass(frozen=True)
class Flat:
    mask: int                   # bit k: hyperplane k of the lattice holds the flat
    basis: tuple[Vector, ...]   # a basis of the flat's integer points
    mu: int                     # mu(0̂, u)

    @property
    def rank(self) -> int:
        return len(self.basis[0]) - len(self.basis)


@dataclass(frozen=True)
class Lattice:
    hyperplanes: tuple[Vector, ...]  # golomb_hyperplanes(m), which the masks index
    flats: tuple[Flat, ...]          # 0̂ first, then by rank
    nodes: int                       # the joins the build spent


# m -> its lattice; the only cache in this module
_LATTICES: dict[int, Lattice] = {}


def orthant_lattice(m: int, *, budget: int = DEFAULT_NODE_BUDGET) -> Lattice:
    """The flats of the equal-sum arrangement in R^m that meet the open
    orthant, with their Möbius values: R^m first, then rank by rank, each
    rank in the order its flats were first reached. The budget caps the
    joins, and the first one above it raises; m above DEFAULT_M_BOUND is
    refused before any work. The lattice is built once per m and kept; a
    later call whose budget is below the joins that build spent raises as a
    fresh build would."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > DEFAULT_M_BOUND:
        raise ValueError(f"m={m} is above the enumeration bound {DEFAULT_M_BOUND}")
    lattice = _LATTICES.get(m)
    if lattice is None:
        lattice = _LATTICES[m] = _build(m, budget)
    elif lattice.nodes > budget:
        raise BudgetExceededError(budget, f"intersection lattice of the m={m} hyperplanes")
    return lattice


def _build(m: int, limit: int) -> Lattice:
    hypers = golomb_hyperplanes(m)
    # each basis column: its m coordinates, then its products with the
    # hyperplanes
    masks = [0]
    bases = [tuple((*(int(i == j) for j in range(m)), *(h[i] for h in hypers)) for i in range(m))]
    covers: list[list[int]] = [[]]  # the flats each flat covers, by index
    full = (1 << len(hypers)) - 1
    # positive integer points on the flats of the current rank, by index
    points = {0: [tuple(1 + m * (i == j) for j in range(m)) for i in range(m)]}
    level = [0]
    nodes = 0
    while level:
        index: dict[int, int] = {}
        missed: set[int] = set()
        nxt = []
        reached = {}
        for i in level:
            basis = bases[i]
            if len(basis) == 1:
                continue  # a ray: its only join is the origin, off the orthant
            seen = masks[i]
            # every column of a child has product 0 with the hyperplanes
            # holding the parent, so only the others are read
            outside = [k for k in range(len(hypers)) if not seen >> k & 1]
            for k in outside:
                if seen >> k & 1:
                    continue
                nodes += 1
                if nodes > limit:
                    raise BudgetExceededError(limit, f"intersection lattice of the m={m} hyperplanes")
                _, child = _split(basis, itemgetter(m + k))
                nonzero = 0
                for c in child:
                    for j in outside:
                        if c[m + j]:
                            nonzero |= 1 << j
                mask = full ^ nonzero
                seen |= mask
                j = index.get(mask)
                if j is None:
                    if mask in missed:
                        continue
                    found = _positive_points(points[i], hypers[k], child, m)
                    if not found:
                        missed.add(mask)
                        continue
                    j = index[mask] = len(masks)
                    masks.append(mask)
                    bases.append(tuple(child))
                    covers.append([])
                    nxt.append(j)
                    reached[j] = found
                covers[j].append(i)
        level, points = nxt, reached
    # mu(0̂, u) = -(sum of mu over the flats strictly below u), found as a
    # bitset of flat indices through the cover links
    below = [0] * len(masks)
    mu = [1] * len(masks)
    for u in range(1, len(masks)):
        down = 0
        for p in covers[u]:
            down |= below[p] | 1 << p
        below[u] = down
        total = 0
        while down:
            low = down & -down
            down ^= low
            total += mu[low.bit_length() - 1]
        mu[u] = -total
    return Lattice(
        hypers,
        tuple(Flat(mask, tuple(c[:m] for c in basis), mu) for mask, basis, mu in zip(masks, bases, mu)),
        nodes,
    )


def _positive_points(parent, h, child, m: int) -> list[Vector]:
    """Up to m positive integer points on the join, with basis columns
    child, of the flat holding the points parent and the hyperplane of
    normal h; none when the join misses the open orthant. Each point is
    checked in integers, and each LP verdict by its certificate."""
    if len(child) == 1:
        c = child[0][:m]
        return [c] if min(c) > 0 else [tuple(-x for x in c)] if max(c) < 0 else []
    sides = [(sum(map(mul, h, p)), p) for p in parent]
    found = [p for v, p in sides if not v]
    crossed = (tuple(a * y - b * x for x, y in zip(p, q)) for a, p in sides if a > 0 for b, q in sides if b < 0)
    found += islice((r for r in crossed if min(r) > 0 and not sum(map(mul, h, r))), m - len(found))
    if found:
        return found
    rows = list(zip(*child))[:m]
    result = strict_cone_feasibility(rows)
    if not result:
        return []
    scale = lcm(*(w.denominator for w in result.witness))
    weights = [int(w * scale) for w in result.witness]
    return [tuple(sum(map(mul, weights, row)) for row in rows)]


def _level_counter(basis, charge):
    """t -> N_u(t), the non-negative integer points of the flat with this
    basis whose coordinates sum to t. Before a free coordinate is walked,
    charge(n) is told the n values it will take.

    Reducing the basis against the coordinate sum gives one column b with
    sum g > 0 and columns of sum 0; the points of sum t are then
    (t/g) b + sum_k w_k p_k over integers w_k when g divides t, and none
    otherwise. Reducing the zero-sum columns against z_1, z_2, ... in turn
    puts them in echelon form: p_k is zero above its pivot row j_k and
    positive there, so given w_1..w_{k-1}, 0 <= z_{j_k} <= t bounds w_k.
    The first free coordinates are walked between those bounds, and the
    last is counted in closed form from every z_j >= 0: O(1) per level
    for a flat of dimension 2 or less, O(t^(d-2)) at dimension d. R^m
    itself is the binomial C(t+m-1, m-1)."""
    m = len(basis[0])
    if len(basis) == m:
        return lambda t: comb(t + m - 1, m - 1)
    base, zero = _split(basis, sum)
    g = sum(base)
    pivots = []
    for j in range(m):
        if not zero:
            break
        p, zero = _split(zero, itemgetter(j))
        if p is not None:
            pivots.append((j, p))
    walked, last = pivots[:-1], pivots[-1][1] if pivots else None

    def count_last(z) -> int:
        if any(zj < 0 for zj, pj in zip(z, last) if not pj):
            return 0
        # a zero-sum column has entries of both signs, so both bounds exist
        lo = max(-(zj // pj) for zj, pj in zip(z, last) if pj > 0)
        hi = min(zj // -pj for zj, pj in zip(z, last) if pj < 0)
        return max(0, hi - lo + 1)

    def walk(z, k: int, t: int) -> int:
        if k == len(walked):
            return count_last(z)
        j, p = walked[k]
        total = 0
        values = range(-(z[j] // p[j]), (t - z[j]) // p[j] + 1)
        charge(len(values))
        for w in values:
            total += walk([a + w * b for a, b in zip(z, p)], k + 1, t)
        return total

    def count(t: int) -> int:
        if t % g:
            return 0
        z = [t // g * x for x in base]
        if last is None:
            return int(min(z) >= 0)
        return walk(z, 0, t)

    return count


def weighted_counts(lattice: Lattice, levels, limit: int) -> dict[int, int]:
    """sum over the flats u of |mu(0̂, u)| * N_u(t) for each t in levels:
    the multiplicities of the non-negative gap vectors of total t, summed.
    Each flat costs one node per level, and each value a walk gives a free
    coordinate one more; the first total above limit raises."""
    nodes = 0

    def charge(n: int) -> None:
        nonlocal nodes
        nodes += n
        if nodes > limit:
            raise BudgetExceededError(limit, "golomb reciprocity sum")

    terms = [(abs(f.mu), _level_counter(f.basis, charge)) for f in lattice.flats]
    sums = {}
    for t in levels:
        charge(len(terms))
        sums[t] = sum(weight * count(t) for weight, count in terms)
    return sums


def multiplicity(z, *, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Number of cell closures containing the non-negative gap vector z: the
    sum of |mu(0̂, u)| over the lattice's flats through z (the
    quasipolynomial module says why). A positive z has multiplicity 1
    exactly when it is a Golomb ruler; ties put z on a hyperplane and into
    several closures. The budget and the bound on m are orthant_lattice's.
    A lookup scans every flat, 1305 at m = 5 and 36 519 at m = 6, and keeps
    no memo."""
    gaps = tuple(z)
    if not gaps:
        raise ValueError("z needs at least one entry")
    if any(g < 0 for g in gaps):
        raise ValueError("entries must be non-negative")
    if not any(gaps):
        raise ValueError("the all-zero vector is not a ruler of positive length")
    lattice = orthant_lattice(len(gaps), budget=budget)
    on = sum(
        1 << k for k, h in enumerate(lattice.hyperplanes) if not sum(a * b for a, b in zip(h, gaps))
    )
    return sum(abs(f.mu) for f in lattice.flats if not f.mask & ~on)


def _rays(m: int, budget: int) -> dict[int, list[Vector]]:
    """k -> the primitive positive rays of orthant_lattice(k), k = m..1:
    m first, so its refusal comes before any smaller lattice is built."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return {
        k: [tuple(map(abs, f.basis[0])) for f in orthant_lattice(k, budget=budget).flats if len(f.basis) == 1]
        for k in range(m, 0, -1)
    }


def iop_vertices(m: int, *, budget: int = DEFAULT_NODE_BUDGET) -> tuple[Point, ...]:
    """Vertices of the subdivided simplex, sorted: each ray c of
    orthant_lattice(k) placed as c / sum(c) on every support of k
    coordinates. The budget and the bound on m are orthant_lattice's."""
    points = []
    for k, rays in _rays(m, budget).items():
        for support, c in product(combinations(range(m), k), rays):
            on = dict(zip(support, c))
            points.append(tuple(Fraction(on.get(j, 0), sum(c)) for j in range(m)))
    return tuple(sorted(points))


def period_bound(m: int, *, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """lcm of the coordinate denominators over all subdivision vertices,
    which is the lcm of the ray sums: c / sum(c) has denominators of lcm
    sum(c) for a primitive ray c. The counting period divides it."""
    return lcm(*(sum(c) for rays in _rays(m, budget).values() for c in rays))
