"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports golomb: every expected value is either a published
constant, a closed form derived by hand, or a brute-force or subset-DP count
written for this benchmark alone. None of it is a stored copy of the
program's output.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import comb, lcm

# Published constants (the source paper and its OEIS-style tables).
CELL_COUNTS = {4: 114, 5: 2608}          # cells of the subdivided simplex
OPTIMAL_LENGTHS = {3: 6, 4: 11, 5: 17}   # shortest Golomb rulers with m gaps
PERIOD_BOUNDS = {2: 2, 3: 12, 4: 840}    # lcm of the vertex denominators
CELLS_AT_ZERO = {2: 2, 3: 10}            # (-1)^(m-1) q(0): cells for m = 2, 3


# ---------------------------------------------------------------- intervals

def proper_intervals(m: int) -> list[tuple[int, int]]:
    """Consecutive index intervals [a, b] of 1..m other than [1, m]."""
    return [(a, b) for a in range(1, m + 1) for b in range(a, m + 1) if (a, b) != (1, m)]


def interval_label(interval: tuple[int, int]) -> str:
    a, b = interval
    return "".join(str(i) for i in range(a, b + 1))


def order_of_gaps(gaps) -> tuple[str, ...] | None:
    """Labels of the proper intervals ranked by their gap sums, smallest
    first, or None when two sums tie (the gap vector is not generic)."""
    m = len(gaps)
    prefix = [0]
    for g in gaps:
        prefix.append(prefix[-1] + g)
    sums = {iv: prefix[iv[1]] - prefix[iv[0] - 1] for iv in proper_intervals(m)}
    if len(set(sums.values())) != len(sums):
        return None
    return tuple(interval_label(iv) for iv in sorted(sums, key=sums.get))


# ---------------------------------------------------------------- rulers

def golomb_count(m: int, t: int) -> int:
    """Golomb gap vectors with m positive parts summing to t: a depth-first
    search over the marks, left to right, that keeps the set of differences
    used so far and drops a branch when a new mark repeats one."""
    count = 0

    def extend(marks: list[int], diffs: set[int]) -> None:
        nonlocal count
        if len(marks) == m:
            count += not {t - x for x in marks} & diffs
            return
        for y in range(marks[-1] + 1, t - (m - len(marks)) + 1):
            new = {y - x for x in marks}
            if not new & diffs:
                marks.append(y)
                extend(marks, diffs | new)
                marks.pop()

    extend([0], set())
    return count


# ---------------------------------------------------------------- quasipolynomials

def golomb_q1(t: int) -> Fraction:
    return Fraction(1)


def golomb_q2(t: int) -> Fraction:
    return Fraction(t - 1 - (t % 2 == 0))


def golomb_q3(t: int) -> Fraction:
    """The paper's period-12 quasipolynomial for m = 3 (four markings).

    Inclusion-exclusion over the five planes z1=z2, z1=z3, z2=z3,
    z1=z2+z3 and z3=z1+z2 inside the positive compositions of t gives
    C(t-1, 2) - 3*floor((t-1)/2) - 2*[2|t]*(t/2 - 1) + 2*[3|t] + 2*[4|t],
    which splits by parity into the constituents below. Valid at every
    integer t, negative ones included.
    """
    three = 2 * (t % 3 == 0)
    if t % 2:
        return Fraction(t * t, 2) - 3 * t + Fraction(5, 2) + three
    return Fraction(t * t, 2) - 4 * t + 6 + three + 2 * (t % 4 == 0)


GOLOMB_Q = {1: golomb_q1, 2: golomb_q2, 3: golomb_q3}


# ---------------------------------------------------------------- vertices

def _det(a: list[list[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in a]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def equal_sum_normals(m: int) -> set[tuple[int, ...]]:
    """Normals of sum(z_U) = sum(z_V) over disjoint proper intervals U < V."""
    normals = set()
    for u, v in combinations(proper_intervals(m), 2):
        if u[1] < v[0] or v[1] < u[0]:
            vec = [0] * m
            for i in range(u[0], u[1] + 1):
                vec[i - 1] += 1
            for i in range(v[0], v[1] + 1):
                vec[i - 1] -= 1
            normals.add(tuple(vec))
    return normals


def subdivision_vertices(m: int) -> set[tuple[Fraction, ...]]:
    """Points of the closed simplex {z >= 0, sum z = 1} cut out by m-1 of the
    equal-sum planes and facets z_j = 0, solved by Cramer's rule."""
    planes = sorted(equal_sum_normals(m)) + [
        tuple(int(i == j) for i in range(m)) for j in range(m)
    ]
    points = set()
    for chosen in combinations(planes, m - 1):
        rows = [[1] * m] + [list(p) for p in chosen]
        d = _det(rows)
        if d == 0:
            continue
        point = []
        for col in range(m):
            replaced = [row[:col] + [int(i == 0)] + row[col + 1:] for i, row in enumerate(rows)]
            point.append(Fraction(_det(replaced), d))
        if all(c >= 0 for c in point):
            points.add(tuple(point))
    return points


def denominator_lcm(points) -> int:
    return lcm(*(c.denominator for p in points for c in p))


# ---------------------------------------------------------------- mixed graphs

def block_counts(n: int, edges, arcs) -> list[list[int]]:
    """For every vertex subset S (bit mask), a[k] = number of ordered
    partitions of S into k nonempty independent blocks with every arc inside
    S pointing to a strictly later block. Then chi_S(t) = sum a[k] C(t, k)."""
    adjacent = [0] * n
    tails_into = [0] * n
    for u, v in edges:
        adjacent[u - 1] |= 1 << (v - 1)
        adjacent[v - 1] |= 1 << (u - 1)
    for u, v in arcs:
        adjacent[u - 1] |= 1 << (v - 1)
        adjacent[v - 1] |= 1 << (u - 1)
        tails_into[v - 1] |= 1 << (u - 1)
    size = 1 << n
    independent = [True] * size
    tails = [0] * size
    for s in range(1, size):
        low = s & -s
        v = low.bit_length() - 1
        rest = s ^ low
        independent[s] = independent[rest] and not adjacent[v] & rest
        tails[s] = tails[rest] | tails_into[v]
    table: list[list[int]] = [[1] + [0] * n]
    for s in range(1, size):
        acc = [0] * (n + 1)
        block = s
        while block:
            if independent[block] and not tails[block] & s:
                for k, count in enumerate(table[s ^ block][:n]):
                    acc[k + 1] += count
            block = (block - 1) & s
        table.append(acc)
    return table


def chi_from_blocks(a, t: int) -> int:
    """Evaluate sum a[k] C(t, k), using C(-s, k) = (-1)^k C(s+k-1, k) for t < 0."""
    if t >= 0:
        return sum(ak * comb(t, k) for k, ak in enumerate(a))
    return sum(ak * (-1) ** k * comb(-t + k - 1, k) for k, ak in enumerate(a))


def brute_colorings(n: int, edges, arcs, t: int) -> int:
    """Maps V -> {1..t}, different across edges, increasing along arcs,
    counted over all t^n maps."""
    total = 0
    for code in range(t**n):
        c = []
        for _ in range(n):
            code, digit = divmod(code, t)
            c.append(digit)
        if all(c[u - 1] != c[v - 1] for u, v in edges) and all(
            c[u - 1] < c[v - 1] for u, v in arcs
        ):
            total += 1
    return total


def is_acyclic(n: int, arcs) -> bool:
    succ = {v: [] for v in range(1, n + 1)}
    indegree = dict.fromkeys(range(1, n + 1), 0)
    for u, v in arcs:
        succ[u].append(v)
        indegree[v] += 1
    ready = [v for v, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in succ[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    return seen == n


def linear_extensions(n: int, arcs) -> int:
    """Vertex orders putting every arc's tail first. chi of a mixed graph on n
    vertices has degree n and leading coefficient this count over n!, so it is
    monic exactly when there are no arcs."""
    count = 0
    for order in permutations(range(n)):
        position = [0] * n
        for i, v in enumerate(order):
            position[v] = i
        count += all(position[u - 1] < position[v - 1] for u, v in arcs)
    return count
