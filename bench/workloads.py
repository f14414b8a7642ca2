"""The four workloads: the golomb commands each one runs, made from the seed,
and the checks on their outputs.

A workload is a list of operations, each one `golomb` command line. The
checks derive every expected value from the operations' inputs with the
independent code in oracles.py; nothing here imports golomb.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, log
from typing import Callable

from oracles import (
    CELL_COUNTS,
    CELLS_AT_ZERO,
    GOLOMB_Q,
    OPTIMAL_LENGTHS,
    PERIOD_BOUNDS,
    block_counts,
    brute_colorings,
    chi_from_blocks,
    denominator_lcm,
    golomb_count,
    interval_label,
    is_acyclic,
    linear_extensions,
    order_of_gaps,
    proper_intervals,
    subdivision_vertices,
)


@dataclass(frozen=True)
class Op:
    """One golomb command; `--format json --jobs 1` is appended when it runs.
    An input file, when there is one, is written under `input_name` in the
    worker's directory at set-up."""

    args: tuple[str, ...]
    input_name: str | None = None
    input_text: str | None = None


class CheckFailed(Exception):
    pass


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _arg(op: Op, flag: str) -> int:
    return int(op.args[op.args.index(flag) + 1])


def _check_each(ops, outputs, check_one) -> dict[int, str]:
    """Run check_one(op, payload) on every operation that produced output;
    return the failure message of each operation whose check failed."""
    failures = {}
    for i, (op, text) in enumerate(zip(ops, outputs)):
        if text is None:
            continue
        try:
            check_one(op, json.loads(text))
        except (CheckFailed, KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            failures[i] = f"{' '.join(op.args)}: {type(exc).__name__}: {exc}"
    return failures


# ------------------------------------------------------------------ census

CENSUS_SAMPLES = 300  # random gap vectors per m whose order must be listed


def census_ops(seed: int) -> list[Op]:
    return [Op(("regions", "--m", str(m), "--list")) for m in (4, 5)]


def census_check(seed: int, ops, outputs) -> dict[int, str]:
    def check_one(op, payload):
        m = _arg(op, "--m")
        orders = [tuple(o) for o in payload["orientations"]]
        expect(payload["m"] == m, f"m is {payload['m']}")
        expect(
            payload["count"] == len(orders) == CELL_COUNTS[m],
            f"count {payload['count']} with {len(orders)} listed; the published count is {CELL_COUNTS[m]}",
        )
        listed = set(orders)
        expect(len(listed) == len(orders), "an order is listed twice")
        intervals = {interval_label(iv): iv for iv in proper_intervals(m)}
        contained = [
            (interval_label(small), interval_label(big))
            for small in proper_intervals(m)
            for big in proper_intervals(m)
            if small != big and big[0] <= small[0] and small[1] <= big[1]
        ]
        for order in orders:
            expect(sorted(order) == sorted(intervals), f"{order} does not rank every proper interval once")
            pos = {label: i for i, label in enumerate(order)}
            expect(
                all(pos[small] < pos[big] for small, big in contained),
                f"{order} ranks an interval before one it contains",
            )
            reverse = tuple(
                interval_label((m + 1 - b, m + 1 - a)) for a, b in (intervals[x] for x in order)
            )
            expect(reverse != order, f"{order} is its own gap reversal")
            expect(reverse in listed, f"the gap reversal of {order} is not listed")
        rng = random.Random(f"{seed}/census/{m}")
        for _ in range(CENSUS_SAMPLES):
            gaps = [rng.randint(1, 10**6) for _ in range(m)]
            order = order_of_gaps(gaps)
            expect(order is None or order in listed, f"gap vector {gaps} ranks as {order}, which is not listed")

    return _check_each(ops, outputs, check_one)


# ------------------------------------------------------------------ counting

COUNT_RANGES = {3: 150, 4: 60, 5: 45}  # g_m(t) is counted for t = 1 .. this
RECOUNT_MAX = {4: 30, 5: 25}  # g_4, g_5 are recounted up to here and at RECOUNT_SAMPLES seeded lengths above
RECOUNT_SAMPLES = 3


def counting_ops(seed: int) -> list[Op]:
    """Table 1, then each g_m range split at a seeded length into two commands."""
    rng = random.Random(f"{seed}/counting")
    ops = [Op(("golomb-count", "--check-table1"))]
    for m, last in COUNT_RANGES.items():
        cut = rng.randint(last // 3, 2 * last // 3)
        for lo, hi in ((1, cut), (cut + 1, last)):
            ops.append(Op(("golomb-count", "--m", str(m), "--t-min", str(lo), "--t-max", str(hi))))
    return ops


def counting_check(seed: int, ops, outputs) -> dict[int, str]:
    rng = random.Random(f"{seed}/counting/recount")
    recount = {}
    for m, top in RECOUNT_MAX.items():
        lengths = [*range(OPTIMAL_LENGTHS[m], top + 1), *rng.sample(range(top + 1, COUNT_RANGES[m] + 1), RECOUNT_SAMPLES)]
        recount.update({(m, t): golomb_count(m, t) for t in lengths})

    def check_one(op, payload):
        if "--check-table1" in op.args:
            m, ts = 3, range(6, 36)
            expect(payload["check"] == {"ok": True, "mismatches": []}, f"check is {payload['check']}")
        else:
            m, ts = _arg(op, "--m"), range(_arg(op, "--t-min"), _arg(op, "--t-max") + 1)
        expect(payload["m"] == m, f"m is {payload['m']}")
        rows = [(row["t"], row["count"]) for row in payload["rows"]]
        expect([t for t, _ in rows] == list(ts), "the rows do not cover the requested lengths")
        for t, count in rows:
            if m == 3:
                expect(count == GOLOMB_Q[3](t), f"g_3({t}) = {count}; the closed form gives {GOLOMB_Q[3](t)}")
                continue
            expect(count % 2 == 0, f"g_{m}({t}) = {count} is odd; gap reversal pairs the rulers")
            shortest = OPTIMAL_LENGTHS[m]
            expect(t >= shortest or count == 0, f"g_{m}({t}) = {count} below the optimal length {shortest}")
            expect(t != shortest or count > 0, f"g_{m}({t}) = 0 at the optimal length")
            if (m, t) in recount:
                expect(count == recount[m, t], f"g_{m}({t}) = {count}; the benchmark's own search gives {recount[m, t]}")

    return _check_each(ops, outputs, check_one)


# ------------------------------------------------------------------ geometry

RECIPROCITY_T_MAX = {2: 100, 3: 70}


def geometry_ops(seed: int) -> list[Op]:
    ops = [Op(("vertices", "--m", str(m))) for m in (2, 3, 4)]
    ops += [Op(("quasipoly", "--m", str(m))) for m in (1, 2, 3)]
    ops += [
        Op(("reciprocity", "golomb", "--m", str(m), "--t-min", "0", "--t-max", str(top)))
        for m, top in RECIPROCITY_T_MAX.items()
    ]
    return ops


def _quasipolynomial_value(data, t: int) -> Fraction:
    coeffs = [Fraction(c) for c in data["constituents"][t % data["period"]]]
    return sum(c * t**k for k, c in enumerate(coeffs))


def geometry_check(seed: int, ops, outputs) -> dict[int, str]:
    vertices = {m: subdivision_vertices(m) for m in (1, 2, 3, 4)}

    def check_one(op, payload):
        m = _arg(op, "--m")
        command = op.args[0]
        if command == "vertices":
            listed = [tuple(Fraction(c) for c in point) for point in payload["vertices"]]
            expect(payload["m"] == m, f"m is {payload['m']}")
            expect(len(set(listed)) == len(listed), "a vertex is listed twice")
            expect(set(listed) == vertices[m], "the vertex set differs from the Cramer's-rule enumeration")
            expect(
                payload["period_bound"] == denominator_lcm(vertices[m]) == PERIOD_BOUNDS[m],
                f"period bound {payload['period_bound']}; expected {PERIOD_BOUNDS[m]}",
            )
        elif command == "quasipoly":
            q = payload["quasipolynomial"]
            period = denominator_lcm(vertices[m])
            expect(payload["degree"] == m - 1, f"degree {payload['degree']}")
            expect(
                Fraction(payload["leading_coefficient"]) == Fraction(1, factorial(m - 1)),
                f"leading coefficient {payload['leading_coefficient']}",
            )
            expect(q["period"] == payload["period_bound"] == period, f"period {q['period']}; expected {period}")
            for t in range(-2 * period - m, 2 * period + m):
                expect(
                    _quasipolynomial_value(q, t) == GOLOMB_Q[m](t),
                    f"q({t}) = {_quasipolynomial_value(q, t)}; the closed form gives {GOLOMB_Q[m](t)}",
                )
            expect(Fraction(payload["value_at_zero"]) == GOLOMB_Q[m](0), f"q(0) = {payload['value_at_zero']}")
        else:
            sign = (-1) ** (m - 1)
            rows = payload["rows"]
            expect(payload["ok"] is True and payload["m"] == m, f"ok {payload['ok']}, m {payload['m']}")
            expect([row["t"] for row in rows] == list(range(_arg(op, "--t-max") + 1)), "wrong lengths")
            for row in rows:
                lhs = sign * GOLOMB_Q[m](-row["t"])
                expect(Fraction(row["lhs"]) == lhs, f"t={row['t']}: lhs {row['lhs']}; expected {lhs}")
                expect(row["rhs"] == lhs and row["ok"] is True, f"t={row['t']}: rhs {row['rhs']}; expected {lhs}")
            expect(rows[0]["rhs"] == CELLS_AT_ZERO[m], f"rhs at t=0 is {rows[0]['rhs']}")

    return _check_each(ops, outputs, check_one)


# ------------------------------------------------------------------ mixed

# vertices, edges, arcs, graphs per round, target work (see _search_work)
MIXED_SHAPES = ((8, 12, 5, 2, 700_000), (7, 10, 4, 6, 130_000))
MIXED_CANDIDATES = 32  # seeded candidates per shape; the closest to the target are kept
MIXED_T = {"chroma": 3, "reciprocity": 2}


def _random_mixed_graph(rng: random.Random, n: int, edges: int, arcs: int):
    """Arcs follow a random vertex order, so they are acyclic; they may run
    from lower to higher vertex numbers or the other way."""
    order = rng.sample(range(1, n + 1), n)
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    return pairs[arcs : arcs + edges], pairs[:arcs]


def _search_work(n: int, edges, arcs) -> int:
    """Work of the four mixed commands on a graph in units of colour trials:
    counting proper colourings vertex by vertex at t = 0..n (done for `chroma`
    and again inside `reciprocity`) tries t colours for every proper
    colouring of each vertex prefix, and the reciprocity sum tests 2^n maps
    against every acyclic orientation. Used only to pick graphs of equal
    difficulty, so that the seed changes which graphs run but not how long
    they take."""
    table = block_counts(n, edges, arcs)
    trials = sum(
        t * chi_from_blocks(table[(1 << k) - 1], t) for t in range(n + 1) for k in range(n)
    )
    orientations = (-1) ** n * chi_from_blocks(table[-1], -1)
    return 2 * trials + 2 ** (n + 1) * orientations


def mixed_graphs(seed: int) -> list[tuple[int, list, list]]:
    """Graphs of fixed vertex, edge and arc counts, with arcs in both index
    directions, whose work lies closest to the shape's target."""
    graphs = []
    for n, n_edges, n_arcs, keep, target in MIXED_SHAPES:
        rng = random.Random(f"{seed}/mixed/{n}")
        candidates = []
        while len(candidates) < MIXED_CANDIDATES:
            edges, arcs = _random_mixed_graph(rng, n, n_edges, n_arcs)
            if any(u < v for u, v in arcs) and any(u > v for u, v in arcs):
                distance = abs(log(_search_work(n, edges, arcs) / target))
                candidates.append((distance, len(candidates), edges, arcs))
        chosen = sorted(candidates)[:keep]
        graphs += [(n, edges, arcs) for _, _, edges, arcs in sorted(chosen, key=lambda c: c[1])]
    return graphs


def mixed_ops(seed: int) -> list[Op]:
    ops = []
    for i, (n, edges, arcs) in enumerate(mixed_graphs(seed)):
        name = f"graph{i}.json"
        text = json.dumps({"n": n, "edges": edges, "arcs": arcs})
        for args in (
            ("mixed", "chroma", "--t", str(MIXED_T["chroma"])),
            ("mixed", "orientations"),
            ("mixed", "chromatic-number"),
            ("reciprocity", "mixed", "--t", str(MIXED_T["reciprocity"])),
        ):
            ops.append(Op(args + ("--input", name), name, text))
    return ops


def mixed_check(seed: int, ops, outputs) -> dict[int, str]:
    graphs = {}
    for op in ops:
        if op.input_name not in graphs:
            graph = json.loads(op.input_text)
            n, edges, arcs = graph["n"], [tuple(e) for e in graph["edges"]], [tuple(a) for a in graph["arcs"]]
            graphs[op.input_name] = (n, edges, arcs, block_counts(n, edges, arcs)[-1])

    def check_one(op, payload):
        n, edges, arcs, blocks = graphs[op.input_name]

        def chi(t: int) -> int:
            return chi_from_blocks(blocks, t)

        sign = (-1) ** n
        expect(payload["n"] == n, f"n is {payload['n']}")
        if op.args[:2] == ("mixed", "chroma"):
            poly = [Fraction(c) for c in payload["polynomial"]]
            lead = Fraction(linear_extensions(n, arcs), factorial(n))
            expect(len(poly) == n + 1 and poly[-1] == lead, f"chi has not degree {n} and leading coefficient {lead}")
            for t in range(n + 1):
                value = sum(c * t**k for k, c in enumerate(poly))
                expect(value == chi(t), f"chi({t}) = {value}; the subset DP gives {chi(t)}")
            t = MIXED_T["chroma"]
            brute = brute_colorings(n, edges, arcs, t)
            expect(payload["t"] == t and payload["count"] == brute, f"chi({t}) = {payload['count']}; all {t}^{n} maps give {brute}")
        elif op.args[:2] == ("mixed", "orientations"):
            listed = [tuple(tuple(arc) for arc in o) for o in payload["orientations"]]
            expect(
                payload["count"] == len(listed) == sign * chi(-1),
                f"{payload['count']} orientations, {len(listed)} listed; (-1)^n chi(-1) = {sign * chi(-1)}",
            )
            expect(len(set(listed)) == len(listed), "an orientation is listed twice")
            undirected = sorted(tuple(sorted(e)) for e in edges)
            for o in listed:
                expect(sorted(tuple(sorted(arc)) for arc in o) == undirected, f"{o} does not orient every edge once")
                expect(is_acyclic(n, list(arcs) + list(o)), f"{o} has a directed cycle")
        elif op.args[:2] == ("mixed", "chromatic-number"):
            least = next(t for t in range(n + 1) if chi(t) > 0)
            expect(payload["chromatic_number"] == least, f"chromatic number {payload['chromatic_number']}; expected {least}")
        else:
            t = MIXED_T["reciprocity"]
            lhs = sign * chi(-t)
            expect(payload["t"] == t and Fraction(payload["lhs"]) == lhs, f"lhs {payload['lhs']}; (-1)^n chi(-{t}) = {lhs}")
            expect(payload["rhs"] == lhs and payload["ok"] is True, f"rhs {payload['rhs']}; expected {lhs}")

    return _check_each(ops, outputs, check_one)


@dataclass(frozen=True)
class Workload:
    ops: Callable[[int], list[Op]]
    check: Callable[[int, list[Op], list], dict[int, str]]  # (seed, ops, outputs or None) -> failures


WORKLOADS = {
    "census": Workload(census_ops, census_check),
    "counting": Workload(counting_ops, counting_check),
    "geometry": Workload(geometry_ops, geometry_check),
    "mixed": Workload(mixed_ops, mixed_check),
}
