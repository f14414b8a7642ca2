"""Command line front end.

Subcommands mirror the library: ruler counting, quasipolynomial
construction, cell/orientation enumeration, reciprocity checks, mixed
graph utilities, and vertex export. JSON output is emitted with sorted
keys and a fixed indent so it re-serializes byte for byte.

Exit codes: 0 success, 1 usage or input error, 2 budget or ceiling
exhausted, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from golomb import golomb_graph, mixed_graphs
from golomb.arrangement import period_bound, vertices_csv_rows, vertices_json_dict
from golomb.config import BUDGET_ENV_VAR, RunConfig, resolve_budget
from golomb.errors import BudgetExceededError, CeilingExceededError, LeadingCoefficientError
from golomb.fixtures import FIXTURE_GRAPHS, KNOWN_COUNTS_M3
from golomb.quasipolynomial import golomb_quasipolynomial, reciprocity_check_golomb
from golomb.ratpoly import format_fraction, poly_str
from golomb.rulers import count_golomb_rulers

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_MISMATCH = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2) on usage errors
        raise _UsageError(message)


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--budget", type=int, default=None,
                        help=f"search node budget (default {BUDGET_ENV_VAR} or 10^9)")
    common.add_argument("--jobs", type=int, default=1, help="parallel workers for enumerations")
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--output", default=None, help="write output to this path instead of stdout")

    parser = _Parser(prog="golomb", description="Golomb ruler and mixed graph enumeration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("golomb-count", parents=[common], help="count Golomb rulers by length")
    p.add_argument("--m", type=int, help="number of gaps (markings minus one)")
    p.add_argument("--t", type=int, help="single length")
    p.add_argument("--t-min", type=int, help="first length of a range")
    p.add_argument("--t-max", type=int, help="last length of a range")
    p.add_argument("--check-table1", action="store_true",
                   help="compare m=3 counts for t=6..35 against the bundled reference values")
    p.set_defaults(func=_cmd_golomb_count)

    p = sub.add_parser("quasipoly", parents=[common], help="counting quasipolynomial with diagnostics")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--period", type=int, default=None, help="override the period hypothesis")
    p.set_defaults(func=_cmd_quasipoly)

    p = sub.add_parser("regions", parents=[common], help="admissible orientation census")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--list", action="store_true", help="include the orientations themselves")
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser("reciprocity", parents=[common], help="negative-argument checks")
    p.add_argument("mode", choices=("golomb", "mixed"))
    p.add_argument("--m", type=int, help="gap count (golomb mode)")
    p.add_argument("--t", type=int, help="single argument")
    p.add_argument("--t-min", type=int)
    p.add_argument("--t-max", type=int)
    p.add_argument("--input", help="mixed graph JSON file (mixed mode)")
    p.add_argument("--fixture", choices=sorted(FIXTURE_GRAPHS), help="bundled graph (mixed mode)")
    p.set_defaults(func=_cmd_reciprocity)

    p = sub.add_parser("mixed", parents=[common], help="mixed graph utilities")
    p.add_argument("action", choices=("chroma", "orientations", "chromatic-number"))
    p.add_argument("--input", help="mixed graph JSON file")
    p.add_argument("--fixture", choices=sorted(FIXTURE_GRAPHS), help="bundled graph")
    p.add_argument("--t", type=int, help="color count for chroma")
    p.set_defaults(func=_cmd_mixed)

    p = sub.add_parser("vertices", parents=[common], help="subdivision vertices and period bound")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_vertices)

    return parser


def _write(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        with open(cfg.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(cfg: RunConfig, payload) -> None:
    _write(cfg, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_text(cfg: RunConfig, lines) -> None:
    _write(cfg, "".join(line + "\n" for line in lines))


def _emit_csv(cfg: RunConfig, header, rows) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    _write(cfg, buffer.getvalue())


def _no_csv(cfg: RunConfig) -> None:
    if cfg.fmt == "csv":
        raise _UsageError("csv output is only available for golomb-count and vertices")


def _t_values(args) -> list[int]:
    if args.t is not None:
        if args.t_min is not None or args.t_max is not None:
            raise _UsageError("give either --t or --t-min/--t-max, not both")
        return [args.t]
    if args.t_min is None or args.t_max is None:
        raise _UsageError("need --t or both --t-min and --t-max")
    if args.t_max < args.t_min:
        raise _UsageError("--t-max must be >= --t-min")
    return list(range(args.t_min, args.t_max + 1))


def _load_graph(args) -> mixed_graphs.MixedGraph:
    if args.fixture and args.input:
        raise _UsageError("give either --input or --fixture, not both")
    if args.fixture:
        return FIXTURE_GRAPHS[args.fixture]
    if not args.input:
        raise _UsageError("need --input FILE or --fixture NAME")
    with open(args.input) as handle:
        return mixed_graphs.from_json_dict(json.load(handle))


def _cmd_golomb_count(args, cfg: RunConfig) -> int:
    if args.check_table1:
        if args.m not in (None, 3):
            raise _UsageError("--check-table1 applies to m=3")
        m = 3
        ts = sorted(KNOWN_COUNTS_M3)
    else:
        if args.m is None:
            raise _UsageError("--m is required")
        m = args.m
        ts = _t_values(args)
    rows = [(t, count_golomb_rulers(m, t, budget=cfg.budget, jobs=cfg.jobs)) for t in ts]
    payload = {"m": m, "rows": [{"t": t, "count": c} for t, c in rows]}
    mismatches = []
    if args.check_table1:
        mismatches = [
            {"t": t, "count": c, "expected": KNOWN_COUNTS_M3[t]}
            for t, c in rows
            if c != KNOWN_COUNTS_M3[t]
        ]
        payload["check"] = {"ok": not mismatches, "mismatches": mismatches}
    if cfg.fmt == "json":
        _emit_json(cfg, payload)
    elif cfg.fmt == "csv":
        _emit_csv(cfg, ["t", "count"], rows)
    else:
        lines = [f"{t}\t{c}" for t, c in rows]
        if args.check_table1:
            lines.append("reference check: " + ("ok" if not mismatches else f"{len(mismatches)} mismatch(es)"))
        _emit_text(cfg, lines)
    return EXIT_MISMATCH if mismatches else EXIT_OK


def _cmd_quasipoly(args, cfg: RunConfig) -> int:
    _no_csv(cfg)
    bound = period_bound(args.m)
    period = bound if args.period is None else args.period
    q = golomb_quasipolynomial(args.m, period_hint=period, budget=cfg.budget)
    leading = q.constituents[0][-1]  # identical across residues, already verified
    payload = {
        "m": args.m,
        "degree": q.degree,
        "period_bound": bound,
        "minimal_period": q.minimal_period(),
        "leading_coefficient": format_fraction(leading),
        "value_at_zero": format_fraction(q.evaluate(0)),
        "quasipolynomial": q.to_json_dict(),
    }
    if cfg.fmt == "json":
        _emit_json(cfg, payload)
    else:
        lines = [
            f"m = {args.m}",
            f"degree = {q.degree}",
            f"period = {q.period} (bound {payload['period_bound']}, minimal observed {payload['minimal_period']})",
            f"leading coefficient = {payload['leading_coefficient']}",
            f"value at 0 = {payload['value_at_zero']}",
        ]
        lines += [
            f"residue {r}: {poly_str(c)}" for r, c in enumerate(q.constituents)
        ]
        _emit_text(cfg, lines)
    return EXIT_OK


def _cmd_regions(args, cfg: RunConfig) -> int:
    _no_csv(cfg)
    orientations = golomb_graph.enumerate_constrained_orientations(
        args.m, budget=cfg.budget, jobs=cfg.jobs
    )
    payload = {"m": args.m, "count": len(orientations)}
    if args.list:
        payload["orientations"] = [list(o.labels()) for o in orientations]
    if cfg.fmt == "json":
        _emit_json(cfg, payload)
    else:
        lines = [f"m = {args.m}", f"count = {len(orientations)}"]
        if args.list:
            lines += [str(o) for o in orientations]
        _emit_text(cfg, lines)
    return EXIT_OK


def _cmd_reciprocity(args, cfg: RunConfig) -> int:
    _no_csv(cfg)
    if args.mode == "golomb":
        if args.m is None:
            raise _UsageError("golomb mode needs --m")
        report = reciprocity_check_golomb(args.m, _t_values(args), budget=cfg.budget)
        payload = {
            "mode": "golomb",
            "m": args.m,
            "ok": report.ok,
            "rows": [
                {"t": row.t, "lhs": format_fraction(row.lhs), "rhs": row.rhs, "ok": row.ok}
                for row in report.rows
            ],
        }
        lines = [
            f"t={row.t}: lhs={format_fraction(row.lhs)} rhs={row.rhs} {'ok' if row.ok else 'MISMATCH'}"
            for row in report.rows
        ]
        ok = report.ok
    else:
        graph = _load_graph(args)
        if args.t is None:
            raise _UsageError("mixed mode needs --t")
        report = mixed_graphs.reciprocity_check_mixed(graph, args.t, budget=cfg.budget)
        payload = {
            "mode": "mixed",
            "n": report.n,
            "t": report.t,
            "lhs": format_fraction(report.lhs),
            "rhs": report.rhs,
            "ok": report.ok,
        }
        lines = [
            f"t={report.t}: lhs={format_fraction(report.lhs)} rhs={report.rhs} "
            f"{'ok' if report.ok else 'MISMATCH'}"
        ]
        ok = report.ok
    if cfg.fmt == "json":
        _emit_json(cfg, payload)
    else:
        _emit_text(cfg, lines)
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_mixed(args, cfg: RunConfig) -> int:
    _no_csv(cfg)
    graph = _load_graph(args)
    if args.action == "chroma":
        chi = mixed_graphs.chromatic_polynomial(graph, budget=cfg.budget)
        payload = {"n": graph.n, "polynomial": [format_fraction(c) for c in chi]}
        lines = [f"chromatic polynomial: {poly_str(chi)}"]
        if args.t is not None:
            count = mixed_graphs.count_proper_colorings(graph, args.t, budget=cfg.budget)
            payload["t"] = args.t
            payload["count"] = count
            lines.append(f"proper {args.t}-colorings: {count}")
    elif args.action == "orientations":
        orientations = mixed_graphs.enumerate_acyclic_orientations(graph, budget=cfg.budget)
        payload = {
            "n": graph.n,
            "count": len(orientations),
            "orientations": [[list(arc) for arc in o] for o in orientations],
        }
        lines = [f"acyclic orientations: {len(orientations)}"] + [
            " ".join(f"{u}->{v}" for u, v in o) for o in orientations
        ]
    else:
        number = mixed_graphs.chromatic_number(graph, budget=cfg.budget)
        payload = {"n": graph.n, "chromatic_number": number}
        lines = [f"chromatic number: {number}"]
    if cfg.fmt == "json":
        _emit_json(cfg, payload)
    else:
        _emit_text(cfg, lines)
    return EXIT_OK


def _cmd_vertices(args, cfg: RunConfig) -> int:
    if cfg.fmt == "json":
        _emit_json(cfg, vertices_json_dict(args.m))
    elif cfg.fmt == "csv":
        header, rows = vertices_csv_rows(args.m)
        _emit_csv(cfg, header, rows)
    else:
        payload = vertices_json_dict(args.m)
        lines = [f"m = {args.m}", f"period bound = {payload['period_bound']}"]
        lines += ["(" + ", ".join(point) + ")" for point in payload["vertices"]]
        _emit_text(cfg, lines)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = RunConfig(
            budget=resolve_budget(args.budget),
            jobs=args.jobs,
            fmt=args.format,
            output=args.output,
        )
        return args.func(args, cfg)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceededError, CeilingExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except LeadingCoefficientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
