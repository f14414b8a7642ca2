"""Command line front end.

Subcommands mirror the library: ruler counting, quasipolynomial
construction, cell/orientation enumeration, reciprocity checks, mixed
graph utilities, and vertex export. Each command computes its result once
and returns a JSON payload together with its text lines or CSV table; one
writer serialises whichever format was asked for. JSON output is emitted
with sorted keys and a fixed indent so it re-serializes byte for byte.

`COMMANDS` is the one table of commands. The full parser and each
command's own parser are both built from it; `main` builds only the one
it needs (see `_parse`).

Exit codes: 0 success, 1 usage or input error, 2 budget exhausted,
3 verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Callable, NamedTuple

from golomb import arrangement, golomb_graph, mixed_graphs
from golomb.config import BUDGET_ENV_VAR, resolve_budget
from golomb.errors import BudgetExceededError, LeadingCoefficientError
from golomb.fixtures import FIXTURE_GRAPHS, KNOWN_COUNTS_M3
from golomb.quasipolynomial import golomb_quasipolynomial, reciprocity_check_golomb
from golomb.ratpoly import format_fraction, poly_eval, poly_str
from golomb.rulers import golomb_counts

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_MISMATCH = 3

TEXT_JSON = ("text", "json")
TABULAR = ("text", "json", "csv")


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2) on usage errors
        raise _UsageError(message)


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


def _refuse(args, options: tuple[str, ...], where: str) -> None:
    """A usage error naming the first of `options` given: `where` never
    reads them."""
    for option in options:
        if getattr(args, option[2:].replace("-", "_")) is not None:
            raise _UsageError(f"{where} does not take {option}")


def _load_graph(args) -> mixed_graphs.MixedGraph:
    if args.fixture and args.input:
        raise _UsageError("give either --input or --fixture, not both")
    if args.fixture:
        return FIXTURE_GRAPHS[args.fixture]
    if not args.input:
        raise _UsageError("need --input FILE or --fixture NAME")
    with open(args.input) as handle:
        return mixed_graphs.from_json_dict(json.load(handle))


def _golomb_count_arguments(p):
    p.add_argument("--m", type=int, help="number of gaps (markings minus one)")
    p.add_argument("--t", type=int, help="single length")
    p.add_argument("--t-min", type=int, help="first length of a range")
    p.add_argument("--t-max", type=int, help="last length of a range")
    p.add_argument("--check-table1", action="store_true",
                   help="compare m=3 counts for t=6..35 against the bundled reference values")


def _cmd_golomb_count(args):
    if args.check_table1:
        if args.m not in (None, 3):
            raise _UsageError("--check-table1 applies to m=3")
        if (args.t, args.t_min, args.t_max) != (None, None, None):
            raise _UsageError("give either --check-table1 or --t/--t-min/--t-max, not both")
        m = 3
        ts = sorted(KNOWN_COUNTS_M3)
    else:
        if args.m is None:
            raise _UsageError("--m is required")
        m = args.m
        ts = _t_values(args)
    counts = golomb_counts(m, ts[0], ts[-1], budget=args.budget)
    rows = [(t, counts[t]) for t in ts]
    payload = {"m": m, "rows": [{"t": t, "count": c} for t, c in rows]}
    mismatches = []
    if args.check_table1:
        mismatches = [
            {"t": t, "count": c, "expected": KNOWN_COUNTS_M3[t]}
            for t, c in rows
            if c != KNOWN_COUNTS_M3[t]
        ]
        payload["check"] = {"ok": not mismatches, "mismatches": mismatches}
    table = None
    if args.format == "csv":
        table = [("t", "count"), *rows]
    elif args.format == "text":
        table = [f"{t}\t{c}" for t, c in rows]
        if args.check_table1:
            table.append("reference check: " + ("ok" if not mismatches else f"{len(mismatches)} mismatch(es)"))
    return (EXIT_MISMATCH if mismatches else EXIT_OK), payload, table


def _quasipoly_arguments(p):
    p.add_argument("--m", type=int, required=True)


def _cmd_quasipoly(args):
    q = golomb_quasipolynomial(args.m, budget=args.budget)
    bound = q.period  # always period_bound(m)
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
    table = None
    if args.format == "text":
        table = [
            f"m = {args.m}",
            f"degree = {q.degree}",
            f"period = {q.period} (bound {bound}, minimal observed {payload['minimal_period']})",
            f"leading coefficient = {payload['leading_coefficient']}",
            f"value at 0 = {payload['value_at_zero']}",
        ]
        table += [f"residue {r}: {poly_str(c)}" for r, c in enumerate(q.constituents)]
    return EXIT_OK, payload, table


def _regions_arguments(p):
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--list", action="store_true", help="include the orientations themselves")


def _cmd_regions(args):
    orientations = golomb_graph.enumerate_constrained_orientations(args.m, budget=args.budget)
    payload = {"m": args.m, "count": len(orientations)}
    if args.list:
        payload["orientations"] = [list(o.labels()) for o in orientations]
    table = None
    if args.format == "text":
        table = [f"m = {args.m}", f"count = {len(orientations)}"]
        if args.list:
            table += [" < ".join(labels) for labels in payload["orientations"]]
    return EXIT_OK, payload, table


def _reciprocity_arguments(p):
    p.add_argument("mode", choices=("golomb", "mixed"))
    p.add_argument("--m", type=int, help="gap count (golomb mode)")
    p.add_argument("--t", type=int, help="single argument")
    p.add_argument("--t-min", type=int)
    p.add_argument("--t-max", type=int)
    p.add_argument("--input", help="mixed graph JSON file (mixed mode)")
    p.add_argument("--fixture", choices=sorted(FIXTURE_GRAPHS), help="bundled graph (mixed mode)")


def _cmd_reciprocity(args):
    if args.mode == "golomb":
        _refuse(args, ("--input", "--fixture"), "golomb mode")
        if args.m is None:
            raise _UsageError("golomb mode needs --m")
        report = reciprocity_check_golomb(args.m, _t_values(args), budget=args.budget)
        rows = [(row.t, format_fraction(row.lhs), row.rhs, row.ok) for row in report.rows]
        payload = {
            "mode": "golomb",
            "m": args.m,
            "ok": report.ok,
            "rows": [{"t": t, "lhs": lhs, "rhs": rhs, "ok": ok} for t, lhs, rhs, ok in rows],
        }
    else:
        _refuse(args, ("--m", "--t-min", "--t-max"), "mixed mode")
        graph = _load_graph(args)
        if args.t is None:
            raise _UsageError("mixed mode needs --t")
        report = mixed_graphs.reciprocity_check_mixed(graph, args.t, budget=args.budget)
        rows = [(report.t, format_fraction(report.lhs), report.rhs, report.ok)]
        payload = {
            "mode": "mixed",
            "n": report.n,
            "t": report.t,
            "lhs": rows[0][1],
            "rhs": report.rhs,
            "ok": report.ok,
        }
    table = None
    if args.format == "text":
        table = [
            f"t={t}: lhs={lhs} rhs={rhs} {'ok' if ok else 'MISMATCH'}" for t, lhs, rhs, ok in rows
        ]
    return (EXIT_OK if report.ok else EXIT_MISMATCH), payload, table


def _mixed_arguments(p):
    p.add_argument("action", choices=("chroma", "orientations", "chromatic-number"))
    p.add_argument("--input", help="mixed graph JSON file")
    p.add_argument("--fixture", choices=sorted(FIXTURE_GRAPHS), help="bundled graph")
    p.add_argument("--t", type=int, help="color count for chroma")


def _cmd_mixed(args):
    if args.action != "chroma":
        _refuse(args, ("--t",), f"mixed {args.action}")
    graph = _load_graph(args)
    text = args.format == "text"
    table = None
    if args.action == "chroma":
        # refused before chi's brute force runs
        if args.t is not None and args.t < 0:
            raise ValueError("t must be >= 0")
        chi = mixed_graphs.chromatic_polynomial(graph, budget=args.budget)
        payload = {"n": graph.n, "polynomial": [format_fraction(c) for c in chi]}
        if text:
            table = [f"chromatic polynomial: {poly_str(chi)}"]
        if args.t is not None:
            # chi counts the proper colorings at every t >= 0
            count = int(poly_eval(chi, args.t))
            payload["t"] = args.t
            payload["count"] = count
            if text:
                table.append(f"proper {args.t}-colorings: {count}")
    elif args.action == "orientations":
        orientations = mixed_graphs.enumerate_acyclic_orientations(graph, budget=args.budget)
        payload = {
            "n": graph.n,
            "count": len(orientations),
            "orientations": [[list(arc) for arc in o] for o in orientations],
        }
        if text:
            table = [f"acyclic orientations: {len(orientations)}"]
            table += [" ".join(f"{u}->{v}" for u, v in o) for o in orientations]
    else:
        number = mixed_graphs.chromatic_number(graph, budget=args.budget)
        payload = {"n": graph.n, "chromatic_number": number}
        if text:
            table = [f"chromatic number: {number}"]
    return EXIT_OK, payload, table


def _vertices_arguments(p):
    p.add_argument("--m", type=int, required=True)


def _cmd_vertices(args):
    points = arrangement.iop_vertices(args.m, budget=args.budget)
    coordinates = [[format_fraction(c) for c in point] for point in points]
    bound = arrangement.denominator_lcm(points)
    payload = {"m": args.m, "period_bound": bound, "vertices": coordinates}
    table = None
    if args.format == "csv":
        table = [[f"z{i}" for i in range(1, args.m + 1)], *coordinates]
    elif args.format == "text":
        table = [f"m = {args.m}", f"period bound = {bound}"]
        table += ["(" + ", ".join(point) + ")" for point in coordinates]
    return EXIT_OK, payload, table


class _Command(NamedTuple):
    handler: Callable
    formats: tuple[str, ...]
    summary: str
    add_arguments: Callable


COMMANDS = {
    "golomb-count": _Command(_cmd_golomb_count, TABULAR, "count Golomb rulers by length",
                             _golomb_count_arguments),
    "quasipoly": _Command(_cmd_quasipoly, TEXT_JSON, "counting quasipolynomial with diagnostics",
                          _quasipoly_arguments),
    "regions": _Command(_cmd_regions, TEXT_JSON, "admissible orientation census",
                        _regions_arguments),
    "reciprocity": _Command(_cmd_reciprocity, TEXT_JSON, "negative-argument checks",
                            _reciprocity_arguments),
    "mixed": _Command(_cmd_mixed, TEXT_JSON, "mixed graph utilities", _mixed_arguments),
    "vertices": _Command(_cmd_vertices, TABULAR, "subdivision vertices and period bound",
                         _vertices_arguments),
}


def _add_arguments(p: _Parser, command: _Command) -> _Parser:
    """Give p the options every command shares, then the command's own."""
    p.add_argument("--budget", type=int, default=None,
                   help=f"search node budget (default {BUDGET_ENV_VAR} or 10^9)")
    p.add_argument("--jobs", type=int, default=1,
                   help="must be 1: every search runs in this process")
    p.add_argument("--output", default=None, help="write output to this path instead of stdout")
    p.add_argument("--format", choices=command.formats, default="text")
    command.add_arguments(p)
    p.set_defaults(func=command.handler)
    return p


def build_parser() -> _Parser:
    """The full parser: `golomb` with all six commands as subparsers."""
    parser = _Parser(prog="golomb", description="Golomb ruler and mixed graph enumeration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=command.summary), command)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse a command line with the named command's parser alone. The full
    parser, which builds all six, is built only when argv[0] names no
    command: no arguments, `-h`, or an unknown command."""
    if argv and argv[0] in COMMANDS:
        parser = _add_arguments(_Parser(prog=f"golomb {argv[0]}"), COMMANDS[argv[0]])
        return parser.parse_args(argv[1:])
    return build_parser().parse_args(argv)


def _write(args, payload, table) -> None:
    """Serialise in the format asked for and write to --output or stdout."""
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows(table)
        text = buffer.getvalue()
    else:
        text = "".join(line + "\n" for line in table)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        args.budget = resolve_budget(args.budget)
        if args.jobs != 1:
            raise ValueError("jobs must be 1: every search runs in one process")
        code, payload, table = args.func(args)
        _write(args, payload, table)
        return code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except LeadingCoefficientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
