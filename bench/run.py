"""Benchmark of the golomb toolkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each round of a workload runs in a fresh
interpreter (worker.py), one at a time, so no cache of the program outlives
one round, just as none outlives one real invocation. Rounds repeat while
another one still fits in S seconds; every round runs all of the workload's
operations.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics: the medians over rounds of wall and CPU seconds and of peak
resident memory, and the median set-up time over all interpreters started.
With --trace 1 untraced and traced rounds alternate and the metrics are the
per-layer ones read from the spans (counts from the first traced round,
seconds as medians), plus the tracing overhead; the spans of the first
traced round are written to bench/_out/.

Outputs are checked with workloads.py; an operation that exits nonzero or
fails its check counts as failed, and a failed check makes `correct` false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
SETUP_SAMPLES = 6       # set-up-only interpreters per untraced run, besides one per round
WORKER_TIMEOUT_S = 150  # one round; far above the slowest round measured

sys.path.insert(0, BENCH)
from tracing import NAMES, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class WorkerFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, directory: str):
    """Run one worker; return (set-up seconds, report or None)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("GOLOMB_BUDGET", None)
    command = [sys.executable, WORKER, workload, str(seed), mode, directory]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT, env=env) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise WorkerFailed(f"{mode} round of {workload} ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or ready != b"ready\n":
        raise WorkerFailed(f"{mode} worker for {workload} exited with code {proc.returncode}")
    return setup, (json.loads(rest) if mode != "setup" else None)


def outputs_of(report):
    return [op["stdout"] if op["code"] == 0 else None for op in report["ops"]]


def judge(workload, seed: int, ops, reports):
    """(failed operations, whether every check passed) over all rounds; the
    outputs of a round identical to an already checked round reuse its verdict."""
    verdicts: dict[tuple, dict[int, str]] = {}
    failed, correct = 0, True
    for report in reports:
        outputs = outputs_of(report)
        key = tuple(outputs)
        if key not in verdicts:
            verdicts[key] = workload.check(seed, ops, outputs)
            for _, message in sorted(verdicts[key].items()):
                print(f"check failed: {message}", file=sys.stderr)
            for op, result in zip(ops, report["ops"]):
                if result["code"] != 0:
                    print(f"exit {result['code']}: {' '.join(op.args)}: {result['stderr'].strip()}", file=sys.stderr)
        bad = verdicts[key]
        correct = correct and not bad
        failed += sum(1 for i, result in enumerate(report["ops"]) if result["code"] != 0 or i in bad)
    return failed, correct


def round_total(report, field: str) -> float:
    return sum(op[field] for op in report["ops"])


def median_of(reports, field: str) -> float:
    return statistics.median(round_total(r, field) for r in reports)


def layer_metrics(traced, plain) -> dict[str, float]:
    summaries = [r["summary"] for r in traced]
    metrics = {}
    for key, first in summaries[0].items():
        values = [s[key] for s in summaries]
        timed = key.endswith(("_s", ".s"))
        metrics[key] = statistics.median(values) if timed else first
        if not timed and len(set(values)) > 1:
            print(f"warning: {key} differs between traced rounds: {values}", file=sys.stderr)
    metrics["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
    return metrics


def write_trace(workload: str, seed: int, report) -> str:
    out_dir = os.path.join(BENCH, "_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "layers": NAMES,
                "bindings": report["bindings"],
                "span_fields": ["layer", "start", "end", "parent", "counts"],
                "spans": report["spans"],
            },
            handle,
        )
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "golomb", "cli.py")):
        print(f"error: no golomb package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workload = WORKLOADS[args.workload]
    ops = workload.ops(args.seed)
    directory = os.path.join(BENCH, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    modes = ("plain", "traced") if args.trace else ("plain",)
    rounds = {mode: [] for mode in modes}
    setups = []
    try:
        spawn(args.workload, args.seed, "setup", directory)  # fills bytecode and file caches; untimed
        if not args.trace:
            setups += [spawn(args.workload, args.seed, "setup", directory)[0] for _ in range(SETUP_SAMPLES)]
        start, longest = time.perf_counter(), 0.0
        while time.perf_counter() - start + longest <= args.seconds or not rounds["plain"]:
            began = time.perf_counter()
            for mode in modes:
                setup, report = spawn(args.workload, args.seed, mode, directory)
                setups.append(setup)
                if mode == "traced":  # only the first traced round's spans are kept and written
                    report["summary"] = summarize(report["spans"])
                    if rounds["traced"]:
                        del report["spans"]
                rounds[mode].append(report)
            longest = max(longest, time.perf_counter() - began)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    reports = [r for mode in modes for r in rounds[mode]]
    failed, correct = judge(workload, args.seed, ops, reports)
    plain = rounds["plain"]
    if args.trace:
        measured = layer_metrics(rounds["traced"], plain)
        wanted = spec["per_layer"]
        print(f"spans written to {write_trace(args.workload, args.seed, rounds['traced'][0])}", file=sys.stderr)
    else:
        measured = {
            "wall_s": median_of(plain, "wall_s"),
            "cpu_s": median_of(plain, "cpu_s"),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
            "setup_s": statistics.median(setups),
        }
        wanted = spec["end_to_end"]
    walls = " ".join(f"{round_total(r, 'wall_s'):.3f}" for r in plain)
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations; untraced round wall seconds: {walls}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": len(ops) * len(reports),
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
