"""One round of a workload in a fresh interpreter.

Started by run.py as `python worker.py WORKLOAD SEED MODE DIR`. It imports
golomb from the checkout's src/, makes the workload's operations from the
seed, writes their input files into DIR, and prints `ready`: that much is
the set-up run.py times. In mode `setup` it stops there. In modes `plain`
and `traced` it then runs every operation through `golomb.cli.main`
in-process with `--format json --jobs 1`, timing each one, and prints one
JSON report: per operation the exit code, wall and CPU seconds, stdout and
stderr, then the peak resident set size and, when traced, the spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main(workload: str, seed: int, mode: str, directory: str) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    import golomb.cli

    from workloads import WORKLOADS

    ops = WORKLOADS[workload].ops(seed)
    os.makedirs(directory, exist_ok=True)
    os.chdir(directory)
    for op in ops:
        if op.input_name:
            with open(op.input_name, "w") as handle:
                handle.write(op.input_text)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer().install()
    results = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        cpu, start = _cpu_seconds(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = golomb.cli.main([*op.args, "--format", "json", "--jobs", "1"])
        except Exception:  # an uncaught program error fails this operation only
            code = None
            err.write(traceback.format_exc())
        wall, cpu = time.perf_counter() - start, _cpu_seconds() - cpu
        results.append({"code": code, "wall_s": wall, "cpu_s": cpu, "stdout": out.getvalue(), "stderr": err.getvalue()})
    peak_kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    report = {"ops": results, "peak_rss_mib": peak_kib / 1024}
    if tracer is not None:
        report["spans"] = tracer.spans
        report["bindings"] = tracer.bindings
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]))
