#!/usr/bin/env python3
"""Census of the admissible orientations of the interval graph, i.e. of the
cells the equal-sum hyperplanes cut the simplex into, with timings.

The sequence over m counts the combinatorially different Golomb rulers:
1, 2, 10, 114, 2608, 107498, ...

m = 5 takes about a second; m = 6 takes under a minute.
"""

import argparse
import sys
import time

from golomb.errors import DEFAULT_NODE_BUDGET, BudgetExceededError
from golomb.golomb_graph import enumerate_constrained_orientations


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-m", type=int, default=5)
    parser.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    args = parser.parse_args()

    counts = []
    for m in range(1, args.max_m + 1):
        start = time.perf_counter()
        orientations = enumerate_constrained_orientations(m, budget=args.budget)
        elapsed = time.perf_counter() - start
        counts.append(len(orientations))
        print(f"m={m}: {len(orientations):>8} cells   {elapsed:8.2f}s")
    print("sequence:", ", ".join(map(str, counts)))


if __name__ == "__main__":
    try:
        main()
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
