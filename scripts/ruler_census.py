#!/usr/bin/env python3
"""Golomb ruler counts by length for a fixed number of gaps, plus the
shortest length admitting one, from the exhaustive search."""

import argparse
import time

from golomb.rulers import golomb_counts, optimal_length


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=3, help="number of gaps")
    parser.add_argument("--t-max", type=int, default=35)
    args = parser.parse_args()

    shortest = optimal_length(args.m)
    print(f"m={args.m}: shortest Golomb ruler length {shortest}")
    start = time.perf_counter()
    if args.t_max >= shortest:
        for t, count in golomb_counts(args.m, shortest, args.t_max).items():
            print(f"{t}\t{count}")
    print(f"# {time.perf_counter() - start:.2f}s")


if __name__ == "__main__":
    main()
