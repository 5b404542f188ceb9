#!/usr/bin/env python3
"""Run workloads over a range of seeds and append every record to one file.

    python3 perfbench/series.py --out runs.jsonl --seeds 1-10
    python3 perfbench/series.py --out layers.jsonl --seeds 11 --trace 1

Seeds are the outer loop, so a slow spell on a shared machine spreads
over every workload instead of landing on one.  compare.py reads the file.
"""

from __future__ import annotations

import argparse
import subprocess
import sys

from run import HERE, WORKLOAD_NAMES


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON-lines file to append to")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                        help="first-last, e.g. 1-10 (default)")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    failures = 0
    for seed in args.seeds:
        for workload in WORKLOAD_NAMES:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", args.trace, "--out", args.out],
                stdout=subprocess.PIPE, text=True,
            )
            failures += done.returncode != 0
            print(f"{workload} seed {seed}: exit {done.returncode}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
