#!/usr/bin/env python3
"""Summarise or compare benchmark result files (JSON lines from run.py --out).

    python3 perfbench/compare.py RUNS.jsonl             # medians and spreads
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

With one file, each workload and metric gets its median, quartiles and
spread (quartile distance over median) against the metric's bound in
BENCHMARK.json.  A spread above a third of its bound is flagged, except
for setup_s, the median of only a few short set-ups per run, which is
flagged only above its bound.

With two files, each end-to-end metric gets both medians and quartiles,
the delta, and a verdict:

- unresolved: either side's spread exceeds the bound, and not every run
  of the change reads better than every run of the parent;
- regressed:  the change's median is worse by more than the bound;
- improved:   the change's median is better by more than the parent's
  quartile distance and the change wins at least nine tenths of the runs
  paired by seed (ties count for neither), or every run of the change
  reads better than every run of the parent;
- within bound: otherwise.

Per-layer metrics (records of --trace 1 runs) have no bound and get
medians and the delta only.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """(workload, metric) -> {seed: value}, from every record in the file."""
    table = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                if metric["value"] is not None:
                    table[(record["workload"], name)][record["seed"]] = metric["value"]
    return table


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple:
    sign = 1.0 if better == "lower" else -1.0   # positive gain = improvement
    p, c = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p)
    c_med = statistics.median(c)
    gain = sign * (p_med - c_med)
    all_better = all(sign * (pv - cv) > 0 for pv in p for cv in c)
    seeds = sorted(set(parent) & set(change))
    wins = sum(sign * (parent[s] - change[s]) > 0 for s in seeds)
    pairs = f"{wins}/{len(seeds)}"
    if max(spread(p), spread(c)) > bound and not all_better:
        return "unresolved", pairs
    if -gain > bound * abs(p_med):
        return "regressed", pairs
    if all_better or (gain > p_q3 - p_q1 and seeds and wins >= 0.9 * len(seeds)):
        return "improved", pairs
    return "within bound", pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", metavar="FILE", help="one or two result files")
    args = parser.parse_args()
    if len(args.files) > 2:
        parser.error("give one or two files")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    order = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    tables = [load(path) for path in args.files]
    keys = sorted(set().union(*tables), key=lambda k: (k[0], order.index(k[1])
                                                       if k[1] in order else len(order)))
    flagged = 0
    if len(tables) == 1:
        print(f"{'workload':13s} {'metric':40s} {'n':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for key in keys:
            values = list(tables[0][key].values())
            q1, med, q3 = quartiles(values)
            line = (f"{key[0]:13s} {key[1]:40s} {len(values):3d} {med:12.6g} {q1:12.6g} "
                    f"{q3:12.6g}")
            if key[1] in bounds:
                s, bound = spread(values), bounds[key[1]]["bound"]
                mark = "" if s < bound / 3 or key[1] == "setup_s" and s < bound else "  WIDE"
                flagged += bool(mark)
                line += f" {s:7.3f} {bound:6.3f}{mark}"
            print(line)
        return 1 if flagged else 0

    print(f"{'workload':13s} {'metric':40s} {'parent':>12s} {'[q1, q3]':>25s} {'change':>12s} "
          f"{'[q1, q3]':>25s} {'delta':>8s}  verdict")
    for key in keys:
        parent, change = tables[0].get(key), tables[1].get(key)
        if not parent or not change:
            print(f"{key[0]:13s} {key[1]:40s} only in {'the change' if change else 'the parent'}")
            continue
        cols = []
        for side in (parent, change):
            q1, med, q3 = quartiles(list(side.values()))
            cols.append(f"{med:12.6g} {f'[{q1:.6g}, {q3:.6g}]':>25s}")
        p_med = statistics.median(parent.values())
        c_med = statistics.median(change.values())
        delta = f"{(c_med - p_med) / p_med:+8.1%}" if p_med else f"{c_med - p_med:+8.3g}"
        if key[1] in bounds:
            result, pairs = verdict(parent, change, bounds[key[1]]["better"],
                                    bounds[key[1]]["bound"])
            flagged += result in ("regressed", "unresolved")
            note = f"{result} (pairs won {pairs})"
        else:
            note = "-"
        print(f"{key[0]:13s} {key[1]:40s} {cols[0]} {cols[1]} {delta}  {note}")
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
