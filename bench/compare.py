"""Compare two sets of benchmark runs, per workload and end-to-end metric.

Usage, from the root of a source checkout:

    python3 bench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the standard output of runs (``*.out`` files, as
suite.py writes them). Runs are paired by workload and seed, and a pair
must have used identical inputs (the manifest hash). For each metric the
report gives each side's median and quartiles, the pairs the change won,
and a verdict:

* improved: the change wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the base's own
  spread, its interquartile distance;
* unresolved: otherwise, when the base's spread exceeds the metric's
  bound, unless every change run reads better than every base run;
* worse: the change's median is worse than the base's by more than the
  bound, as a share of the base's median;
* unchanged: everything else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(directory: Path) -> list[dict]:
    runs = []
    for path in sorted(Path(directory).glob("*.out")):
        lines = path.read_text().splitlines()
        manifest = next((json.loads(line[len("manifest "):]) for line in lines
                         if line.startswith("manifest ")), None)
        if manifest is None or not lines:
            raise SystemExit(f"{path}: no manifest line; not a benchmark run")
        result = json.loads(lines[-1])
        runs.append({**result, "workload": manifest["workload"], "seed": manifest["seed"],
                     "trace": manifest["trace"], "manifest": manifest})
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], wins: int, pairs: int,
            better: str, bound: float) -> str:
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    sign = 1 if better == "higher" else -1
    gain = sign * (cmed - bmed)
    if pairs and wins >= 0.9 * pairs and gain > b3 - b1:
        return "improved"
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if bmed and (b3 - b1) / abs(bmed) > bound and not all_better:
        return "unresolved"
    if bmed and -gain / abs(bmed) > bound:
        return "worse"
    return "unchanged"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    base = [r for r in load_runs(args.base) if r["trace"] == 0]
    change = [r for r in load_runs(args.change) if r["trace"] == 0]

    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs = {r["seed"]: r for r in base if r["workload"] == workload}
        c_runs = {r["seed"]: r for r in change if r["workload"] == workload}
        if not b_runs or not c_runs:
            continue
        seeds = sorted(set(b_runs) & set(c_runs))
        mismatched = [s for s in seeds if b_runs[s]["manifest"]["inputs_sha256"]
                      != c_runs[s]["manifest"]["inputs_sha256"]]
        print(f"{workload}: {len(b_runs)} base runs, {len(c_runs)} change runs, "
              f"{len(seeds)} pairs")
        if mismatched:
            print(f"  inputs differ for seeds {mismatched}: the runs are not comparable")
            status = 1
            continue
        print(f"  failed/attempted: base {sum(r['failed'] for r in b_runs.values())}/"
              f"{sum(r['attempted'] for r in b_runs.values())}, change "
              f"{sum(r['failed'] for r in c_runs.values())}/"
              f"{sum(r['attempted'] for r in c_runs.values())}")
        for metric in spec["end_to_end"]:
            name, better = metric["name"], metric["better"]
            bv = [r["metrics"][name]["value"] for r in b_runs.values()]
            cv = [r["metrics"][name]["value"] for r in c_runs.values()]
            sign = 1 if better == "higher" else -1
            wins = sum(1 for s in seeds if sign * (c_runs[s]["metrics"][name]["value"]
                                                   - b_runs[s]["metrics"][name]["value"]) > 0)
            b1, bm, b3 = quartiles(bv)
            c1, cm, c3 = quartiles(cv)
            unit = metric["unit"]
            print(f"  {name:12s} base {bm:.6g} [{b1:.6g}, {b3:.6g}] {unit}  change {cm:.6g} "
                  f"[{c1:.6g}, {c3:.6g}] {unit}  won {wins}/{len(seeds)}  "
                  f"{verdict(bv, cv, wins, len(seeds), better, metric['bound'])}")
    return status


if __name__ == "__main__":
    sys.exit(main())
