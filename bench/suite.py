"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a source checkout:

    python3 bench/suite.py OUT_DIR [--workloads a,b] [--seeds 1-10] [--trace 0|1]

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
saves each run's standard output as ``OUT_DIR/<workload>-s<seed>-t<trace>.out``.
Then prints, per workload and metric, the median, the quartiles and the
spread (interquartile distance over the median) next to the metric's bound
from BENCHMARK.json. Two such directories are the input of compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load_runs, quartiles

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            path = args.out_dir / f"{workload}-s{seed}-t{args.trace}.out"
            path.write_text(proc.stdout)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}",
                      file=sys.stderr)
                return 1

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = load_runs(args.out_dir)
    for workload in args.workloads.split(","):
        mine = [r for r in runs if r["workload"] == workload and r["trace"] == args.trace]
        print(f"{workload}: {len(mine)} runs, "
              f"correct {sum(r['correct'] for r in mine)}/{len(mine)}, "
              f"failed/attempted {sum(r['failed'] for r in mine)}/{sum(r['attempted'] for r in mine)}")
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound:.2f}  spread/bound {spread / bound:.2f}"
            unit = mine[0]["metrics"][name]["unit"]
            print(f"  {name:34s} {med:.6g} {unit} [{q1:.6g}, {q3:.6g}]"
                  f" spread {spread:.3f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
