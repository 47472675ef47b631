"""spuncalc benchmark: one workload, one run, one JSON line of metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates the workload's inputs from the seed under
``.bench_work/``, then starts ``bench/worker.py``, which calls
``spuncalc.cli.main(argv)`` in-process in a closed loop (one client, no
threads) until S seconds have passed. Untraced, the worker also times a
fresh interpreter importing ``spuncalc.cli`` after each pass (set-up
time). After the worker has exited, the
oracle in ``bench/oracle.py`` checks every output. A line
``manifest {...}`` records the seed, a hash of all generated argv and
files, the Python version, ``nproc`` and the tail percentile; the last
line is the result object. With ``--trace 0`` its metrics are the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones, measured by wrappers around the program's public functions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import oracle
import workloads

DEADLINE_S = 170.0
# Job times are reported at a fixed machine speed: the one at which the
# worker's reference() takes REFERENCE_S. A reading's speed is the median
# of the readings within SPEED_WINDOW of it on either side.
REFERENCE_S = 1e-3
SPEED_WINDOW = 5
MAX_REASONS = 5


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def input_manifest(jobs: list[workloads.Job]) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(json.dumps(job.argv).encode())
        for name in sorted(job.files):
            h.update(name.encode() + b"\0" + job.files[name].encode() + b"\0")
    return h.hexdigest()


def warm_bytecode(root: Path, env: dict) -> None:
    """One untimed import compiles the bytecode cache, as an install does."""
    subprocess.run([sys.executable, "-c", "import spuncalc.cli"], cwd=root, env=env, check=True)


def tail(sorted_values: list[float]) -> tuple[float, float, int]:
    """The highest of the 50th, 75th, 90th, 95th, 99th and 99.9th nearest-rank
    percentiles with at least ten values beyond it (else the median): the
    percentile, its value and the number of values beyond it."""
    n = len(sorted_values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(q / 100 * n))
        if n - rank >= 10 or q == 50.0:
            return q, sorted_values[rank - 1], n - rank


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    started = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "spuncalc" / "cli.py").is_file():
        return fail(f"no spuncalc source tree under {src}; run from a checkout root")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    in_dir, out_dir = work / "in", work / "out"
    in_dir.mkdir(parents=True)
    out_dir.mkdir()
    for job in jobs:
        for name, text in job.files.items():
            (in_dir / name).write_text(text)

    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        if not args.trace:
            warm_bytecode(root, env)
        worker_spec = {
            "src": str(src), "root": str(root), "in_dir": str(in_dir), "out_dir": str(out_dir),
            "argv": [job.argv for job in jobs], "seconds": args.seconds,
            "trace": bool(args.trace), "result": str(work / "result.json"),
            "setup_cmd": None if args.trace else [sys.executable, "-c", "import spuncalc.cli"],
        }
        (work / "spec.json").write_text(json.dumps(worker_spec))
        budget = DEADLINE_S - (time.perf_counter() - started)
        proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("worker.py")),
                                 str(work / "spec.json")], cwd=root, env=env)
        try:
            code = proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return fail(f"worker exceeded {budget:.0f} s")
        if code != 0:
            return fail(f"worker exited with {code}")
        result = json.loads((work / "result.json").read_text())

        # the first pass's records come first, in job order
        verdicts = [oracle.check(job, result["jobs"][idx][3],
                                 (out_dir / f"{idx}.out").read_text(),
                                 (out_dir / f"{idx}.err").read_text())
                    for idx, job in enumerate(jobs)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's files are still there

    records = result["jobs"]  # (pass, index, wall, status, traced, out bytes, reference)
    reasons = []
    failed = 0
    wellformed_failed = 0
    for pass_no, idx, wall, status, *_ in records:
        reason = "output differs from the first pass" if status == "differs-from-first-pass" \
            else verdicts[idx]
        if reason:
            failed += 1
            if jobs[idx].kind != "malformed":
                wellformed_failed += 1
            if len(reasons) < MAX_REASONS and pass_no == 0:
                reasons.append(f"job {idx} ({jobs[idx].kind}): {reason}")
    attempted = len(records)

    manifest = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs_sha256": input_manifest(jobs), "python": platform.python_version(),
        "nproc": os.cpu_count(), "jobs_per_pass": len(jobs),
        "passes": 1 + max(r[0] for r in records), "failures": reasons,
    }
    if args.trace:
        untraced = result["pass_time"]["untraced"]
        traced = result["pass_time"]["traced"]
        values = dict(result["layer"])
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    else:
        # The machine this was built on changes speed by up to 1.8 times in
        # phases of seconds to tens of seconds, so raw wall times of whole
        # runs spread by up to 0.45 (interquartile distance over median). Each timed execution is therefore scaled
        # by the machine's speed around it, read from reference(); a job's
        # time is the median of its scaled repeats. Percentiles are taken
        # over the distinct jobs of a pass. Set-up samples are scaled the
        # same way.
        refs = result["references"]
        scale = [REFERENCE_S / statistics.median(refs[max(0, k - SPEED_WINDOW):k + SPEED_WINDOW + 1])
                 for k in range(len(refs))]
        repeats, raw = defaultdict(list), defaultdict(list)
        for pass_no, idx, wall, _, _, _, ref in records:
            if pass_no > 0:
                repeats[idx].append(wall * scale[ref])
                raw[idx].append(wall)
        job_s = {idx: statistics.median(times) for idx, times in repeats.items()}
        walls = sorted(t for idx, t in job_s.items() if jobs[idx].kind != "malformed")
        tail_q, tail_s, beyond = tail(walls)
        manifest.update({"tail_percentile": tail_q, "jobs_beyond_tail": beyond,
                         "wellformed_jobs": len(walls),
                         "repeats": min(len(t) for t in repeats.values()),
                         "setup_samples": len(result["setup_s"]),
                         "reference_s_median": statistics.median(refs),
                         "unscaled_setup_s": statistics.median(t for t, _ in result["setup_s"]),
                         "unscaled_job_s_p50": statistics.median(
                             statistics.median(raw[idx]) for idx in raw if jobs[idx].kind != "malformed")})
        values = {
            "job_s.p50": statistics.median(walls),
            "job_s.tail": tail_s,
            "jobs_per_s": len(walls) / sum(job_s.values()),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "ok_ratio": (attempted - failed) / attempted,
            "setup_s": statistics.median(t * scale[ref] for t, ref in result["setup_s"]),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(json.dumps({"correct": wellformed_failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
