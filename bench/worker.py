"""Job runner: one process, one client, a closed loop over whole passes.

Usage: python3 worker.py SPEC.json

SPEC names the source tree, the input and output directories, the argv
list of one pass, the run length and whether to trace. The worker calls
``spuncalc.cli.main(argv)`` in-process with stdout and stderr captured,
one job after the other, and repeats the pass until the run length has
elapsed (the pass that is running then completes). The first pass writes
every job's output to the output directory for the oracle; later passes
must reproduce it byte for byte. The worker never parses an output, so its
peak resident set is the program's own.

The first pass only warms the heap and the program's lazy state: it is
not timed. With tracing on, traced and untraced passes then alternate;
per-layer figures come from the traced passes, and the ratio of their job
time to the timed untraced passes' is the tracing overhead. Untraced, the
worker times one fresh interpreter running SPEC's set-up command after
each timed pass, so that set-up samples spread over the whole run.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path


def run_job(main, argv: list[str]) -> tuple[float, str, str, str]:
    """Wall seconds, status ("exit:N" or "raise:Type"), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = f"exit:{main(argv)}"
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
                status = f"exit:{code}"
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        status = f"raise:{type(exc).__name__}"
    wall = time.perf_counter() - t0
    return wall, status, out.getvalue(), err.getvalue()


# the machine's speed is read before a job whenever this much job time
# has passed since the last reading, and at the start of every pass
REFERENCE_EVERY_S = 0.02


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work that shares no
    code with spuncalc (allocation, a dict, sorting, integer and string
    work, about a millisecond): a reading of the machine's current speed."""
    t0 = time.perf_counter()
    table = {i: (i * 7919 % 1009, str(i)) for i in range(1500)}
    rows = sorted(table.values())
    total = 0
    for j in range(40):
        for x, _ in rows[j::40]:
            total += (x % 13) ** 2
    ",".join(text for _, text in rows)
    return time.perf_counter() - t0


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spuncalc import cli

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
    out_dir = Path(spec["out_dir"])
    os.chdir(spec["in_dir"])
    pass_argv = spec["argv"]
    # A full collection before each job zeroes the collector's counters, as
    # in a fresh CLI process; otherwise whether a collection lands inside a
    # job depends on the jobs before it. Freezing what exists now keeps
    # those collections cheap.
    gc.collect()
    gc.freeze()

    jobs = []  # (pass, index, wall, status, traced, stdout length, reference index)
    references = []  # seconds per reading of reference()
    first: dict[int, tuple] = {}
    pass_time = {False: [], True: []}  # job seconds per timed pass, by traced
    setup_s = []  # (seconds, reference index) of one fresh import after each timed pass
    start = time.perf_counter()
    pass_no = 0
    while True:
        traced = tracer is not None and pass_no % 2 == 1
        if traced:
            tracer.install()
        busy = 0.0
        since_reference = REFERENCE_EVERY_S
        for idx, argv in enumerate(pass_argv):
            if since_reference >= REFERENCE_EVERY_S:
                references.append(reference())
                since_reference = 0.0
            if traced:
                tracer.begin_job(len(jobs))
            gc.collect()
            wall, status, out, err = run_job(cli.main, argv)
            if traced:
                tracer.absorb(tracer.end_job())
            busy += wall
            since_reference += wall
            digest = (status, hash(out), hash(err), len(out))
            if pass_no == 0:
                (out_dir / f"{idx}.out").write_text(out)
                (out_dir / f"{idx}.err").write_text(err)
                first[idx] = digest
            elif digest != first[idx]:
                status = "differs-from-first-pass"
            jobs.append((pass_no, idx, wall, status, traced, len(out), len(references) - 1))
        if traced:
            tracer.uninstall()
        if pass_no:
            pass_time[traced].append(busy)
            if spec["setup_cmd"]:
                t0 = time.perf_counter()
                # no timeout: waiting with one polls the child every 50 ms
                subprocess.run(spec["setup_cmd"], cwd=spec["root"], check=True)
                setup_s.append((time.perf_counter() - t0, len(references) - 1))
        pass_no += 1
        elapsed = time.perf_counter() - start
        if elapsed >= spec["seconds"] and pass_time[False] and (tracer is None or pass_time[True]):
            break

    result = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": jobs,
        "pass_time": {"untraced": pass_time[False], "traced": pass_time[True]},
        "setup_s": setup_s,
        "references": references,
    }
    if tracer is not None:
        traced_jobs = [j for j in jobs if j[4]]
        layer = tracer.summary(len(traced_jobs))
        layer["cli.out_bytes"] = sum(j[5] for j in traced_jobs) / len(traced_jobs)
        layer["trace.job_s"] = sum(j[2] for j in traced_jobs) / len(traced_jobs)
        result["layer"] = layer
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
