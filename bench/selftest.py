"""Self-test of the oracle: right outputs pass, corrupted outputs fail.

Usage, from the root of a source checkout:

    python3 bench/selftest.py

Runs a few small jobs of every kind through ``spuncalc.cli.main``, checks
that the oracle accepts each real output, then corrupts each output (a
coefficient, a determinant, a parity, an invariant factor, a factor split
into two, a final framing, an exit code)
and checks that the oracle rejects every corruption. Exits 1 on the first
case that goes the wrong way.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import oracle
import workloads
from worker import run_job


def split_factor(factors: list[int]) -> list[int]:
    """Same order, wrong group: the last factor d becomes p, d/p for its least
    prime p (Z/12 read as Z/2 + Z/6), or Z/2 + Z/2 is added when no factor
    has a proper split."""
    if factors:
        d = factors[-1]
        p = next((p for p in range(2, int(d ** 0.5) + 1) if d % p == 0), None)
        if p is not None:
            return factors[:-1] + sorted([p, d // p])
    return factors + [2, 2]


def corruptions(job: workloads.Job, status: str, out: str):
    """(label, status, stdout) triples that the oracle must reject."""
    yield "job raised", "raise:IndexError", out
    if job.kind == "malformed":
        yield "exit 1", "exit:1", out
        return
    if job.kind == "certify-s4":
        yield "exit code flipped", "exit:1" if status == "exit:0" else "exit:0", out
    else:
        yield "exit 1", "exit:1", out

    def edit(label, change):
        report = json.loads(out)
        change(report["outputs"])
        return label, status, json.dumps(report)

    if job.kind == "lens":
        yield edit("coefficient changed", lambda o: o["cf"].__setitem__(0, o["cf"][0] - 1))
        yield edit("plumbing det changed", lambda o: o.__setitem__("plumbing_det", o["plumbing_det"] + 1))
        yield edit("spin flipped", lambda o: o.__setitem__("spin", not o["spin"]))
        yield edit("summand added", lambda o: o["target"].__setitem__(
            "trivial", o["target"]["trivial"] + 1))
    elif job.kind == "surgery":
        yield edit("parity flipped", lambda o: o["open_book"]["parity"].__setitem__(
            0, 1 - o["open_book"]["parity"][0]))
        yield edit("factor changed", lambda o: o["h1"].__setitem__(
            "factors", o["h1"]["factors"][:-1] + [o["h1"]["factors"][-1] * 2]
            if o["h1"]["factors"] else [2]))
        yield edit("move not preserving H1", lambda o: o["moves"][0].__setitem__("h1_preserved", False))
        yield edit("factor split", lambda o: o["h1"].__setitem__("factors", split_factor(o["h1"]["factors"])))
        yield edit("final framing changed", lambda o: o["final"]["framings"].__setitem__(
            0, o["final"]["framings"][0] + 2))
    elif job.kind == "embed":
        yield edit("parity flipped", lambda o: o["parity"].__setitem__(0, 1 - o["parity"][0]))
        yield edit("raw count changed", lambda o: o["raw"].__setitem__("trivial", o["raw"]["trivial"] + 1))
    elif job.kind == "certify-s4":
        yield edit("a-parity flipped", lambda o: o["a_parities"].__setitem__(0, 1 - o["a_parities"][0]))
    elif job.kind == "pi1":
        yield edit("relator dropped", lambda o: o["recovered"]["relators"].pop())
        yield edit("free rank changed", lambda o: o["abelianization"].__setitem__(
            "free_rank", o["abelianization"]["free_rank"] + 1))
        yield edit("factor split", lambda o: o["abelianization"].__setitem__(
            "factors", split_factor(o["abelianization"]["factors"])))
    elif job.kind == "corpus":
        yield edit("case failed", lambda o: o.__setitem__("passed", o["passed"] - 1))


def sample_jobs() -> list[workloads.Job]:
    jobs = workloads.lens_census(1)[-20:]
    jobs += workloads.surgery_audit(1)[:2]
    mix = workloads.cli_mix(1)
    for kind in ("embed", "certify-s4", "pi1", "corpus"):
        jobs += [j for j in mix if j.kind == kind][:4]
    return jobs


def check_all(cli) -> int:
    checked = rejected = 0
    for job in sample_jobs() + workloads.malformed_jobs():
        for name, text in job.files.items():
            Path(name).write_text(text)
        _, status, out, err = run_job(cli.main, job.argv)
        if job.kind == "malformed":
            # the program mishandles these today; judge a well-behaved reply
            status, out, err = "exit:2", "", "error: bad input\n"
            if oracle.check(job, "exit:2", out, "error: one\nerror: two\n") is None:
                print(f"FAIL: {job.expect['case']}: two error lines accepted")
                return 1
            rejected += 1
        reason = oracle.check(job, status, out, err)
        if reason is not None:
            print(f"FAIL: {job.kind} {job.argv}: correct output rejected: {reason}")
            return 1
        checked += 1
        for label, bad_status, bad_out in corruptions(job, status, out):
            if oracle.check(job, bad_status, bad_out, err) is None:
                print(f"FAIL: {job.kind} {job.argv[:3]}: corruption accepted: {label}")
                return 1
            rejected += 1
    print(f"oracle self-test passed: {checked} correct outputs accepted, "
          f"{rejected} corrupted outputs rejected")
    return 0


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from spuncalc import cli

    with tempfile.TemporaryDirectory(dir=root) as tmp:
        os.chdir(tmp)
        try:
            return check_all(cli)
        finally:
            os.chdir(root)


if __name__ == "__main__":
    sys.exit(main())
