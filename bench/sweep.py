"""Size sweep of single layers, with fitted growth exponents.

Usage, from the root of a source checkout:

    python3 bench/sweep.py [--seed N]

Informational, never gated. Times the layer functions directly:

* lens stages for L(k+1, k), whose expansion has k coefficients, at
  k in {10, 100, 1000, 1999} (the last is L(2000, 1999)); plus ``spuncalc lens 2000 1999 --json`` in
  a fresh interpreter, with its peak resident memory;
* Smith form against the Bareiss determinant on random symmetric n x n
  matrices with entries in [-9, 9], n in {10, 20, 40, 80};
* parsing and exponent sums of twist words of 10^3 to 10^5 letters;
* a blow-up of all 30 strands of a 30-strand, 3000-letter diagram and the
  blow-down of the new strand, with the braid word's growth;
* the Smith share of one traced surgery job: 60 strands, 6000 letters,
  nine moves.

Each growth exponent is the least-squares slope of log time against log
size. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import workloads


def best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def slope(sizes: list[int], times: list[float]) -> float:
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def lens_sweep(lens) -> dict:
    stages = {
        "cf_expand": lambda c, p, q: lens.cf_expand(p, q),
        "plumbing_matrix": lambda c, p, q: lens.plumbing_matrix(c),
        "plumbing_det": lambda c, p, q: lens.plumbing_matrix(c).det(),
        "slid_det": lambda c, p, q: lens.slid_diagram(c).linking_det(),
        "lens_open_book": lambda c, p, q: lens.lens_open_book(c),
        "reconcile": lambda c, p, q: lens.reconcile(c),
        "target": lambda c, p, q: lens.lens_embedding_target(p, q),
    }
    ks = [10, 100, 1000, 1999]
    out = {"k": ks}
    for name, fn in stages.items():
        times = []
        for k in ks:
            c = lens.cf_expand(k + 1, k)
            times.append(best_of(lambda: fn(c, k + 1, k), 3 if k < 1000 else 1))
        out[name] = {"seconds": times, "growth_exponent": slope(ks, times)}
    return out


def lens_cli_once(root: Path) -> dict:
    """``lens 2000 1999 --json`` in a fresh interpreter: wall and peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "spuncalc.cli", "lens", "2000", "1999",
                             "--json", "--no-timestamp"], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": time.perf_counter() - t0, "peak_rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode}


def smith_sweep(homology, rng: random.Random) -> dict:
    ns = [10, 20, 40, 80]
    smith, bareiss, bits = [], [], []
    for n in ns:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-9, 9)
        smith.append(best_of(lambda: homology.smith_diagonal(rows), 3 if n < 80 else 1))
        bareiss.append(best_of(lambda: homology.det(rows), 3))
        bits.append(max(d.bit_length() for d in homology.smith_diagonal(rows)))
    return {"n": ns, "smith_seconds": smith, "bareiss_seconds": bareiss,
            "largest_factor_bits": bits,
            "smith_growth_exponent": slope(ns, smith),
            "bareiss_growth_exponent": slope(ns, bareiss)}


def word_sweep(planar, rng: random.Random) -> dict:
    sizes = [1000, 10000, 100000]
    holes = 32
    page = planar.PlanarPage(holes)
    parse, vectors = [], []
    for size in sizes:
        text = " ".join(
            workloads.twist_text(sorted(rng.sample(range(1, holes + 1), rng.randint(1, 4))),
                                  rng.choice((-2, -1, 1, 2)))
            for _ in range(size))
        parse.append(best_of(lambda: planar.load_word(text, page), 1))
        word = planar.load_word(text, page)
        vectors.append(best_of(lambda: planar.exponent_vector(word), 3))
    return {"letters": sizes, "parse_seconds": parse, "exponent_vector_seconds": vectors,
            "parse_growth_exponent": slope(sizes, parse),
            "exponent_vector_growth_exponent": slope(sizes, vectors)}


def blow_sweep(surgery, rng: random.Random) -> dict:
    d0 = workloads.random_diagram(rng, 30, letters_per_strand=100)
    d = surgery.FramedBraidDiagram(d0["strands"], tuple(map(tuple, d0["braid"])),
                                   tuple(d0["framings"]))
    t0 = time.perf_counter()
    up, _ = surgery.blow_up(d, range(1, 31), 1)
    down, _ = surgery.blow_down(up, 31)
    return {"seconds": time.perf_counter() - t0, "letters_before": len(d.braid_word),
            "letters_after": len(down.braid_word)}


def smith_share(root: Path, cli, rng: random.Random) -> dict:
    from tracing import Tracer

    d = workloads.random_diagram(rng, 60, letters_per_strand=100)
    moves = []
    for _ in range(3):
        moves += workloads.move_chain(rng, d["strands"])
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        (Path(tmp) / "d.txt").write_text(workloads.diagram_text(d))
        (Path(tmp) / "m.json").write_text(json.dumps(moves))
        tracer.install()
        try:
            with redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                cli.main(["surgery", f"{tmp}/d.txt", "--moves", f"{tmp}/m.json", "--json"])
                wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
    tracer.absorb(tracer.end_job())
    layer = tracer.summary(1)
    return {"strands": d["strands"], "letters": len(d["braid"]), "moves": len(moves),
            "job_seconds": wall, "smith_self_seconds": layer["homology.smith.self_s"],
            "smith_share": layer["homology.smith.self_s"] / wall}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from spuncalc import cli, homology, lens, planar, surgery

    rng = random.Random(args.seed)
    report = {
        "seed": args.seed,
        "lens": lens_sweep(lens),
        "lens_2000_1999_cli": lens_cli_once(root),
        "smith_vs_bareiss": smith_sweep(homology, rng),
        "words": word_sweep(planar, rng),
        "blow_up_down_30": blow_sweep(surgery, rng),
        "surgery_smith_share": smith_share(root, cli, rng),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
