"""Seeded workload generators.

Each generator returns one *pass*: a list of jobs, each a CLI argv plus
the files it reads and the facts the oracle needs. The benchmark repeats
the pass in a closed loop, so every workload keeps a fixed composition:
sizes sit on fixed grids and the seed draws the content on them. That
keeps the cost of a pass nearly independent of the seed, which is what
makes runs on different seeds comparable.

Nothing here imports spuncalc; the expectations come from the generated
data alone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import gcd


@dataclass
class Job:
    kind: str
    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)  # name -> content
    expect: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


REPORT_FLAGS = ["--json", "--no-timestamp"]


# -- lens-census ----------------------------------------------------------

CENSUS_JOBS = 500
CENSUS_MAX_P = 500


def cf_length(p: int, q: int) -> int:
    """Number of coefficients in the negative continued fraction of -p/q."""
    k = 0
    while q:
        k += 1
        p, q = q, -p % q
    return k


def lens_census(seed: int) -> list[Job]:
    """A stratified seeded draw from every coprime pair with p <= 500: the
    pairs, ordered by expansion length k, fall into CENSUS_JOBS strata of
    equal size. Each stratum contributes one pair whose k is the stratum's
    median k, and the seed picks which. Every pass thus has the census's
    own k distribution, heavy tail included, with the same k values
    whatever the seed. L(500, 499), the longest expansion in range, is
    always added."""
    rng = _rng("lens-census", seed)
    pairs = sorted((cf_length(p, q), p, q) for p in range(2, CENSUS_MAX_P + 1)
                   for q in range(1, p) if gcd(p, q) == 1)
    size = len(pairs) / CENSUS_JOBS
    picks = []
    for i in range(CENSUS_JOBS):
        stratum = pairs[round(i * size):round((i + 1) * size)]
        k = stratum[len(stratum) // 2][0]
        picks.append(rng.choice([pair for pair in stratum if pair[0] == k]))
    picks.append((CENSUS_MAX_P - 1, CENSUS_MAX_P, CENSUS_MAX_P - 1))
    return [Job("lens", ["lens", str(p), str(q), *REPORT_FLAGS], expect={"p": p, "q": q})
            for _, p, q in picks]


# -- surgery-audit --------------------------------------------------------

# 40 diagrams on a geometric grid from 12 to 28 strands: enough jobs for a
# p75 tail with ten beyond it, in a pass of about a second, so that every
# job gets many timed repeats spread over the run
SURGERY_STRANDS = [round(12 * (28 / 12) ** (i / 39)) for i in range(40)]
LETTERS_PER_STRAND = 8


def random_diagram(rng: random.Random, n: int, letters_per_strand: int = LETTERS_PER_STRAND) -> dict:
    framings = [rng.randint(-9, 9) for _ in range(n)]
    braid = []
    for _ in range(letters_per_strand * n):
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        braid.append([i, j, rng.choice((1, -1))])
    return {"strands": n, "framings": framings, "braid": braid}


def diagram_text(d: dict) -> str:
    lines = [f"strands {d['strands']}", "framings " + " ".join(map(str, d["framings"]))]
    lines += [f"A {i} {j} {e:+d}" for i, j, e in d["braid"]]
    return "\n".join(lines) + "\n"


def move_chain(rng: random.Random, n: int) -> list[dict]:
    """Three valid moves that leave the manifold unchanged: blow up a random
    quarter of the strands, twist the new strand from framing f to -f
    (t = -2f), then blow it down."""
    sign = rng.choice((1, -1))
    region = sorted(rng.sample(range(1, n + 1), max(1, n // 4)))
    return [
        {"move": "blow_up", "region": region, "sign": sign},
        {"move": "rolfsen_twist", "component": n + 1, "twists": -2 * sign},
        {"move": "blow_down", "component": n + 1},
    ]


def surgery_audit(seed: int) -> list[Job]:
    rng = _rng("surgery-audit", seed)
    jobs = []
    for idx, n in enumerate(SURGERY_STRANDS):
        d = random_diagram(rng, n)
        moves = move_chain(rng, n)
        as_json = idx % 2 == 1  # every other size, so the format mix is fixed too
        dname = f"d{idx}.json" if as_json else f"d{idx}.txt"
        dtext = json.dumps(d) if as_json else diagram_text(d)
        jobs.append(Job(
            "surgery",
            ["surgery", dname, "--moves", f"m{idx}.json", *REPORT_FLAGS],
            files={dname: dtext, f"m{idx}.json": json.dumps(moves)},
            expect={"diagram": d, "moves": len(moves)},
        ))
    return jobs


# -- cli-mix --------------------------------------------------------------

# (letters, holes) of the embed jobs and (letters, a-pairs) of the certify
# pairs; pi1 jobs take every (generators, relator length) twice. The words
# stay at most 5000 letters, so that a pass takes under a second.
EMBED_SHAPES = list(zip([round(500 * 10 ** (i / 7)) for i in range(8)],
                        [8, 64, 16, 48, 24, 40, 32, 56]))
CERTIFY_SHAPES = list(zip([round(300 * 10 ** (i / 7)) for i in range(8)],
                          [4, 32, 8, 28, 12, 24, 16, 20]))
PI1_SHAPES = [(g, length) for g in (2, 4, 6, 8) for length in (4, 12, 24, 40)] * 2


def twist_text(curve: list[int], exp: int) -> str:
    body = "T{%s}" % ",".join(map(str, curve))
    return body if exp == 1 else f"{body}^{exp}"


def _embed_job(rng: random.Random, idx: int, letters: int, holes: int, as_json: bool) -> Job:
    word = []
    for _ in range(letters):
        curve = sorted(rng.sample(range(1, holes + 1), rng.randint(1, 4)))
        word.append((curve, rng.choice((-3, -2, -1, 1, 2, 3))))
    if as_json:
        name = f"e{idx}.json"
        text = json.dumps([{"op": "twist", "curve": c, "exp": e} for c, e in word])
    else:
        name = f"e{idx}.txt"
        text = " ".join(twist_text(c, e) for c, e in word)
    return Job("embed", ["embed", "--page", str(holes), "--word", name, *REPORT_FLAGS],
               files={name: text}, expect={"holes": holes, "word": word})


def _certify_job(rng: random.Random, idx: int, letters: int, pairs: int, certify: bool) -> Job:
    a_holes = [2 * j - 1 for j in range(1, pairs + 1)]
    twists = []
    for _ in range(letters):
        curve = sorted(rng.sample(a_holes, rng.randint(1, min(3, pairs))))
        twists.append((curve, rng.choice((-3, -2, -1, 1, 2, 3))))
    parity = [0] * pairs
    for curve, e in twists:
        for a in curve:
            parity[(a - 1) // 2] += e
    # fix the parities: all odd to certify, otherwise make one pair even
    broken = None if certify else rng.randrange(pairs)
    for j in range(pairs):
        want = 0 if j == broken else 1
        if parity[j] % 2 != want:
            twists.append(([2 * j + 1], 1))
            parity[j] += 1
    tokens = [twist_text(c, e) for c, e in twists]
    for j in range(1, pairs + 1):
        tokens.insert(rng.randint(0, len(tokens)), f"P{{{2 * j}|{2 * j - 1}}}")
    name = f"c{idx}.txt"
    return Job("certify-s4", ["certify-s4", "--page", str(2 * pairs), "--word", name, *REPORT_FLAGS],
               files={name: " ".join(tokens)},
               expect={"pairs": pairs, "twists": twists})


def _pi1_job(rng: random.Random, idx: int, g: int, length: int) -> Job:
    relators = [[rng.choice((1, -1)) * rng.randint(1, g) for _ in range(length)]
                for _ in range(g)]
    text = f"gens {g}\n" + "\n".join(
        "".join(("x" if x > 0 else "X") + str(abs(x)) for x in r) for r in relators) + "\n"
    name = f"g{idx}.txt"
    return Job("pi1", ["pi1", name, *REPORT_FLAGS], files={name: text},
               expect={"generators": g, "relators": relators})


def malformed_jobs() -> list[Job]:
    """One input of each kind that must exit 2 with one error line."""
    bad = "malformed"
    return [
        Job(bad, ["surgery", "bad_truncated.txt", *REPORT_FLAGS],
            files={"bad_truncated.txt": "strands 2\nframings -1 -2\nA 1\n"},
            expect={"case": "truncated diagram line"}),
        Job(bad, ["surgery", "bad_diagram.txt", "--moves", "bad_moves.json", *REPORT_FLAGS],
            files={"bad_diagram.txt": "strands 2\nframings -4 -2\nA 1 2 +1\n",
                   "bad_moves.json": json.dumps([{"move": "blow_up", "sign": 1}])},
            expect={"case": "move missing a key"}),
        Job(bad, ["embed", "--page", "3", "--word", "bad_json.json", *REPORT_FLAGS],
            files={"bad_json.json": '[{"op": "twist", "curve": [1]'},
            expect={"case": "malformed JSON"}),
        Job(bad, ["embed", "--page", "3", "--word", "bad_letter.json", *REPORT_FLAGS],
            files={"bad_letter.json": "[1, 2]"},
            expect={"case": "non-dict JSON letter"}),
        Job(bad, ["pi1", "bad_group.txt", "--fuzz", "-5", *REPORT_FLAGS],
            files={"bad_group.txt": "gens 2\nx1x2X1X2\n"},
            expect={"case": "negative fuzz count"}),
    ]


def cli_mix(seed: int) -> list[Job]:
    """Small jobs first, then by size: a job that follows a large one runs
    in the heap the large one left, which slows small jobs unevenly."""
    rng = _rng("cli-mix", seed)
    jobs = [_pi1_job(rng, i, g, length) for i, (g, length) in enumerate(PI1_SHAPES)]
    jobs.append(Job("corpus", ["corpus", "run", *REPORT_FLAGS]))
    jobs += malformed_jobs()
    for i, (letters, pairs) in enumerate(CERTIFY_SHAPES):
        jobs.append(_certify_job(rng, 2 * i, letters, pairs, certify=True))
        jobs.append(_certify_job(rng, 2 * i + 1, letters, pairs, certify=False))
    jobs += [_embed_job(rng, i, letters, holes, as_json=i % 2 == 1)
             for i, (letters, holes) in enumerate(EMBED_SHAPES)]
    return jobs


WORKLOADS = {
    "lens-census": lens_census,
    "surgery-audit": surgery_audit,
    "cli-mix": cli_mix,
}
