"""Regression corpus: worked examples stored as versioned JSON fixtures.

Each fixture file carries a ``kind`` deciding how its cases are replayed;
``run_corpus`` recomputes every case and reports one pass/fail line each.
The same fixtures back the acceptance test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from . import fourman, lens, spun, surgery
from .planar import PlanarPage, exponent_vector, parity_vector, word_from_json, word_to_json


@dataclass(frozen=True)
class CaseResult:
    file: str
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail and not self.passed else ""
        return f"{status}: {self.name}{suffix}"

    def to_json(self) -> dict:
        return {
            "file": self.file,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
        }


def fixture_names() -> list[str]:
    files = resources.files(__package__) / "corpus"
    return sorted(
        entry.name for entry in files.iterdir() if entry.name.endswith(".json")
    )


def load_fixture(name: str) -> dict:
    files = resources.files(__package__) / "corpus"
    return json.loads((files / name).read_text())


def _run_embed(case: dict) -> tuple[bool, str]:
    page = PlanarPage(case["page"])
    word = word_from_json(case["word"], page)
    report = spun.embedding_target(page, word)
    expect = case["expect"]
    problems = []
    if "exponents" in expect:
        got = list(exponent_vector(word))
        if got != expect["exponents"]:
            problems.append(f"exponents {got} != {expect['exponents']}")
    if list(report.parity) != expect["parity"]:
        problems.append(f"parity {list(report.parity)} != {expect['parity']}")
    if report.raw.to_json() != expect["raw"]:
        problems.append(f"raw {report.raw.to_json()} != {expect['raw']}")
    if report.normalized.to_json() != expect["normalized"]:
        problems.append(f"normalized {report.normalized.to_json()}")
    if report.spin != expect["spin"]:
        problems.append(f"spin {report.spin} != {expect['spin']}")
    return not problems, "; ".join(problems)


def _run_lens(case: dict) -> tuple[bool, str]:
    p, q = case["p"], case["q"]
    expect = case["expect"]
    c = lens.cf_expand(p, q)
    problems = []
    if list(c.coefficients) != expect["cf"]:
        problems.append(f"cf {list(c.coefficients)} != {expect['cf']}")
    value = lens.cf_eval(c)
    if value.numerator != -p or value.denominator != q:
        problems.append(f"cf_eval {value} != -{p}/{q}")
    if abs(lens.plumbing_matrix(c).det()) != p:
        problems.append("plumbing |det| != p")
    if abs(lens.slid_diagram(c).linking_det()) != p:
        problems.append("slid |det| != p")
    if list(lens.psi_parity(c)) != expect["psi_parity"]:
        problems.append(f"psi {list(lens.psi_parity(c))} != {expect['psi_parity']}")
    target = lens.lens_embedding_target(p, q)
    if target.to_json() != expect["target"]:
        problems.append(f"target {target.to_json()} != {expect['target']}")
    return not problems, "; ".join(problems)


def _run_s4(case: dict) -> tuple[bool, str]:
    page = PlanarPage(case["page"])
    word = word_from_json(case["word"], page)
    got = spun.s4_certificate(page, word)
    want = case["expect"]["certified"]
    return got == want, f"certified {got} != {want}" if got != want else ""


def _run_atoms(case: dict) -> tuple[bool, str]:
    page = fourman.PageForm.from_json(case["page"])
    mono = fourman.MonodromyForm.from_json(case["monodromy"])
    got = fourman.evaluate_open_book(page, mono).to_json()
    want = case["expect"]["form"]
    return got == want, f"form {got} != {want}" if got != want else ""


def _run_surgery(case: dict) -> tuple[bool, str]:
    d = surgery.FramedBraidDiagram.from_json(case["diagram"])
    expect = case["expect"]
    problems = []
    h1 = surgery.h1_invariants(d).to_json()
    if h1 != expect["h1"]:
        problems.append(f"h1 {h1} != {expect['h1']}")
    page, word = surgery.to_planar_open_book(d)
    if word_to_json(word) != expect["word"]:
        problems.append(f"word {word_to_json(word)} != {expect['word']}")
    parity = list(parity_vector(word))
    if parity != expect["parity"]:
        problems.append(f"parity {parity} != {expect['parity']}")
    return not problems, "; ".join(problems)


_RUNNERS = {
    "embed": _run_embed,
    "lens": _run_lens,
    "s4": _run_s4,
    "atoms": _run_atoms,
    "surgery": _run_surgery,
}


def run_corpus() -> list[CaseResult]:
    results = []
    for name in fixture_names():
        fixture = load_fixture(name)
        runner = _RUNNERS[fixture["kind"]]
        for case in fixture["cases"]:
            try:
                passed, detail = runner(case)
            except Exception as exc:  # a fixture must never crash the runner
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            results.append(CaseResult(file=name, name=case["name"], passed=passed, detail=detail))
    return results
