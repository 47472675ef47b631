"""Regression corpus: worked examples stored as versioned JSON fixtures.

Each fixture file carries a ``kind`` deciding how its cases are replayed.
A ``lens``, ``embed``, ``s4`` or ``surgery`` case calls the same report
function as ``spuncalc lens``, ``embed``, ``certify-s4`` or ``surgery``. An
``atoms`` case reports the form ``fourman.evaluate_open_book`` gives its
page and monodromy, with no checks; no command but ``corpus run`` calls it.
A case passes when its report's outputs contain its ``expect`` (dicts key
by key) and its exit code equals its ``exit`` (0 when absent).
``run_corpus`` reports one pass/fail line per case; the same fixtures back
the acceptance test suite.
"""

from __future__ import annotations

import json
from typing import Iterator

from . import fourman, surgery
from .errors import Value
from .planar import PlanarPage, word_from_json


class CaseResult(Value):
    __slots__ = ("file", "name", "passed", "detail")

    def __init__(self, file: str, name: str, passed: bool, detail: str = "") -> None:
        object.__setattr__(self, "file", file)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail and not self.passed else ""
        return f"{status}: {self.name}{suffix}"


def fixture_names() -> list[str]:
    from importlib import resources  # only corpus commands read the fixtures

    files = resources.files(__package__) / "corpus"
    return sorted(
        entry.name for entry in files.iterdir() if entry.name.endswith(".json")
    )


def load_fixture(name: str) -> dict:
    from importlib import resources

    files = resources.files(__package__) / "corpus"
    return json.loads((files / name).read_text())


def _mismatches(got: object, want: object, path: str) -> Iterator[str]:
    """Where ``got`` fails to contain ``want``: dicts key by key (a missing
    key is a mismatch), anything else by equality; each named by its key path."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key, value in want.items():
            sub = f"{path}.{key}" if path else key
            if key in got:
                yield from _mismatches(got[key], value, sub)
            else:
                yield f"{sub} missing"
    elif got != want:
        yield f"{path} {got} != {want}"


def _replay(kind: str, case: dict) -> tuple[bool, str]:
    """Replay the case through its command's report function, or the evaluator for atoms."""
    from . import cli  # cli imports this module at load time

    if kind == "lens":
        report = cli.lens_report(case["p"], case["q"])
    elif kind == "surgery":
        report = cli.surgery_report(surgery.FramedBraidDiagram.from_json(case["diagram"]), [])
    elif kind == "atoms":
        form = fourman.evaluate_open_book(fourman.PageForm(**case["page"]),
                                          fourman.MonodromyForm(**case["monodromy"]))
        report = (lambda: {"form": form.to_json()}), [], None
    else:
        word = word_from_json(case["word"], PlanarPage(case["page"]))
        report = {"embed": cli.embed_report, "s4": cli.certify_report}[kind](word)
    outputs, checks, _ = report
    problems = list(_mismatches(outputs(), case["expect"], ""))
    code, want = cli.exit_code(checks), case.get("exit", 0)
    if code != want:
        problems.append(f"exit {code} != {want}")
    return not problems, "; ".join(problems)


def run_corpus() -> list[CaseResult]:
    results = []
    for name in fixture_names():
        fixture = load_fixture(name)
        kind = fixture["kind"]
        for case in fixture["cases"]:
            try:
                passed, detail = _replay(kind, case)
            except Exception as exc:  # a fixture must never crash the runner
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            results.append(CaseResult(file=name, name=case["name"], passed=passed, detail=detail))
    return results
