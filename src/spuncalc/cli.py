"""Command-line front end.

Subcommands: lens, embed, certify-s4, surgery, pi1, corpus. Every command
prints a human-readable report (lens-space targets in W_{i,j} notation,
pages as Sigma_{0,n+1}) or, with --json, a schema-versioned report whose
serialization is byte-stable given --no-timestamp. The JSON report is one
ASCII line, the bytes of ``json.dumps(report, sort_keys=True,
separators=(",", ":"))`` plus a newline; ``python -m json.tool`` indents it
for reading. lens, embed, certify-s4 and surgery build their reports in
functions of parsed inputs (``lens_report`` and so on), which the corpus
replays too. Exit codes: 0 ok, 1 a check without ``detail`` failed (the
rule of ``exit_code``), 2 bad input, a malformed argv included, and 141
from the console script when the reader of stdout closed it early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, NoReturn

from . import __version__, corpus, lens, pi1, spun, surgery
from .errors import InvalidMoveError, SpuncalcError, echo, parse_json
from .fourman import FourManifoldForm, normalize, parity_form
from .planar import PlanarPage, TwistWord, load_word, parity_vector, word_to_json, word_to_text

REPORT_SCHEMA = "spuncalc-report/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a tool killed by it

# Most holes ``--page`` accepts: the reports of embed and certify-s4 list one
# parity per hole, so the page, not the word, would set their size.
MAX_PAGE_HOLES = 100_000

# a report function's outputs (built when called), checks and text lines
Report = tuple[Callable[[], dict], list[dict], Iterator[str]]


def exit_code(checks: list[dict]) -> int:
    """The exit rule of every report: 1 when a check without ``detail``
    failed (a check with ``detail`` is reported, not asserted), else 0."""
    failed = any(not c["passed"] and "detail" not in c for c in checks)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _emit(args: argparse.Namespace, command: str, inputs: dict,
          outputs: Callable[[], dict], checks: list[dict], lines: Iterator[str]) -> int:
    """Print the JSON report under --json, or else the text lines, and
    return ``exit_code(checks)``. Each mode builds only what it prints:
    ``outputs`` is called only under --json, and ``lines``, a generator, is
    iterated only in text mode."""
    if not args.json:
        for line in lines:
            print(line)
        return exit_code(checks)
    report = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "command": command,
        "conventions": surgery.SIGN_CONVENTIONS,
        "inputs": inputs,
        "outputs": outputs(),
        "checks": checks,
    }
    if not args.no_timestamp:
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    return exit_code(checks)


def _form_name(form: FourManifoldForm) -> str:
    if form.s1_cross_sphere == 0:
        base = f"W_{{{form.trivial_bundle},{form.twisted_bundle}}}"
        return f"{base} = {form.describe()}"
    return form.describe()


def _page_name(page: PlanarPage) -> str:
    return f"Sigma_{{0,{page.inner_count + 1}}} (disk with {page.inner_count} holes)"


def _page(holes: int) -> PlanarPage:
    if holes > MAX_PAGE_HOLES:
        raise SpuncalcError(f"--page takes at most {MAX_PAGE_HOLES} holes, got {echo(holes)}")
    return PlanarPage(holes)


def _read(path: str) -> str:
    """The file's text; only here is an OSError bad input (not on stdout)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpuncalcError(str(exc)) from None


def lens_report(p: int, q: int) -> Report:
    """The lens pipeline for L(p,q): expansion, plumbing and slid
    determinants, open book word, parity reconciliation and target."""
    c = lens.cf_expand(p, q)
    sd = lens.slid_diagram(c)
    page, word = lens.lens_open_book(c, sd)
    rec = lens.reconcile(c, word)
    target = normalize(parity_form(rec.psi))
    plumb_det = lens.plumbing_matrix(c).det()
    slid_det = sd.linking_det()
    value = lens.cf_eval(c)
    checks = [
        {"name": "cf_eval equals -p/q",
         "passed": (value.numerator, value.denominator) == (-p, q)},
        {"name": "plumbing |det| equals p", "passed": abs(plumb_det) == p},
        {"name": "slid |det| equals p", "passed": abs(slid_det) == p},
        {"name": "word parity matches reduced parity", "passed": rec.agree,
         "detail": "reported, not asserted"},
    ]

    def outputs():
        return {
            "cf": list(c.coefficients),
            "plumbing_det": plumb_det,
            "slid_diagram": sd.to_json(),
            "slid_det": slid_det,
            "open_book_word": word_to_json(word),
            "reconciliation": rec.to_json(),
            "psi_parity": list(rec.psi),
            "target": target.to_json(),
            "spin": target.is_spin(),
        }

    def lines():
        yield f"L({p},{q}): expansion {list(c.coefficients)}"
        yield f"plumbing det = {plumb_det} (|det| = {abs(plumb_det)})"
        yield (f"slid diagram: framings {list(sd.framings)}, links {list(sd.links)}, "
               f"twist regions {list(sd.twist_regions)}, det = {slid_det}")
        yield f"open book on {_page_name(page)}: {word_to_text(word) or '(empty)'}"
        yield (f"word parity {list(rec.word_parity)} vs reduced parity {list(rec.psi)}"
               + ("" if rec.agree else "  [disagreement flagged]"))
        yield (f"embedding target: {_form_name(target)}"
               + ("  [spin]" if target.is_spin() else ""))

    return outputs, checks, lines()


def cmd_lens(args: argparse.Namespace) -> int:
    return _emit(args, "lens", {"p": args.p, "q": args.q}, *lens_report(args.p, args.q))


def embed_report(page: PlanarPage, word: TwistWord, raw: bool = False) -> Report:
    """Raw and normalized embedding target of a twist word; ``raw`` leaves
    the normalized form out of the text lines."""
    report = spun.embedding_target(page, word)
    checks = [{
        "name": "raw summand counts add up to the hole count",
        "passed": report.raw.summand_count() == page.inner_count,
    }]

    def lines():
        yield f"page: {_page_name(page)}"
        yield f"word: {word_to_text(word) or '(empty)'}"
        yield f"parity: {list(report.parity)}"
        yield f"raw target: {_form_name(report.raw)}"
        if not raw:
            yield f"normalized: {_form_name(report.normalized)}"
        yield f"spin: {'yes' if report.spin else 'no'}"

    return report.to_json, checks, lines()


def cmd_embed(args: argparse.Namespace) -> int:
    page = _page(args.page)
    word = load_word(_read(args.word), page)
    return _emit(args, "embed", {"page": args.page, "word_file": args.word},
                 *embed_report(page, word, args.raw))


def certify_report(page: PlanarPage, word: TwistWord) -> Report:
    """The sphere certificate of a paired page; its one check fails when
    the word does not certify."""
    parities = spun.s4_parities(page, word)
    certified = all(b == 1 for b in parities)
    target = spun.s4_target_name(page) if certified else None

    def outputs():
        out = {"a_parities": list(parities), "certified": certified}
        if certified:
            out["target"] = target
        return out

    def lines():
        yield f"page: {_page_name(page)} with {page.inner_count // 2} boundary pairs"
        yield f"word: {word_to_text(word)}"
        yield f"a-boundary twist parities: {list(parities)}"
        if certified:
            yield f"certified: yes -> {target}"
        else:
            yield "certified: no (every a-boundary needs odd twist parity)"

    return outputs, [{"name": "sphere certificate", "passed": certified}], lines()


def cmd_certify_s4(args: argparse.Namespace) -> int:
    page = _page(args.page)
    word = load_word(_read(args.word), page)
    return _emit(args, "certify-s4", {"page": args.page, "word_file": args.word},
                 *certify_report(page, word))


def surgery_report(diagram: surgery.FramedBraidDiagram, moves: list[dict]) -> Report:
    """Apply a JSON move list with an H1 audit of each move and of the whole
    chain, then export the final diagram as a planar open book."""
    final, h1, log = surgery.apply_moves(diagram, moves)
    page, word = surgery.to_planar_open_book(final)
    h1_start, h1_final = h1[0], h1[-1]
    checks = [{"name": f"{rec.move} preserves H1", "passed": rec.h1_preserved}
              for rec in log]
    checks.append({"name": "H1 preserved end to end", "passed": h1_start == h1_final})

    def outputs():
        return {
            "initial": diagram.to_json(),
            "final": final.to_json(),
            "moves": [rec.to_json() for rec in log],
            "h1": h1_final.to_json(),
            "open_book": {
                "page": {"inner_count": page.inner_count},
                "word": word_to_json(word),
                "parity": list(parity_vector(word)),
            },
        }

    def lines():
        yield f"diagram: {diagram.strands} strands, framings {list(diagram.framings)}"
        yield f"H1 = {h1_start.describe()}"
        for rec in log:
            status = "ok" if rec.h1_preserved else "H1 CHANGED"
            yield (f"move {rec.move} [{rec.detail}]: "
                   f"{rec.h1_before.describe()} -> {rec.h1_after.describe()} ({status})")
        yield f"final: {final.strands} strands, framings {list(final.framings)}"
        yield f"open book on {_page_name(page)}: {word_to_text(word) or '(empty)'}"

    return outputs, checks, lines()


def cmd_surgery(args: argparse.Namespace) -> int:
    d = surgery.parse_diagram(_read(args.diagram))
    moves = (parse_json(_read(args.moves), InvalidMoveError, f"malformed JSON in {args.moves}")
             if args.moves else [])
    return _emit(args, "surgery", {"diagram_file": args.diagram, "moves_file": args.moves},
                 *surgery_report(d, moves))


def cmd_pi1(args: argparse.Namespace) -> int:
    if args.fuzz < 0:
        raise SpuncalcError(f"--fuzz needs a count >= 0, got {echo(args.fuzz)}")
    g = pi1.parse_presentation(_read(args.presentation))
    page = pi1.page_for_presentation(g)
    recovered = pi1.pi1_of_open_book(page)
    ab = pi1.abelianization(recovered)
    roundtrip_ok = recovered.relators == tuple(pi1.free_reduce(r) for r in g.relators)
    checks = [{"name": "round trip returns the presentation", "passed": roundtrip_ok}]
    if args.fuzz:
        rng = random.Random(20240 + args.fuzz)
        fuzz_ok = all(_fuzz_roundtrip_once(rng) for _ in range(args.fuzz))
        checks.append({"name": f"round trip holds for {args.fuzz} random presentations",
                       "passed": fuzz_ok})

    def outputs():
        return {
            "presentation": g.to_json(),
            "page": page.to_json(),
            "recovered": recovered.to_json(),
            "abelianization": ab.to_json(),
        }

    def lines():
        yield f"presentation: {g.describe()}"
        yield f"page: {page.handle_count} circle handles, {page.sphere_count} pushed spheres"
        yield f"recovered fundamental group: {recovered.describe('a')}"
        yield f"abelianization: {ab.describe()}"
        for check in checks[1:]:
            yield f"{check['name']}: {'pass' if check['passed'] else 'FAIL'}"

    return _emit(args, "pi1", {"presentation_file": args.presentation}, outputs, checks, lines())


def _fuzz_roundtrip_once(rng: random.Random) -> bool:
    g = rng.randint(0, 5)
    k = rng.randint(0, 5) if g else 0
    relators = []
    for _ in range(k):
        length = rng.randint(1, 12)
        word: list[int] = []
        while len(word) < length:
            x = rng.choice([s * i for i in range(1, g + 1) for s in (1, -1)])
            if word and word[-1] == -x:
                continue
            word.append(x)
        relators.append(tuple(word))
    pres = pi1.GroupPresentation(g, tuple(relators))
    return pi1.pi1_of_open_book(pi1.page_for_presentation(pres)) == pres


def cmd_corpus(args: argparse.Namespace) -> int:
    results = corpus.run_corpus()
    checks = [{"name": f"{r.file}: {r.name}", "passed": r.passed} for r in results]
    passed = sum(r.passed for r in results)

    def outputs():
        return {
            "total": len(results),
            "passed": passed,
            "results": [r.to_json() for r in results],
        }

    def lines():
        yield from (r.line() for r in results)
        yield f"{passed}/{len(results)} corpus cases passed"

    return _emit(args, "corpus", {"action": "run"}, outputs, checks, lines())


class _Parser(argparse.ArgumentParser):
    """A bad argv is bad input like any other: ``main`` prints one error
    line and returns 2, where argparse would print its usage and exit."""

    def error(self, message: str) -> NoReturn:
        # argparse quotes the offending token whole: the cut keeps the line short
        raise SpuncalcError(echo(message, str))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    call in the process; nothing changes it after it is built."""
    parser = _Parser(
        prog="spuncalc",
        description="Planar open books, surgery diagrams, and their embedding targets",
    )
    parser.add_argument("--version", action="version", version=f"spuncalc {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp for byte-stable output")

    p = sub.add_parser("lens", help="lens space pipeline for L(p,q)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    common(p)
    p.set_defaults(func=cmd_lens)

    p = sub.add_parser("embed", help="embedding target of a planar open book")
    p.add_argument("--page", type=int, required=True,
                   help=f"number of inner boundaries (at most {MAX_PAGE_HOLES})")
    p.add_argument("--word", required=True, help="word file (text or JSON)")
    p.add_argument("--raw", action="store_true", help="report the raw form only")
    common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("certify-s4", help="sphere certificate for paired pages")
    p.add_argument("--page", type=int, required=True,
                   help=f"number of inner boundaries, even (at most {MAX_PAGE_HOLES})")
    p.add_argument("--word", required=True)
    common(p)
    p.set_defaults(func=cmd_certify_s4)

    p = sub.add_parser("surgery", help="diagram moves with a homology audit")
    p.add_argument("diagram", help="diagram file (text or JSON)")
    p.add_argument("--moves", help="JSON move list")
    common(p)
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("pi1", help="fundamental group of the push-page open book")
    p.add_argument("presentation", help="presentation file")
    p.add_argument("--fuzz", type=int, default=0,
                   help="also round-trip N random presentations")
    common(p)
    p.set_defaults(func=cmd_pi1)

    p = sub.add_parser("corpus", help="replay the regression corpus")
    p.add_argument("action", choices=["run"])
    common(p)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SpuncalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def console_main() -> int:
    """Entry point of the ``spuncalc`` script and of ``python -m spuncalc.cli``.
    A reader that closes stdout early (``| head -1``) ends the run quietly
    with exit 141. ``main`` itself lets ``BrokenPipeError`` propagate, so an
    in-process caller keeps its own stdout."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; on /dev/null that flush succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(console_main())
