"""Command-line front end.

Subcommands: lens, embed, certify-s4, surgery, pi1, corpus. Every command
prints a human-readable report (lens-space targets in W_{i,j} notation,
pages as Sigma_{0,n+1}) or, with --json, a schema-versioned report whose
serialization is byte-stable given --no-timestamp. The JSON report is one
ASCII line, the bytes of ``json.dumps(report, sort_keys=True,
separators=(",", ":"))`` plus a newline; ``python -m json.tool`` indents it
for reading. lens, embed, certify-s4 and surgery build their reports in
functions of parsed inputs (``lens_report`` and so on), which the corpus
replays too; the embed report carries no check. Exit codes: 0 ok,
1 a check failed (the rule of ``exit_code``), 2 bad input, a malformed
argv included, and 141 from the console script when the reader of stdout
closed it early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Iterator, NoReturn

from . import __version__, corpus, lens, modp, pi1, spun, surgery
from .errors import InvalidMoveError, SpuncalcError, echo, integer, parse_json
from .planar import PlanarPage, TwistWord, load_word, parity_vector, word_to_json, word_to_text
from .spun import FourManifoldForm, normalize, parity_form

REPORT_SCHEMA = "spuncalc-report/3"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a tool killed by it

# Most holes ``--page`` accepts: the reports of embed and certify-s4 list one
# parity per hole, so the page, not the word, would set their size.
MAX_PAGE_HOLES = 100_000

# a report function's outputs (built when called), checks and text lines
Report = tuple[Callable[[], dict], list[dict], Iterator[str]]

# the check of an H1 against its presentation matrix's ranks over F_2 and F_3
RANK_CHECK = "H1 agrees with rank mod 2 and mod 3"


def exit_code(checks: list[dict]) -> int:
    """The exit rule of every report: 1 when any check failed, else 0."""
    return EXIT_OK if all(c["passed"] for c in checks) else EXIT_CHECK_FAILED


def _emit(args: argparse.Namespace, command: str, inputs: dict,
          outputs: Callable[[], dict], checks: list[dict], lines: Iterator[str]) -> int:
    """Print the JSON report under --json, or else the text lines, and
    return ``exit_code(checks)``. Each mode builds only what it prints:
    ``outputs`` is called only under --json, and ``lines``, a generator, is
    iterated only in text mode. The whole report is built before any of it
    is printed, so a value too long to print (an int of more than 4,300
    digits has no str()) is bad input that leaves stdout empty."""
    try:
        if not args.json:
            text = "\n".join(lines)
        else:
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
                from datetime import datetime, timezone  # only a timestamped report loads it

                report["generated_at"] = datetime.now(timezone.utc).isoformat()
            text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    except SpuncalcError:
        raise
    except ValueError as exc:
        raise SpuncalcError(f"the {command} report cannot be printed: {echo(exc, str)}") from None
    print(text)
    return exit_code(checks)


def _form_name(form: FourManifoldForm) -> str:
    return f"W_{{{form.trivial_bundle},{form.twisted_bundle}}} = {form.describe()}"


def _page_name(page: PlanarPage) -> str:
    return f"Sigma_{{0,{page.inner_count + 1}}} (disk with {page.inner_count} holes)"


def _page(holes: int) -> PlanarPage:
    if holes > MAX_PAGE_HOLES:
        raise SpuncalcError(f"--page takes at most {MAX_PAGE_HOLES} holes, got {echo(holes)}")
    return PlanarPage(holes)


def _read(path: str) -> str:
    """The file's text; only here is an OSError bad input (not on stdout)."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpuncalcError(str(exc)) from None


def lens_report(p: int, q: int) -> Report:
    """The lens pipeline for L(p,q): expansion, plumbing and slid
    determinants, the open book word, whose parities must equal the
    reduced parities, and the target."""
    c = lens.cf_expand(p, q)
    sd = lens.slid_diagram(c)
    page, word = lens.lens_open_book(sd)
    rec = lens.reconcile(c, word)
    target = normalize(parity_form(rec.psi))
    plumb_det = lens.plumbing_matrix(c).det()
    slid_det = sd.linking_det()
    checks = [
        {"name": "cf_eval equals -p/q", "passed": lens.cf_eval(c) == (-p, q)},
        {"name": "plumbing |det| equals p", "passed": abs(plumb_det) == p},
        {"name": "slid |det| equals p", "passed": abs(slid_det) == p},
        {"name": "word parity matches reduced parity", "passed": rec.agree},
    ]

    def outputs():
        return {
            "cf": list(c.coefficients),
            "plumbing_det": plumb_det,
            "slid_diagram": sd.to_json(),
            "slid_det": slid_det,
            "open_book_word": word_to_json(word),
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
        yield f"word parity {list(rec.word_parity)} vs reduced parity {list(rec.psi)}"
        yield (f"embedding target: {_form_name(target)}"
               + ("  [spin]" if target.is_spin() else ""))

    return outputs, checks, lines()


def cmd_lens(args: argparse.Namespace) -> int:
    return _emit(args, "lens", {"p": args.p, "q": args.q}, *lens_report(args.p, args.q))


def embed_report(word: TwistWord) -> Report:
    """Raw and normalized embedding target of a twist word on its page, with
    no check: the raw target has one summand per hole by construction."""
    page = word.page
    report = spun.embedding_target(word)

    def lines():
        yield f"page: {_page_name(page)}"
        yield f"word: {word_to_text(word) or '(empty)'}"
        yield f"parity: {list(report.parity)}"
        yield f"raw target: {_form_name(report.raw)}"
        yield f"normalized: {_form_name(report.normalized)}"
        yield f"spin: {'yes' if report.spin else 'no'}"

    return report.to_json, [], lines()


def cmd_embed(args: argparse.Namespace) -> int:
    word = load_word(_read(args.word), _page(args.page))
    return _emit(args, "embed", {"page": args.page, "word_file": args.word},
                 *embed_report(word))


def certify_report(word: TwistWord) -> Report:
    """The sphere certificate of a word on a paired page: it certifies when
    every a-boundary parity is odd, and its one check fails when it does
    not."""
    page = word.page
    parities = spun.s4_parities(word)
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
    word = load_word(_read(args.word), _page(args.page))
    return _emit(args, "certify-s4", {"page": args.page, "word_file": args.word},
                 *certify_report(word))


def surgery_report(diagram: surgery.FramedBraidDiagram, moves: list[dict]) -> Report:
    """Apply a JSON move list with an H1 audit of each move and of the whole
    chain, then export the final diagram as a planar open book. The chain's
    check compares the input's H1 with the final linking matrix's ranks mod
    2 and mod 3; with no move that matrix is the input's own, and the check
    takes the name it has in ``pi1``."""
    final, h1, agrees, details = surgery.apply_moves(diagram, moves)
    page, word = surgery.to_planar_open_book(final)
    h1_start = h1[0]
    # one (kind, detail, H1 before, H1 after) per move
    steps = list(zip((m["move"] for m in moves), details, h1, h1[1:]))
    checks = [{"name": f"{kind} preserves H1", "passed": before == after}
              for kind, _, before, after in steps]
    checks.append({"name": "H1 preserved end to end" if moves else RANK_CHECK, "passed": agrees})

    def outputs():
        return {
            "initial": diagram.to_json(),
            "final": final.to_json(),
            "moves": [{"move": kind, "detail": detail, "h1_before": before.to_json(),
                       "h1_after": after.to_json(), "h1_preserved": before == after}
                      for kind, detail, before, after in steps],
            "h1": h1[-1].to_json(),
            "open_book": {
                "page": {"inner_count": page.inner_count},
                "word": word_to_json(word),
                "parity": list(parity_vector(word)),
            },
        }

    def lines():
        yield f"diagram: {diagram.strands} strands, framings {list(diagram.framings)}"
        yield f"H1 = {h1_start.describe()}"
        for kind, detail, before, after in steps:
            status = "ok" if before == after else "H1 CHANGED"
            yield f"move {kind} [{detail}]: {before.describe()} -> {after.describe()} ({status})"
        yield f"final: {final.strands} strands, framings {list(final.framings)}"
        yield f"open book on {_page_name(page)}: {word_to_text(word) or '(empty)'}"

    return outputs, checks, lines()


def cmd_surgery(args: argparse.Namespace) -> int:
    d = surgery.parse_diagram(_read(args.diagram))
    moves = (parse_json(_read(args.moves), InvalidMoveError, f"malformed JSON in {args.moves}")
             if args.moves else [])
    return _emit(args, "surgery", {"diagram_file": args.diagram, "moves_file": args.moves},
                 *surgery_report(d, moves))


def _exponent_sums(relators: tuple[pi1.Word, ...]) -> list[list[int]]:
    """Each relator's exponent sum on each generator some relator mentions
    (the other columns are zero), counted here rather than read from
    ``pi1.abelianization``, so that a fault there shows against these rows."""
    column = {x: j for j, x in enumerate({abs(x) for r in relators for x in r})}
    rows = []
    for r in relators:
        row = [0] * len(column)
        for x in r:
            if x > 0:
                row[column[x]] += 1
            else:
                row[column[-x]] -= 1
        rows.append(row)
    return rows


def cmd_pi1(args: argparse.Namespace) -> int:
    """The push page of a presentation, the group read back off it and its
    abelianization, checked against the ranks mod 2 and mod 3 of the
    input's exponent sums. The round trip returns the input's relators,
    freely reduced, by construction, so it carries no check."""
    g = pi1.parse_presentation(_read(args.presentation))
    page = pi1.page_for_presentation(g)
    recovered = pi1.pi1_of_open_book(page)
    ab = pi1.abelianization(recovered)
    checks = [{"name": RANK_CHECK, "passed": modp.invariants_agree(
        ab.factors, ab.free_rank, g.generator_count, _exponent_sums(g.relators))}]

    def outputs():
        return {
            "presentation": g.to_json(),
            "page": page.to_json(),
            "recovered": recovered.to_json(),
            "abelianization": ab.to_json(),
        }

    def lines():
        yield f"presentation: {g.describe()}"
        yield f"page: {page.handle_count} circle handles, {len(page.loops)} pushed spheres"
        yield f"recovered fundamental group: {recovered.describe('a')}"
        yield f"abelianization: {ab.describe()}"

    return _emit(args, "pi1", {"presentation_file": args.presentation}, outputs, checks, lines())


def cmd_corpus(args: argparse.Namespace) -> int:
    results = corpus.run_corpus()
    checks = [{"name": f"{r.file}: {r.name}", "passed": r.passed} for r in results]
    passed = sum(r.passed for r in results)

    def outputs():
        return {
            "total": len(results),
            "passed": passed,
            "results": [{"file": r.file, "name": r.name, "passed": r.passed, "detail": r.detail}
                        for r in results],
        }

    def lines():
        yield from (r.line() for r in results)
        yield f"{passed}/{len(results)} corpus cases passed"

    return _emit(args, "corpus", {"action": "run"}, outputs, checks, lines())


class _Parser(argparse.ArgumentParser):
    """A bad argv is bad input like any other: ``main`` prints one error
    line and returns 2, where argparse would print its usage and exit. The
    top-level parser keeps its subcommands' parsers by name."""

    subcommands: dict[str, argparse.ArgumentParser] = {}

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
    p.add_argument("p", type=integer)
    p.add_argument("q", type=integer)
    common(p)
    p.set_defaults(func=cmd_lens)

    p = sub.add_parser("embed", help="embedding target of a planar open book")
    p.add_argument("--page", type=integer, required=True,
                   help=f"number of inner boundaries (at most {MAX_PAGE_HOLES})")
    p.add_argument("--word", required=True, help="word file (text or JSON)")
    common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("certify-s4", help="sphere certificate for paired pages")
    p.add_argument("--page", type=integer, required=True,
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
    common(p)
    p.set_defaults(func=cmd_pi1)

    p = sub.add_parser("corpus", help="replay the regression corpus")
    p.add_argument("action", choices=["run"])
    common(p)
    p.set_defaults(func=cmd_corpus)

    parser.subcommands = sub.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command of ``argv`` (``sys.argv[1:]`` when None). When its
    first word names a subcommand, that subcommand's parser reads the rest,
    as the top-level parser would hand it on, but in one pass; anything
    else (no word, ``--version``, ``-h``, an unknown word) goes through the
    top-level parser."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser = build_parser()
        sub = parser.subcommands.get(argv[0]) if argv else None
        args = sub.parse_args(argv[1:]) if sub else parser.parse_args(argv)
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
