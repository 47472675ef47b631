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

The grammar is one table, ``COMMANDS``: ``read_argv`` reads a canonical argv
off it, and argparse, built from it, every other (help, version, other
spellings, errors), in its own words; a canonical argv never loads argparse.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from types import SimpleNamespace
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


def _emit(args: SimpleNamespace, command: str, inputs: dict,
          outputs: Callable[[], dict], checks: list[dict], lines: Iterator[str]) -> int:
    """Print the JSON report under --json, or else the text lines, and
    return ``exit_code(checks)``. Each mode builds only what it prints:
    ``outputs`` is called only under --json, and ``lines``, a generator, is
    iterated only in text mode. The whole report is built before any of it
    is printed, so a value too long to print (an int of more than 4,300
    digits has no str()) is bad input that leaves stdout empty. The report
    is a tree that ``outputs`` builds afresh, so it holds no cycle and the
    encoder skips its cycle check."""
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
            text = json.dumps(report, sort_keys=True, separators=(",", ":"), check_circular=False)
    except ValueError as exc:
        raise SpuncalcError(f"the {command} report cannot be printed: {echo(exc, str)}") from None
    print(text)
    return exit_code(checks)


def _form_name(form: FourManifoldForm) -> str:
    return f"W_{{{form.trivial_bundle},{form.twisted_bundle}}} = {form.describe()}"


def _page_name(page: PlanarPage) -> str:
    n = page.inner_count
    return f"Sigma_{{0,{n + 1}}} (disk with {n} hole{'' if n == 1 else 's'})"


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


def cmd_lens(args: SimpleNamespace) -> int:
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


def cmd_embed(args: SimpleNamespace) -> int:
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
        yield f"word: {word_to_text(word) or '(empty)'}"
        yield f"a-boundary twist parities: {list(parities)}"
        if certified:
            yield f"certified: yes -> {target}"
        else:
            yield "certified: no (every a-boundary needs odd twist parity)"

    return outputs, [{"name": "sphere certificate", "passed": certified}], lines()


def cmd_certify_s4(args: SimpleNamespace) -> int:
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


def cmd_surgery(args: SimpleNamespace) -> int:
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


def cmd_pi1(args: SimpleNamespace) -> int:
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
        presentation = g.to_json()
        return {
            "presentation": presentation,
            "page": page.to_json(presentation["relators"]),  # its loops are g's relators
            "recovered": recovered.to_json(),
            "abelianization": ab.to_json(),
        }

    def lines():
        yield f"presentation: {g.describe()}"
        yield f"page: {page.handle_count} circle handles, {len(page.loops)} pushed spheres"
        yield f"recovered fundamental group: {recovered.describe('a')}"
        yield f"abelianization: {ab.describe()}"

    return _emit(args, "pi1", {"presentation_file": args.presentation}, outputs, checks, lines())


def cmd_corpus(args: SimpleNamespace) -> int:
    results = corpus.run_corpus()
    checks = [{"name": f"{r['file']}: {r['name']}", "passed": r["passed"]} for r in results]
    passed = sum(r["passed"] for r in results)

    def outputs():
        return {"total": len(results), "passed": passed, "results": results}

    def lines():
        for r in results:
            yield f"PASS: {r['name']}" if r["passed"] else f"FAIL: {r['name']} ({r['detail']})"
        yield f"{passed}/{len(results)} corpus cases passed"

    return _emit(args, "corpus", {"action": "run"}, outputs, checks, lines())


# Every subcommand once: handler, help, positionals and options, each argument
# given by the keywords of argparse's add_argument; each also takes FLAGS.
PAGE_OPTION = {"dest": "page", "type": integer, "required": True}
COMMANDS = {
    "lens": (cmd_lens, "lens space pipeline for L(p,q)",
             {"p": {"type": integer}, "q": {"type": integer}}, {}),
    "embed": (cmd_embed, "embedding target of a planar open book", {}, {
        "--page": {**PAGE_OPTION, "help": f"number of inner boundaries (at most {MAX_PAGE_HOLES})"},
        "--word": {"dest": "word", "required": True, "help": "word file (text or JSON)"}}),
    "certify-s4": (cmd_certify_s4, "sphere certificate for paired pages", {}, {
        "--page": {**PAGE_OPTION,
                   "help": f"number of inner boundaries, even (at most {MAX_PAGE_HOLES})"},
        "--word": {"dest": "word", "required": True}}),
    "surgery": (cmd_surgery, "diagram moves with a homology audit",
                {"diagram": {"help": "diagram file (text or JSON)"}},
                {"--moves": {"dest": "moves", "help": "JSON move list"}}),
    "pi1": (cmd_pi1, "fundamental group of the push-page open book",
            {"presentation": {"help": "presentation file"}}, {}),
    "corpus": (cmd_corpus, "replay the regression corpus", {"action": {"choices": ["run"]}}, {}),
}
FLAGS = {"--json": {"dest": "json", "action": "store_true", "help": "emit a JSON report"},
         "--no-timestamp": {"dest": "no_timestamp", "action": "store_true",
                            "help": "omit the timestamp for byte-stable output"}}


def _value(spec: dict, text: str) -> object:
    """``text`` read by the type and choices of ``spec``, as argparse reads it."""
    value = spec["type"](text) if "type" in spec else text
    if "choices" in spec and value not in spec["choices"]:
        raise ValueError(f"invalid choice: {value!r}")
    return value


def read_argv(argv: list[str]) -> SimpleNamespace | None:
    """Argparse's reading of a canonical ``argv``, read off COMMANDS, else None.
    Canonical: a subcommand, then exact flags, exact options each with a value
    not starting with ``-`` (the last one wins) and positionals not starting
    with ``-``, every value converting and none missing; argparse reads the rest."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, positionals, options = COMMANDS[argv[0]]
    fields = {spec["dest"]: None for spec in options.values()}
    fields.update({spec["dest"]: False for spec in FLAGS.values()}, func=func)
    words, tokens = [], iter(argv[1:])
    try:
        for token in tokens:
            if token in FLAGS:
                fields[FLAGS[token]["dest"]] = True
            elif token in options and not (text := next(tokens, "-")).startswith("-"):
                fields[options[token]["dest"]] = _value(options[token], text)
            elif token.startswith("-"):
                return None
            else:
                words.append(token)
        fields.update(zip(positionals, map(_value, positionals.values(), words)))
    except ValueError:  # argparse names the value it refuses
        return None
    complete = len(words) == len(positionals) and all(
        fields[spec["dest"]] is not None for spec in options.values() if spec.get("required"))
    return SimpleNamespace(**fields) if complete else None


@functools.cache
def build_parser():
    """Argparse's parser of COMMANDS, built on first use, shared by every later
    call in the process and never changed; only here is argparse imported."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """A bad argv is bad input: one error line and exit 2, not the usage."""

        def error(self, message: str) -> NoReturn:
            # argparse quotes the offending token whole: the cut keeps the line short
            raise SpuncalcError(echo(message, str))

    parser = Parser(
        prog="spuncalc",
        description="Planar open books, surgery diagrams, and their embedding targets",
    )
    parser.add_argument("--version", action="version", version=f"spuncalc {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, help_text, positionals, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for name_or_flag, spec in {**positionals, **options, **FLAGS}.items():
            p.add_argument(name_or_flag, **spec)
        p.set_defaults(func=func)
    parser.subcommands = sub.choices  # the subcommands' parsers by name
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command of ``argv`` (``sys.argv[1:]`` when None). Argparse reads
    an argv ``read_argv`` leaves, by the parser of the subcommand it names or
    else (no word, ``--version``, ``-h``, an unknown word) the top-level one."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = read_argv(argv)
        if args is None:
            parser = build_parser()
            sub = parser.subcommands.get(argv[0]) if argv else None
            args = (sub or parser).parse_args(argv[1:] if sub else argv, SimpleNamespace())
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
