"""Every check a report emits can fail.

Each fault below breaks the library code a check guards, never the check's
own comparison, and the command must then report that check as failed and
exit 1. A check that no fault can fail would claim what nothing computes.
"""

import json

import pytest

from spuncalc import corpus, fourman, homology, lens, pi1, spun, surgery
from spuncalc.cli import RANK_CHECK, main
from spuncalc.planar import TwistWord
from test_cli import README_COMMANDS, README_FILES

LENS = ["lens", "7", "2"]
CERTIFY = ["certify-s4", "--page", "2", "--word", "cert.txt"]
SURGERY = ["surgery", "diagram.txt", "--moves", "moves.json"]
TWIST = ["surgery", "twist.txt", "--moves", "twist.json"]
NO_MOVE = ["surgery", "diagram.txt"]
Z12_DIAGRAM = ["surgery", "z12.txt"]
PI1 = ["pi1", "group.txt"]
Z4_Z3_GROUP = ["pi1", "z4z3.txt"]
FILES = {**README_FILES,
         "twist.txt": "strands 2\nframings 0 5\nA 1 2 +2\n",
         "twist.json": '[{"move": "rolfsen_twist", "component": 1, "twists": 1}]',
         # H1 = Z/4 + Z/3 = Z/12 on each, a Smith diagonal ending 1, 12
         "z12.txt": "strands 2\nframings 13 1\nA 1 2 +1\n",
         "z4z3.txt": "gens 2\nx1x1x1x1\nx2x2x2\n"}


def cf_reversed(monkeypatch):
    # the expansion read from the wrong end: same continuant, other fraction
    original = lens.cf_expand
    monkeypatch.setattr(lens, "cf_expand", lambda p, q: lens.ContinuedFraction(
        original(p, q).coefficients[::-1]))


def cf_last_coefficient_off(monkeypatch):
    original = lens.cf_expand

    def faulty(p, q):
        *head, last = original(p, q).coefficients
        return lens.ContinuedFraction((*head, last - 1))

    monkeypatch.setattr(lens, "cf_expand", faulty)


def continuant_sign_flipped(monkeypatch):
    def det(chain):
        prev2, prev1 = 0, 1
        for a in chain.coefficients:
            prev2, prev1 = prev1, a * prev1 + prev2
        return prev1

    monkeypatch.setattr(lens.PlumbingChain, "det", det)


def slid_framings_off_by_two(monkeypatch):
    # keeps every parity, so only the determinant can see it
    original = lens.slid_diagram
    monkeypatch.setattr(lens, "slid_diagram", lambda c: lens.SlidLensDiagram(
        tuple(b + 2 for b in original(c).framings)))


def first_exponent_off_by_one(monkeypatch):
    original = lens.lens_open_book

    def faulty(sd):
        page, word = original(sd)
        (gen, exp), *rest = word.letters
        return page, TwistWord(page, ((gen, exp + 1), *rest))

    monkeypatch.setattr(lens, "lens_open_book", faulty)


def rank_one_sign_flipped(monkeypatch):
    original = surgery._rank_one
    monkeypatch.setattr(surgery, "_rank_one",
                        lambda links, framings, u, s: original(links, framings, u, -s))


def framing_off_after(move):
    """A fault in one move: strand 1 of its result is framed one too high."""
    def install(monkeypatch):
        original = getattr(surgery, move)

        def faulty(d, *args):
            out, detail = original(d, *args)
            framings = (out.framings[0] + 1, *out.framings[1:])
            return surgery.FramedBraidDiagram(out.strands, out.braid_word, framings), detail

        monkeypatch.setattr(surgery, move, faulty)
    install.__name__ = f"{move}_framing_off_by_one"
    return install


def certificates_accept_every_move(monkeypatch):
    """A certifier that passes every move, plus a faulty twist: each move's
    check carries the input's H1 on, so only the final diagram's ranks can
    see it. On the twist input the fault takes H1 from Z/4 to Z/5, which
    changes the 2-part; the same fault on the README chain takes Z/7 to
    Z/5, which ranks mod 2 and mod 3 cannot see (test_modp pins that)."""
    for name in ("_blow_up_certified", "_blow_down_certified", "_twist_certified"):
        monkeypatch.setattr(surgery, name, lambda *args: True)
    framing_off_after("rolfsen_twist")(monkeypatch)


def smith_factor_moved_across_primes(monkeypatch):
    """Z/4 + Z/3 = Z/12 reported as Z/2 + Z/6: a factor 2 of the last
    invariant factor moved to the one before it, a valid chain either way."""
    original = homology.smith_diagonal

    def faulty(entries):
        diag = original(entries)
        if diag[-2:] == [1, 12]:
            diag[-2:] = [2, 6]
        return diag

    monkeypatch.setattr(homology, "smith_diagonal", faulty)


def free_rank_off_by_one(monkeypatch):
    original = homology.cokernel_invariants

    def faulty(entries, columns):
        h = original(entries, columns)
        return homology.H1Invariants(h.factors, h.free_rank + 1)

    for module in (surgery, pi1):
        monkeypatch.setattr(module, "cokernel_invariants", faulty)


def abelianization_sign_dropped(monkeypatch):
    """Rows of letter counts, not exponent sums: they agree mod 2, so only
    the rank mod 3 sees it (the commutator's Z + Z becomes Z + Z/2)."""
    original = pi1.abelianization
    monkeypatch.setattr(pi1, "abelianization", lambda g: original(pi1.GroupPresentation(
        g.generator_count, tuple(tuple(map(abs, r)) for r in g.relators))))


def first_a_parity_flipped(monkeypatch):
    original = spun.s4_parities

    def faulty(word):
        first, *rest = original(word)
        return (1 - first, *rest)

    monkeypatch.setattr(spun, "s4_parities", faulty)


# (fault, command, the exact set of checks it fails)
COMMAND_FAULTS = [
    (cf_reversed, LENS, {"cf_eval equals -p/q"}),
    (cf_last_coefficient_off, LENS,
     {"cf_eval equals -p/q", "plumbing |det| equals p", "slid |det| equals p"}),
    (continuant_sign_flipped, LENS, {"plumbing |det| equals p"}),
    (slid_framings_off_by_two, LENS, {"slid |det| equals p"}),
    (first_exponent_off_by_one, LENS, {"word parity matches reduced parity"}),
    (rank_one_sign_flipped, SURGERY, {"blow_up preserves H1", "blow_down preserves H1"}),
    # the README chain's faulty final diagram presents Z/5 for Z/7: the end
    # to end check sees only the 2- and 3-parts and the free rank
    (framing_off_after("blow_up"), SURGERY, {"blow_up preserves H1"}),
    (framing_off_after("blow_down"), SURGERY, {"blow_down preserves H1"}),
    (framing_off_after("rolfsen_twist"), TWIST,
     {"rolfsen_twist preserves H1", "H1 preserved end to end"}),
    (certificates_accept_every_move, TWIST, {"H1 preserved end to end"}),
    (first_a_parity_flipped, CERTIFY, {"sphere certificate"}),
    (smith_factor_moved_across_primes, Z12_DIAGRAM, {RANK_CHECK}),
    (smith_factor_moved_across_primes, Z4_Z3_GROUP, {RANK_CHECK}),
    (free_rank_off_by_one, NO_MOVE, {RANK_CHECK}),
    (free_rank_off_by_one, SURGERY, {"H1 preserved end to end"}),
    (free_rank_off_by_one, PI1, {RANK_CHECK}),
    (abelianization_sign_dropped, PI1, {RANK_CHECK}),
]


def fault_id(fault, argv):
    """The fault's name, and its input's where the fault runs on several."""
    if sum(f is fault for f, _, _ in COMMAND_FAULTS) == 1:
        return fault.__name__
    return f"{fault.__name__}-{argv[0]}-{argv[1].partition('.')[0]}"


def evaluator_ignores_pushes(monkeypatch):
    original = fourman.evaluate_open_book
    monkeypatch.setattr(fourman, "evaluate_open_book", lambda page, mono: original(
        page, fourman.MonodromyForm(twist_exponents=mono.twist_exponents)))


def normal_form_skipped(monkeypatch):
    monkeypatch.setattr(spun, "normalize", lambda form: form)


def export_exponents_negated(monkeypatch):
    original = surgery.to_planar_open_book

    def faulty(d):
        page, word = original(d)
        return page, TwistWord(page, tuple((gen, -exp) for gen, exp in word.letters))

    monkeypatch.setattr(surgery, "to_planar_open_book", faulty)


# one fault per fixture file, failing some of its cases and none elsewhere
CORPUS_FAULTS = {
    "embedding_targets.json": normal_form_skipped,
    "evaluator_atoms.json": evaluator_ignores_pushes,
    "lens_spaces.json": cf_last_coefficient_off,
    "sphere_certificates.json": first_a_parity_flipped,
    "surgery_diagrams.json": export_exponents_negated,
}


def report(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    code = main([*argv, "--json", "--no-timestamp"])
    out = capsys.readouterr().out
    return code, json.loads(out)["checks"]


def failed(checks):
    return {c["name"] for c in checks if not c["passed"]}


@pytest.mark.parametrize("fault, argv, names", COMMAND_FAULTS,
                         ids=[fault_id(fault, argv) for fault, argv, _ in COMMAND_FAULTS])
def test_a_fault_fails_the_check_that_guards_it(tmp_path, monkeypatch, capsys, fault, argv,
                                                names):
    code, checks = report(tmp_path, monkeypatch, capsys, argv)
    assert (code, failed(checks)) == (0, set())
    fault(monkeypatch)
    code, checks = report(tmp_path, monkeypatch, capsys, argv)
    assert (code, failed(checks)) == (1, names)


@pytest.mark.parametrize("name", CORPUS_FAULTS)
def test_a_fault_fails_a_corpus_case_of_its_fixture(tmp_path, monkeypatch, capsys, name):
    CORPUS_FAULTS[name](monkeypatch)
    code, checks = report(tmp_path, monkeypatch, capsys, ["corpus", "run"])
    assert code == 1
    assert failed(checks) and {c.partition(": ")[0] for c in failed(checks)} == {name}


def test_every_check_on_the_readme_inputs_has_a_fault(tmp_path, monkeypatch, capsys):
    emitted = set()
    for argv in [*README_COMMANDS, TWIST]:
        emitted |= {c["name"] for c in report(tmp_path, monkeypatch, capsys, argv)[1]}
    fixtures = {n for n in emitted if n.partition(": ")[0] in corpus.fixture_names()}
    assert {n.partition(": ")[0] for n in fixtures} == set(CORPUS_FAULTS)
    assert emitted - fixtures == set().union(*(names for _, _, names in COMMAND_FAULTS))
