"""Presentations, reductions, the push-page construction, abelianization."""

import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spuncalc.cli import main
from spuncalc.errors import InvalidPresentationError
from spuncalc.homology import H1Invariants, cokernel_invariants
from spuncalc.pi1 import (
    MAX_GENERATORS,
    GroupPresentation,
    PushPage,
    abelianization,
    free_reduce,
    page_for_presentation,
    parse_presentation,
    parse_relator,
    pi1_of_open_book,
    word_to_text,
)


def oracle_exponent_sums(relator, g):
    row = [0] * g
    for x in relator:
        row[abs(x) - 1] += (1 if x > 0 else -1)
    return row


def reduced_words(g, max_len=12):
    def build(raw):
        out = []
        for x in raw:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    letters = st.sampled_from([s * i for i in range(1, g + 1) for s in (1, -1)])
    return st.lists(letters, max_size=max_len).map(build)


def test_free_reduce_examples():
    assert free_reduce((1, -1, 2)) == (2,)
    assert free_reduce((1, 2, -2, -1)) == ()
    assert free_reduce((1, 2, 1)) == (1, 2, 1)
    assert free_reduce(()) == ()


def test_reductions_idempotent():
    rng = random.Random(3)
    for _ in range(100):
        w = tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 10)))
        assert free_reduce(free_reduce(w)) == free_reduce(w)


def test_page_for_presentation_transcribes():
    g = GroupPresentation(1, ((1, 1),))
    page = page_for_presentation(g)
    assert page == PushPage(1, ((1, 1),))
    assert page.to_json()["spheres"] == 1

    g = GroupPresentation(2, ((1, 2, -1, -2),))
    assert page_for_presentation(g).loops == ((1, 2, -1, -2),)

    trivial = GroupPresentation(0, ())
    assert page_for_presentation(trivial) == PushPage(0, ())


def test_pi1_of_open_book_examples():
    assert pi1_of_open_book(PushPage(1, ((1, 1),))) == GroupPresentation(1, ((1, 1),))
    assert pi1_of_open_book(PushPage(2, ())) == GroupPresentation(2, ())
    # unreduced loop comes back freely reduced
    assert pi1_of_open_book(PushPage(1, ((1, -1, 1),))) == GroupPresentation(1, ((1,),))


@given(
    st.integers(1, 5).flatmap(
        lambda g: st.tuples(st.just(g), st.lists(reduced_words(g), max_size=5))
    )
)
@settings(max_examples=150, deadline=None)
def test_roundtrip_is_identity_on_reduced_presentations(args):
    g, relators = args
    pres = GroupPresentation(g, tuple(relators))
    assert pi1_of_open_book(page_for_presentation(pres)) == pres


@given(st.integers(1, 5).flatmap(lambda g: st.tuples(
    st.just(g), st.lists(st.lists(st.integers(-g, g).filter(bool), max_size=8), max_size=5))))
@settings(max_examples=100, deadline=None)
def test_the_trusted_round_trip_equals_its_checked_twins(args):
    # the page and the group are built unchecked from a checked presentation
    g, relators = args
    pres = GroupPresentation(g, relators)
    page = page_for_presentation(pres)
    assert page == PushPage(g, relators)
    assert pi1_of_open_book(page) == GroupPresentation(g, [free_reduce(r) for r in relators])


def test_roundtrip_reduces_unreduced_relators():
    pres = GroupPresentation(2, ((1, -1, 2), (2, 2, -2)))
    out = pi1_of_open_book(page_for_presentation(pres))
    assert out.relators == ((2,), (2,))


def test_abelianization_examples():
    assert abelianization(GroupPresentation(1, ((1, 1),))) == H1Invariants((2,), 0)
    assert abelianization(GroupPresentation(2, ((1, 2, -1, -2),))) == H1Invariants((), 2)
    two_relators = GroupPresentation(2, ((1, 1, 2, 2, 2, 2, 2, 2), (1, 1, 1, 1)))
    assert abelianization(two_relators) == H1Invariants((2, 12), 0)
    assert abelianization(GroupPresentation(3, ())) == H1Invariants((), 3)


@given(
    st.integers(1, 4).flatmap(
        lambda g: st.tuples(st.just(g), st.lists(reduced_words(g), max_size=4))
    ),
    st.randoms(),
)
@settings(max_examples=80, deadline=None)
def test_abelianization_invariant_under_reduction_and_reorder(args, rng):
    g, relators = args
    base = abelianization(GroupPresentation(g, tuple(relators)))
    # each relator with a cancelling pair x X inserted: free_reduce removes it
    padded = []
    for r in relators:
        pos, x = rng.randint(0, len(r)), rng.choice((1, -1)) * rng.randint(1, g)
        padded.append(r[:pos] + (x, -x) + r[pos:])
        assert free_reduce(padded[-1]) == r
        assert oracle_exponent_sums(padded[-1], g) == oracle_exponent_sums(r, g)
    assert abelianization(GroupPresentation(g, tuple(padded))) == base
    reordered = list(relators)
    rng.shuffle(reordered)
    assert abelianization(GroupPresentation(g, tuple(reordered))) == base


@given(st.integers(1, 8).flatmap(lambda g: st.tuples(
    st.just(g), st.lists(reduced_words(min(g, 3)).map(lambda r: tuple(x * 2 for x in r)),
                         max_size=4))))
@settings(max_examples=80, deadline=None)
def test_abelianization_matches_the_dense_exponent_sum_matrix(args):
    # letters x2, x4, x6 only: the generators no relator mentions are free
    g, relators = args
    relators = [tuple(x for x in r if abs(x) <= g) for r in relators]
    dense = [oracle_exponent_sums(r, g) for r in relators]
    expected = cokernel_invariants(dense, columns=g)
    assert abelianization(GroupPresentation(g, tuple(relators))) == expected


def test_many_generators_and_few_relators_take_little_memory(tmp_path, capsys):
    # a dense exponent-sum matrix would hold 200 x 100,000 entries
    rng = random.Random(1)
    lines = [f"gens {MAX_GENERATORS}"] + [
        f"x{rng.randint(1, MAX_GENERATORS)}x{rng.randint(1, MAX_GENERATORS)}"
        for _ in range(200)]
    path = tmp_path / "g.txt"
    path.write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        code = main(["pi1", str(path), "--json", "--no-timestamp"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    ab = json.loads(capsys.readouterr().out)["outputs"]["abelianization"]
    assert ab["free_rank"] >= MAX_GENERATORS - 200
    assert peak < 50 * 2**20


def test_presentation_validation():
    with pytest.raises(InvalidPresentationError):
        GroupPresentation(1, ((2,),))
    with pytest.raises(InvalidPresentationError):
        GroupPresentation(1, ((0,),))
    with pytest.raises(InvalidPresentationError):
        PushPage(1, ((2,),))
    with pytest.raises(InvalidPresentationError):
        PushPage(-1)
    with pytest.raises(InvalidPresentationError, match="0 is not a generator"):
        free_reduce((1, 0))


def test_parse_relator_and_presentation():
    assert parse_relator("x1x2X1X2") == (1, 2, -1, -2)
    assert parse_relator("x12 X3") == (12, -3)
    with pytest.raises(InvalidPresentationError):
        parse_relator("x1y2")
    pres = parse_presentation("gens 2\nx1x2X1X2\nx1x1\n")
    assert pres == GroupPresentation(2, ((1, 2, -1, -2), (1, 1)))
    with pytest.raises(InvalidPresentationError):
        parse_presentation("x1\n")
    assert word_to_text((1, -2)) == "x1X2"
    assert pres.describe() == "< x1, x2 | x1x2X1X2, x1x1 >"


def test_parse_relator_names_each_fault():
    # a line with one fault gets that fault's message; with two, it reads as
    # unparsable whatever the other fault
    assert parse_relator(" x1\tX2\u2003a3 A4 ") == (1, -2, 3, -4)
    with pytest.raises(InvalidPresentationError, match="cannot parse relator 'x1 y2'"):
        parse_relator("x1 y2")
    with pytest.raises(InvalidPresentationError, match="cannot parse relator 'x1X'"):
        parse_relator("x1X")
    with pytest.raises(InvalidPresentationError, match="1-based"):
        parse_relator("x1 X00")
    with pytest.raises(InvalidPresentationError, match="cannot parse relator 'x0 y'"):
        parse_relator("x0 y")
    if hasattr(sys, "get_int_max_str_digits"):  # no int() past 4,300 digits
        with pytest.raises(InvalidPresentationError, match="generator index of 5000 digits"):
            parse_relator("x1 X" + "9" * 5000)


def test_one_gens_line_of_at_most_max_generators():
    assert parse_presentation(f"gens {MAX_GENERATORS}\n").generator_count == MAX_GENERATORS
    with pytest.raises(InvalidPresentationError, match=f"at most {MAX_GENERATORS}"):
        parse_presentation(f"gens {MAX_GENERATORS + 1}\n")
    with pytest.raises(InvalidPresentationError, match="repeated gens"):
        parse_presentation("gens 2\nx1x2\ngens 3\nx3\n")


def test_an_oversized_loop_letter_gives_a_short_error():
    with pytest.raises(InvalidPresentationError, match="outside handles") as info:
        PushPage(1, ((10 ** 3000,),))
    assert len(str(info.value)) < 1024


@pytest.mark.parametrize("bad", [2.9, "2", True])
@pytest.mark.parametrize("build", [
    lambda x: GroupPresentation(x),
    lambda x: GroupPresentation(3, ((1, x),)),
    lambda x: PushPage(x),
    lambda x: PushPage(3, ((x,),)),
], ids=["generator-count", "relator-letter", "handle-count", "loop-letter"])
def test_constructors_reject_non_integers(build, bad):
    # validated, never coerced: int() would read 2.9 and "2" as 2, True as 1
    with pytest.raises(InvalidPresentationError, match="integer"):
        build(bad)
