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
    MAX_RELATION_ENTRIES,
    GroupPresentation,
    PushPage,
    abelianization,
    free_reduce,
    page_for_presentation,
    parse_presentation,
    parse_relator,
    pi1_of_open_book,
    words_to_text,
)


def oracle_text(word, symbol="x"):
    """A word's text written letter by letter: the symbol and the index of
    each generator, upper case for an inverse."""
    return "".join((symbol if x > 0 else symbol.upper()) + str(abs(x)) for x in word)


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
    page = page_for_presentation(g)
    assert page.loops == ((1, 2, -1, -2),)
    # the report writes the loops once, as the presentation's relators
    assert page.to_json(g.to_json()["relators"]) == page.to_json() == {
        "handles": 2, "spheres": 1, "loops": ["x1x2X1X2"]}

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
    assert words_to_text([(1, -2)]) == ["x1X2"]
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


def test_letter_texts_of_one_generator_read_as_one_letter():
    # the letter table is keyed by text: x01 and x1 are two keys for x1
    pres = parse_presentation("gens 3\nx01 x1 X001\na3A3 x3\nX03\n")
    assert pres.relators == ((1, 1, -1), (3, -3, 3), (-3,))
    assert pres == GroupPresentation(3, ((1, 1, -1), (3, -3, 3), (-3,)))
    assert parse_presentation("gens 3\na3A3\n") == parse_presentation("gens 3\nx3X3\n")


@pytest.mark.parametrize("text, letter", [
    ("gens 2\nx1x2\nx1X7x9\nx3\n", "-7"),
    ("gens 2\nX5 x1\nx5\n", "-5"),
    ("gens 2\nx05x1\nX5\n", "5"),
    ("gens 2\nx2\nx1a4\nX4\n", "4"),
])
def test_an_out_of_range_letter_is_named_at_its_first_occurrence(text, letter):
    # each distinct letter is checked once, in reading order: the message is
    # the one the checking constructor gives for the same relators
    message = f"letter {letter} outside generators 1..2"
    with pytest.raises(InvalidPresentationError) as info:
        parse_presentation(text)
    assert str(info.value) == message
    relators = [parse_relator(line) for line in text.splitlines()[1:]]
    with pytest.raises(InvalidPresentationError) as info:
        GroupPresentation(2, relators)
    assert str(info.value) == message


def test_a_long_index_in_a_presentation_gives_its_digit_count():
    if hasattr(sys, "get_int_max_str_digits"):  # no int() past 4,300 digits
        with pytest.raises(InvalidPresentationError, match="^generator index of 5000 digits$"):
            parse_presentation("gens 2\nx1x2\nx1 X" + "9" * 5000 + "\n")


# one to six digits: the six-digit index is MAX_GENERATORS itself
signed_indices = st.integers(1, 6).flatmap(
    lambda digits: st.integers(10 ** (digits - 1), min(10 ** digits - 1, MAX_GENERATORS))).flatmap(
    lambda i: st.sampled_from((i, -i)))


@given(st.lists(st.lists(signed_indices, min_size=1, max_size=6), max_size=5))
@settings(max_examples=100, deadline=None)
def test_words_to_text_round_trips_through_parse_presentation(relators):
    for symbol in ("x", "a"):
        texts = words_to_text(relators, symbol)
        assert texts == [oracle_text(r, symbol) for r in relators]
        pres = parse_presentation(f"gens {MAX_GENERATORS}\n" + "".join(t + "\n" for t in texts))
        assert pres.relators == tuple(map(tuple, relators))


def test_describe_writes_an_empty_relator_as_1():
    assert GroupPresentation(2, ((), (1, -2))).describe() == "< x1, x2 | 1, x1X2 >"
    recovered = pi1_of_open_book(PushPage(1, ((1, -1), (1,))))
    assert recovered.describe("a") == "< a1 | 1, a1 >"
    assert recovered.to_json() == {"generators": 1, "relators": ["", "x1"]}
    assert words_to_text(()) == []


def squares(relators, generators):
    """A presentation of ``relators`` relators that square each of
    ``generators`` generators once, in turn."""
    rows = [[] for _ in range(relators)]
    for i in range(1, generators + 1):
        rows[(i - 1) % relators].append(f"x{i}x{i}")
    return f"gens {generators}\n" + "".join("".join(row) + "\n" for row in rows)


def test_a_relation_matrix_over_the_bound_exits_2_with_one_line(tmp_path, capsys):
    # 1,000 squares: 8.8 KB, whose dense 1,000 x 1,000 Smith form took 24 s
    path = tmp_path / "g.txt"
    path.write_text(squares(1000, 1000))
    assert len(path.read_bytes()) < 9000
    assert main(["pi1", str(path), "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: the relation matrix of 1000 relators and the 1000 generators "
                   f"they mention has 1000000 entries, more than {MAX_RELATION_ENTRIES}\n")


def test_a_presentation_at_the_bound_is_admitted():
    # counted as written: free reduction would leave no letter of x1X1
    at_bound = squares(100, MAX_RELATION_ENTRIES // 100)
    pres = parse_presentation(at_bound)
    assert len(pres.relators) * pres.generator_count == MAX_RELATION_ENTRIES
    assert abelianization(pres) == H1Invariants((2,) * 100, MAX_RELATION_ENTRIES // 100 - 100)
    with pytest.raises(InvalidPresentationError, match="101 relators"):
        parse_presentation(at_bound + "x1X1\n")
