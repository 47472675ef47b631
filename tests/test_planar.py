"""Twist word arithmetic against a direct summation oracle."""

import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spuncalc import planar
from spuncalc.errors import InvalidWordError
from spuncalc.lens import MAX_CF_LENGTH, ContinuedFraction, lens_open_book, psi_parity, slid_diagram
from spuncalc.planar import (
    CurveClass,
    DehnTwist,
    PlanarPage,
    PlanarPush,
    TwistWord,
    exponent_vector,
    load_word,
    parity_vector,
    parse_word,
    push,
    twist,
    word_from_json,
    word_to_json,
    word_to_text,
)


def oracle_exponents(word):
    """Independent summation: expand pushes by hand, count memberships."""
    totals = {i: 0 for i in range(1, word.page.inner_count + 1)}
    expanded = []
    for gen, exp in word.letters:
        if isinstance(gen, PlanarPush):
            expanded.append((set(gen.around.enclosed), exp))
            expanded.append((set(gen.around.enclosed) | {gen.boundary}, -exp))
        else:
            expanded.append((set(gen.curve.enclosed), exp))
    for subset, exp in expanded:
        for i in subset:
            totals[i] += exp
    return tuple(totals[i] for i in sorted(totals))


def pages(max_holes=6):
    return st.integers(1, max_holes).map(PlanarPage)


def words_on(page, with_pushes=False, max_len=8):
    """Words whose twists run along intervals of holes or along any other
    hole sets, with pushes mixed in when asked."""
    holes = st.integers(1, page.inner_count)
    intervals = st.tuples(holes, holes).map(lambda t: range(min(t), max(t) + 1))
    subsets = st.one_of(intervals, st.sets(holes, min_size=1))
    exps = st.integers(-5, 5)
    twist_letters = st.tuples(subsets, exps).map(lambda t: twist(*t))
    letters = twist_letters
    if with_pushes and page.inner_count >= 2:
        def make_push(args):
            b, around, e = args
            return push(b, around - {b} or {b % page.inner_count + 1}, e)
        push_letters = st.tuples(holes, st.sets(holes, min_size=1), exps).map(make_push)
        letters = st.one_of(twist_letters, push_letters)
    return st.lists(letters, max_size=max_len).map(
        lambda ls: TwistWord(page, tuple(ls))
    )


word_pairs = pages().flatmap(
    lambda p: st.tuples(words_on(p, with_pushes=True), words_on(p, with_pushes=True))
)


def test_lens_example_word_exponents():
    page = PlanarPage(2)
    w = TwistWord(page, (twist({1}, 3), twist({1, 2}, 3), twist({2}, 2)))
    assert exponent_vector(w) == (6, 5)
    assert oracle_exponents(w) == (6, 5)
    # the L(11,3) word of the embedding corpus
    w = TwistWord(page, (twist({1}, 4), twist({1, 2}, 5), twist({2}, 3)))
    assert exponent_vector(w) == oracle_exponents(w) == (9, 8)


def test_empty_word_is_zero():
    page = PlanarPage(5)
    assert exponent_vector(TwistWord(page)) == (0,) * 5


def test_commutator_has_zero_exponents():
    page = PlanarPage(4)
    a, b = twist({1, 3}), twist({2, 3, 4})
    w = TwistWord(page, ((a[0], -1), (b[0], -1), a, b))
    assert exponent_vector(w) == (0, 0, 0, 0)


def test_poincare_three_hole_parity():
    page = PlanarPage(3)
    w = TwistWord(page, (
        twist({1, 2}, -1), twist({2, 3}, -1), twist({1, 2}), twist({2, 3}),
        twist({1}, -1), twist({2}), twist({3}, -1),
    ))
    assert parity_vector(w) == (1, 1, 1)
    assert oracle_exponents(w) == (-1, 1, -1)


def test_sphere_family_word_parity():
    # boundary twists plus the expanded push shadow; oracle fixes the values
    for k in range(4):
        page = PlanarPage(2)
        w = TwistWord(page, (twist({2}, 2 * k + 2), twist({1}), twist({1, 2}, -1)))
        assert oracle_exponents(w) == (0, 2 * k + 1)
        assert parity_vector(w) == (0, 1)


def test_even_word_parity_vanishes():
    page = PlanarPage(3)
    w = TwistWord(page, (twist({1, 2}, 4), twist({3}, -2), twist({1, 2, 3}, 6)))
    assert parity_vector(w) == (0, 0, 0)


def test_push_expansion_parity_is_pushed_boundary():
    page = PlanarPage(5)
    w = TwistWord(page, (push(4, {1, 2}),))
    assert exponent_vector(w) == (0, 0, 0, -1, 0)
    assert parity_vector(w) == (0, 0, 0, 1, 0)


def test_zero_exponents_are_kept():
    page = PlanarPage(1)
    w = TwistWord(page, (twist({1}, 0),))
    assert w.letters == (twist({1}, 0),)
    assert exponent_vector(w) == (0,)


@given(word_pairs)
@settings(max_examples=120, deadline=None)
def test_exponent_vector_is_a_homomorphism(pair):
    w1, w2 = pair
    page = w1.page
    combined = exponent_vector(TwistWord(page, w1.letters + w2.letters))
    split = tuple(a + b for a, b in zip(exponent_vector(w1), exponent_vector(w2)))
    assert combined == split
    inverse = TwistWord(page, tuple((gen, -exp) for gen, exp in reversed(w1.letters)))
    assert exponent_vector(inverse) == tuple(-a for a in exponent_vector(w1))
    assert exponent_vector(w1) == oracle_exponents(w1)


@given(pages(12).flatmap(lambda p: words_on(p, with_pushes=True, max_len=12)))
@settings(max_examples=150, deadline=None)
def test_exponent_vector_matches_the_oracle(w):
    # interval twists take the difference array, the rest direct adds
    assert exponent_vector(w) == oracle_exponents(w)


def test_a_lens_word_at_max_cf_length_has_the_reduced_parity():
    rng = random.Random(MAX_CF_LENGTH)
    c = ContinuedFraction(tuple(rng.choice((-2, -3, -4, -5)) for _ in range(MAX_CF_LENGTH)))
    sd = slid_diagram(c)
    word = lens_open_book(sd)[1]
    # hole i's exponent sum is the variation entry V_ii = -b_i
    assert exponent_vector(word) == tuple(-b for b in sd.framings)
    assert parity_vector(word) == psi_parity(c)
    assert 0 < sum(psi_parity(c)) < MAX_CF_LENGTH
    assert parse_word(word_to_text(word), word.page) == word
    assert word_from_json(word_to_json(word), word.page) == word


@given(word_pairs)
@settings(max_examples=80, deadline=None)
def test_commutator_words_have_zero_exponent_vector(pair):
    w, v = pair
    letters = w.letters + v.letters  # then w^-1, then v^-1
    for word in (w, v):
        letters += tuple((gen, -exp) for gen, exp in reversed(word.letters))
    assert exponent_vector(TwistWord(w.page, letters)) == (0,) * w.page.inner_count


@given(pages().flatmap(lambda p: words_on(p, with_pushes=True)), st.randoms())
@settings(max_examples=100, deadline=None)
def test_parity_invariant_under_reorder_and_squares(w, rng):
    reference = parity_vector(w)
    shuffled = list(w.letters)
    rng.shuffle(shuffled)
    assert parity_vector(TwistWord(w.page, tuple(shuffled))) == reference
    # a letter squared changes no parity, wherever it is inserted
    square = twist(rng.sample(range(1, w.page.inner_count + 1), 1), 2)
    shuffled.insert(rng.randint(0, len(shuffled)), square)
    assert parity_vector(TwistWord(w.page, tuple(shuffled))) == reference


def test_out_of_range_curve_rejected():
    page = PlanarPage(2)
    with pytest.raises(InvalidWordError):
        TwistWord(page, (twist({3}),))
    with pytest.raises(InvalidWordError):
        TwistWord(page, (push(3, {1}),))
    with pytest.raises(InvalidWordError):
        TwistWord(page, (push(1, {1, 2}),))
    with pytest.raises(InvalidWordError):
        CurveClass(frozenset())


@given(st.lists(st.integers(1, 20), min_size=1, max_size=12), st.randoms())
@settings(max_examples=100, deadline=None)
def test_a_curve_stores_its_sorted_distinct_holes(indices, rng):
    shuffled = indices + indices[:1]
    rng.shuffle(shuffled)
    token = "T{%s}" % ",".join(map(str, shuffled))
    curves = [CurveClass(frozenset(indices)), CurveClass(indices), CurveClass(iter(shuffled)),
              parse_word(token, PlanarPage(20)).letters[0][0].curve]
    for curve in curves:
        assert curve.enclosed == tuple(sorted(set(indices)))
        assert curve == curves[0] and hash(curve) == hash(curves[0])
    lo, hi = min(indices), max(indices)
    assert CurveClass(range(lo, hi + 1)).enclosed == tuple(range(lo, hi + 1))
    assert CurveClass(range(hi, lo - 1, -1)) == CurveClass(range(lo, hi + 1))
    assert list(CurveClass.__slots__) == ["runs"]


def test_non_integer_letter_fields_rejected():
    # checked, never truncated: int() would read 2.9 as 2 and "12" as {1, 2}
    for make in (lambda: twist({1}, 2.9), lambda: twist({1.5}), lambda: twist("12"),
                 lambda: twist({True}), lambda: push(1.5, {1}), lambda: push(2, {1}, 2.0),
                 lambda: PlanarPush(True, CurveClass((2,))),
                 lambda: PlanarPush(1.5, CurveClass((2,))),
                 lambda: PlanarPage(2.5), lambda: PlanarPage(True), lambda: PlanarPage("3")):
        with pytest.raises(InvalidWordError):
            make()


def test_negative_hole_count_rejected():
    with pytest.raises(InvalidWordError):
        PlanarPage(-1)


def test_text_roundtrip():
    page = PlanarPage(4)
    w = TwistWord(page, (twist({1, 2}, 3), push(4, {1, 2}), twist({3}, -1)))
    text = word_to_text(w)
    assert text == "T{1,2}^3 P{4|1,2} T{3}^-1"
    assert parse_word(text, page) == w
    with pytest.raises(InvalidWordError):
        parse_word("T{1,2^3", page)


def test_json_roundtrip():
    page = PlanarPage(4)
    w = TwistWord(page, (twist({2}, -2), push(3, {1})))
    data = word_to_json(w)
    assert data == [
        {"op": "twist", "curve": [2], "exp": -2},
        {"op": "push", "boundary": 3, "around": [1], "exp": 1},
    ]
    assert word_from_json(data, page) == w
    assert load_word('[{"op": "twist", "curve": [2], "exp": -2}]', page).letters == (
        twist({2}, -2),
    )
    assert load_word("T{2}^-2", page).letters == (twist({2}, -2),)


# -- words read over their distinct generators ------------------------------

def test_repeated_text_tokens_equal_the_word_built_letter_by_letter():
    page = PlanarPage(4)
    text = "T{1,2}^3 P{4|1,2} T{3} T{1,2} P{4|1,2}^-2 T{2,1}^-1 T{3}^2 P{4|2,1} T{01}"
    expected = TwistWord(page, (
        twist([1, 2], 3), push(4, [1, 2]), twist([3]), twist([1, 2]), push(4, [1, 2], -2),
        twist([2, 1], -1), twist([3], 2), push(4, [2, 1]), twist([1]),
    ))
    w = parse_word(text, page)
    assert w == expected
    assert exponent_vector(w) == exponent_vector(expected) == oracle_exponents(expected)
    # a repeated generator text is built once: its letters share the object
    assert w.letters[0][0] is w.letters[3][0]
    assert w.letters[1][0] is w.letters[4][0]


def test_repeated_json_curves_read_as_equal_letters():
    page = PlanarPage(3)
    data = [{"op": "twist", "curve": [1, 2]}, {"op": "push", "boundary": 3, "around": [1]},
            {"op": "twist", "curve": [1, 2], "exp": -4}, {"op": "push", "boundary": 3,
                                                         "around": [1], "exp": 2}]
    w = word_from_json(data, page)
    assert w == TwistWord(page, (twist([1, 2]), push(3, [1]), twist([1, 2], -4), push(3, [1], 2)))


@pytest.mark.parametrize("first, second", [
    ({"op": "twist", "curve": [1]}, {"op": "twist", "curve": [True]}),
    ({"op": "twist", "curve": [1]}, {"op": "twist", "curve": [1.0]}),
    ({"op": "twist", "curve": [1, 2]}, {"op": "twist", "curve": [1, 2.0]}),
    ({"op": "push", "boundary": 2, "around": [1]}, {"op": "push", "boundary": 2, "around": [True]}),
    ({"op": "push", "boundary": 2, "around": [1]}, {"op": "push", "boundary": 2.0, "around": [1]}),
    ({"op": "push", "boundary": 1, "around": [2]}, {"op": "push", "boundary": True, "around": [2]}),
    ({"op": "twist", "curve": [1]}, {"op": "twist", "curve": [1], "exp": 1.0}),
    ({"op": "twist", "curve": [1]}, {"op": "twist", "curve": [1], "exp": True}),
], ids=["bool-index", "float-index", "float-second-index", "push-bool-index",
        "push-float-boundary", "push-bool-boundary", "float-exp", "bool-exp"])
def test_a_reused_json_generator_still_checks_every_field(first, second):
    # True == 1 == 1.0 and they hash alike, so a reader that reused the
    # generator of an equal earlier letter would let the second one through
    with pytest.raises(InvalidWordError, match="integer"):
        word_from_json([first, second], PlanarPage(2))


def test_a_json_index_too_long_to_repr_is_an_input_error():
    # the curve does not fit the page, and its error cannot spell the hole
    # out: str() refuses an int of more than 4,300 digits with a ValueError
    with pytest.raises(InvalidWordError):
        word_from_json([{"op": "twist", "curve": [10 ** 5000]}], PlanarPage(2))


def test_the_first_letter_that_does_not_fit_names_the_error():
    page = PlanarPage(4)
    # a curve, of holes or runs alike, is checked against the page with its
    # generator, as the word is read: in the order of the letters
    for text in ("T{1} T{5} T{1} T{6} T{5}", "T{1} T{5} T{1}^2 T{6}", "T{5} T{1..9}",
                 "T{5} T{1} X"):
        with pytest.raises(InvalidWordError, match=r"^curve \{5\} does not fit"):
            parse_word(text, page)
    data = [{"op": "twist", "curve": [5]}, {"op": "twist", "curve": [[1, 9]]}]
    with pytest.raises(InvalidWordError, match=r"^curve \{5\} does not fit"):
        word_from_json(data, page)
    with pytest.raises(InvalidWordError, match=r"^curve \{1\.\.9\} does not fit"):
        word_from_json(data[::-1], page)
    with pytest.raises(InvalidWordError, match="pushed boundary 6"):
        parse_word("P{1|2} T{2} P{6|2} P{1|2} P{7|2}", page)


def test_a_word_reads_each_distinct_token_once(monkeypatch):
    read = []
    pattern = planar._LETTER_RE

    class Counting:
        def fullmatch(self, token):
            read.append(token)
            return pattern.fullmatch(token)

    monkeypatch.setattr(planar, "_LETTER_RE", Counting())
    w = parse_word("T{1,2} T{3}^2 T{1,2} P{3|1} T{3}^2 T{1,2}^-1 P{3|1}", PlanarPage(3))
    assert read == ["T{1,2}", "T{3}^2", "P{3|1}", "T{1,2}^-1"]
    # repeated tokens share one generator object, and so does T{1,2}^-1
    gens = [gen for gen, _ in w.letters]
    assert gens[0] is gens[2] is gens[5] and gens[1] is gens[4] and gens[3] is gens[6]
    assert [exp for _, exp in w.letters] == [1, 2, 1, 1, 2, -1, 1]


@pytest.mark.parametrize("text, bad", [
    ("T{1} X{2} T{1} X{2} Y", "X{2}"),
    ("T{1} Y X{2} T{1} X{2} Y", "Y"),
    ("T{1}^2^3 T{1}^2^3", "T{1}^2^3"),
])
def test_a_repeated_bad_token_is_reported_once_as_the_first_bad_letter(text, bad):
    with pytest.raises(InvalidWordError) as info:
        parse_word(text, PlanarPage(2))
    assert str(info.value) == f"unrecognized word letter: {bad!r}"


def test_an_integer_too_long_is_named_at_its_first_letter():
    long = "9" * 5000
    for text, position in [(f"T{{1}} T{{2}}^{long} T{{1}} T{{2}}^{long} T{{3}}", 2),
                           (f"T{{1}} T{{2}} T{{1}} T{{{long}}} T{{1}} T{{{long}}}", 4),
                           (f"P{{{long}|1}} T{{1}} P{{{long}|1}}", 1)]:
        with pytest.raises(InvalidWordError) as info:
            parse_word(text, PlanarPage(3))
        assert str(info.value) == f"integer too long in word letter {position}"


def test_a_word_checks_each_distinct_generator_once(monkeypatch):
    checked = []
    check = DehnTwist.check

    def counting(self, page):
        checked.append(self)
        check(self, page)

    monkeypatch.setattr(DehnTwist, "check", counting)
    w = parse_word("T{1,2} T{3}^2 T{1,2}^-1 T{3} T{2,1} T{1,2}", PlanarPage(3))
    # T{2,1} is another text for T{1,2}: an equal generator, built apart
    assert checked == [w.letters[0][0], w.letters[1][0], w.letters[4][0]]


def test_json_output_letters_share_no_list():
    page = PlanarPage(3)
    w = parse_word("T{1,2} T{1,2}^2 P{3|1} P{3|1}^-1", page)
    data = word_to_json(w)
    data[0]["curve"].append(99)
    data[2]["around"].append(99)
    assert data[1]["curve"] == [1, 2]
    assert data[3]["around"] == [1]
    assert word_to_json(w) == word_to_json(parse_word(word_to_text(w), page))


# a small alphabet, so that drawn words repeat their generators
small_alphabet = st.sampled_from([
    ("T", (1,)), ("T", (2,)), ("T", (1, 2)), ("T", (1, 2, 3)), ("T", (3, 1)),
    ("P", (3, (1,))), ("P", (3, (1, 2))), ("P", (1, (2, 3))),
])


def build_letter(drawn):
    (kind, args), exp = drawn
    return twist(args, exp) if kind == "T" else push(args[0], args[1], exp)


@given(st.lists(st.tuples(small_alphabet, st.integers(-3, 3)), max_size=30))
@settings(max_examples=150, deadline=None)
def test_words_over_a_small_alphabet_round_trip(drawn):
    page = PlanarPage(3)
    w = TwistWord(page, tuple(map(build_letter, drawn)))
    assert parse_word(word_to_text(w), page) == w
    assert word_from_json(word_to_json(w), page) == w
    assert load_word(json.dumps(word_to_json(w)), page) == w


# -- curves written as runs -------------------------------------------------

def hole_sets(page):
    """Holes drawn as runs first..last and scattered holes, each part also
    returned as written: a run (first, last) or a single hole."""
    holes = st.integers(1, page.inner_count)
    runs = st.tuples(holes, holes).map(lambda t: (min(t), max(t)))
    return st.lists(runs | holes, min_size=1, max_size=5)


def expand(parts):
    return {i for part in parts
            for i in (range(part[0], part[1] + 1) if isinstance(part, tuple) else [part])}


def as_runs(holes):
    """What a writer must give sorted holes: each maximal run of three or
    more consecutive holes as [r, k], every other hole as itself."""
    out, i = [], 0
    while i < len(holes):
        j = i
        while j + 1 < len(holes) and holes[j + 1] == holes[j] + 1:
            j += 1
        out += [[holes[i], holes[j]]] if j - i > 1 else holes[i:j + 1]
        i = j + 1
    return out


@given(st.integers(2, 30).map(PlanarPage).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.tuples(hole_sets(p), st.integers(-3, 3),
                                                       st.booleans()), min_size=1, max_size=6))))
@settings(max_examples=200, deadline=None)
def test_curves_mixing_runs_and_holes_round_trip(drawn):
    page, letters = drawn
    built, text, data = [], [], []
    for parts, exp, pushed in letters:
        holes = expand(parts)
        written = ",".join(f"{p[0]}..{p[1]}" if isinstance(p, tuple) else str(p) for p in parts)
        runs = [list(p) if isinstance(p, tuple) else p for p in parts]
        boundary = next((b for b in range(1, page.inner_count + 1) if b not in holes), None)
        if pushed and boundary is not None:
            built.append(push(boundary, holes, exp))
            text.append(f"P{{{boundary}|{written}}}^{exp}")
            data.append({"op": "push", "boundary": boundary, "around": runs, "exp": exp})
        else:
            built.append(twist(holes, exp))
            text.append(f"T{{{written}}}^{exp}")
            data.append({"op": "twist", "curve": runs, "exp": exp})
    w = TwistWord(page, tuple(built))
    # the readers take any mix of holes and runs, in any order, overlapping
    assert parse_word(" ".join(text), page) == w
    assert word_from_json(data, page) == w
    # the writers give a run exactly for each maximal run of three or more holes
    out = word_to_json(w)
    for (gen, _), letter in zip(w.letters, out):
        if isinstance(gen, DehnTwist):
            assert letter["curve"] == as_runs(list(gen.curve.enclosed))
        else:
            assert letter["around"] == as_runs(list(gen.around.enclosed))
    assert parse_word(word_to_text(w), page) == w
    assert word_from_json(out, page) == w
    assert load_word(json.dumps(out), page) == w
    assert exponent_vector(w) == oracle_exponents(w)


def test_a_run_reads_as_its_holes():
    page = PlanarPage(6)
    assert parse_word("T{1,3..5}", page) == parse_word("T{1,3,4,5}", page)
    assert parse_word("P{6|2..4,1}^-2", page) == parse_word("P{6|1,2,3,4}^-2", page)
    assert word_from_json([{"op": "twist", "curve": [1, [3, 5]]}], page) == parse_word(
        "T{1,3,4,5}", page)
    # a run of one or two holes is read, and written back as its holes
    w = parse_word("T{2..2} T{2..3} T{4..6,5}", page)
    assert word_to_text(w) == "T{2} T{2,3} T{4..6}"
    assert word_to_json(w)[2]["curve"] == [[4, 6]]
    with pytest.raises(InvalidWordError, match="unrecognized word letter"):
        parse_word("T{1..2..3}", page)


def test_a_lens_word_is_written_in_runs():
    # every suffix {r..k} of three or more holes is one run in both forms
    page, w = lens_open_book(slid_diagram(ContinuedFraction((-3, -2, -2, -2))))
    assert word_to_text(w) == "T{1} T{2} T{3} T{4} T{1..4}^2 T{2..4}^0 T{3,4}^0 T{4}^0"
    assert [letter["curve"] for letter in word_to_json(w)][4:] == [[[1, 4]], [[2, 4]], [3, 4], [4]]


def test_a_lens_word_at_max_cf_length_is_stored_in_its_2k_runs():
    # each suffix {r..k} is the one run (r, k), not its k - r + 1 holes
    c = ContinuedFraction((-2,) * MAX_CF_LENGTH)
    sd = slid_diagram(c)
    tracemalloc.start()
    try:
        _, word = lens_open_book(sd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(gen.curve.runs) for gen, _ in word.letters) == 2 * MAX_CF_LENGTH
    assert peak < 2_000_000
