"""Twist word arithmetic against a direct summation oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spuncalc.errors import InvalidWordError, PageMismatchError
from spuncalc.planar import (
    CurveClass,
    PlanarPage,
    PlanarPush,
    TwistWord,
    compose,
    exponent_vector,
    invert,
    load_word,
    parity_vector,
    parse_word,
    push,
    simplify,
    twist,
    word_from_json,
    word_to_json,
    word_to_text,
)
from spuncalc.spun import embedding_target


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
    subsets = st.sets(st.integers(1, page.inner_count), min_size=1)
    exps = st.integers(-5, 5)
    twist_letters = st.tuples(subsets, exps).map(lambda t: twist(*t))
    letters = twist_letters
    if with_pushes and page.inner_count >= 2:
        def make_push(args):
            b, around, e = args
            return push(b, around - {b}, e)
        push_letters = st.tuples(
            st.integers(1, page.inner_count),
            st.sets(st.integers(1, page.inner_count), min_size=2),
            exps,
        ).filter(lambda t: t[0] in t[1]).map(make_push)
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


def test_compose_then_cancel():
    page = PlanarPage(2)
    w = compose(TwistWord(page, (twist({1}, 2),)), TwistWord(page, (twist({1}, -2),)))
    assert simplify(w).letters == ()


def test_invert_is_formal():
    page = PlanarPage(2)
    w = TwistWord(page, (twist({1}), twist({2}, 3)))
    assert invert(w).letters == (twist({2}, -3), twist({1}, -1))


def test_simplify_merges_and_cascades():
    page = PlanarPage(2)
    w = TwistWord(page, (twist({1}, 2), twist({2}, 1), twist({2}, -1), twist({1}, 3)))
    assert simplify(w).letters == (twist({1}, 5),)
    assert simplify(simplify(w)) == simplify(w)


def test_zero_exponents_kept_until_simplify():
    page = PlanarPage(1)
    w = TwistWord(page, (twist({1}, 0),))
    assert len(w) == 1
    assert simplify(w).letters == ()


@given(word_pairs)
@settings(max_examples=120, deadline=None)
def test_exponent_vector_is_a_homomorphism(pair):
    w1, w2 = pair
    combined = exponent_vector(compose(w1, w2))
    split = tuple(a + b for a, b in zip(exponent_vector(w1), exponent_vector(w2)))
    assert combined == split
    assert exponent_vector(invert(w1)) == tuple(-a for a in exponent_vector(w1))
    assert exponent_vector(w1) == oracle_exponents(w1)


@given(word_pairs)
@settings(max_examples=80, deadline=None)
def test_commutator_words_have_zero_exponent_vector(pair):
    w, v = pair
    commutator = compose(compose(w, v), compose(invert(w), invert(v)))
    assert exponent_vector(commutator) == (0,) * w.page.inner_count


@given(pages().flatmap(lambda p: words_on(p, with_pushes=True)), st.randoms())
@settings(max_examples=100, deadline=None)
def test_parity_invariant_under_simplify_and_reorder(w, rng):
    reference = parity_vector(w)
    assert parity_vector(simplify(w)) == reference
    shuffled = list(w.letters)
    rng.shuffle(shuffled)
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


def test_non_integer_letter_fields_rejected():
    # checked, never truncated: int() would read 2.9 as 2 and "12" as {1, 2}
    for make in (lambda: twist({1}, 2.9), lambda: twist({1.5}), lambda: twist("12"),
                 lambda: twist({True}), lambda: push(1.5, {1}), lambda: push(2, {1}, 2.0)):
        with pytest.raises(InvalidWordError):
            make()


def test_page_mismatch_rejected():
    w1 = TwistWord(PlanarPage(2), (twist({1}),))
    w2 = TwistWord(PlanarPage(3), (twist({1}),))
    with pytest.raises(PageMismatchError):
        compose(w1, w2)
    with pytest.raises(PageMismatchError):
        embedding_target(PlanarPage(3), w1)


def test_page_helpers():
    page = PlanarPage(3)
    assert page.boundary_curve(2).sorted() == (2,)
    assert page.outer_curve().sorted() == (1, 2, 3)
    with pytest.raises(InvalidWordError):
        page.boundary_curve(4)
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
