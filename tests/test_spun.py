"""Embedding targets, spin checks, and the sphere certificate."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spuncalc.errors import (
    ConditionNotApplicableError,
    MalformedPairingError,
    PushLetterError,
)
from spuncalc.fourman import equal
from spuncalc.planar import PlanarPage, TwistWord, parity_vector, push, twist
from spuncalc.spun import (
    FourManifoldForm,
    embedding_target,
    s4_parities,
    s4_target_name,
)


def form(trivial=0, twisted=0):
    return FourManifoldForm(trivial_bundle=trivial, twisted_bundle=twisted)


def lens_pq_word(page, p, q):
    return TwistWord(page, (twist({1}, p), twist({1, 2}, p + q - 2), twist({2}, p - 1)))


def test_lens_pq_family_normalizes_to_two_twisted():
    page = PlanarPage(2)
    for p in range(2, 21):
        for q in range(2, 21):
            report = embedding_target(lens_pq_word(page, p, q))
            assert report.raw == form(trivial=1, twisted=1)
            assert report.normalized == form(twisted=2)


def test_poincare_three_holed_report():
    page = PlanarPage(3)
    word = TwistWord(page, (
        twist({1, 2}, -1), twist({2, 3}, -1), twist({1, 2}), twist({2, 3}),
        twist({1}, -1), twist({2}), twist({3}, -1),
    ))
    report = embedding_target(word)
    assert report.raw == form(trivial=0, twisted=3)
    assert report.normalized == form(twisted=3)
    assert equal(form(twisted=3), form(trivial=2, twisted=1))


def test_poincare_eight_holed_spin_report():
    page = PlanarPage(8)
    word = TwistWord(page, (
        twist({1}), twist({2}), twist({3}), twist({4}),
        twist({5}, 2), twist({6}, 3), twist({7}), twist({8}),
        twist({1, 2, 3, 4}), twist({6}, -1), twist({7, 8}, -1),
    ))
    report = embedding_target(word)
    assert report.spin
    assert report.normalized == form(trivial=8)


def test_seven_curve_family_spin_condition():
    page = PlanarPage(3)
    subsets = [{1}, {2}, {3}, {1, 2, 3}, {1, 2}, {2, 3}, {1, 3}]

    def word_for(exps):
        return TwistWord(page, tuple(twist(s, e) for s, e in zip(subsets, exps)))

    def constraint(exps):
        ia, ib, ic, id_, ie, if_, ig = exps
        return (
            (ia + id_ + ie + ig) % 2 == 0
            and (ib + id_ + ie + if_) % 2 == 0
            and (ic + id_ + if_ + ig) % 2 == 0
        )

    rng = random.Random(5)
    seen_true = seen_false = 0
    for _ in range(200):
        exps = [rng.randint(-4, 4) for _ in range(7)]
        expected = constraint(exps)
        assert embedding_target(word_for(exps)).spin == expected
        seen_true += expected
        seen_false += not expected
    assert seen_true and seen_false


def test_seifert_family_reports():
    for p in range(2, 11):
        page = PlanarPage(5)
        word = TwistWord(page, (
            twist({1}), twist({2}), twist({3}, 2), twist({4}, 2),
            twist({5}, p), twist({1, 2, 3, 4, 5}),
        ))
        report = embedding_target(word)
        assert report.normalized == form(twisted=5)
        # exponent sums 2, 2, 3, 3 and p + 1 on holes 1..5
        assert report.raw == form(trivial=2 + p % 2, twisted=3 - p % 2)


def test_empty_word_gives_spin_form():
    for n in range(7):
        page = PlanarPage(n)
        report = embedding_target(TwistWord(page))
        assert report.raw == form(trivial=n)
        assert report.spin


def test_single_odd_boundary_twist_breaks_spin():
    page = PlanarPage(4)
    word = TwistWord(page, (twist({3}, 3),))
    assert not embedding_target(word).spin


def test_report_counts_sum_to_holes_and_reorder_invariance():
    rng = random.Random(17)
    page = PlanarPage(6)
    for _ in range(50):
        specs = [(rng.sample(range(1, 7), rng.randint(1, 6)), rng.randint(-4, 4))
                 for _ in range(rng.randint(0, 8))]
        letters = tuple(twist(holes, e) for holes, e in specs)
        word = TwistWord(page, letters)
        report = embedding_target(word)
        odd = sum(sum(e for holes, e in specs if h in holes) % 2 for h in range(1, 7))
        assert report.raw == form(trivial=6 - odd, twisted=odd)
        shuffled = list(letters)
        rng.shuffle(shuffled)
        report2 = embedding_target(TwistWord(page, tuple(shuffled)))
        assert report2.raw == report.raw
        # squares of twists never change the report
        squared = letters + (twist({2, 4}, 2),)
        report3 = embedding_target(TwistWord(page, squared))
        assert report3.raw == report.raw
        assert report.spin == all(b == 0 for b in report.parity)


def test_push_words_are_rejected_by_embedding_target():
    page = PlanarPage(2)
    word = TwistWord(page, (push(2, {1}),))
    with pytest.raises(PushLetterError):
        embedding_target(word)


def test_report_json_shape():
    page = PlanarPage(2)
    report = embedding_target(lens_pq_word(page, 3, 2))
    data = report.to_json()
    assert set(data) >= {"parity", "raw", "normalized", "spin", "word", "page"}
    assert data["parity"] == [0, 1]
    assert data["spin"] is False


def test_s4_family_certifies_for_all_k():
    page = PlanarPage(2)
    for k in range(11):
        word = TwistWord(page, (twist({1}, 2 * k + 2), twist({1}), push(2, {1})))
        assert all(s4_parities(word))
        assert s4_parities(word) == (1,)


def test_s4_flipping_any_twist_parity_fails():
    page = PlanarPage(2)
    for k in range(11):
        flipped_first = TwistWord(page, (twist({1}, 2 * k + 3), twist({1}), push(2, {1})))
        flipped_second = TwistWord(page, (twist({1}, 2 * k + 2), twist({1}, 2), push(2, {1})))
        assert not all(s4_parities(flipped_first))
        assert not all(s4_parities(flipped_second))


def test_s4_even_twists_fail():
    page = PlanarPage(4)
    word = TwistWord(page, (
        twist({1}, 2), twist({3}, -4), push(2, {1}), push(4, {3}),
    ))
    assert not all(s4_parities(word))


def test_s4_multi_pair_parities():
    page = PlanarPage(4)
    word = TwistWord(page, (
        twist({1}), twist({1, 3}, 2), twist({3}, 3),
        push(2, {1}), push(4, {3}),
    ))
    assert s4_parities(word) == (1, 1)
    assert all(s4_parities(word))
    assert "S4" in s4_target_name(page)


def test_s4_pairing_validation():
    page = PlanarPage(2)
    with pytest.raises(MalformedPairingError):
        s4_parities(TwistWord(page, (twist({1}),)))  # no push
    with pytest.raises(MalformedPairingError):
        s4_parities(TwistWord(page, (push(2, {1}), push(2, {1}))))
    with pytest.raises(MalformedPairingError):
        s4_parities(TwistWord(page, (push(2, {1}, 2),)))
    with pytest.raises(MalformedPairingError):
        s4_parities(TwistWord(PlanarPage(3)))
    page4 = PlanarPage(4)
    with pytest.raises(MalformedPairingError):
        # pushes b1 around a2's curve: wrong partner
        s4_parities(TwistWord(page4, (push(2, {3}), push(4, {3}))))


def test_s4_missing_pushes_are_counted_not_listed():
    # the error names the count and the first few pairs, whatever the page size
    page = PlanarPage(2000)
    with pytest.raises(MalformedPairingError) as info:
        s4_parities(TwistWord(page, (push(4, {3}),)))
    assert str(info.value) == "999 of 1000 pairs have no push letter: [1, 3, 4, 5, 6] ..."
    page = PlanarPage(4)
    with pytest.raises(MalformedPairingError) as info:
        s4_parities(TwistWord(page, (twist({1}),)))
    assert str(info.value) == "2 of 2 pairs have no push letter: [1, 2]"
    # the nouns and the verb agree in number with their counts
    for holes, letters, message in [
        (2, (), "1 of 1 pair has no push letter: [1]"),
        (6, (push(2, {1}), push(6, {5})), "1 of 3 pairs has no push letter: [2]"),
    ]:
        with pytest.raises(MalformedPairingError) as info:
            s4_parities(TwistWord(PlanarPage(holes), letters))
        assert str(info.value) == message


def test_s4_parities_read_the_page_of_the_word():
    # on 8 holes, P{8|7} pushes pair 4, not pair 1: pairs 1 to 3 lack a push
    word = TwistWord(PlanarPage(8), (push(8, {7}),))
    with pytest.raises(MalformedPairingError, match=r"3 of 4 pairs .*: \[1, 2, 3\]$"):
        s4_parities(word)


def test_s4_condition_not_applicable_for_b_curves():
    page = PlanarPage(2)
    word = TwistWord(page, (twist({2}, 3), push(2, {1})))
    with pytest.raises(ConditionNotApplicableError):
        s4_parities(word)
    word = TwistWord(page, (twist({1, 2}), push(2, {1})))
    with pytest.raises(ConditionNotApplicableError):
        s4_parities(word)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.sets(st.integers(1, n), min_size=1), st.integers(-4, 4)), max_size=12),
    st.randoms(use_true_random=False))))
@settings(max_examples=150, deadline=None)
def test_one_pass_parities_are_the_odd_holes_of_the_parity_vector(args):
    # twists on a-holes and one push per pair, in any order
    n, twists, rng = args
    letters = [twist({2 * j - 1 for j in pairs}, exp) for pairs, exp in twists]
    letters += [push(2 * j, {2 * j - 1}) for j in range(1, n + 1)]
    rng.shuffle(letters)
    word = TwistWord(PlanarPage(2 * n), tuple(letters))
    assert s4_parities(word) == parity_vector(word)[::2]


def test_s4_raises_the_error_of_the_first_bad_letter():
    page = PlanarPage(4)
    bad_push = push(2, {3})
    for bad_twist in (twist({2}), twist({1, 4}), twist({1, 2, 3})):
        with pytest.raises(MalformedPairingError, match="does not push a b-boundary"):
            s4_parities(TwistWord(page, (twist({1}), bad_push, bad_twist, push(4, {3}))))
        with pytest.raises(ConditionNotApplicableError, match="touches b-boundaries"):
            s4_parities(TwistWord(page, (twist({1}), bad_twist, bad_push, push(4, {3}))))
