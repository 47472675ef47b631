"""Lens pipeline: expansions, determinants, words, parities, targets."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spuncalc.errors import SpuncalcError
from spuncalc.homology import cokernel_invariants, det
from spuncalc.lens import (
    MAX_CF_LENGTH,
    ContinuedFraction,
    SlidLensDiagram,
    cf_eval,
    cf_expand,
    lens_embedding_target,
    lens_open_book,
    plumbing_matrix,
    psi_parity,
    reconcile,
    slid_diagram,
)
from spuncalc.planar import (
    parity_vector,
    parse_word,
    twist,
    word_from_json,
    word_to_json,
    word_to_text,
)
from spuncalc.spun import FourManifoldForm, embedding_target
from spuncalc.surgery import h1_invariants, linking_matrix


def oracle_eval(coeffs):
    """Backward evaluation with Fractions, written independently."""
    value = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        value = a - Fraction(1) / value
    return value


coprime_pairs = st.integers(2, 120).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, p - 1))
).filter(lambda t: gcd(t[0], t[1]) == 1)


def test_cf_expand_examples():
    assert cf_expand(7, 1).coefficients == (-7,)
    assert cf_expand(7, 2).coefficients == (-4, -2)
    assert cf_expand(4, 3).coefficients == (-2, -2, -2)
    assert cf_expand(7, 3).coefficients == (-3, -2, -2)


def test_cf_eval_examples():
    # the pair (num, den), reduced, with den > 0
    assert cf_eval(ContinuedFraction((-7,))) == (-7, 1)
    assert cf_eval(ContinuedFraction((-4, -2))) == (-7, 2)
    assert cf_eval(ContinuedFraction((-2, -2, -2))) == (-4, 3)
    assert oracle_eval((-4, -2)) == Fraction(-7, 2)


def test_cf_input_validation():
    with pytest.raises(SpuncalcError):
        cf_expand(4, 2)
    with pytest.raises(SpuncalcError):
        cf_expand(3, 3)
    with pytest.raises(SpuncalcError):
        cf_expand(3, 0)
    with pytest.raises(SpuncalcError):
        ContinuedFraction((-1,))
    with pytest.raises(SpuncalcError):
        ContinuedFraction(())


def test_cf_eval_rejects_a_vanishing_tail():
    # built around the constructor's check: the tail [1, 1] evaluates to 0,
    # which an admissible expansion never reaches; the raise must survive -O
    c = object.__new__(ContinuedFraction)
    object.__setattr__(c, "coefficients", (-2, 1, 1))
    with pytest.raises(SpuncalcError, match="vanishes"):
        cf_eval(c)


@given(coprime_pairs)
@settings(max_examples=200, deadline=None)
def test_cf_roundtrip_against_oracle(pq):
    p, q = pq
    c = cf_expand(p, q)
    assert all(a <= -2 for a in c.coefficients)
    assert cf_eval(c) == (-p, q)
    assert oracle_eval(c.coefficients) == Fraction(-p, q)


def dense_plumbing(coefficients):
    """The plumbing chain's intersection matrix built densely: a_i on the
    diagonal, 1 between neighbours, 0 elsewhere."""
    k = len(coefficients)
    return [[a if j == i else 1 if abs(i - j) == 1 else 0 for j in range(k)]
            for i, a in enumerate(coefficients)]


def test_plumbing_matrix_examples():
    m = plumbing_matrix(ContinuedFraction((-7,)))
    assert (m.coefficients, m.det()) == ((-7,), -7)
    m = plumbing_matrix(ContinuedFraction((-4, -2)))
    assert dense_plumbing(m.coefficients) == [[-4, 1], [1, -2]]
    assert m.det() == 7
    assert plumbing_matrix(ContinuedFraction((-2, -2, -2))).det() == -4


@given(coprime_pairs)
@settings(max_examples=150, deadline=None)
def test_plumbing_det_is_p(pq):
    p, q = pq
    m = plumbing_matrix(cf_expand(p, q))
    assert abs(m.det()) == p
    assert m.det() == det(dense_plumbing(m.coefficients))  # continuant against dense Bareiss


def test_slid_diagram_examples():
    sd = slid_diagram(ContinuedFraction((-4, -2)))
    assert sd.framings == (-4, -4)
    assert sd.linking(1, 2) == -3
    assert sd.twist_regions == (-3, 0)

    sd = slid_diagram(ContinuedFraction((-2, -2, -2)))
    assert sd.framings == (-2, -2, -2)
    assert all(sd.linking(i, j) == -1 for i in range(1, 4) for j in range(1, 4) if i != j)
    assert abs(sd.linking_det()) == 4

    sd = slid_diagram(ContinuedFraction((-5,)))
    assert sd.framings == (-5,)
    assert sd.links == ()
    assert sd.twist_regions == (-4,)


def test_slid_diagram_stores_framings_and_derives_links_and_twist_regions():
    assert list(SlidLensDiagram.__slots__) == ["framings"]
    for p in range(2, 201):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            a = cf_expand(p, q).coefficients
            sd = slid_diagram(cf_expand(p, q))
            b = [sum(a[:i]) + 2 * (i - 1) for i in range(1, len(a) + 1)]
            assert sd.framings == tuple(b), (p, q)
            assert sd.links == tuple(b_i + 1 for b_i in b[:-1]), (p, q)
            assert sd.twist_regions == (a[0] + 1, *(a_r + 2 for a_r in a[1:])), (p, q)


@given(coprime_pairs)
@settings(max_examples=150, deadline=None)
def test_slid_det_matches_materialized_matrix_and_p(pq):
    p, q = pq
    sd = slid_diagram(cf_expand(p, q))
    fast = sd.linking_det()
    assert fast == det(linking_matrix(sd.as_braid_diagram()))
    assert abs(fast) == p


@given(coprime_pairs)
@settings(max_examples=60, deadline=None)
def test_slid_braid_diagram_realizes_same_homology(pq):
    p, q = pq
    sd = slid_diagram(cf_expand(p, q))
    d = sd.as_braid_diagram()
    rows = linking_matrix(d)
    k = sd.strands
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            assert rows[i - 1][j - 1] == sd.linking(i, j)
    # one letter per linked pair
    assert len(d.braid_word) == sum(
        1 for i in range(1, k) for j in range(i + 1, k + 1) if sd.linking(i, j))
    inv = h1_invariants(rows)
    assert (inv.factors, inv.free_rank) == ((p,), 0)


def test_lens_open_book_k1():
    page, word = lens_open_book(slid_diagram(ContinuedFraction((-5,))))
    assert page.inner_count == 1
    assert word.letters == (twist({1}, 1), twist({1}, 4))


def test_lens_open_book_k2_keeps_zero_exponents():
    page, word = lens_open_book(slid_diagram(ContinuedFraction((-4, -2))))
    assert page.inner_count == 2
    assert word.letters == (
        twist({1}, 1),
        twist({2}, 1),
        twist({1, 2}, 3),
        twist({2}, 0),
    )


@given(coprime_pairs)
@settings(max_examples=80, deadline=None)
def test_lens_open_book_structure(pq):
    p, q = pq
    c = cf_expand(p, q)
    page, word = lens_open_book(slid_diagram(c))
    assert page.inner_count == len(c.coefficients)
    assert len(word.letters) == 2 * len(c.coefficients)


@given(coprime_pairs)
@settings(max_examples=80, deadline=None)
def test_lens_words_read_back_through_the_checked_parsers(pq):
    # the word and its curves are built unchecked, so the parsers, which check
    # every curve, must read the written word back as an equal word
    page, word = lens_open_book(slid_diagram(cf_expand(*pq)))
    assert parse_word(word_to_text(word), page) == word
    assert word_from_json(word_to_json(word), page) == word


def variation(word):
    """The variation matrix of a planar open book, written independently:
    V_ij is the sum of e over the letters T_S^e whose curve S encloses
    both holes i and j. Its cokernel is the 3-manifold's H1."""
    n = word.page.inner_count
    v = [[0] * n for _ in range(n)]
    for gen, e in word.letters:
        for i in gen.curve.enclosed:
            for j in gen.curve.enclosed:
                v[i - 1][j - 1] += e
    return v


def coprime_pairs_up_to(bound):
    return [(p, q) for p in range(2, bound + 1) for q in range(1, p) if gcd(p, q) == 1]


def test_lens_word_variation_is_minus_the_slid_linking_matrix():
    for p, q in coprime_pairs_up_to(60):
        c = cf_expand(p, q)
        sd = slid_diagram(c)
        v = variation(lens_open_book(sd)[1])
        k = sd.strands
        assert v == [[-sd.linking(i, j) for j in range(1, k + 1)]
                     for i in range(1, k + 1)], (p, q)


def test_lens_word_presents_z_mod_p():
    for p, q in coprime_pairs_up_to(60):
        word = lens_open_book(slid_diagram(cf_expand(p, q)))[1]
        inv = cokernel_invariants(variation(word), word.page.inner_count)
        assert (inv.factors, inv.free_rank) == ((p,), 0), (p, q)


def test_lens_word_of_l21_presents_z2():
    # the word read off the framings, T{1}^-2 T{1}^-1, presented Z/3
    word = lens_open_book(slid_diagram(cf_expand(2, 1)))[1]
    assert word.letters == (twist({1}, 1), twist({1}, 1))
    inv = cokernel_invariants(variation(word), 1)
    assert (inv.factors, inv.free_rank) == ((2,), 0)


# L(p, q) expands to at most p - 1 coefficients, so every pair here fits
@given(st.integers(2, MAX_CF_LENGTH + 1).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, p - 1))
).filter(lambda t: gcd(t[0], t[1]) == 1))
@settings(max_examples=60, deadline=None)
def test_lens_word_parity_is_psi(pq):
    p, q = pq
    c = cf_expand(p, q)
    word = lens_open_book(slid_diagram(c))[1]
    assert parity_vector(word) == psi_parity(c)
    assert reconcile(c, word).agree


@given(coprime_pairs)
@settings(max_examples=100, deadline=None)
def test_lens_word_embeds_in_the_lens_target(pq):
    p, q = pq
    word = lens_open_book(slid_diagram(cf_expand(p, q)))[1]
    assert embedding_target(word).normalized == lens_embedding_target(p, q)


def test_cf_expand_stops_after_max_cf_length_coefficients():
    # -(k+1)/k expands to k coefficients -2
    assert cf_expand(MAX_CF_LENGTH + 1, MAX_CF_LENGTH).coefficients == (-2,) * MAX_CF_LENGTH
    with pytest.raises(SpuncalcError, match=f"more than {MAX_CF_LENGTH} coefficients"):
        cf_expand(MAX_CF_LENGTH + 2, MAX_CF_LENGTH + 1)


def test_psi_parity_examples():
    assert psi_parity(ContinuedFraction((-8,))) == (0,)
    assert psi_parity(ContinuedFraction((-7,))) == (1,)
    assert psi_parity(ContinuedFraction((-3, -2, -2))) == (1, 1, 1)
    assert psi_parity(ContinuedFraction((-4, -2))) == (0, 0)


def test_reconciliation_reports_both_parities():
    c = ContinuedFraction((-4, -2))
    rec = reconcile(c, lens_open_book(slid_diagram(c))[1])
    assert rec.word_parity == (0, 0)
    assert rec.psi == (0, 0)
    assert rec.agree


def test_lens_embedding_targets():
    assert lens_embedding_target(8, 1) == FourManifoldForm(trivial_bundle=1)
    assert lens_embedding_target(7, 1) == FourManifoldForm(twisted_bundle=1)
    assert lens_embedding_target(7, 3) == FourManifoldForm(twisted_bundle=3)
    assert lens_embedding_target(7, 2) == FourManifoldForm(trivial_bundle=2)
    assert lens_embedding_target(4, 3) == FourManifoldForm(trivial_bundle=3)


@given(coprime_pairs)
@settings(max_examples=150, deadline=None)
def test_target_spin_iff_all_coefficients_even(pq):
    p, q = pq
    c = cf_expand(p, q)
    target = lens_embedding_target(p, q)
    k, spin = len(c.coefficients), all(a % 2 == 0 for a in c.coefficients)
    assert target == (FourManifoldForm(trivial_bundle=k) if spin else
                      FourManifoldForm(twisted_bundle=k))
    assert target.is_spin() == spin


@pytest.mark.parametrize("bad", [2.9, "2", True])
def test_continued_fraction_rejects_non_integers(bad):
    # validated, never coerced: int() would read 2.9 and "2" as 2, True as 1
    with pytest.raises(SpuncalcError, match="integer"):
        ContinuedFraction((-3, bad))
