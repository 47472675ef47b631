"""Ranks over F_2 and F_3 and the invariant-factor check they give,
against the Smith form and against the check's known blind spots."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spuncalc.homology import cokernel_invariants, smith_diagonal
from spuncalc.checks import invariants_agree, rank_mod2, rank_mod3

# entries small, large and negative: a residue must not depend on the sign
ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-10**40, 10**40))


@st.composite
def matrices(draw, max_size=7):
    rows, columns = draw(st.integers(0, max_size)), draw(st.integers(0, max_size))
    m = draw(st.lists(st.lists(ENTRIES, min_size=columns, max_size=columns),
                      min_size=rows, max_size=rows))
    return m, columns


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_ranks_count_the_smith_factors_prime_to_p(matrix):
    m, _ = matrix
    diag = smith_diagonal(m)
    assert rank_mod2(m) == sum(d % 2 != 0 for d in diag)
    assert rank_mod3(m) == sum(d % 3 != 0 for d in diag)


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_the_smith_form_agrees_with_the_ranks(matrix):
    m, columns = matrix
    h = cokernel_invariants(m, columns)
    assert invariants_agree(h.factors, h.free_rank, columns, m)


def test_examples():
    assert rank_mod2([]) == rank_mod3([]) == 0
    assert rank_mod2([[2, 4], [6, -8]]) == 0
    assert (rank_mod2([[1, 1], [1, -1]]), rank_mod3([[1, 1], [1, -1]])) == (1, 2)
    assert (rank_mod2([[3, 0], [0, -3]]), rank_mod3([[3, 0], [0, -3]])) == (2, 0)
    assert invariants_agree((12,), 0, 2, [[13, 1], [1, 1]])
    assert invariants_agree((), 2, 2, [[0, 0]])


@pytest.mark.parametrize("factors, free_rank", [
    ((2, 6), 0),  # Z/4 + Z/3 with a factor 2 moved across
    ((12,), 1),  # the free rank off by one
    ((4,), 0),  # the 3-part lost
    ((2, 12), 0),  # a 2-part gained
])
def test_a_wrong_group_disagrees(factors, free_rank):
    assert not invariants_agree(factors, free_rank, 2, [[13, 1], [1, 1]])


def test_columns_left_out_are_zero_columns():
    # x1^2 on 5 generators: rows may drop the zero columns, not the count
    assert invariants_agree((2,), 4, 5, [[2]])
    assert invariants_agree((2,), 4, 5, [[0, 2, 0, 0, 0]])
    assert not invariants_agree((2,), 4, 1, [[2]])


def test_the_blind_spots():
    # the ranks see how many factors 2 and 3 divide, and the free rank: a
    # change within one prime's part that keeps the count passes, and so
    # does any change at a prime >= 5
    m = [[4, 0], [0, 4]]
    assert cokernel_invariants(m, 2).factors == (4, 4)
    assert invariants_agree((4, 4), 0, 2, m)
    assert invariants_agree((2, 8), 0, 2, m)
    assert invariants_agree((7,), 0, 1, [[5]])
