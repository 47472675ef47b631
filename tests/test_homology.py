"""Exact matrix layer, checked against brute-force oracles.

The determinant oracle is recursive cofactor expansion; the Smith-form
oracle computes determinantal divisors as gcds over all square minors.
Both are exponential and independent of the production code paths.
"""

from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spuncalc.errors import InvalidDiagramError
from spuncalc.homology import (
    H1Invariants,
    LinkingMatrix,
    cokernel_invariants,
    det,
    min_structured_det,
    smith_diagonal,
)


def cofactor_det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def determinantal_divisors(m, rows, cols):
    """gcd of all i x i minors, for i = 1..min(rows, cols)."""
    out = []
    for size in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), size):
            for cs in combinations(range(cols), size):
                minor = [[m[r][c] for c in cs] for r in rs]
                g = gcd(g, cofactor_det(minor))
        out.append(g)
    return out


def snf_oracle(m, rows, cols):
    """Invariant factors d_i = D_i / D_{i-1} from determinantal divisors."""
    divisors = determinantal_divisors(m, rows, cols)
    factors = []
    prev = 1
    for d in divisors:
        if d == 0:
            factors.append(0)
        else:
            factors.append(d // prev)
            prev = d
    return factors


small_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@given(small_matrix)
@settings(max_examples=150, deadline=None)
def test_det_matches_cofactor_oracle(m):
    assert det(m) == cofactor_det(m)


@given(small_matrix)
@settings(max_examples=100, deadline=None)
def test_smith_diagonal_matches_minor_gcd_oracle(m):
    n = len(m)
    assert smith_diagonal(m) == snf_oracle(m, n, n)


@given(
    st.integers(1, 3).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.integers(1, 4),
        )
    ).flatmap(
        lambda rc: st.lists(
            st.lists(st.integers(-5, 5), min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_smith_diagonal_rectangular(m):
    assert smith_diagonal(m) == snf_oracle(m, len(m), len(m[0]))


def test_det_empty_and_known_values():
    assert det([]) == 1
    assert det([[-7]]) == -7
    assert det([[-4, 1], [1, -2]]) == 7
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30


def test_det_tridiagonal_fast_path_agrees_with_cofactor():
    m = [[-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [0, 0, 1, -2]]
    assert det(m) == cofactor_det(m) == 5


@given(
    st.integers(1, 6).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(-8, 8), min_size=k, max_size=k),
            st.lists(st.integers(-8, 8), min_size=k, max_size=k),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_min_structured_det_matches_materialized(pair):
    values, diagonal = pair
    k = len(values)
    m = [
        [diagonal[i] if i == j else values[min(i, j)] for j in range(k)]
        for i in range(k)
    ]
    assert min_structured_det(values, diagonal) == cofactor_det(m)


def test_linking_matrix_validation():
    with pytest.raises(InvalidDiagramError):
        LinkingMatrix(((0, 1), (2, 0)))
    with pytest.raises(InvalidDiagramError):
        LinkingMatrix(((0, 1),))
    m = LinkingMatrix(((-7,),))
    assert det(m.rows) == -7
    assert (m.size, m.rows) == (1, ((-7,),))


def test_h1_invariants_validation_and_order():
    with pytest.raises(InvalidDiagramError):
        H1Invariants(factors=(4, 6), free_rank=0)  # 4 does not divide 6
    with pytest.raises(InvalidDiagramError):
        H1Invariants(factors=(1,), free_rank=0)
    h = H1Invariants(factors=(2, 12), free_rank=0)
    assert h.order() == 24
    assert h.describe() == "Z/2 + Z/12"
    assert H1Invariants(factors=(), free_rank=2).order() is None
    assert H1Invariants(factors=(), free_rank=0).describe() == "0"


def test_cokernel_invariants_examples():
    assert cokernel_invariants([[-7]]) == H1Invariants((7,), 0)
    assert cokernel_invariants([[-4, 1], [1, -2]]) == H1Invariants((7,), 0)
    assert cokernel_invariants([[0]]) == H1Invariants((), 1)
    assert cokernel_invariants([[2, 6], [4, 0]]) == H1Invariants((2, 12), 0)
    assert cokernel_invariants([], columns=3) == H1Invariants((), 3)


@given(small_matrix)
@settings(max_examples=80, deadline=None)
def test_cokernel_rank_nullity(m):
    n = len(m)
    inv = cokernel_invariants(m)
    diag = smith_diagonal(m)
    rank = sum(1 for d in diag if d)
    assert inv.free_rank == n - rank
    assert all(d > 1 for d in inv.factors)
