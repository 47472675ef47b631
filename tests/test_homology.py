"""Exact matrix layer, checked against brute-force oracles.

The determinant oracle is recursive cofactor expansion; the Smith-form
oracle computes determinantal divisors as gcds over all square minors.
Both are exponential and independent of the production code paths.
"""

import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spuncalc import cli, homology, surgery
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


# ahead of every Smith test: without y = 0 the finisher loops forever
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(-50, 50))
@settings(max_examples=300, deadline=None)
def test_egcd_combines_to_the_gcd_and_keeps_a_dividing_pivot(a, b, k):
    for a, b in ((a, b), (a, k * a)):  # the second pair has a | b
        assume(a or b)
        g, x, y = homology._egcd(a, b)
        assert x * a + y * b == g == gcd(a, b) > 0
        if a and b % a == 0:
            # else a pivot that already divides its line would mix it into
            # the other one, and the row and column passes never end
            assert y == 0


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


def test_min_structured_det_of_no_entries_and_of_unequal_lengths():
    assert min_structured_det([], []) == 1 == det([])
    for values, diagonal in (([1, 2], [3]), ([], [1])):
        with pytest.raises(InvalidDiagramError, match="lengths differ"):
            min_structured_det(values, diagonal)


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
    with pytest.raises(InvalidDiagramError, match="free rank"):
        H1Invariants(factors=(2,), free_rank=-1)
    h = H1Invariants(factors=(2, 12), free_rank=0)
    assert (h.factors, h.free_rank) == ((2, 12), 0)
    assert h.describe() == "Z/2 + Z/12"
    assert H1Invariants(factors=(), free_rank=2).describe() == "Z + Z"
    assert H1Invariants(factors=(), free_rank=0).describe() == "0"


def test_cokernel_invariants_examples():
    assert cokernel_invariants([[-7]], columns=1) == H1Invariants((7,), 0)
    assert cokernel_invariants([[-4, 1], [1, -2]], columns=2) == H1Invariants((7,), 0)
    assert cokernel_invariants([[0]], columns=1) == H1Invariants((), 1)
    assert cokernel_invariants([[2, 6], [4, 0]], columns=2) == H1Invariants((2, 12), 0)
    assert cokernel_invariants([], columns=3) == H1Invariants((), 3)
    assert cokernel_invariants([[2, 0, 0]], columns=3) == H1Invariants((2,), 2)


def test_cokernel_invariants_rejects_rows_of_another_length():
    # Z/2 would be the answer for one column; the matrix has three
    for rows, columns in (([[2, 0, 0]], 1), ([[2, 0], [1]], 2), ([[1, 2]], 3)):
        with pytest.raises(InvalidDiagramError, match="entries"):
            cokernel_invariants(rows, columns=columns)


@given(small_matrix)
@settings(max_examples=80, deadline=None)
def test_cokernel_rank_nullity(m):
    n = len(m)
    inv = cokernel_invariants(m, columns=n)
    diag = smith_diagonal(m)
    rank = sum(1 for d in diag if d)
    assert inv.free_rank == n - rank
    assert all(d > 1 for d in inv.factors)


@pytest.mark.parametrize("call, entries, needle", [
    (smith_diagonal, [[2.5, 0], [0, 3.9]], "integers"),
    (lambda m: cokernel_invariants(m, columns=1), [[4.7]], "integers"),
    (det, [["3"]], "integers"),
    (det, [[True, 0], [0, 1]], "integers"),
    (LinkingMatrix, ((1.0,),), "integers"),
    (smith_diagonal, [[1, 2], [3]], "ragged"),
], ids=["smith-float", "cokernel-float", "det-string", "det-bool", "linking-float",
        "smith-ragged"])
def test_non_integer_entries_are_rejected_not_truncated(call, entries, needle):
    with pytest.raises(InvalidDiagramError, match=needle):
        call(entries)


def matrices(entries, rows=st.integers(1, 4), cols=None):
    """Matrices of the given entries; square unless a column count is drawn."""
    return rows.flatmap(lambda r: (st.just(r) if cols is None else cols).flatmap(
        lambda c: st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)))


# no +-1 anywhere: the first pivot is a unit modulo the determinant
unit_free = st.integers(-12, 12).filter(lambda x: abs(x) != 1)


@given(matrices(unit_free))
@settings(max_examples=100, deadline=None)
def test_smith_without_unit_entries(m):
    n = len(m)
    assert smith_diagonal(m) == snf_oracle(m, n, n)


@given(matrices(st.integers(-6, 6), rows=st.integers(2, 4)), st.integers(-3, 3),
       st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_smith_singular_square(m, a, b):
    m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    n = len(m)
    assert smith_diagonal(m) == snf_oracle(m, n, n)


@given(matrices(unit_free, rows=st.integers(1, 3), cols=st.integers(1, 5)))
@settings(max_examples=100, deadline=None)
def test_smith_rectangular_without_units(m):
    assert smith_diagonal(m) == snf_oracle(m, len(m), len(m[0]))


# entries sharing a factor with 6, so that few are units modulo a determinant
# with both 2 and 3 in it
non_units_of_six = st.sampled_from([0, 2, -2, 3, -3, 4, 6, -6, 8, 9, -9, 12])


def framed(core, row, col):
    """[[1, row], [col, core + col * row]]: clearing the leading 1 over Z
    leaves exactly ``core``."""
    k = len(core)
    row, col = row[:k], col[:k]
    return [[1, *row]] + [[c, *(x + c * r for x, r in zip(core_row, row))]
                          for c, core_row in zip(col, core)]


@given(matrices(non_units_of_six, rows=st.integers(1, 4)),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_smith_mixed_phases(core, row, col):
    m = framed(core, row, col)
    n = len(m)
    assert smith_diagonal(m) == snf_oracle(m, n, n)


def test_each_smith_phase_is_reached(monkeypatch):
    seen = []
    unit_pivots, finisher = homology._unit_pivots, homology._gcd_diagonal

    def spy_units(m):
        m, cleared = unit_pivots(m)
        seen.append(("units", cleared))
        return m, cleared

    def spy_finisher(m, modulus):
        # the finisher works modulo some M > 0, on residues only: modulo a
        # prime it reads a rank, modulo a part of D or a nonzero minor the
        # factors
        assert modulus > 0 and all(0 <= a < modulus for row in m for a in row)
        seen.append(("finisher", modulus, len(m), len(m[0])))
        return finisher(m, modulus)

    monkeypatch.setattr(homology, "_unit_pivots", spy_units)
    monkeypatch.setattr(homology, "_gcd_diagonal", spy_finisher)

    def route(m, factors, *steps):
        seen.clear()
        assert smith_diagonal(m) == snf_oracle(m, len(m), len(m[0])) == factors
        assert seen == list(steps)

    # the cyclic exit: core [[4, 6], [9, 6]] has determinant -30 and minors
    # with gcd 1, so H1 is Z/30 and no prime is looked at
    route(framed([[4, 6], [9, 6]], [2, -1], [1, 3]), [1, 1, 30], ("units", 1))
    # a -1 is a pivot over Z too; the residual [10] is 1 x 1, so cyclic
    route([[-1, 2], [3, 4]], [1, 10], ("units", 1))
    seen.clear()
    m = random_symmetric(random.Random(3), 12)
    assert smith_diagonal(m) == [1] * 11 + [abs(det(m))]
    assert seen == [("units", 2)]
    # r_p = e: det 60 and minors' gcd 2, so p = 2 with e = 2; the finisher
    # modulo 2 finds both factors even, so r_2 = 2 and the 2-part is
    # (Z/2)^2; 15 goes on the last factor
    route([[2, 0], [0, 30]], [2, 30], ("units", 0), ("finisher", 2, 2, 2))
    # r_p = 1 = e at p = 2 and r_p = e = 2 at p = 3: D = 18, D_c = 1
    route([[-2, -2, 0], [0, 3, 3], [-2, -2, -3]], [1, 3, 6],
          ("units", 0), ("finisher", 2, 3, 3), ("finisher", 3, 3, 3))
    # r_p = 1 < e: D = 36 and the minors share a 3, whose e is 2, but one
    # factor only is divisible by 3, so the 3-part is Z/9
    route([[3, -3, -2], [3, -2, 0], [-3, 9, 2]], [1, 1, 36], ("units", 0),
          ("finisher", 3, 3, 3))
    # neither: 2 [[3, 1], [1, 1]] has D = 8 and both factors even, so r_2 = 2
    # while e = 3, and the finisher runs again, modulo 8
    route([[6, 2], [2, 2]], [2, 4], ("units", 0), ("finisher", 2, 2, 2), ("finisher", 8, 2, 2))
    # a cofactor above the trial bound: q = 1009 * 1013 exceeds the square
    # of the last trial divisor, so the finisher runs modulo its part of D,
    # q^2, and the 2 of D goes on the last factor
    q = 1009 * 1013
    assert q > homology.TRIAL_BOUND ** 2
    route([[q, 0], [0, 2 * q]], [q, 2 * q], ("units", 0), ("finisher", q * q, 2, 2))
    # singular, after the unit in the middle row clears the top row: the
    # residual [[0, 0], [5, 5]] has rank 1 and the nonzero 1 x 1 minor 5,
    # found by a row swap, so the finisher runs modulo 5
    route([[2, 4, 6], [1, 2, 3], [0, 5, 5]], [1, 5, 0], ("units", 1), ("finisher", 5, 2, 2))
    # rectangular, with no unit anywhere: the leading 2 x 2 minor is -24
    route([[2, 4, 4], [6, 0, 3]], [1, 6], ("units", 0), ("finisher", 24, 2, 3))
    # rectangular with its leading 2 x 2 minor 0: a column swap finds the
    # minor -4 of columns 1 and 3
    route([[2, 4, 4], [4, 8, 6]], [2, 2], ("units", 0), ("finisher", 4, 2, 3))
    # a zero block has rank 0, and its minor, the empty one, is 1
    route([[0, 0, 0], [0, 0, 0]], [0, 0], ("units", 0), ("finisher", 1, 2, 3))


def minor_rank(m, p):
    """Rank over F_p as the largest size of a minor that p does not divide."""
    rows, cols = len(m), len(m[0])
    return max((size for size in range(1, min(rows, cols) + 1)
                for rs in combinations(range(rows), size)
                for cs in combinations(range(cols), size)
                if cofactor_det([[m[r][c] for c in cs] for r in rs]) % p), default=0)


@given(matrices(st.integers(-9, 9), rows=st.integers(1, 4), cols=st.integers(1, 5)),
       st.sampled_from([2, 3, 5, 7, 1009]))
@settings(max_examples=200, deadline=None)
def test_the_finisher_mod_p_counts_the_rank_defect(m, p):
    # how many of the min(rows, cols) factors p divides, rank_{F_p} short of it
    factors = homology._gcd_diagonal([[a % p for a in row] for row in m], p)
    assert min(len(m), len(m[0])) - factors.count(p) == minor_rank(m, p)


def trailing_minors_gcd(m):
    """gcd of the four (k-1)-minors on the leading k-2 rows and columns plus
    one of the last two rows and one of the last two columns."""
    k = len(m)
    head = list(range(k - 2))
    return gcd(*(cofactor_det([[m[r][c] for c in head + [j]] for r in head + [i]])
                 for i in (k - 2, k - 1) for j in (k - 2, k - 1)))


@given(matrices(st.integers(-6, 6), rows=st.integers(2, 5)))
@settings(max_examples=150, deadline=None)
def test_bareiss_minors_are_the_trailing_minors(m):
    # without row swaps before the last step, Bareiss's rows are the input's
    assume(all(cofactor_det([row[:i] for row in m[:i]]) for i in range(1, len(m) - 1)))
    rank, pivot, minors = homology._bareiss([row[:] for row in m])
    assert (pivot if rank == len(m) else 0) == cofactor_det(m)
    assert minors == trailing_minors_gcd(m)


def test_bareiss_minors_with_a_row_swap_at_the_last_step():
    # the leading 2 x 2 minor is 0, so the last step swaps rows 2 and 3
    m = [[2, 1, 3], [4, 2, 5], [2, 5, 3]]
    assert cofactor_det([row[:2] for row in m[:2]]) == 0
    rank, d, minors = homology._bareiss([row[:] for row in m])
    assert rank == 3 and d == cofactor_det(m) == 8
    assert minors == trailing_minors_gcd(m) == 2
    assert homology._bareiss([[-7]]) == (1, -7, 1)  # the empty minor
    # a column swap: after the first step the second column is 0 below the
    # pivot, so the second pivot is the minor -2 of columns 1 and 3, its
    # sign flipped by the swap
    assert homology._bareiss([[2, 1, 3], [4, 2, 5]])[:2] == (2, 2)
    assert cofactor_det([[2, 3], [4, 5]]) == -2


@given(matrices(st.integers(-4, 4), rows=st.integers(1, 4), cols=st.integers(1, 5)),
       st.integers(-2, 2), st.booleans())
@settings(max_examples=150, deadline=None)
def test_bareiss_reads_the_rank_and_a_nonzero_minor_of_it(m, a, dependent):
    if dependent and len(m) > 1:
        m[-1] = [a * x for x in m[0]]  # the rank falls short of the rows
    rows, cols = len(m), len(m[0])
    rank, pivot, _ = homology._bareiss([row[:] for row in m])
    minors = {size: {abs(cofactor_det([[m[r][c] for c in cs] for r in rs]))
                     for rs in combinations(range(rows), size)
                     for cs in combinations(range(cols), size)}
              for size in range(min(rows, cols) + 1)}
    assert rank == max(size for size, values in minors.items() if values != {0})
    assert abs(pivot) in minors[rank] and pivot


def unimodular(draw, k):
    """A random product of elementary operations on the k x k identity."""
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(draw(st.integers(0, 2 * k))):
        i, j = draw(st.permutations(range(k)))[:2]
        f = draw(st.integers(-2, 2))
        u[i] = [a + f * b for a, b in zip(u[i], u[j])]
    return u


def product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def split_diagonals(draw):
    """U diag(d) V, d a divisibility chain of primes 2 and 3 whose last entry
    also carries a cyclic part of primes 5, 7 and 11."""
    k = draw(st.integers(2, 4))
    d, acc = [], 1
    for _ in range(k):
        acc *= draw(st.sampled_from([1, 2, 3, 4, 6]))
        d.append(acc)
    d[-1] *= draw(st.sampled_from([1, 5, 7, 11, 25, 35]))
    diag = [[d[i] if i == j else 0 for j in range(k)] for i in range(k)]
    return product(product(unimodular(draw, k), diag), unimodular(draw, k)), d


@given(split_diagonals())
@settings(max_examples=100, deadline=None)
def test_smith_splits_off_the_cyclic_part(case):
    m, d = case
    k = len(m)
    assert smith_diagonal(m) == snf_oracle(m, k, k) == d


# small primes, and two above the trial bound whose product is a cofactor
# that trial division leaves
LOCAL_PRIMES = (2, 3, 5, 1009, 1013)


@st.composite
def prime_power_diagonals(draw):
    """U diag(d) V, U and V products of transvections and d a divisibility
    chain: at each drawn prime, a sorted list of exponents."""
    k = draw(st.integers(2, 4))
    d = [1] * k
    for p in draw(st.lists(st.sampled_from(LOCAL_PRIMES), max_size=3, unique=True)):
        exponents = sorted(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)))
        d = [a * p ** e for a, e in zip(d, exponents)]
    diag = [[d[i] if i == j else 0 for j in range(k)] for i in range(k)]
    return product(product(unimodular(draw, k), diag), unimodular(draw, k)), d


@given(prime_power_diagonals())
@settings(max_examples=150, deadline=None)
def test_smith_reads_each_local_part(case):
    m, d = case
    assert smith_diagonal(m) == d


def random_symmetric(rng, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-9, 9)
    return m


def rank_deficient(rng, rows, cols):
    """A rows x cols block with no +-1 entry and of rank min(rows, cols) - 2:
    drawn wide, with its last two rows 2 (r_1 + r_2) and 3 (r_3 - r_4), and
    transposed when tall."""
    short, wide = sorted((rows, cols))
    m = [[rng.choice((0, 2, -2, 3, -3, 4, 6, -6, 9)) for _ in range(wide)]
         for _ in range(short - 2)]
    m.append([2 * (a + b) for a, b in zip(m[0], m[1])])
    m.append([3 * (a - b) for a, b in zip(m[2], m[3])])
    return m if rows == short else [list(col) for col in zip(*m)]


# linking-matrix shapes of the surgery audit; n = 40, whose residual after
# the unit pivots is nonsingular, so the finisher works modulo parts of its
# determinant and the entries stay below it; and rank-deficient rectangular
# blocks with no +-1 entry, which Bareiss alone takes to the finisher,
# modulo a nonzero minor of their rank
@pytest.mark.parametrize("n, seed", [(n, s) for n in (8, 12, 16, 20, 24) for s in (1, 2)]
                         + [(40, 1)]
                         + [pytest.param(shape, s, id=f"{shape[0]}x{shape[1]}-{s}")
                            for shape, s in (((12, 30), 1), ((12, 30), 2), ((30, 12), 1))])
def test_smith_matches_sympy(n, seed):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(f"{n}:{seed}")
    m = random_symmetric(rng, n) if isinstance(n, int) else rank_deficient(rng, *n)
    s = smith_normal_form(sympy.Matrix(m), domain=sympy.ZZ)
    diag = smith_diagonal(m)
    assert diag == [abs(int(s[i, i])) for i in range(min(s.shape))]
    if not isinstance(n, int):
        assert diag[-3] and diag[-2:] == [0, 0]


def dense_chain(n):
    """Every pair of n strands linked once, with random framings, drawn as
    in the dense chain of the CI workflow."""
    rng = random.Random(1)
    framings = [rng.randint(-9, 9) for _ in range(n)]
    word = [(i, j, rng.choice((1, -1))) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return surgery.FramedBraidDiagram(n, word, framings)


def test_smith_of_a_dense_chain_whose_2_part_is_not_elementary_matches_sympy():
    # at 42 strands the 2-part is not elementary (the last two factors carry
    # 4 and 8), so the rank mod 2 settles neither case, and the finisher
    # takes it modulo 2^26; only the answer is asserted, not the route
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    m = [list(row) for row in surgery.linking_matrix(dense_chain(42))]
    s = smith_normal_form(sympy.Matrix(m), domain=sympy.ZZ)
    assert smith_diagonal(m) == [abs(int(s[i, i])) for i in range(42)]


def test_a_dense_chain_takes_one_smith_form_and_one_finisher_mod_2(monkeypatch):
    # at 61 strands H1's 2-part is (Z/2)^31, so the count of factors the
    # finisher modulo 2 finds even settles it, and no finisher runs modulo D
    d = dense_chain(61)
    calls = []
    smith, finisher = homology.smith_diagonal, homology._gcd_diagonal

    def spy_smith(entries):
        calls.append("smith")
        return smith(entries)

    def spy_finisher(m, modulus):
        calls.append(("finisher", modulus))
        return finisher(m, modulus)

    monkeypatch.setattr(homology, "smith_diagonal", spy_smith)
    monkeypatch.setattr(homology, "_gcd_diagonal", spy_finisher)
    factors = cokernel_invariants(surgery.linking_matrix(d), columns=61).factors
    assert factors[:31] == (2,) * 31 and factors[-1] % 4 == 2
    assert calls == ["smith", ("finisher", 2)]
    calls.clear()
    moves = [{"move": "blow_up", "region": [1, 5, 9], "sign": 1},
             {"move": "rolfsen_twist", "component": 62, "twists": -2},
             {"move": "blow_down", "component": 62}]
    _, checks, _ = cli.surgery_report(d, moves)
    assert all(check["passed"] for check in checks)
    assert calls.count("smith") == 1
