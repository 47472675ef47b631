"""Exact integer matrix tools: linking matrices, determinants, Smith form.

Everything here runs over Python integers, so all results are exact.
``det`` is fraction-free Bareiss elimination on a dense matrix. Matrices
whose structure is known where they are built carry their own linear-time
determinant instead: the plumbing chain in ``lens`` uses its continuant
and the slid lens diagram uses ``min_structured_det``. First homology of
a surgered 3-manifold is read off the Smith normal form of its linking
matrix: the nontrivial invariant factors give the torsion and the corank
gives the free rank.

``smith_diagonal`` costs one Bareiss elimination plus work that grows
with the answer. It runs in three phases, each removing what it can:

1. Over Z, while the block holds a +-1, that entry is the pivot: one row
   pass, in place and only at the pivot row's nonzero columns, clears its
   column, then its row and column are dropped. The step is unimodular,
   so the cleared row needs no column pass, and every entry left is a
   minor of the input (the pivots multiply to +-1), so entries grow no
   faster than under Bareiss.
2. Bareiss on the residual block B, swapping in a nonzero pivot where
   one is 0, gives its rank r and a nonzero r x r minor, which the
   product of the invariant factors s_1 | ... | s_r divides. Unless B is
   k x k with r = k, the finisher modulo that minor gives s_1, ..., s_r,
   and the rest are 0. Else let D = |det B|; s_1 ... s_{k-1} is the gcd
   of all (k-1)-minors of B. By Sylvester's identity the trailing 2 x 2
   block of Bareiss just before its last step holds four of them (a swap
   there only permutes them); let g be their gcd (1 when k = 1: the
   empty minor), and h = gcd(D, g). A prime of D that does not divide h
   does not divide s_{k-1}, so its part of coker B is cyclic: when h = 1
   the factors are 1, ..., 1, D, which phase 3 gives with no prime to
   read.
3. The primes of h are read one at a time (Dumas, Saunders and
   Villard, J. Symbolic Comput. 2001), those below TRIAL_BOUND found by
   trial division. At each such p, with e = v_p(D), the finisher modulo p
   counts the r_p = k - rank_{F_p}(B) factors that p divides; they carry
   p^e between them: r_p = e leaves (Z/p)^e, r_p = 1 leaves Z/p^e, and
   otherwise p^e is left to the finisher. So is the part of D at a
   cofactor of h that trial division leaves. One finisher call, modulo
   the product M of what is left, gives the chain of the Z/gcd(s_i, M).
   These chains multiply position by position, and D_c, the rest of D,
   goes on the last factor.

The finisher always works modulo some M > 0, on residues, so no entry
grows past M. Row and column operations, each combining two lines
through the extended gcd of their leading entries, are unimodular, so
modulo M they keep coker B (x) Z/M, the sum of the Z/gcd(s_i, M). They
make the block diagonal, each line reduced mod M as it is built, and a
diagonal d_1, ..., d_k presents the sum of the Z/gcd(d_i, M). Replacing
each pair of these factors by their gcd and lcm keeps the sum and leaves
a divisibility chain.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InvalidDiagramError, Value, require_integers

Rows = tuple[tuple[int, ...], ...]


def _require_square(rows: Sequence[Sequence[int]]) -> None:
    require_integers(InvalidDiagramError, "matrix entries must be integers",
                     *chain.from_iterable(rows))
    if any(len(row) != len(rows) for row in rows):
        raise InvalidDiagramError("matrix is not square")


class LinkingMatrix(Value):
    """Symmetric integer matrix: framings on the diagonal, linking numbers
    off it. The constructor checks every entry. No library code builds
    one: ``surgery.linking_matrix`` returns the bare rows of a checked
    diagram."""

    __slots__ = ("rows",)

    def __init__(self, rows: Rows) -> None:
        object.__setattr__(self, "rows", rows)
        self.__post_init__()

    # its own method, so that bench/tracing.py can time the check by this name
    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))  # no copy of rows already tuples
        _require_square(rows)
        object.__setattr__(self, "rows", rows)
        if rows != tuple(zip(*rows)):
            raise InvalidDiagramError("matrix not symmetric")

    @property
    def size(self) -> int:
        return len(self.rows)


class H1Invariants(Value):
    """Invariant factors d1 | d2 | ... (each > 1) plus the free rank."""

    __slots__ = ("factors", "free_rank")

    def __init__(self, factors: tuple[int, ...], free_rank: int) -> None:
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "free_rank", free_rank)
        for d, e in zip(factors, factors[1:]):
            if e % d != 0:
                raise InvalidDiagramError("invariant factors must form a chain")
        if any(d <= 1 for d in factors):
            raise InvalidDiagramError("invariant factors must exceed 1")
        if free_rank < 0:
            raise InvalidDiagramError("free rank must be nonnegative")

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.factors]
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"factors": list(self.factors), "free_rank": self.free_rank}


def _bareiss(m: list[list[int]]) -> tuple[int, int, int]:
    """Rank r of a nonempty matrix, which is overwritten; its last pivot
    with the sign of the swaps, a nonzero r x r minor (1 when r = 0) and
    the determinant when r is the order of a square matrix; and the gcd of
    the four (n-1)-minors that the trailing 2 x 2 block of an n x n matrix
    holds just before the last step (1 when n = 1). A zero pivot is swapped
    for the first nonzero entry left, column by column."""
    rows, cols = len(m), len(m[0])
    sign = 1
    prev = 1
    minors = 1
    for i in range(min(rows, cols)):
        if i == rows - 2:
            minors = gcd(*m[i][i:], *m[i + 1][i:])
        if m[i][i] == 0:
            found = next(((r, c) for c in range(i, cols) for r in range(i, rows) if m[r][c]), None)
            if found is None:
                return i, sign * prev, minors
            r, c = found
            m[i], m[r] = m[r], m[i]
            for row in m[i:]:
                row[i], row[c] = row[c], row[i]
            sign *= (-1) ** ((r != i) + (c != i))  # each swap flips it
        top = m[i]
        pivot = top[i]
        later = range(i + 1, cols)
        for row in m[i + 1:]:
            a = row[i]
            for c in later:
                row[c] = (row[c] * pivot - a * top[c]) // prev
        prev = pivot
    return min(rows, cols), sign * prev, minors


def det(entries: Iterable[Iterable[int]]) -> int:
    """Exact determinant of a square integer matrix (empty matrix -> 1)."""
    rows = [list(row) for row in entries]
    _require_square(rows)
    if not rows:
        return 1
    rank, pivot, _ = _bareiss(rows)
    return pivot if rank == len(rows) else 0


def min_structured_det(values: Sequence[int], diagonal: Sequence[int]) -> int:
    """Exact determinant of M[i][j] = values[min(i,j)] for i != j, M[i][i] = diagonal[i].

    Linear-time recurrence on two minor sequences: D tracks leading principal
    minors, F tracks the same minor with the last column flattened to the
    min-structure value. Equals det() of the materialized matrix.
    """
    if len(values) != len(diagonal):
        raise InvalidDiagramError("values and diagonal lengths differ")
    if not values:
        return 1
    u, dv = list(values), [diagonal[i] - values[i] for i in range(len(values))]
    big_d, big_f = u[0] + dv[0], u[0]
    for m in range(1, len(u)):
        big_d, big_f = (
            dv[m - 1] * big_f + (u[m] + dv[m] - u[m - 1]) * big_d,
            dv[m - 1] * big_f + (u[m] - u[m - 1]) * big_d,
        )
    return big_d


def _unit_pivots(m: list[list[int]]) -> tuple[list[list[int]], int]:
    """Clear +-1 pivots over Z, dropping each pivot's row and column.
    Returns the residual block and the number of pivots cleared. The pivot
    is the first unit of the first row that holds one (a 1 before a -1);
    it updates, in place, the rows with a nonzero in its column, at its
    own row's nonzero columns only. A cleared column is zero in every row
    left, so it holds no unit and is dropped once, at the end."""
    cleared: list[int] = []
    while True:
        for i, row in enumerate(m):
            if 1 in row or -1 in row:
                break
        else:
            break
        c = row.index(1) if 1 in row else row.index(-1)
        del m[i]
        unit = row[c]  # its own inverse
        support = [(j, unit * b) for j, b in enumerate(row) if b]
        for other in m:
            if f := other[c]:
                for j, b in support:
                    other[j] -= f * b
        cleared.append(c)
    if cleared:
        live = sorted(set(range(len(m[0]) if m else 0)).difference(cleared))
        m = [[row[j] for j in live] for row in m]
    return m, len(cleared)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g = gcd(a, b), and y = 0 whenever a divides
    b, so that a pivot dividing its line takes nothing from the other one."""
    if a and b % a == 0:
        return abs(a), (1 if a > 0 else -1), 0
    x, next_x, y, next_y = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x, next_x, y, next_y = next_x, x - q * next_x, next_y, y - q * next_y
    return (a, x, y) if a > 0 else (-a, -x, -y)


def _combine(x: int, top: list[int], y: int, row: list[int], modulus: int) -> list[int]:
    """x top + y row, reduced mod modulus."""
    return [(x * u + y * v) % modulus for u, v in zip(top, row)]


def _gcd_diagonal(m: list[list[int]], modulus: int) -> list[int]:
    """Invariant factors of the cokernel of a nonempty m over Z/modulus,
    where m holds residues: min(rows, cols) of them, in divisibility order.
    Each pivot, the first nonzero entry, clears its column by combining two
    rows through the extended gcd of their leading entries, each reduced
    mod modulus as it is built. Once the pivot divides its row, a column
    pass would change that row alone, so both are dropped; else the
    transpose takes a pass, which makes the pivot smaller."""
    diag: list[int] = []
    size = min(len(m), len(m[0]))
    while corner := next(((i, j) for i, row in enumerate(m) for j, a in enumerate(row) if a), None):
        i, j = corner
        m[0], m[i] = m[i], m[0]
        for row in m:
            row[0], row[j] = row[j], row[0]
        while True:
            for i in range(1, len(m)):
                top, row = m[0], m[i]
                if row[0]:
                    g, x, y = _egcd(top[0], row[0])
                    a, b = top[0] // g, row[0] // g
                    if y or x != 1:
                        m[0] = _combine(x, top, y, row, modulus)
                    m[i] = _combine(-b, top, a, row, modulus)
            pivot = m[0][0]
            if all(a % pivot == 0 for a in m[0]):
                break
            m = [list(line) for line in zip(*m)]
        diag.append(pivot)
        m = [row[1:] for row in m[1:]]
    diag = sorted(gcd(d, modulus) for d in diag) + [modulus] * (size - len(diag))
    for i in range(diag.count(1), len(diag)):  # sorted, the 1s lead; a 1 keeps any pair
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return diag


# trial division of gcd(D, g) tries 2 and the odd numbers below this bound
TRIAL_BOUND = 1000


def _small_primes(h: int) -> tuple[list[int], int]:
    """The primes of h > 0 below TRIAL_BOUND, and the cofactor they leave:
    1, or an int with no prime below the bound. A cofactor below the
    square of the last trial divisor is itself prime and joins the list."""
    primes = []
    d = 2
    while d < TRIAL_BOUND and d * d <= h:
        if h % d == 0:
            primes.append(d)
            while h % d == 0:
                h //= d
        d += 1 if d == 2 else 2  # an odd composite's primes are gone already
    if 1 < h < d * d:
        return primes + [h], 1
    return primes, h


def smith_diagonal(entries: Iterable[Iterable[int]]) -> list[int]:
    """Diagonal of the Smith normal form (nonnegative, divisibility chain).

    Works on any rectangular integer matrix; the result has min(rows, cols)
    entries, padded with zeros where the rank falls short.
    """
    m = [list(row) for row in entries]
    require_integers(InvalidDiagramError, "matrix entries must be integers", *chain.from_iterable(m))
    nc = len(m[0]) if m else 0
    if any(len(row) != nc for row in m):
        raise InvalidDiagramError("ragged matrix")
    m, ones = _unit_pivots(m)
    diag = [1] * ones
    if not m:
        return diag
    k, nc = len(m), len(m[0])
    rank, pivot, minors = _bareiss([row[:] for row in m])
    if not rank == k == nc:
        # s_1 ... s_rank divides this nonzero minor M, so gcd(s_i, M) = s_i
        minor = abs(pivot)
        finished = _gcd_diagonal([[a % minor for a in row] for row in m], minor)
        return diag + finished[:rank] + [0] * (min(k, nc) - rank)
    cyclic = abs(pivot)  # D, divided below by each prime power of h
    h = gcd(cyclic, minors)
    local = [1] * k
    modulus = 1  # the part of D that the ranks leave to the finisher
    primes, rest = _small_primes(h)
    for p in primes:
        e = 0
        while cyclic % p == 0:
            cyclic //= p
            e += 1
        # how many of s_1, ..., s_k p divides: k - rank_{F_p}(B)
        r = _gcd_diagonal([[a % p for a in row] for row in m], p).count(p)
        if r == e:
            local[k - e:] = [a * p for a in local[k - e:]]
        elif r == 1:
            local[-1] *= p ** e
        else:
            modulus *= p ** e
    if rest > 1:
        # the cofactor's part of D: each prime power of D whose prime divides it
        part, t = cyclic, gcd(cyclic, rest)
        while t > 1:
            cyclic //= t
            t = gcd(cyclic, t)
        modulus *= part // cyclic
    if modulus > 1:
        finished = _gcd_diagonal([[a % modulus for a in row] for row in m], modulus)
        local = [a * b for a, b in zip(local, finished)]
    local[-1] *= cyclic
    return diag + local


def cokernel_invariants(entries: Iterable[Sequence[int]], columns: int) -> H1Invariants:
    """Invariants of Z^columns / rowspace(M); every row of M has ``columns``
    entries."""
    rows = list(entries)  # smith_diagonal copies and checks the entries
    if any(len(row) != columns for row in rows):
        raise InvalidDiagramError(f"matrix rows must have {columns} entries")
    diag = smith_diagonal(rows)
    rank = sum(1 for d in diag if d != 0)
    factors = tuple(d for d in diag if d > 1)
    return H1Invariants(factors=factors, free_rank=columns - rank)
