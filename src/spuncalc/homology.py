"""Exact integer matrix tools: linking matrices, determinants, Smith form.

Everything here runs over Python integers, so all results are exact.
``det`` is fraction-free Bareiss elimination on a dense matrix. Matrices
whose structure is known where they are built carry their own linear-time
determinant instead: the plumbing chain in ``lens`` uses its continuant
and the slid lens diagram uses ``min_structured_det``. First homology of
a surgered 3-manifold is read off the Smith normal form of its linking
matrix: the nontrivial invariant factors give the torsion and the corank
gives the free rank.

``smith_diagonal`` runs in three phases, each removing what it can:

1. Over Z, while the block holds a +-1, that entry is the pivot: one row
   pass clears its column, then its row and column are dropped. The step
   is unimodular, so the cleared row needs no column pass, and every
   entry left is a minor of the input (the pivots multiply to +-1), so
   entries grow no faster than under Bareiss.
2. If the residual block B is square, k x k, with D = |det B| != 0 and
   invariant factors s_1 | ... | s_k, its cyclic part is split off first.
   s_1 ... s_{k-1} is the gcd of all (k-1)-minors of B, and by Sylvester's
   identity the trailing 2 x 2 block of Bareiss just before its last step
   holds four of them (a row swap there only permutes them); let g be
   their gcd (1 when k = 1: the empty minor). Write D = D_c D_m, where D_m
   collects every prime power of D whose prime divides gcd(D, g). No prime
   of D_c divides g, so none divides s_{k-1}: the D_c-part of coker B is
   cyclic, and coker B = Z/D_c + coker B (x) Z/D_m. Phase 2 ends at this
   split; when D_m = 1 the factors are 1, ..., 1, D.
3. One finisher takes the rest, over Z or modulo D_m: a singular or
   rectangular residual over Z, a nonsingular one reduced mod D_m, units
   mod D_m included. Row and column operations, each combining two lines
   through the extended gcd of their leading entries, are unimodular, so
   they keep coker B (x) Z/D_m, which is the sum of the Z/gcd(s_i, D_m),
   that is, of Z/s_1, ..., Z/s_{k-1} and Z/(s_k / D_c). They make the
   block diagonal, each line reduced mod D_m as it is built, and a
   diagonal d_1, ..., d_k presents the sum of the Z/gcd(d_i, D_m) (of the
   Z/d_i over Z). Replacing each pair of these factors by their gcd and
   lcm keeps the sum and leaves a divisibility chain. The last factor is
   then multiplied by D_c.
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


def _bareiss(m: list[list[int]]) -> tuple[int, int]:
    """Determinant of a nonempty square matrix, which is overwritten, and
    the gcd of the four (n-1)-minors that its trailing 2 x 2 block holds
    just before the last step (1 when n = 1)."""
    n = len(m)
    sign = 1
    prev = 1
    minors = 1
    for i in range(n - 1):
        if i == n - 2:
            minors = gcd(*m[i][i:], *m[i + 1][i:])
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0, minors
        pivot = m[i][i]
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * pivot - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = pivot
    return sign * m[n - 1][n - 1], minors


def det(entries: Iterable[Iterable[int]]) -> int:
    """Exact determinant of a square integer matrix (empty matrix -> 1)."""
    rows = [list(row) for row in entries]
    _require_square(rows)
    if not rows:
        return 1
    return _bareiss(rows)[0]


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
    Returns the residual block and the number of pivots cleared."""
    cleared = 0
    while True:
        for i, row in enumerate(m):
            if 1 in row or -1 in row:
                break
        else:
            return m, cleared
        c = row.index(1) if 1 in row else row.index(-1)
        pivot_row = m.pop(i)
        unit = pivot_row.pop(c)  # its own inverse
        rest = []
        for row in m:
            if f := row.pop(c) * unit:
                row = [a - f * b for a, b in zip(row, pivot_row)]
            rest.append(row)
        m = rest
        cleared += 1


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
    """x top + y row, reduced mod modulus unless it is 0."""
    if modulus:
        return [(x * u + y * v) % modulus for u, v in zip(top, row)]
    return [x * u + y * v for u, v in zip(top, row)]


def _gcd_diagonal(m: list[list[int]], modulus: int) -> list[int]:
    """Invariant factors of the cokernel of m over Z (modulus 0) or over
    Z/modulus, where m holds residues: min(rows, cols) of them, in
    divisibility order. Each pivot, the first nonzero entry, clears its
    column by combining two rows through the extended gcd of their leading
    entries, each reduced mod modulus as it is built. Once the pivot divides
    its row, a column pass would change that row alone, so both are dropped;
    else the transpose takes a pass, which makes the pivot smaller."""
    diag: list[int] = []
    size = min(len(m), len(m[0])) if m else 0
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
    square = len(m) == len(m[0])
    determinant, minors = _bareiss([row[:] for row in m]) if square else (0, 1)
    if not determinant:
        return diag + _gcd_diagonal(m, 0)
    # |determinant| = cyclic * modulus: modulus takes each prime power whose
    # prime divides the minors, cyclic the rest
    cyclic = abs(determinant)
    h = gcd(cyclic, minors)
    while h > 1:
        cyclic //= h
        h = gcd(cyclic, h)
    modulus = abs(determinant) // cyclic
    if modulus == 1:
        return diag + [1] * (len(m) - 1) + [cyclic]
    diag += _gcd_diagonal([[a % modulus for a in row] for row in m], modulus)
    diag[-1] *= cyclic
    return diag


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
