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
   cyclic, and coker B = Z/D_c + coker B (x) Z/D_m. When D_m = 1 the
   factors are 1, ..., 1, D. Otherwise B stacked on D_m I has the factors
   gcd(s_i, D_m), which are s_1, ..., s_{k-1}, s_k / D_c, and any row or
   column operation invertible mod D_m keeps them. B is reduced mod D_m
   and pivots coprime to D_m are cleared like the +-1 of phase 1. When
   none is left but every entry and D_m share a factor h, the block is h
   times a block of the same kind modulo D_m/h, so its factors are h times
   those. The last factor is then multiplied by D_c.
3. What has no unit left goes to the min-pivot reduction: a singular or
   rectangular residual as it is, a nonsingular one stacked on D_m I.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd
from typing import Iterable, Sequence

from .errors import InvalidDiagramError, require_integers

Rows = tuple[tuple[int, ...], ...]


def _require_square(rows: Sequence[Sequence[int]]) -> None:
    require_integers(InvalidDiagramError, "matrix entries must be integers",
                     *chain.from_iterable(rows))
    if any(len(row) != len(rows) for row in rows):
        raise InvalidDiagramError("matrix is not square")


@dataclass(frozen=True)
class LinkingMatrix:
    """Symmetric integer matrix: framings on the diagonal, linking numbers off it."""

    rows: Rows

    def __post_init__(self) -> None:
        rows = tuple(map(tuple, self.rows))  # no copy of rows already tuples
        _require_square(rows)
        object.__setattr__(self, "rows", rows)
        if rows != tuple(zip(*rows)):
            raise InvalidDiagramError("matrix not symmetric")

    @property
    def size(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class H1Invariants:
    """Invariant factors d1 | d2 | ... (each > 1) plus the free rank."""

    factors: tuple[int, ...]
    free_rank: int

    def __post_init__(self) -> None:
        for d, e in zip(self.factors, self.factors[1:]):
            if e % d != 0:
                raise InvalidDiagramError("invariant factors must form a chain")
        if any(d <= 1 for d in self.factors):
            raise InvalidDiagramError("invariant factors must exceed 1")
        if self.free_rank < 0:
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


def _unit_column(row: list[int], modulus: int) -> int | None:
    """Column of the first unit of Z/modulus in the row (+-1 when modulus is 0)."""
    if modulus:
        row = list(map(gcd, row, [modulus] * len(row)))
        return row.index(1) if 1 in row else None
    if 1 in row:
        return row.index(1)
    return row.index(-1) if -1 in row else None


def _unit_pivots(m: list[list[int]], modulus: int) -> tuple[list[list[int]], int]:
    """Clear unit pivots of Z/modulus (+-1 when modulus is 0) from a block
    whose entries are reduced mod modulus, dropping each pivot's row and
    column. Returns the residual block and the number of pivots cleared."""
    cleared = 0
    while True:
        for i, row in enumerate(m):
            c = _unit_column(row, modulus)
            if c is not None:
                break
        else:
            return m, cleared
        pivot_row = m.pop(i)
        inverse = pow(pivot_row.pop(c), -1, modulus) if modulus else pivot_row.pop(c)
        rest = []
        for row in m:
            f = row.pop(c) * inverse
            if modulus:
                f %= modulus
                if f:
                    row = [(a - f * b) % modulus for a, b in zip(row, pivot_row)]
            elif f:
                row = [a - f * b for a, b in zip(row, pivot_row)]
            rest.append(row)
        m = rest
        cleared += 1


def _min_pivot_diagonal(m: list[list[int]]) -> list[int]:
    """Smith diagonal by repeated min-magnitude pivots, overwriting m: the
    finisher for blocks with no unit left. It restarts whenever a remainder
    appears and rescans the whole block each time."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    diag: list[int] = []
    top = 0
    while top < min(nr, nc):
        # find a nonzero pivot of minimal magnitude in the working block
        pivot = None
        for i in range(top, nr):
            for j in range(top, nc):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        p = m[top][top]
        # clear the pivot row and column; restart whenever a remainder appears
        dirty = False
        for i in range(top + 1, nr):
            q = m[i][top] // p
            if q:
                for j in range(top, nc):
                    m[i][j] -= q * m[top][j]
            if m[i][top]:
                dirty = True
        for j in range(top + 1, nc):
            q = m[top][j] // p
            if q:
                for i in range(top, nr):
                    m[i][j] -= q * m[i][top]
            if m[top][j]:
                dirty = True
        if dirty:
            continue
        # pivot must divide the remaining block for the factor chain
        stray = None
        for i in range(top + 1, nr):
            for j in range(top + 1, nc):
                if m[i][j] % p != 0:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            for j in range(top, nc):
                m[top][j] += m[stray][j]
            continue
        diag.append(abs(p))
        top += 1
    diag.extend([0] * (min(nr, nc) - len(diag)))
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
    m, ones = _unit_pivots(m, 0)
    diag = [1] * ones
    if not m:
        return diag
    if len(m) != len(m[0]):
        return diag + _min_pivot_diagonal(m)
    determinant, minors = _bareiss([row[:] for row in m])
    if not determinant:
        return diag + _min_pivot_diagonal(m)
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
    m = [[a % modulus for a in row] for row in m]
    scale = 1
    while True:
        m, units = _unit_pivots(m, modulus)
        diag += [scale] * units
        if not m:
            break
        g = gcd(modulus, *chain.from_iterable(m))
        if g == 1:
            k = len(m)
            m += [[modulus if j == i else 0 for j in range(k)] for i in range(k)]
            diag += [scale * d for d in _min_pivot_diagonal(m)]
            break
        m = [[a // g for a in row] for row in m]
        modulus //= g
        scale *= g
    diag[-1] *= cyclic
    return diag


def cokernel_invariants(entries: Iterable[Sequence[int]], columns: int) -> H1Invariants:
    """Invariants of Z^columns / rowspace(M); every row of M has ``columns``
    entries."""
    rows = list(entries)  # smith_diagonal copies and checks the entries
    if any(len(row) != columns for row in rows):
        raise InvalidDiagramError(f"matrix rows must have {columns} entries")
    if not rows:
        return H1Invariants(factors=(), free_rank=columns)
    diag = smith_diagonal(rows)
    rank = sum(1 for d in diag if d != 0)
    factors = tuple(d for d in diag if d > 1)
    return H1Invariants(factors=factors, free_rank=columns - rank)
