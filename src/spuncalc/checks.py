"""What the hard checks compare a result against: ranks over F_2 and F_3
and the check they give on invariant factors, a presentation's exponent
sums, and the surgery move certificates. It imports no other spuncalc
module, so a fault in the code that computes a result never reaches it.

For an integer matrix M with c columns and coker M = Z^f + Z/d_1 + ... +
Z/d_k (each d_i > 1), the structure theorem read mod a prime p gives

    #{i : p divides d_i} = (c - f) - rank_{F_p}(M),

since c - f is the rank of M over Q and rank_{F_p}(M) counts the Smith
diagonal entries that p does not divide. ``invariants_agree`` tests it at
p = 2 and p = 3. It is exact and needs no factoring, but it sees only how
many factors each of the two primes divides and the free rank: a change
within one prime's part that keeps that count (Z/4 + Z/4 against Z/2 +
Z/8), or a change at a prime >= 5 (Z/7 against Z/5), passes it.

A row is stored as int bitmasks, entry j in byte j (bit 8j upward): one
mask of the odd entries for F_2, and for F_3 one mask of the entries = 1
and one of the entries = 2 (mod 3). Elimination keeps a basis keyed by
each vector's highest set bit, so reducing a row is a few big-int
operations per basis vector met, not one operation per entry.
"""

from __future__ import annotations

from typing import Sequence

_BIT = (1).__and__  # x -> x & 1, the residue mod 2 of any int
_TRIT = (3).__rmod__  # x -> x % 3, in 0..2 for any int

Rows = tuple[tuple[int, ...], ...]  # linking rows, as ``homology.Rows``


def _mask(row: Sequence[int], residue) -> int:
    return int.from_bytes(bytes(map(residue, row)), "little")


def rank_mod2(rows: Sequence[Sequence[int]]) -> int:
    """Rank over F_2 of an integer matrix."""
    basis: dict[int, int] = {}
    for row in rows:
        v = _mask(row, _BIT)
        while v:
            top = v.bit_length()
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = v
                break
            v ^= pivot
    return len(basis)


def rank_mod3(rows: Sequence[Sequence[int]]) -> int:
    """Rank over F_3 of an integer matrix. A vector is the pair (a, b) of
    its masks of entries 1 and 2; its negative is (b, a). A basis vector's
    leading entry is 1, so a row is reduced by adding the basis vector
    (leading entry 2) or its negative (leading entry 1)."""
    basis: dict[int, tuple[int, int]] = {}
    ones = int.from_bytes(b"\x01" * max(map(len, rows), default=0), "little")
    for row in rows:
        v = _mask(row, _TRIT)
        a, b = v & ones, (v >> 1) & ones
        while a | b:
            top = (a | b).bit_length()
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = (a, b) if a >> (top - 1) else (b, a)
                break
            pa, pb = pivot if b >> (top - 1) else pivot[::-1]
            # bitsliced addition over F_3 (Kawahara, Aoki and Takagi, 2008)
            t = (a | pb) ^ (b | pa)
            a, b = (b | pb) ^ t, (a | pa) ^ t
    return len(basis)


def invariants_agree(factors: Sequence[int], free_rank: int, columns: int,
                     rows: Sequence[Sequence[int]]) -> bool:
    """Whether Z^free_rank + sum of Z/d for d in ``factors`` (each > 1) has,
    at p = 2 and p = 3, as many factors divisible by p as the cokernel of
    the integer matrix ``rows`` on ``columns`` columns. Rows may leave out
    trailing columns, and columns that are zero in every row may be left
    out altogether: neither changes a rank."""
    rank = columns - free_rank
    return (sum(d % 2 == 0 for d in factors) == rank - rank_mod2(rows)
            and sum(d % 3 == 0 for d in factors) == rank - rank_mod3(rows))


def relators_agree(factors: Sequence[int], free_rank: int, generators: int,
                   relators: Sequence[Sequence[int]]) -> bool:
    """``invariants_agree`` on the exponent sums of ``relators`` (words of
    signed generator indices) on ``generators`` generators, one column per
    generator some relator mentions (the other columns are zero)."""
    column = {x: j for j, x in enumerate({abs(x) for r in relators for x in r})}
    rows = []
    for r in relators:
        row = [0] * len(column)
        for x in r:
            row[column[abs(x)]] += 1 if x > 0 else -1
        rows.append(row)
    return invariants_agree(factors, free_rank, generators, rows)


# Move certificates (Gompf-Stipsicz, 4-Manifolds and Kirby Calculus, 5.1):
# each builds E and F from the old linking matrix and the move's arguments
# alone, as products of transvections (add k times line c to another line)
# and a column sign, so both are unimodular, and compares E L F with L'.


def _add_rows(m: list[list[int]], c: int, factors: dict[int, int]) -> None:
    """m <- E m: add factors[i] times row c to each row i != c."""
    pivot = m[c]
    for i, k in factors.items():
        m[i] = [a + k * b for a, b in zip(m[i], pivot)]


def _add_columns(m: list[list[int]], c: int, factors: dict[int, int]) -> None:
    """m <- m F: add factors[j] times column c to each column j != c."""
    for row in m:
        x = row[c]
        if x:
            for j, k in factors.items():
                row[j] += k * x


def blow_up_certified(old: Rows, new: Rows, region: list[int], s: int) -> bool:
    """E diag(L, s) F = L': add s times the new strand's row, whose only
    entry is s, to each region member's row, then the same for columns.
    With s = +-1 the block (s) splits off."""
    n = len(old)
    m = [[*row, 0] for row in old] + [[0] * n + [s]]
    factors = {i - 1: s for i in set(region)}
    _add_rows(m, n, factors)
    _add_columns(m, n, factors)
    return s in (1, -1) and tuple(map(tuple, m)) == new


def blow_down_certified(old: Rows, new: Rows, c: int) -> bool:
    """E L F = L' with the block (s) inserted at index c, s = L_cc = +-1: E
    subtracts s*L_ic times row c from each other row i, which with s^2 = 1
    clears column c off the diagonal; F, the same on columns, then clears
    row c and changes nothing else, so only E is applied."""
    m = [list(row) for row in old]
    s = m[c][c]
    _add_rows(m, c, {i: -s * x for i, x in enumerate(m[c]) if x and i != c})
    del m[c]
    for row in m:
        del row[c]
    return s in (1, -1) and tuple(map(tuple, m)) == new


def twist_certified(old: Rows, new: Rows, c: int, t: int) -> bool:
    """E L F = L': E adds t*L_ic times row c to each other row i; F negates
    column c when t*f = -2 (f = L_cc) and is the identity otherwise."""
    m = [list(row) for row in old]
    _add_rows(m, c, {i: t * x for i, x in enumerate(m[c]) if x and i != c})
    if t * old[c][c] == -2:
        for row in m:
            row[c] = -row[c]
    return tuple(map(tuple, m)) == new
