"""Ranks over F_2 and F_3 of integer matrices, and the check on invariant
factors they give. Nothing here calls the Smith form or any other code in
``homology``, so it is an independent oracle for what that computes.

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
