"""Lens-space pipeline: continued fractions, plumbings, slides, targets.

``L(p, q)`` is -p/q surgery on an unknot. Expanding -p/q as a negative
continued fraction [a_1, ..., a_k] (all a_i <= -2) gives a linear plumbing
whose tridiagonal matrix presents the homology. Sliding each unknot over
the previous one turns the plumbing chain into a closed k-braid whose
strand framings are b_i = a_1 + ... + a_i + 2(i-1); working out the slide
congruence on the linking matrix shows two strands i < j link with
b_i + 1. (Summing crossing contributions naively per pair would give
a_i + 1 instead, but that matrix does not present Z/p; the congruence
value does.) Each object stores one form: the plumbing chain its diagonal
a_i, the slid diagram its framings b_i. The links b_i + 1 and the twist
region counts b_r - b_{r-1} are derived from the framings when read.

The slid diagram's planar open book has one hole per strand and the word
T{i}^1 on every hole i, then T{r..k}^(-t_r) for each twist region r. A
letter T_S^e is e right-handed twists about the curve enclosing the holes
S, and a right-handed twist is a surgery of framing -1 relative to the
page: letters carry the sign opposite to framings. A planar open book's
3-manifold has H1 = coker V, with variation matrix
V_ij = sum of e [i in S] [j in S] over the letters. As
t_1 + ... + t_m = b_m + 1, here V_ij = delta_ij - (t_1 + ... + t_min(i,j))
= -L_ij, minus the slid linking matrix, so the word presents H1 = Z/p.
Its parities V_ii = -b_i mod 2 are the reduced sequence
psi_j = a_1 + ... + a_j mod 2 that governs the embedding target: every
even partial sum contributes a trivial bundle summand, every odd one a
twisted summand. Each suffix curve is stored as its one run (r, k) and
written as one (``T{r..k}`` in text, ``[[r, k]]`` in JSON), so the word
and its report grow linearly in k.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd

from .errors import SpuncalcError, Value, echo, require_integers, unchecked
from .homology import min_structured_det
from .planar import CurveClass, DehnTwist, PlanarPage, TwistWord, parity_vector
from .spun import FourManifoldForm, normalize, parity_form
from .surgery import FramedBraidDiagram


class ContinuedFraction(Value):
    """Negative continued fraction: every coefficient at most -2."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]) -> None:
        coeffs = tuple(coefficients)
        require_integers(SpuncalcError, "coefficients must be integers", *coeffs)
        object.__setattr__(self, "coefficients", coeffs)
        if not coeffs:
            raise SpuncalcError("a continued fraction needs at least one coefficient")
        if any(a > -2 for a in coeffs):
            raise SpuncalcError(f"coefficients must be <= -2, got {echo(list(coeffs))}")


def _check_lens_input(p: int, q: int) -> None:
    if not (0 < q < p):
        raise SpuncalcError(f"need 0 < q < p, got p={echo(p)}, q={echo(q)}")
    if gcd(p, q) != 1:
        raise SpuncalcError(f"p={echo(p)} and q={echo(q)} are not coprime")


# most coefficients cf_expand returns: L(p, p - 1) expands to p - 1 of
# them, so a short argv could otherwise ask for a word and a report of any
# length; both grow linearly in k, the word storing one run per curve
MAX_CF_LENGTH = 2_000


def cf_expand(p: int, q: int) -> ContinuedFraction:
    """The unique expansion -p/q = a_1 - 1/(a_2 - ...) with all a_i <= -2,
    when it has at most MAX_CF_LENGTH coefficients."""
    _check_lens_input(p, q)
    coeffs = []
    num, den = p, q
    for _ in range(MAX_CF_LENGTH):
        a = -((num + den - 1) // den)  # -ceil(num/den)
        coeffs.append(a)
        r = (-a) * den - num
        if r == 0:
            return ContinuedFraction(tuple(coeffs))
        num, den = den, r
    raise SpuncalcError(
        f"-{echo(p)}/{echo(q)} has a continued fraction of more than {MAX_CF_LENGTH} coefficients")


def cf_eval(c: ContinuedFraction) -> tuple[int, int]:
    """Exact value, evaluated right to left, as the pair (num, den) with
    den > 0: reduced, since each step multiplies it by the determinant-1
    matrix ((a, -1), (1, 0)), which keeps gcd(num, den) = 1."""
    num, den = c.coefficients[-1], 1
    for a in reversed(c.coefficients[:-1]):
        # tails of an admissible expansion never vanish
        if num == 0:
            raise SpuncalcError(f"a tail of {echo(list(c.coefficients))} vanishes")
        num, den = a * num - den, num
    return (num, den) if den > 0 else (-num, -den)


class PlumbingChain(Value):
    """Intersection matrix of the linear plumbing chain, stored as its
    diagonal: the coefficients a_i, with 1 between neighbours and 0
    elsewhere."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...]) -> None:
        object.__setattr__(self, "coefficients", coefficients)

    def det(self) -> int:
        """Continuant recurrence D_i = a_i D_{i-1} - D_{i-2} on the leading
        principal minors, in O(k)."""
        prev2, prev1 = 0, 1
        for a in self.coefficients:
            prev2, prev1 = prev1, a * prev1 - prev2
        return prev1


def plumbing_matrix(c: ContinuedFraction) -> PlumbingChain:
    """Intersection matrix of the linear plumbing chain of ``c``."""
    return PlumbingChain(c.coefficients)


class SlidLensDiagram(Value):
    """Closed k-braid produced by the chain of handle slides, stored as its
    framings alone: ``framings[i-1]`` is b_i. Everything else is derived:
    strands i < j link with ``links[i-1]`` = b_i + 1 (the value depends
    only on the smaller index), and ``twist_regions[r-1]``, the number of
    full twists around strands r..k, is t_1 = b_1 + 1 and
    t_r = b_r - b_{r-1} = a_r + 2 for r >= 2.
    """

    __slots__ = ("framings",)

    def __init__(self, framings: tuple[int, ...]) -> None:
        object.__setattr__(self, "framings", framings)

    @property
    def strands(self) -> int:
        return len(self.framings)

    @property
    def links(self) -> tuple[int, ...]:
        return tuple(b + 1 for b in self.framings[:-1])

    @property
    def twist_regions(self) -> tuple[int, ...]:
        return tuple(b - prev for prev, b in zip((-1, *self.framings), self.framings))

    def linking(self, i: int, j: int) -> int:
        if i == j:
            return self.framings[i - 1]
        return self.framings[min(i, j) - 1] + 1

    def linking_det(self) -> int:
        """Exact determinant of the linking matrix in O(k), exploiting the
        min-structure of the off-diagonal entries."""
        values = [*self.links, self.framings[-1]]
        return min_structured_det(values, list(self.framings))

    def as_braid_diagram(self) -> FramedBraidDiagram:
        """Realize the linking data as a pure braid word: one letter
        A_ij^n per linked pair, in index order."""
        k = self.strands
        word = tuple((i, j, n) for i, n in enumerate(self.links, 1) if n
                     for j in range(i + 1, k + 1))
        return FramedBraidDiagram(strands=k, braid_word=word, framings=self.framings)

    def to_json(self) -> dict:
        return {
            "framings": list(self.framings),
            "links": list(self.links),
            "twist_regions": list(self.twist_regions),
        }


def slid_diagram(c: ContinuedFraction) -> SlidLensDiagram:
    """b_i = a_1 + ... + a_i + 2(i-1)."""
    return SlidLensDiagram(tuple(s + 2 * i for i, s in enumerate(accumulate(c.coefficients))))


def lens_open_book(sd: SlidLensDiagram) -> tuple[PlanarPage, TwistWord]:
    """Monodromy word of the slid diagram: T{i}^1 per hole, then
    T{r..k}^(-t_r) per twist region. Its variation matrix is minus the
    linking matrix, so it presents H1 = Z/p and its parities are
    psi_parity(c) for the expansion c that ``sd`` was slid from. Zero
    exponents are kept so the word mirrors the diagram. Every curve is one
    run of holes in range, so each is built unchecked as that run, and so
    is the word: the word stores 2k runs, and is written in O(k)."""
    k = sd.strands
    page = PlanarPage(k)
    letters = [(DehnTwist(unchecked(CurveClass, runs=((i, i),))), 1) for i in range(1, k + 1)]
    letters += [(DehnTwist(unchecked(CurveClass, runs=((r, k),))), -t)
                for r, t in enumerate(sd.twist_regions, start=1)]
    return page, unchecked(TwistWord, page=page, letters=tuple(letters))


def psi_parity(c: ContinuedFraction) -> tuple[int, ...]:
    """Parity of the reduced twist exponents: entry j is a_1+...+a_j mod 2."""
    return tuple(s % 2 for s in accumulate(c.coefficients))


class LensReconciliation(Value):
    """The parities of a lens word next to the reduced parities psi;
    ``agree`` is the hard check that the word governs the target."""

    __slots__ = ("word_parity", "psi")

    def __init__(self, word_parity: tuple[int, ...], psi: tuple[int, ...]) -> None:
        object.__setattr__(self, "word_parity", word_parity)
        object.__setattr__(self, "psi", psi)

    @property
    def agree(self) -> bool:
        return self.word_parity == self.psi


def reconcile(c: ContinuedFraction, word: TwistWord) -> LensReconciliation:
    """Parities of ``word``, the monodromy word of ``slid_diagram(c)``,
    next to the reduced parities psi_parity(c)."""
    return LensReconciliation(word_parity=parity_vector(word), psi=psi_parity(c))


def lens_embedding_target(p: int, q: int) -> FourManifoldForm:
    """Normalized embedding target of L(p, q): k trivial bundle summands
    when every coefficient is even, k twisted summands otherwise."""
    return normalize(parity_form(psi_parity(cf_expand(p, q))))
