"""Lens-space pipeline: continued fractions, plumbings, slides, targets.

``L(p, q)`` is -p/q surgery on an unknot. Expanding -p/q as a negative
continued fraction [a_1, ..., a_k] (all a_i <= -2) gives a linear plumbing
whose tridiagonal matrix presents the homology. Sliding each unknot over
the previous one turns the plumbing chain into a closed k-braid whose
strand framings are b_i = a_1 + ... + a_i + 2(i-1); working out the slide
congruence on the linking matrix shows two strands i < j link with
b_i + 1. (Summing crossing contributions naively per pair would give
a_i + 1 instead, but that matrix does not present Z/p; the congruence
value does, and it is what this module stores.)

The braid admits a planar open book whose raw monodromy word is emitted
for inspection. Its per-boundary parities disagree with the reduced
exponent sequence psi_j = a_1 + ... + a_j that governs the embedding
target, so both are reported side by side and the disagreement is flagged
rather than silently reconciled; the target computation always uses the
reduced sequence: every even partial sum contributes a trivial bundle
summand, every odd one a twisted summand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import SpuncalcError, echo, require_integers
from .fourman import FourManifoldForm, normalize, parity_form
from .homology import min_structured_det
from .planar import PlanarPage, TwistWord, parity_vector, twist
from .surgery import FramedBraidDiagram


@dataclass(frozen=True)
class ContinuedFraction:
    """Negative continued fraction: every coefficient at most -2."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coefficients)
        require_integers(SpuncalcError, "coefficients must be integers", *coeffs)
        object.__setattr__(self, "coefficients", coeffs)
        if not coeffs:
            raise SpuncalcError("a continued fraction needs at least one coefficient")
        if any(a > -2 for a in coeffs):
            raise SpuncalcError(f"coefficients must be <= -2, got {echo(list(coeffs))}")

    def __len__(self) -> int:
        return len(self.coefficients)


def _check_lens_input(p: int, q: int) -> None:
    if not (0 < q < p):
        raise SpuncalcError(f"need 0 < q < p, got p={echo(p)}, q={echo(q)}")
    if gcd(p, q) != 1:
        raise SpuncalcError(f"p={echo(p)} and q={echo(q)} are not coprime")


def cf_expand(p: int, q: int) -> ContinuedFraction:
    """The unique expansion -p/q = a_1 - 1/(a_2 - ...) with all a_i <= -2."""
    _check_lens_input(p, q)
    coeffs = []
    while True:
        a = -((p + q - 1) // q)  # -ceil(p/q)
        coeffs.append(a)
        r = (-a) * q - p
        if r == 0:
            break
        p, q = q, r
    return ContinuedFraction(tuple(coeffs))


def cf_eval(c: ContinuedFraction) -> Fraction:
    """Exact value, evaluated right to left."""
    num, den = c.coefficients[-1], 1
    for a in reversed(c.coefficients[:-1]):
        # tails of an admissible expansion never vanish
        if num == 0:
            raise SpuncalcError(f"a tail of {echo(list(c.coefficients))} vanishes")
        num, den = a * num - den, num
    return Fraction(num, den)


@dataclass(frozen=True)
class PlumbingChain:
    """Intersection matrix of the linear plumbing chain, stored as its
    diagonal: the coefficients a_i, with 1 between neighbours and 0
    elsewhere."""

    coefficients: tuple[int, ...]

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


@dataclass(frozen=True)
class SlidLensDiagram:
    """Closed k-braid produced by the chain of handle slides.

    ``framings[i]`` is b_{i+1}; strands i < j link with ``links[i-1]``
    (value depends only on the smaller index); ``twist_regions[i]`` is the
    number of full twists around strands i+1..k.
    """

    framings: tuple[int, ...]
    links: tuple[int, ...]
    twist_regions: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.links) != max(len(self.framings) - 1, 0):
            raise SpuncalcError("need one linking value per adjacent strand pair")
        if len(self.twist_regions) != len(self.framings):
            raise SpuncalcError("need one twist region per strand")

    @property
    def strands(self) -> int:
        return len(self.framings)

    def linking(self, i: int, j: int) -> int:
        if i == j:
            return self.framings[i - 1]
        return self.links[min(i, j) - 1]

    def linking_det(self) -> int:
        """Exact determinant of the linking matrix in O(k), exploiting the
        min-structure of the off-diagonal entries."""
        if self.strands == 0:
            return 1
        values = list(self.links) + [self.framings[-1]]
        return min_structured_det(values, list(self.framings))

    def as_braid_diagram(self) -> FramedBraidDiagram:
        """Realize the linking data as a pure braid word: one letter
        A_ij^n per linked pair, in index order."""
        k = self.strands
        word = tuple((i, j, self.links[i - 1]) for i in range(1, k)
                     for j in range(i + 1, k + 1) if self.links[i - 1])
        return FramedBraidDiagram(strands=k, braid_word=word, framings=self.framings)

    def to_json(self) -> dict:
        return {
            "framings": list(self.framings),
            "links": list(self.links),
            "twist_regions": list(self.twist_regions),
        }


def slid_diagram(c: ContinuedFraction) -> SlidLensDiagram:
    a = c.coefficients
    k = len(a)
    partial = []
    s = 0
    for i, ai in enumerate(a):
        s += ai
        partial.append(s)
    framings = tuple(partial[i] + 2 * i for i in range(k))
    links = tuple(framings[i] + 1 for i in range(k - 1))
    twist_regions = tuple([a[0] + 1] + [ai + 2 for ai in a[1:]])
    return SlidLensDiagram(framings=framings, links=links, twist_regions=twist_regions)


def lens_open_book(c: ContinuedFraction, sd: SlidLensDiagram | None = None,
                   ) -> tuple[PlanarPage, TwistWord]:
    """Raw monodromy word read off the slid diagram ``sd`` (built from
    ``c`` when not given): b_i boundary twists per strand plus one twist
    per twist region. Zero exponents are kept so the word mirrors the
    diagram; see reconcile(c, word) before trusting its parities."""
    if sd is None:
        sd = slid_diagram(c)
    k = sd.strands
    page = PlanarPage(k)
    letters = [twist({i}, sd.framings[i - 1]) for i in range(1, k + 1)]
    letters.append(twist(range(1, k + 1), sd.twist_regions[0]))
    for i in range(2, k + 1):
        letters.append(twist(range(i, k + 1), sd.twist_regions[i - 1]))
    return page, TwistWord(page, tuple(letters))


def psi_parity(c: ContinuedFraction) -> tuple[int, ...]:
    """Parity of the reduced twist exponents: entry j is a_1+...+a_j mod 2."""
    out = []
    s = 0
    for a in c.coefficients:
        s += a
        out.append(s % 2)
    return tuple(out)


@dataclass(frozen=True)
class LensReconciliation:
    """Side-by-side parities of the raw diagram word and the reduced
    exponents; ``agree`` is False whenever they differ (they usually do)."""

    word_parity: tuple[int, ...]
    psi: tuple[int, ...]

    @property
    def agree(self) -> bool:
        return self.word_parity == self.psi

    def to_json(self) -> dict:
        return {
            "word_parity": list(self.word_parity),
            "psi_parity": list(self.psi),
            "agree": self.agree,
        }


def reconcile(c: ContinuedFraction, word: TwistWord) -> LensReconciliation:
    """Parities of ``word``, the raw monodromy word lens_open_book(c)
    returned, next to the reduced parities psi_parity(c)."""
    return LensReconciliation(word_parity=parity_vector(word), psi=psi_parity(c))


def lens_embedding_target(p: int, q: int) -> FourManifoldForm:
    """Normalized embedding target of L(p, q): k trivial bundle summands
    when every coefficient is even, k twisted summands otherwise."""
    return normalize(parity_form(psi_parity(cf_expand(p, q))))
