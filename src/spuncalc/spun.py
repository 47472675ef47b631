"""Spun-embedding targets for planar open books, plus the S^4 certificate.

Targets are connected sums of S^1 x S^3, S^2 x S^2 and S^2 x~ S^2
summands, and this is the one module that turns parities into them. For
a twist-only word on a page with n holes (its own page, ``word.page``),
every even parity gives an S^2 x S^2 summand and every odd one a twisted
summand (``parity_form``), so the raw target has exactly n summands.
Reports carry it alongside the spin-aware normal form (``normalize``):
one twisted summand absorbs the spin condition, so in a pure bundle sum
every trivial summand can be traded for a twisted one. Sums that mix
S^1 x S^3 with twisted bundles are kept symbolic.

The sphere certificate handles pages with 2n holes grouped into pairs
(a_j, b_j) = (2j-1, 2j), where the word pushes each b_j once around a_j
and otherwise twists only along curves supported on the a-boundaries. The
certified condition is that every a_j collects an odd twist exponent sum
from the twist letters (every entry of ``s4_parities`` is 1); the ambient
open book is then a sphere.

All statements are stable under suspension, raising every sphere
dimension by one; reports record that as a note rather than compute it.
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence

from .errors import (ConditionNotApplicableError, MalformedPairingError, PushLetterError,
                     SpuncalcError, Value, echo, require_integers)
from .planar import PlanarPage, PlanarPush, TwistWord, parity_vector, word_to_json

DIMENSION_RAISING_NOTE = (
    "stable under suspension: raising every sphere dimension by one embeds "
    "each atom's open book in its one-higher analogue"
)


class FourManifoldForm(Value):
    """Connected sum of S^1 x S^3, S^2 x S^2 and S^2 x~ S^2 summands.

    The empty form is the 4-sphere, the identity of connected sum.
    """

    __slots__ = ("s1_cross_sphere", "trivial_bundle", "twisted_bundle")

    def __init__(self, s1_cross_sphere: int = 0, trivial_bundle: int = 0,
                 twisted_bundle: int = 0) -> None:
        object.__setattr__(self, "s1_cross_sphere", s1_cross_sphere)
        object.__setattr__(self, "trivial_bundle", trivial_bundle)
        object.__setattr__(self, "twisted_bundle", twisted_bundle)
        require_integers(SpuncalcError, "summand counts must be integers",
                         s1_cross_sphere, trivial_bundle, twisted_bundle)
        if min(s1_cross_sphere, trivial_bundle, twisted_bundle) < 0:
            raise SpuncalcError("summand counts must be nonnegative")

    def is_spin(self) -> bool:
        return self.twisted_bundle == 0

    def connected_sum(self, other: FourManifoldForm) -> FourManifoldForm:
        return FourManifoldForm(
            s1_cross_sphere=self.s1_cross_sphere + other.s1_cross_sphere,
            trivial_bundle=self.trivial_bundle + other.trivial_bundle,
            twisted_bundle=self.twisted_bundle + other.twisted_bundle,
        )

    def describe(self) -> str:
        def block(count: int, name: str) -> str:
            return name if count == 1 else f"#^{count} {name}"

        parts = []
        if self.s1_cross_sphere:
            parts.append(block(self.s1_cross_sphere, "S1xS3"))
        if self.trivial_bundle:
            parts.append(block(self.trivial_bundle, "S2xS2"))
        if self.twisted_bundle:
            parts.append(block(self.twisted_bundle, "S2x~S2"))
        return " # ".join(parts) if parts else "S4"

    def to_json(self) -> dict:
        return {
            "dim": 2,  # the atom dimension m, a constant the report schema keeps
            "s1xs": self.s1_cross_sphere,
            "trivial": self.trivial_bundle,
            "twisted": self.twisted_bundle,
        }


def parity_form(entries: Sequence[int]) -> FourManifoldForm:
    """The bundle sum an exponent (or parity) sequence fixes: one S^2 x S^2
    summand per even entry and one S^2 x~ S^2 summand per odd one."""
    odd = sum(e % 2 for e in entries)
    return FourManifoldForm(trivial_bundle=len(entries) - odd, twisted_bundle=odd)


def normalize(form: FourManifoldForm) -> FourManifoldForm:
    """Canonical form: in a pure bundle sum with a twisted summand, every
    trivial summand is traded for a twisted one. Mixed sums (with an
    S^1 x S^3 summand) pass through unchanged."""
    if form.twisted_bundle >= 1 and form.s1_cross_sphere == 0:
        return FourManifoldForm(twisted_bundle=form.trivial_bundle + form.twisted_bundle)
    return form


class EmbeddingReport(Value):
    """Target data for one planar open book, on its word's page."""

    __slots__ = ("word", "parity", "raw", "normalized")

    def __init__(self, word: TwistWord, parity: tuple[int, ...], raw: FourManifoldForm,
                 normalized: FourManifoldForm) -> None:
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "normalized", normalized)

    @property
    def spin(self) -> bool:
        return self.raw.is_spin()

    def to_json(self) -> dict:
        return {
            "page": {"inner_count": self.word.page.inner_count},
            "word": word_to_json(self.word),
            "parity": list(self.parity),
            "raw": self.raw.to_json(),
            "normalized": self.normalized.to_json(),
            "spin": self.spin,
            "note": DIMENSION_RAISING_NOTE,
        }


def embedding_target(word: TwistWord) -> EmbeddingReport:
    """Raw and normalized embedding target of a twist-only word.

    Raw counts: (even parities, odd parities); their sum is the hole count
    of the word's page.
    Push letters are rejected; they belong to the sphere certificate.
    """
    if word.has_pushes():
        raise PushLetterError(
            "word contains push letters; route it through the sphere certificate"
        )
    parity = parity_vector(word)
    raw = parity_form(parity)
    return EmbeddingReport(word=word, parity=parity, raw=raw, normalized=normalize(raw))


# pairs an error names when pushes are missing; the count covers the rest
_MISSING_SHOWN = 5


def _certificate_pairs(page: PlanarPage) -> int:
    if page.inner_count % 2 != 0:
        raise MalformedPairingError(
            f"certificate pages pair their holes; {page.inner_count} is odd"
        )
    return page.inner_count // 2


def s4_parities(word: TwistWord) -> tuple[int, ...]:
    """Twist-letter exponent parity collected by each a_j boundary of the
    word's page.

    Validates the certificate preconditions: one push per pair, pushing
    b_j = 2j around exactly the a_j = 2j-1 curve with exponent one, and
    twist letters supported on a-boundaries only.
    """
    n = _certificate_pairs(word.page)
    seen_pushes: set[int] = set()
    a_runs = {(a, a) for a in range(1, 2 * n, 2)}  # each a-boundary as its run
    for gen, exp in word.letters:
        if isinstance(gen, PlanarPush):
            a = gen.boundary - 1
            if gen.around.runs != ((a, a),) or gen.boundary % 2 != 0:
                raise MalformedPairingError(
                    f"push {echo(gen, str)} does not push a b-boundary around its a-partner"
                )
            j = gen.boundary // 2
            if j in seen_pushes:
                raise MalformedPairingError(f"pair {j} is pushed more than once")
            if exp != 1:
                raise MalformedPairingError(
                    f"push for pair {j} must appear with exponent one, got {echo(exp)}"
                )
            seen_pushes.add(j)
        else:
            if not a_runs.issuperset(gen.curve.runs):
                raise ConditionNotApplicableError(
                    f"twist curve {echo(gen.curve, str)} touches b-boundaries; the "
                    "certificate only judges words twisting a-boundaries"
                )
    missing = n - len(seen_pushes)
    if missing:
        first = list(islice((j for j in range(1, n + 1) if j not in seen_pushes),
                            _MISSING_SHOWN))
        more = " ..." if missing > len(first) else ""
        raise MalformedPairingError(
            f"{missing} of {n} pairs have no push letter: {first}{more}")
    # a push P{2j|2j-1} changes only the sum of b_j = 2j, so the twist
    # letters alone set the sums of the a_j = 2j-1: the odd holes' entries
    return parity_vector(word)[::2]


def s4_target_name(page: PlanarPage) -> str:
    """Display name of the ambient open book the certificate points at."""
    n = _certificate_pairs(page)
    return f"OB(natural-sum^{2 * n} H_(1,1), twists o pushes) = S4"
