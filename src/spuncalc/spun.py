"""Spun-embedding targets for planar open books, plus the S^4 certificate.

For a twist-only word on a page with n holes, the per-boundary parities
determine the codimension-1 embedding target: every even parity gives an
S^2 x S^2 summand, every odd one a twisted summand, so the raw target has
exactly n summands. Reports carry the raw count pair alongside the
spin-aware normal form.

The sphere certificate handles pages with 2n holes grouped into pairs
(a_j, b_j) = (2j-1, 2j), where the word pushes each b_j once around a_j
and otherwise twists only along curves supported on the a-boundaries. The
certified condition is that every a_j collects an odd twist exponent sum
from the twist letters; the ambient open book is then a sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import (
    ConditionNotApplicableError,
    MalformedPairingError,
    PageMismatchError,
    PushLetterError,
    echo,
)
from .fourman import DIMENSION_RAISING_NOTE, FourManifoldForm, normalize, parity_form
from .planar import PlanarPage, PlanarPush, TwistWord, parity_vector, word_to_json


@dataclass(frozen=True)
class EmbeddingReport:
    """Target data for one planar open book."""

    page: PlanarPage
    word: TwistWord
    parity: tuple[int, ...]
    raw: FourManifoldForm
    normalized: FourManifoldForm

    @property
    def spin(self) -> bool:
        return self.raw.is_spin()

    def to_json(self) -> dict:
        return {
            "page": {"inner_count": self.page.inner_count},
            "word": word_to_json(self.word),
            "parity": list(self.parity),
            "raw": self.raw.to_json(),
            "normalized": self.normalized.to_json(),
            "spin": self.spin,
            "note": DIMENSION_RAISING_NOTE,
        }


def embedding_target(page: PlanarPage, word: TwistWord) -> EmbeddingReport:
    """Raw and normalized embedding target of a twist-only word.

    Raw counts: (even parities, odd parities); their sum is the hole count.
    Push letters are rejected; they belong to the sphere certificate.
    """
    if word.has_pushes():
        raise PushLetterError(
            "word contains push letters; route it through the sphere certificate"
        )
    if word.page != page:
        raise PageMismatchError("word was built on a different page")
    parity = parity_vector(word)
    raw = parity_form(parity)
    return EmbeddingReport(page=page, word=word, parity=parity, raw=raw,
                           normalized=normalize(raw))


# pairs an error names when pushes are missing; the count covers the rest
_MISSING_SHOWN = 5


def _certificate_pairs(page: PlanarPage) -> int:
    if page.inner_count % 2 != 0:
        raise MalformedPairingError(
            f"certificate pages pair their holes; {page.inner_count} is odd"
        )
    return page.inner_count // 2


def s4_parities(page: PlanarPage, word: TwistWord) -> tuple[int, ...]:
    """Twist-letter exponent parity collected by each a_j boundary.

    Validates the certificate preconditions: one push per pair, pushing
    b_j = 2j around exactly the a_j = 2j-1 curve with exponent one, and
    twist letters supported on a-boundaries only.
    """
    n = _certificate_pairs(page)
    seen_pushes: set[int] = set()
    totals = [0] * n
    a_indices = {2 * j - 1 for j in range(1, n + 1)}
    for gen, exp in word.letters:
        if isinstance(gen, PlanarPush):
            around = gen.around.sorted()
            if len(around) != 1 or gen.boundary != around[0] + 1 or gen.boundary % 2 != 0:
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
            if not gen.curve.enclosed <= a_indices:
                raise ConditionNotApplicableError(
                    f"twist curve {echo(gen.curve, str)} touches b-boundaries; the "
                    "certificate only judges words twisting a-boundaries"
                )
            for i in gen.curve.enclosed:
                totals[(i - 1) // 2] += exp
    missing = n - len(seen_pushes)
    if missing:
        first = list(islice((j for j in range(1, n + 1) if j not in seen_pushes),
                            _MISSING_SHOWN))
        more = " ..." if missing > len(first) else ""
        raise MalformedPairingError(
            f"{missing} of {n} pairs have no push letter: {first}{more}")
    return tuple(t % 2 for t in totals)


def s4_certificate(page: PlanarPage, word: TwistWord) -> bool:
    """True when every a_j twist parity is odd, certifying a sphere target."""
    return all(b == 1 for b in s4_parities(page, word))


def s4_target_name(page: PlanarPage) -> str:
    """Display name of the ambient open book the certificate points at."""
    n = _certificate_pairs(page)
    return f"OB(natural-sum^{2 * n} H_(1,1), twists o pushes) = S4"
