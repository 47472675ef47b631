"""Planar pages, curve classes, and twist words.

A planar page is a disk with ``inner_count`` holes. A curve on it is kept
only up to homology, i.e. as the set of inner boundary components it
encloses; the full set stands for a curve parallel to the outer boundary.
Words are sequences of Dehn twist letters and push letters with integer
exponents. Since every downstream computation factors through exponent
sums per boundary component (and usually their parities), this is all the
curve data the calculus ever needs.

A push letter ``PlanarPush(b, a)`` drags inner boundary ``b`` around a
curve of class ``a`` and back; on the level of twists it expands to
``twist(a) . twist(a | {b})^-1``, which generalizes the three-holed case
(push one inner component around the other = inner twist times inverse
outer twist) to any planar page. The pair cancels on ``a``, so a push with
exponent e adds -e to the sum of boundary ``b`` and nothing else.

Letters are checked once, when ``twist`` or ``push`` builds them: every
index and exponent must be an int (never coerced: int() would read 2.9 as
2), and every index at least 1. A word checks that its letters fit its page.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

from .errors import InvalidWordError, PageMismatchError, SpuncalcError


@dataclass(frozen=True)
class PlanarPage:
    """Disk with ``inner_count`` holes; 0 holes is the disk page itself."""

    inner_count: int

    def __post_init__(self) -> None:
        if self.inner_count < 0:
            raise InvalidWordError("inner_count must be nonnegative")

    def boundary_curve(self, i: int) -> CurveClass:
        """Curve parallel to the i-th inner boundary (1-based)."""
        if not 1 <= i <= self.inner_count:
            raise InvalidWordError(f"no inner boundary {i} on a page with {self.inner_count}")
        return CurveClass(frozenset({i}))

    def outer_curve(self) -> CurveClass:
        """Curve parallel to the outer boundary: encloses every hole."""
        if self.inner_count == 0:
            raise InvalidWordError("the disk page has no essential curves")
        return CurveClass(frozenset(range(1, self.inner_count + 1)))


@dataclass(frozen=True)
class CurveClass:
    """Homology class of a simple closed curve: the holes it encloses."""

    enclosed: frozenset[int]

    def __post_init__(self) -> None:
        enclosed = self.enclosed
        if not enclosed:
            raise InvalidWordError("a curve must enclose at least one inner boundary")
        if set(map(type, enclosed)) != {int}:
            raise InvalidWordError(
                f"boundary indices must be integers, got {sorted(enclosed, key=repr)}"
            )
        if min(enclosed) < 1:
            raise InvalidWordError("boundary indices are 1-based")

    def valid_on(self, page: PlanarPage) -> bool:
        return max(self.enclosed) <= page.inner_count

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.enclosed))

    def __str__(self) -> str:
        return "{%s}" % ",".join(str(i) for i in self.sorted())


@dataclass(frozen=True)
class DehnTwist:
    curve: CurveClass

    def check(self, page: PlanarPage) -> None:
        if not self.curve.valid_on(page):
            raise InvalidWordError(f"curve {self.curve} does not fit on a page with "
                                   f"{page.inner_count} inner boundaries")

    def __str__(self) -> str:
        return f"T{self.curve}"


@dataclass(frozen=True)
class PlanarPush:
    """Push inner boundary ``boundary`` around a curve of class ``around``."""

    boundary: int
    around: CurveClass

    def check(self, page: PlanarPage) -> None:
        if not 1 <= self.boundary <= page.inner_count:
            raise InvalidWordError(f"pushed boundary {self.boundary} out of range")
        if not self.around.valid_on(page):
            raise InvalidWordError(f"curve {self.around} does not fit on the page")
        if self.boundary in self.around.enclosed:
            raise InvalidWordError("a boundary cannot be pushed around a curve enclosing it")

    def __str__(self) -> str:
        return f"P{{{self.boundary}|{','.join(map(str, self.around.sorted()))}}}"


Generator = Union[DehnTwist, PlanarPush]
Letter = tuple[Generator, int]


def _letter(gen: Generator, exponent: int) -> Letter:
    if type(exponent) is not int:
        raise InvalidWordError(f"exponents must be integers, got {exponent!r}")
    return gen, exponent


def twist(enclosed: Iterable[int], exponent: int = 1) -> Letter:
    """Letter: Dehn twist along the curve enclosing ``enclosed``."""
    return _letter(DehnTwist(CurveClass(frozenset(enclosed))), exponent)


def push(boundary: int, around: Iterable[int], exponent: int = 1) -> Letter:
    """Letter: push ``boundary`` around the curve enclosing ``around``."""
    if type(boundary) is not int:
        raise InvalidWordError(f"a pushed boundary must be an integer, got {boundary!r}")
    return _letter(PlanarPush(boundary, CurveClass(frozenset(around))), exponent)


@dataclass(frozen=True)
class TwistWord:
    """Word of (generator, exponent) letters on a fixed ambient page; the
    letters come from ``twist`` and ``push``, which checked their fields."""

    page: PlanarPage
    letters: tuple[Letter, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for gen, _ in self.letters:
            gen.check(self.page)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def has_pushes(self) -> bool:
        return any(isinstance(gen, PlanarPush) for gen, _ in self.letters)

    def __str__(self) -> str:
        return word_to_text(self)


def _check_same_page(w1: TwistWord, w2: TwistWord) -> None:
    if w1.page != w2.page:
        raise PageMismatchError(
            f"words live on different pages ({w1.page.inner_count} vs {w2.page.inner_count} holes)"
        )


def compose(w1: TwistWord, w2: TwistWord) -> TwistWord:
    """Concatenation: first apply w1's letters, then w2's."""
    _check_same_page(w1, w2)
    return TwistWord(w1.page, w1.letters + w2.letters)


def invert(w: TwistWord) -> TwistWord:
    """Formal inverse: reverse the letters and negate every exponent."""
    return TwistWord(w.page, tuple((gen, -exp) for gen, exp in reversed(w.letters)))


def simplify(w: TwistWord) -> TwistWord:
    """Merge adjacent letters with equal generators, drop zero exponents."""
    stack: list[Letter] = []
    for gen, exp in w.letters:
        if stack and stack[-1][0] == gen:
            merged = stack[-1][1] + exp
            stack.pop()
            if merged:
                stack.append((gen, merged))
        elif exp:
            stack.append((gen, exp))
    return TwistWord(w.page, tuple(stack))


def exponent_vector(word: TwistWord) -> tuple[int, ...]:
    """Exponent sum per inner boundary: a twist adds its exponent to every
    hole it encloses, a push ``P{b|a}^e`` adds -e to ``b`` alone.

    The letters were checked against ``word.page`` when the word was built."""
    totals = [0] * word.page.inner_count
    for gen, exp in word.letters:
        if isinstance(gen, DehnTwist):
            for i in gen.curve.enclosed:
                totals[i - 1] += exp
        else:
            totals[gen.boundary - 1] -= exp
    return tuple(totals)


def parity_vector(word: TwistWord) -> tuple[int, ...]:
    """Exponent vector reduced mod 2."""
    return tuple(e % 2 for e in exponent_vector(word))


_TWIST_RE = re.compile(r"^T\{(\d+(?:,\d+)*)\}(?:\^(-?\d+))?$")
_PUSH_RE = re.compile(r"^P\{(\d+)\|(\d+(?:,\d+)*)\}(?:\^(-?\d+))?$")


def parse_word(text: str, page: PlanarPage) -> TwistWord:
    """Parse the whitespace-separated text form, e.g. ``T{1,2}^3 P{4|1,2}``."""
    letters: list[Letter] = []
    try:
        for token in text.split():
            m = _TWIST_RE.match(token)
            if m:
                subset = [int(s) for s in m.group(1).split(",")]
                exp = int(m.group(2)) if m.group(2) else 1
                letters.append(twist(subset, exp))
                continue
            m = _PUSH_RE.match(token)
            if m:
                subset = [int(s) for s in m.group(2).split(",")]
                exp = int(m.group(3)) if m.group(3) else 1
                letters.append(push(int(m.group(1)), subset, exp))
                continue
            raise InvalidWordError(f"unrecognized word letter: {token!r}")
    except SpuncalcError:
        raise
    except ValueError:  # int() refuses more than 4,300 digits
        raise InvalidWordError(f"integer too long in word letter {len(letters) + 1}") from None
    return TwistWord(page, tuple(letters))


def word_to_text(word: TwistWord) -> str:
    parts = []
    for gen, exp in word.letters:
        parts.append(str(gen) if exp == 1 else f"{gen}^{exp}")
    return " ".join(parts)


def word_to_json(word: TwistWord) -> list[dict]:
    out = []
    for gen, exp in word.letters:
        if isinstance(gen, DehnTwist):
            out.append({"op": "twist", "curve": list(gen.curve.sorted()), "exp": exp})
        else:
            out.append({
                "op": "push",
                "boundary": gen.boundary,
                "around": list(gen.around.sorted()),
                "exp": exp,
            })
    return out


def word_from_json(data: list | dict, page: PlanarPage) -> TwistWord:
    if isinstance(data, dict):
        data = data.get("letters", [])
    if not isinstance(data, list):
        raise InvalidWordError(f"a JSON word's letters must be a list, got {data!r}")
    letters: list[Letter] = []
    for item in data:
        if not isinstance(item, dict):
            raise InvalidWordError(f"a JSON word letter must be an object, got {item!r}")
        op = item.get("op")
        if op not in ("twist", "push"):
            raise InvalidWordError(f"unknown letter op: {op!r}")
        exp = item.get("exp", 1)
        try:
            if op == "twist":
                letters.append(twist(item["curve"], exp))
            else:
                letters.append(push(item["boundary"], item["around"], exp))
        except KeyError as exc:
            raise InvalidWordError(f"{op} letter {item!r} has no {exc} field") from None
        except InvalidWordError as exc:  # twist and push check every field
            raise InvalidWordError(f"{op} letter {item!r}: {exc}") from None
        except TypeError:  # a curve that is no collection, e.g. a number
            raise InvalidWordError(f"{op} letter {item!r} needs a list of integers") from None
    return TwistWord(page, tuple(letters))


def load_word(text: str, page: PlanarPage) -> TwistWord:
    """Parse either the text form or the JSON form, sniffing the format."""
    stripped = text.strip()
    if stripped.startswith("[") or stripped.startswith("{"):
        # ValueError also covers too many digits, RecursionError too deep nesting
        try:
            data = json.loads(stripped)
        except (ValueError, RecursionError) as exc:
            raise InvalidWordError(f"malformed JSON word: {exc}") from None
        return word_from_json(data, page)
    return parse_word(stripped, page)
