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

Every index and exponent must be an int (never coerced: int() would read
2.9 as 2), and every index at least 1; ``twist`` and ``push`` check this
for the letter they build. A word is a sequence over a small alphabet of
generators, so it is read over its distinct generators: ``parse_word``
builds and checks the generator of each distinct generator text (``T{1,3}``,
``P{2|1}``) once per word, and ``word_from_json`` that of each distinct
curve, keyed only once every index has passed ``type(i) is int`` (``True ==
1 == 1.0`` hash alike, so ``[true]`` and ``[1.0]`` would otherwise reuse the
generator of ``[1]``). Every exponent is still checked at every letter. A
word checks each distinct generator object against its page once; a curve
sorts its indices once, when it is built, and ``word_to_text`` formats each
distinct generator once per word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

from .errors import InvalidWordError, PageMismatchError, SpuncalcError, echo, parse_json


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
            raise InvalidWordError(f"no inner boundary {echo(i)} on a page with {self.inner_count}")
        return CurveClass(frozenset({i}))

    def outer_curve(self) -> CurveClass:
        """Curve parallel to the outer boundary: encloses every hole."""
        if self.inner_count == 0:
            raise InvalidWordError("the disk page has no essential curves")
        return CurveClass(frozenset(range(1, self.inner_count + 1)))


@dataclass(frozen=True)
class CurveClass:
    """Homology class of a simple closed curve: the holes it encloses.
    The indices are sorted once, when the curve is built: the bounds
    checks and the writers read them in order."""

    enclosed: frozenset[int]
    _sorted: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        enclosed = self.enclosed
        if not enclosed:
            raise InvalidWordError("a curve must enclose at least one inner boundary")
        if set(map(type, enclosed)) != {int}:
            raise InvalidWordError(
                f"boundary indices must be integers, got {echo(sorted(enclosed, key=repr))}"
            )
        indices = tuple(sorted(enclosed))
        if indices[0] < 1:
            raise InvalidWordError("boundary indices are 1-based")
        object.__setattr__(self, "_sorted", indices)

    def valid_on(self, page: PlanarPage) -> bool:
        return self._sorted[-1] <= page.inner_count

    def sorted(self) -> tuple[int, ...]:
        return self._sorted

    def __str__(self) -> str:
        return "{%s}" % ",".join(map(str, self._sorted))


@dataclass(frozen=True)
class DehnTwist:
    curve: CurveClass

    def check(self, page: PlanarPage) -> None:
        if not self.curve.valid_on(page):
            raise InvalidWordError(f"curve {echo(self.curve, str)} does not fit on a page with "
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
            raise InvalidWordError(f"pushed boundary {echo(self.boundary)} out of range")
        if not self.around.valid_on(page):
            raise InvalidWordError(f"curve {echo(self.around, str)} does not fit on the page")
        if self.boundary in self.around.enclosed:
            raise InvalidWordError("a boundary cannot be pushed around a curve enclosing it")

    def __str__(self) -> str:
        return f"P{{{self.boundary}|{','.join(map(str, self.around.sorted()))}}}"


Generator = Union[DehnTwist, PlanarPush]
Letter = tuple[Generator, int]


def _letter(gen: Generator, exponent: int) -> Letter:
    if type(exponent) is not int:
        raise InvalidWordError(f"exponents must be integers, got {echo(exponent)}")
    return gen, exponent


def _twist_gen(enclosed: Iterable[int]) -> DehnTwist:
    return DehnTwist(CurveClass(frozenset(enclosed)))


def _push_gen(boundary: int, around: Iterable[int]) -> PlanarPush:
    if type(boundary) is not int:
        raise InvalidWordError(f"a pushed boundary must be an integer, got {echo(boundary)}")
    return PlanarPush(boundary, CurveClass(frozenset(around)))


def twist(enclosed: Iterable[int], exponent: int = 1) -> Letter:
    """Letter: Dehn twist along the curve enclosing ``enclosed``."""
    return _letter(_twist_gen(enclosed), exponent)


def push(boundary: int, around: Iterable[int], exponent: int = 1) -> Letter:
    """Letter: push ``boundary`` around the curve enclosing ``around``."""
    return _letter(_push_gen(boundary, around), exponent)


def _distinct(letters: Iterable[Letter]) -> Iterable[Generator]:
    """The distinct generator objects of ``letters``, in the order of their
    first letter."""
    return {id(gen): gen for gen, _ in letters}.values()


@dataclass(frozen=True)
class TwistWord:
    """Word of (generator, exponent) letters on a fixed ambient page; the
    letters come from ``twist``, ``push`` or the parsers, which checked
    their fields. Each distinct generator object is checked against the
    page once, in the order of its first letter."""

    page: PlanarPage
    letters: tuple[Letter, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for gen in _distinct(self.letters):
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


# a letter: the generator text (group 1: a twist's curve, or a push's
# boundary and curve), then an optional exponent
_LETTER_RE = re.compile(r"(T\{(\d+(?:,\d+)*)\}|P\{(\d+)\|(\d+(?:,\d+)*)\})(?:\^(-?\d+))?")


def _curve_text(indices: str) -> CurveClass:
    return CurveClass(frozenset(map(int, indices.split(","))))


def parse_word(text: str, page: PlanarPage) -> TwistWord:
    """Parse the whitespace-separated text form, e.g. ``T{1,2}^3 P{4|1,2}``.
    The generator of each distinct generator text is built once."""
    gens: dict[str, Generator] = {}
    letters: list[Letter] = []
    try:
        for token in text.split():
            m = _LETTER_RE.fullmatch(token)
            if m is None:
                raise InvalidWordError(f"unrecognized word letter: {echo(token)}")
            key, curve, boundary, around, exp_text = m.groups()
            exp = int(exp_text) if exp_text else 1
            gen = gens.get(key)
            if gen is None:
                gen = gens[key] = (DehnTwist(_curve_text(curve)) if curve else
                                   PlanarPush(int(boundary), _curve_text(around)))
            letters.append((gen, exp))
    except SpuncalcError:
        raise
    except ValueError:  # int() refuses more than 4,300 digits
        raise InvalidWordError(f"integer too long in word letter {len(letters) + 1}") from None
    return TwistWord(page, tuple(letters))


def word_to_text(word: TwistWord) -> str:
    names = {id(gen): str(gen) for gen in _distinct(word.letters)}
    return " ".join(names[id(gen)] if exp == 1 else f"{names[id(gen)]}^{exp}"
                    for gen, exp in word.letters)


def word_to_json(word: TwistWord) -> list[dict]:
    """One object per letter, each with lists of its own."""
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


def _int_key(values: object) -> tuple[int, ...] | None:
    """``values`` as a tuple when it is a list of ints only, else None. The
    types are checked first: a bool or float index equals an int and hashes
    like it, so it must never find the generator built for that int."""
    if type(values) is list and set(map(type, values)) == {int}:
        return tuple(values)
    return None


def word_from_json(data: list, page: PlanarPage) -> TwistWord:
    """The word of a JSON list of letter objects; any other value is an
    error. The generator of each distinct all-int curve is built once."""
    if not isinstance(data, list):
        raise InvalidWordError(f"a JSON word must be a list of letters, got {echo(data)}")
    gens: dict[tuple, Generator] = {}  # by (op, curve) or (op, (boundary, curve))
    letters: list[Letter] = []
    for item in data:
        if not isinstance(item, dict):
            raise InvalidWordError(f"a JSON word letter must be an object, got {echo(item)}")
        op = item.get("op")
        if op not in ("twist", "push"):
            raise InvalidWordError(f"unknown letter op: {echo(op)}")
        exp = item.get("exp", 1)
        try:
            if op == "twist":
                curve = item["curve"]
                key = _int_key(curve)
            else:
                boundary, curve = item["boundary"], item["around"]
                key = _int_key(curve)
                if key is not None:
                    key = (boundary, key) if type(boundary) is int else None
            gen = gens.get((op, key)) if key is not None else None
            if gen is None:
                gen = _twist_gen(curve) if op == "twist" else _push_gen(boundary, curve)
                if key is not None:
                    gens[op, key] = gen
            letters.append(_letter(gen, exp))
        except KeyError as exc:
            raise InvalidWordError(f"{op} letter {echo(item)} has no {exc} field") from None
        except InvalidWordError as exc:  # the builders and _letter check every field
            raise InvalidWordError(f"{op} letter {echo(item)}: {exc}") from None
        except TypeError:  # a curve that is no collection, e.g. a number
            raise InvalidWordError(f"{op} letter {echo(item)} needs a list of integers") from None
    return TwistWord(page, tuple(letters))


def load_word(text: str, page: PlanarPage) -> TwistWord:
    """Parse either the text form or the JSON form, sniffing the format."""
    stripped = text.strip()
    if stripped.startswith("[") or stripped.startswith("{"):
        return word_from_json(parse_json(stripped, InvalidWordError, "malformed JSON word"), page)
    return parse_word(stripped, page)
