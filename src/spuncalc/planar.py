"""Planar pages, curve classes, and twist words.

A planar page is a disk with ``inner_count`` holes. A curve on it is kept
only up to homology, i.e. as the set of inner boundary components it
encloses; the full set stands for a curve parallel to the outer boundary.
``CurveClass`` stores that set once, as the sorted tuple of its distinct
indices: the bounds checks, the writers and the sums read it in order.
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
2.9 as 2), and every index at least 1; ``twist``, ``push`` and the public
constructors check this for the letter they build. Those checks sit at
the boundary, in the parsers and the constructors, while a library
builder that derives curves from data it has already checked (the lens
and surgery words) builds them and their words with ``errors.unchecked``.
A JSON letter with a field its op does not take is an error. A word is a
sequence over a small alphabet of generators, so it is read over its
distinct parts: ``parse_word`` reads each distinct token (``T{1,3}^2``)
once and builds the generator of each distinct generator text
(``T{1,3}``, ``P{2|1}``) once, and ``word_from_json`` builds that of each
distinct ``repr`` of its fields (``[1]``, ``[1.0]`` and ``[True]`` are
three keys, where the values themselves would hash alike) and checks
every exponent at every letter. A word checks each distinct generator
object against its page once, and ``word_to_text`` formats each distinct
generator once per word. ``exponent_vector`` sums on a difference array,
so a twist along an interval of holes costs at most four updates whatever
its length.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate
from operator import add
from typing import Iterable, Union

from .errors import InvalidWordError, SpuncalcError, echo, parse_json, require_integers, unchecked


@dataclass(frozen=True)
class PlanarPage:
    """Disk with ``inner_count`` holes; 0 holes is the disk page itself."""

    inner_count: int

    def __post_init__(self) -> None:
        if self.inner_count < 0:
            raise InvalidWordError("inner_count must be nonnegative")


@dataclass(frozen=True)
class CurveClass:
    """Homology class of a simple closed curve: the holes it encloses, built
    from any iterable of indices and stored as their sorted distinct tuple."""

    enclosed: tuple[int, ...]

    def __post_init__(self) -> None:
        enclosed = set(self.enclosed)
        if not enclosed:
            raise InvalidWordError("a curve must enclose at least one inner boundary")
        if set(map(type, enclosed)) != {int}:
            raise InvalidWordError(
                f"boundary indices must be integers, got {echo(sorted(enclosed, key=repr))}"
            )
        indices = tuple(sorted(enclosed))
        if indices[0] < 1:
            raise InvalidWordError("boundary indices are 1-based")
        object.__setattr__(self, "enclosed", indices)

    def valid_on(self, page: PlanarPage) -> bool:
        return self.enclosed[-1] <= page.inner_count

    def __str__(self) -> str:
        return "{%s}" % ",".join(map(str, self.enclosed))


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

    def __post_init__(self) -> None:
        require_integers(InvalidWordError, "a pushed boundary must be an integer", self.boundary)

    def check(self, page: PlanarPage) -> None:
        if not 1 <= self.boundary <= page.inner_count:
            raise InvalidWordError(f"pushed boundary {echo(self.boundary)} out of range")
        if not self.around.valid_on(page):
            raise InvalidWordError(f"curve {echo(self.around, str)} does not fit on the page")
        if self.boundary in self.around.enclosed:
            raise InvalidWordError("a boundary cannot be pushed around a curve enclosing it")

    def __str__(self) -> str:
        return f"P{{{self.boundary}|{','.join(map(str, self.around.enclosed))}}}"


Generator = Union[DehnTwist, PlanarPush]
Letter = tuple[Generator, int]


def _letter(gen: Generator, exponent: int) -> Letter:
    if type(exponent) is not int:
        raise InvalidWordError(f"exponents must be integers, got {echo(exponent)}")
    return gen, exponent


def twist(enclosed: Iterable[int], exponent: int = 1) -> Letter:
    """Letter: Dehn twist along the curve enclosing ``enclosed``."""
    return _letter(DehnTwist(CurveClass(enclosed)), exponent)


def push(boundary: int, around: Iterable[int], exponent: int = 1) -> Letter:
    """Letter: push ``boundary`` around the curve enclosing ``around``."""
    return _letter(PlanarPush(boundary, CurveClass(around)), exponent)


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
    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        for gen in _distinct(self.letters):
            gen.check(self.page)

    def has_pushes(self) -> bool:
        return any(isinstance(gen, PlanarPush) for gen, _ in self.letters)


def exponent_vector(word: TwistWord) -> tuple[int, ...]:
    """Exponent sum per inner boundary: a twist adds its exponent to every
    hole it encloses, a push ``P{b|a}^e`` adds -e to ``b`` alone.

    A twist along an interval of more than four holes first..last costs
    two updates of a difference array, whose prefix sums are added at the
    end; any other twist adds to each of its holes, and a push adds to its
    boundary. Up to four holes, the difference array would save about what
    the test for an interval costs. The letters were checked against
    ``word.page`` when the word was built."""
    n = word.page.inner_count
    totals = [0] * n
    steps = [0] * (n + 1)  # its prefix sum at i: the interval twists' sum on hole i + 1
    for gen, exp in word.letters:
        if isinstance(gen, DehnTwist):
            holes = gen.curve.enclosed
            size = len(holes)
            if size > 4 and holes[-1] - holes[0] + 1 == size:
                steps[holes[0] - 1] += exp
                steps[holes[-1]] -= exp
            else:
                for i in holes:
                    totals[i - 1] += exp
        else:
            totals[gen.boundary - 1] -= exp
    return tuple(map(add, totals, accumulate(steps)))


def parity_vector(word: TwistWord) -> tuple[int, ...]:
    """Exponent vector reduced mod 2."""
    return tuple(e % 2 for e in exponent_vector(word))


# a letter: the generator text (group 1: a twist's curve, or a push's
# boundary and curve), then an optional exponent
_LETTER_RE = re.compile(
    r"(T\{([0-9]+(?:,[0-9]+)*)\}|P\{([0-9]+)\|([0-9]+(?:,[0-9]+)*)\})(?:\^(-?[0-9]+))?")


def _curve_text(indices: str) -> CurveClass:
    """The curve of comma-separated digit runs: their values are ints >= 0,
    so of the curve checks only the 1-based bound is left."""
    enclosed = sorted(set(map(int, indices.split(","))))
    if enclosed[0] < 1:
        raise InvalidWordError("boundary indices are 1-based")
    return unchecked(CurveClass, enclosed=tuple(enclosed))


def parse_word(text: str, page: PlanarPage) -> TwistWord:
    """Parse the whitespace-separated text form, e.g. ``T{1,2}^3 P{4|1,2}``.
    Each distinct token is read once, in the order of its first letter, so
    an error names the first bad letter of the word; the generator of each
    distinct generator text is built once."""
    tokens = text.split()
    gens: dict[str, Generator] = {}
    letters: dict[str, Letter] = dict.fromkeys(tokens)
    try:
        for token in letters:
            m = _LETTER_RE.fullmatch(token)
            if m is None:
                raise InvalidWordError(f"unrecognized word letter: {echo(token)}")
            key, curve, boundary, around, exp_text = m.groups()
            exp = int(exp_text) if exp_text else 1
            gen = gens.get(key)
            if gen is None:
                gen = gens[key] = (DehnTwist(_curve_text(curve)) if curve else
                                   PlanarPush(int(boundary), _curve_text(around)))
            letters[token] = gen, exp
    except SpuncalcError:
        raise
    except ValueError:  # int() refuses more than 4,300 digits
        raise InvalidWordError(
            f"integer too long in word letter {tokens.index(token) + 1}") from None
    return TwistWord(page, tuple(map(letters.__getitem__, tokens)))


def word_to_text(word: TwistWord) -> str:
    names = {id(gen): str(gen) for gen in _distinct(word.letters)}
    return " ".join(names[id(gen)] if exp == 1 else f"{names[id(gen)]}^{exp}"
                    for gen, exp in word.letters)


def word_to_json(word: TwistWord) -> list[dict]:
    """One object per letter, each with lists of its own."""
    out = []
    for gen, exp in word.letters:
        if isinstance(gen, DehnTwist):
            out.append({"op": "twist", "curve": list(gen.curve.enclosed), "exp": exp})
        else:
            out.append({
                "op": "push",
                "boundary": gen.boundary,
                "around": list(gen.around.enclosed),
                "exp": exp,
            })
    return out


_LETTER_FIELDS = {"twist": {"op", "exp", "curve"}, "push": {"op", "exp", "boundary", "around"}}


def word_from_json(data: list, page: PlanarPage) -> TwistWord:
    """The word of a JSON list of letter objects; any other value is an
    error. The generator of each distinct field text is built once."""
    if not isinstance(data, list):
        raise InvalidWordError(f"a JSON word must be a list of letters, got {echo(data)}")
    gens: dict[tuple[str, str], Generator] = {}  # by op and the repr of its fields
    letters: list[Letter] = []
    for item in data:
        if not isinstance(item, dict):
            raise InvalidWordError(f"a JSON word letter must be an object, got {echo(item)}")
        op = item.get("op")
        if op not in ("twist", "push"):
            raise InvalidWordError(f"unknown letter op: {echo(op)}")
        exp = item.get("exp", 1)
        try:
            fields = (item["curve"],) if op == "twist" else (item["boundary"], item["around"])
            # a key besides op, the fields and exp; a count costs less than a set test
            if len(item) > len(fields) + 1 + ("exp" in item):
                name = next(k for k in item if k not in _LETTER_FIELDS[op])
                raise InvalidWordError(f"unknown field {echo(name)}")
            key = op, repr(fields)  # the repr tells 1, 1.0 and True apart
            gen = gens.get(key)
            if gen is None:
                gen = gens[key] = (DehnTwist(CurveClass(*fields)) if op == "twist" else
                                   PlanarPush(fields[0], CurveClass(fields[1])))
            letters.append(_letter(gen, exp))
        except KeyError as exc:
            raise InvalidWordError(f"{op} letter {echo(item)} has no {exc} field") from None
        except InvalidWordError as exc:  # the builders and _letter check every field
            raise InvalidWordError(f"{op} letter {echo(item)}: {exc}") from None
        except TypeError:  # a curve that is no collection, e.g. a number
            raise InvalidWordError(f"{op} letter {echo(item)} needs a list of integers") from None
        except ValueError:  # repr() refuses an int of more than 4,300 digits
            raise InvalidWordError(f"integer too long in word letter {len(letters) + 1}") from None
    return TwistWord(page, tuple(letters))


def load_word(text: str, page: PlanarPage) -> TwistWord:
    """Parse either the text form or the JSON form, sniffing the format."""
    stripped = text.strip()
    if stripped.startswith("[") or stripped.startswith("{"):
        return word_from_json(parse_json(stripped, InvalidWordError, "malformed JSON word"), page)
    return parse_word(stripped, page)
