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
object against its page once; the parsers check each as they build it, so
an error names the first bad letter, and ``word_to_text`` formats each
distinct generator once per word. ``exponent_vector`` sums on a difference
array, so a twist along an interval of holes costs at most four updates
whatever its length.

A curve that encloses a whole interval of three or more holes is written
as one run: ``T{r..k}`` and ``P{b|r..k}`` in text, ``[[r, k]]`` in JSON;
every other curve lists its holes. The test is O(1) per curve (its last
hole minus its first, against its size), so a lens word of k holes, whose
curves are the suffixes ``{r..k}``, is written in O(k) rather than O(k^2).
The readers take any mix of holes and runs (``T{1,3..5}``, ``[1, [3, 5]]``).
Each run is checked against the page before it is expanded, and the holes
that runs share are expanded once, so a short input cannot ask for more
than the page's holes per curve, nor the runs of a word for more than
MAX_WORD_HOLES in all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate, chain
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
        return "{%s}" % _holes_text(self.enclosed)


def _holes_text(holes: tuple[int, ...]) -> str:
    """``r..k`` for a whole interval of three or more holes, else the holes
    comma-separated."""
    size = len(holes)
    if size > 2 and holes[-1] - holes[0] + 1 == size:
        return f"{holes[0]}..{holes[-1]}"
    return ",".join(map(str, holes))


def _holes_json(holes: tuple[int, ...]) -> list:
    """``[[r, k]]`` for a whole interval of three or more holes, else the
    list of the holes."""
    size = len(holes)
    if size > 2 and holes[-1] - holes[0] + 1 == size:
        return [[holes[0], holes[-1]]]
    return list(holes)


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
        return f"P{{{self.boundary}|{_holes_text(self.around.enclosed)}}}"


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
    page once, in the order of its first letter; the parsers check each
    as they build it, and build the word with ``errors.unchecked``."""

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
# boundary and curve), then an optional exponent; a curve lists holes and
# runs first..last
_HOLES = r"[0-9]+(?:\.\.[0-9]+)?(?:,[0-9]+(?:\.\.[0-9]+)?)*"
_LETTER_RE = re.compile(rf"(T\{{({_HOLES})\}}|P\{{([0-9]+)\|({_HOLES})\}})(?:\^(-?[0-9]+))?")


# Most holes the runs of one word read from input may expand to, over its
# distinct curves: n short tokens could otherwise ask for n times the page's
# holes. This is a little more than the 2,000,997 that the runs of the
# longest lens word (k = 2,000) hold, so every word a report writes reads
# back. A curve written as a list of holes is bounded by its text instead.
MAX_WORD_HOLES = 2_500_000


def _run_curve(runs: list[tuple[int, int]], page: PlanarPage, budget: list[int]) -> CurveClass:
    """The curve of int runs (first, last), a single hole being (i, i). Each
    run of two or more holes must fit ``page`` (a single hole is checked
    with its generator), the holes that runs share are counted once, and
    their count is taken from ``budget[0]``, the holes the word's runs may
    still expand to, all before any run is expanded."""
    for first, last in runs:
        if first < 1:
            raise InvalidWordError("boundary indices are 1-based")
        if first > last:
            raise InvalidWordError(f"run {echo(first)}..{echo(last)} is empty: "
                                   "its first hole exceeds its last")
        if last > page.inner_count and first < last:
            raise InvalidWordError(f"run {echo(first)}..{echo(last)} does not fit on a page "
                                   f"with {page.inner_count} inner boundaries")
    spans = []
    top = 0  # the last hole of the spans so far
    for first, last in sorted(runs):
        if last > top:
            spans.append(range(max(first, top + 1), last + 1))
            top = last
    budget[0] -= sum(map(len, spans))
    if budget[0] < 0:
        raise InvalidWordError(
            f"the word's runs enclose more than {MAX_WORD_HOLES} holes in all")
    return unchecked(CurveClass, enclosed=tuple(chain.from_iterable(spans)))


def _curve_text(indices: str, page: PlanarPage, budget: list[int]) -> CurveClass:
    """The curve of comma-separated holes and runs ``first..last``, spelt
    in digits: their values are ints >= 0, so of the curve checks only the
    1-based bound is left, and those of the runs."""
    if ".." in indices:
        runs = []
        for part in indices.split(","):
            first, _, last = part.partition("..")
            runs.append((int(first), int(last or first)))
        return _run_curve(runs, page, budget)
    enclosed = sorted(set(map(int, indices.split(","))))
    if enclosed[0] < 1:
        raise InvalidWordError("boundary indices are 1-based")
    return unchecked(CurveClass, enclosed=tuple(enclosed))


def _json_curve(value: object, page: PlanarPage, budget: list[int]) -> CurveClass:
    """The curve of a JSON list of int holes and [first, last] runs. A curve
    of holes alone costs no more than ``CurveClass``, whose set of the
    holes refuses a list; a run that is no pair raises TypeError, as a
    curve that is no list does."""
    try:
        return CurveClass(value)
    except TypeError:
        if type(value) is not list:
            raise
    runs = []
    for item in value:
        if type(item) is list:
            if len(item) != 2:
                raise TypeError("a run is a pair [first, last]")
            runs.append(tuple(item))
        else:
            runs.append((item, item))
    for run in runs:
        require_integers(InvalidWordError, "boundary indices must be integers", *run)
    return _run_curve(runs, page, budget)


def parse_word(text: str, page: PlanarPage) -> TwistWord:
    """Parse the whitespace-separated text form, e.g. ``T{1,2}^3 P{4|1..3}``.
    Each distinct token is read once, in the order of its first letter, and
    the generator of each distinct generator text is built and checked
    against ``page`` once, so an error names the first bad letter of the
    word."""
    tokens = text.split()
    gens: dict[str, Generator] = {}
    letters: dict[str, Letter] = dict.fromkeys(tokens)
    budget = [MAX_WORD_HOLES]  # the holes its runs may still expand to
    try:
        for token in letters:
            m = _LETTER_RE.fullmatch(token)
            if m is None:
                raise InvalidWordError(f"unrecognized word letter: {echo(token)}")
            key, curve, boundary, around, exp_text = m.groups()
            exp = int(exp_text) if exp_text else 1
            gen = gens.get(key)
            if gen is None:
                holes = _curve_text(curve or around, page, budget)
                gen = gens[key] = DehnTwist(holes) if curve else PlanarPush(int(boundary), holes)
                gen.check(page)
            letters[token] = gen, exp
    except SpuncalcError:
        raise
    except ValueError:  # int() refuses more than 4,300 digits
        raise InvalidWordError(
            f"integer too long in word letter {tokens.index(token) + 1}") from None
    return unchecked(TwistWord, page=page, letters=tuple(map(letters.__getitem__, tokens)))


def word_to_text(word: TwistWord) -> str:
    names = {id(gen): str(gen) for gen in _distinct(word.letters)}
    return " ".join(names[id(gen)] if exp == 1 else f"{names[id(gen)]}^{exp}"
                    for gen, exp in word.letters)


def word_to_json(word: TwistWord) -> list[dict]:
    """One object per letter, each with lists of its own; a curve that is a
    whole interval of three or more holes is the one run ``[[r, k]]``."""
    out = []
    for gen, exp in word.letters:
        if isinstance(gen, DehnTwist):
            out.append({"op": "twist", "curve": _holes_json(gen.curve.enclosed), "exp": exp})
        else:
            out.append({"op": "push", "boundary": gen.boundary,
                        "around": _holes_json(gen.around.enclosed), "exp": exp})
    return out


_LETTER_FIELDS = {"twist": {"op", "exp", "curve"}, "push": {"op", "exp", "boundary", "around"}}


def word_from_json(data: list, page: PlanarPage) -> TwistWord:
    """The word of a JSON list of letter objects; any other value is an
    error. A curve lists holes and [first, last] runs. The generator of
    each distinct field text is built and checked against ``page`` once, so
    an error names the first bad letter of the word."""
    if not isinstance(data, list):
        raise InvalidWordError(f"a JSON word must be a list of letters, got {echo(data)}")
    gens: dict[tuple[str, str], Generator] = {}  # by op and the repr of its fields
    letters: list[Letter] = []
    budget = [MAX_WORD_HOLES]  # the holes its runs may still expand to
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
            fresh = gen is None
            if fresh:
                holes = _json_curve(fields[-1], page, budget)
                gen = gens[key] = (DehnTwist(holes) if op == "twist" else
                                   PlanarPush(fields[0], holes))
            letters.append(_letter(gen, exp))
        except KeyError as exc:
            raise InvalidWordError(f"{op} letter {echo(item)} has no {exc} field") from None
        except InvalidWordError as exc:  # the builders and _letter check every field
            raise InvalidWordError(f"{op} letter {echo(item)}: {exc}") from None
        except TypeError:  # a curve that is no collection, e.g. a number, or a bad run
            raise InvalidWordError(f"{op} letter {echo(item)} needs a list of integers "
                                   "and [first, last] runs") from None
        except ValueError:  # repr() refuses an int of more than 4,300 digits
            raise InvalidWordError(f"integer too long in word letter {len(letters) + 1}") from None
        if fresh:  # outside the try: a page error names the curve, not the letter
            gen.check(page)
    return unchecked(TwistWord, page=page, letters=tuple(letters))


def load_word(text: str, page: PlanarPage) -> TwistWord:
    """Parse either the text form or the JSON form, sniffing the format."""
    stripped = text.strip()
    if stripped.startswith("[") or stripped.startswith("{"):
        return word_from_json(parse_json(stripped, InvalidWordError, "malformed JSON word"), page)
    return parse_word(stripped, page)
