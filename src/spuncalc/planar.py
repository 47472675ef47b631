"""Planar pages, curve classes, and twist words.

A planar page is a disk with ``inner_count`` holes. A curve on it is kept
only up to homology, i.e. as the set of inner boundary components it
encloses; the full set stands for a curve parallel to the outer boundary.
``CurveClass`` stores that set as its runs: the sorted maximal pairs
(first, last) of consecutive holes, a single hole being (i, i). Words are
sequences of Dehn twist letters and push letters with integer exponents.
Since every downstream computation factors through exponent sums per
boundary component (and usually their parities), this is all the curve
data the calculus ever needs.

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
A JSON letter with a field its op does not take is an error. A text
word is a sequence over a small alphabet of tokens, so ``parse_word``
reads it over its distinct parts: each distinct token (``T{1,3}^2``)
once, and the generator of each distinct generator text (``T{1,3}``,
``P{2|1}``) once. ``word_from_json`` reads a JSON word letter by letter,
building and checking each letter's generator as it reads it: a key for
a letter's fields, which would have to tell ``1``, ``1.0`` and ``True``
apart, costs more than the repeated letters it would save. A word checks
each distinct generator object against its page once; the parsers check
each as they build it, so an error names the first bad letter, and
``word_to_text`` formats each distinct generator once per word. The
readers give the curves of a word one shared pair (i, i) per hole, so a
word allocates and stores one per hole rather than one per hole of each
curve. ``exponent_vector`` sums on a difference array: two updates per
run of a twist and per push.

A run of three or more holes is written ``r..k`` in text and ``[r, k]``
in JSON, a shorter run as its holes: ``T{1..4}``, ``P{b|2..4,7}``,
``[[2, 4], 7]``. The readers take any mix of holes and runs, in any order
and overlapping (``T{1,3..5}``, ``[1, [3, 5]]``), and merge them into the
stored runs, so a curve's stored size and its written size grow with its
text, whatever the holes it encloses: a lens word of k holes, whose curves
are the suffixes ``{r..k}``, is stored and written in O(k). A run is never
expanded: ``_merged`` checks that a curve's holes are 1-based and the
generator that they fit the page, runs and holes alike.
"""

from __future__ import annotations

import re
from itertools import accumulate, chain
from typing import Iterable, Union

from .errors import (InvalidWordError, SpuncalcError, Value, echo, parse_json, require_integers,
                     unchecked)


class PlanarPage(Value):
    """Disk with ``inner_count`` holes; 0 holes is the disk page itself."""

    __slots__ = ("inner_count",)

    def __init__(self, inner_count: int) -> None:
        object.__setattr__(self, "inner_count", inner_count)
        require_integers(InvalidWordError, "inner_count must be an integer", inner_count)
        if inner_count < 0:
            raise InvalidWordError("inner_count must be nonnegative")


Run = tuple[int, int]  # holes first..last, first <= last


def _merged(pairs: Iterable[Run]) -> tuple[Run, ...]:
    """The sorted maximal runs covering ``pairs``, each (first, last) with
    first <= last: overlapping and adjacent pairs merge, so that equal hole
    sets give equal runs. A curve needs a pair, and its holes are 1-based."""
    pairs = sorted(pairs)
    if not pairs:
        raise InvalidWordError("a curve must enclose at least one inner boundary")
    if pairs[0][0] < 1:
        raise InvalidWordError("boundary indices are 1-based")
    runs = []
    top = -1  # the last hole of the runs so far
    for pair in pairs:
        first, last = pair
        if first > top + 1:
            runs.append(pair)
            top = last
        elif last > top:
            runs[-1] = runs[-1][0], last
            top = last
    return tuple(runs)


class CurveClass(Value):
    """Homology class of a simple closed curve: the holes it encloses, built
    from any iterable of indices and stored as their maximal runs."""

    __slots__ = ("runs",)

    def __init__(self, holes: Iterable[int]) -> None:
        holes = set(holes)
        if holes and set(map(type, holes)) != {int}:
            raise InvalidWordError(
                f"boundary indices must be integers, got {echo(sorted(holes, key=repr))}"
            )
        object.__setattr__(self, "runs", _merged((i, i) for i in holes))

    @property
    def enclosed(self) -> tuple[int, ...]:
        """The holes one by one, expanded from the runs; the library reads
        ``runs``."""
        return tuple(chain.from_iterable(range(first, last + 1) for first, last in self.runs))

    def check(self, page: PlanarPage) -> None:
        if self.runs[-1][1] > page.inner_count:
            raise InvalidWordError(f"curve {echo(self, str)} does not fit on a page with "
                                   f"{page.inner_count} inner boundaries")

    def __str__(self) -> str:
        return "{%s}" % _runs_text(self.runs)


def _runs_text(runs: tuple[Run, ...]) -> str:
    """Each run of three or more holes as ``r..k``, each shorter one as its
    holes, comma-separated."""
    return ",".join(f"{first}..{last}" if last - first > 1 else
                    f"{first},{last}" if last > first else str(first) for first, last in runs)


def _runs_json(runs: tuple[Run, ...]) -> list:
    """Each run of three or more holes as ``[r, k]``, each shorter one as
    its holes."""
    out = []
    for first, last in runs:
        if first == last:
            out.append(first)
        elif last - first > 1:
            out.append([first, last])
        else:
            out += first, last
    return out


class DehnTwist(Value):
    __slots__ = ("curve",)

    def __init__(self, curve: CurveClass) -> None:
        object.__setattr__(self, "curve", curve)

    def check(self, page: PlanarPage) -> None:
        self.curve.check(page)

    def __str__(self) -> str:
        return f"T{self.curve}"


class PlanarPush(Value):
    """Push inner boundary ``boundary`` around a curve of class ``around``."""

    __slots__ = ("boundary", "around")

    def __init__(self, boundary: int, around: CurveClass) -> None:
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "around", around)
        require_integers(InvalidWordError, "a pushed boundary must be an integer", boundary)

    def check(self, page: PlanarPage) -> None:
        if not 1 <= self.boundary <= page.inner_count:
            raise InvalidWordError(f"pushed boundary {echo(self.boundary)} out of range")
        self.around.check(page)
        if any(first <= self.boundary <= last for first, last in self.around.runs):
            raise InvalidWordError("a boundary cannot be pushed around a curve enclosing it")

    def __str__(self) -> str:
        return f"P{{{self.boundary}|{_runs_text(self.around.runs)}}}"


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


class TwistWord(Value):
    """Word of (generator, exponent) letters on a fixed ambient page; the
    letters come from ``twist``, ``push`` or the parsers, which checked
    their fields. Each distinct generator object is checked against the
    page once, in the order of its first letter; the parsers check each
    as they build it, and build the word with ``errors.unchecked``."""

    __slots__ = ("page", "letters")

    def __init__(self, page: PlanarPage, letters: tuple[Letter, ...] = ()) -> None:
        object.__setattr__(self, "page", page)
        object.__setattr__(self, "letters", letters)
        for gen in _distinct(letters):
            gen.check(page)

    def has_pushes(self) -> bool:
        return any(isinstance(gen, PlanarPush) for gen, _ in self.letters)


def exponent_vector(word: TwistWord) -> tuple[int, ...]:
    """Exponent sum per inner boundary: a twist adds its exponent to every
    hole it encloses, a push ``P{b|a}^e`` adds -e to ``b`` alone.

    Each run first..last of a twist, and each push as the run b..b, costs
    two updates of a difference array, whose prefix sums are the totals.
    The letters were checked against ``word.page`` when the word was
    built."""
    n = word.page.inner_count
    steps = [0] * (n + 1)  # its prefix sum at i: the sum on hole i + 1
    for gen, exp in word.letters:
        if isinstance(gen, DehnTwist):
            for first, last in gen.curve.runs:
                steps[first - 1] += exp
                steps[last] -= exp
        else:
            steps[gen.boundary - 1] -= exp
            steps[gen.boundary] += exp
    del steps[n]
    return tuple(accumulate(steps))


def parity_vector(word: TwistWord) -> tuple[int, ...]:
    """Exponent vector reduced mod 2."""
    return tuple(e % 2 for e in exponent_vector(word))


# a letter: the generator text (group 1: a twist's curve, or a push's
# boundary and curve), then an optional exponent; a curve lists holes and
# runs first..last
_HOLES = r"[0-9]+(?:\.\.[0-9]+)?(?:,[0-9]+(?:\.\.[0-9]+)?)*"
_LETTER_RE = re.compile(rf"(T\{{({_HOLES})\}}|P\{{([0-9]+)\|({_HOLES})\}})(?:\^(-?[0-9]+))?")


def _run(first: int, last: int) -> Run:
    """The run first..last a reader reads, checked for the one fact only a
    run has, first <= last; its curve checks the rest."""
    if first > last:
        raise InvalidWordError(f"run {echo(first)}..{echo(last)} is empty: "
                               "its first hole exceeds its last")
    return first, last


def _curve_text(indices: str, pairs: dict[str, Run]) -> CurveClass:
    """The curve of comma-separated holes and runs ``first..last``, spelt
    in digits, so their values are ints >= 0. ``pairs`` keeps the pair of
    each part text the word has read, so its curves share them."""
    runs = []
    for part in indices.split(","):
        pair = pairs.get(part)
        if pair is None:
            first, _, last = part.partition("..")
            first = int(first)
            pair = pairs[part] = _run(first, int(last)) if last else (first, first)
        runs.append(pair)
    return unchecked(CurveClass, runs=_merged(runs))


def _json_curve(value: object, pairs: dict[int, Run]) -> CurveClass:
    """The curve of a JSON list of int holes and [first, last] runs; a
    curve that is no list, or a run that is no pair, raises TypeError.
    ``pairs`` keeps the pair (i, i) of each hole the word has read, so its
    curves share them."""
    if type(value) is not list:
        raise TypeError("a curve is a list")
    runs = []
    for item in value:
        if type(item) is int:
            pair = pairs.get(item)
            if pair is None:
                pair = pairs[item] = item, item
            runs.append(pair)
        elif type(item) is list:
            if len(item) != 2:
                raise TypeError("a run is a pair [first, last]")
            require_integers(InvalidWordError, "boundary indices must be integers", *item)
            runs.append(_run(*item))
        else:
            raise InvalidWordError(f"boundary indices must be integers, got {echo(item)}")
    return unchecked(CurveClass, runs=_merged(runs))


def parse_word(text: str, page: PlanarPage) -> TwistWord:
    """Parse the whitespace-separated text form, e.g. ``T{1,2}^3 P{4|1..3}``.
    Each distinct token is read once, in the order of its first letter, and
    the generator of each distinct generator text is built and checked
    against ``page`` once, so an error names the first bad letter of the
    word."""
    tokens = text.split()
    gens: dict[str, Generator] = {}
    letters: dict[str, Letter] = dict.fromkeys(tokens)
    pairs: dict[str, Run] = {}  # by part text: "3" and "03" are two keys
    try:
        for token in letters:
            m = _LETTER_RE.fullmatch(token)
            if m is None:
                raise InvalidWordError(f"unrecognized word letter: {echo(token)}")
            key, curve, boundary, around, exp_text = m.groups()
            exp = int(exp_text) if exp_text else 1
            gen = gens.get(key)
            if gen is None:
                holes = _curve_text(curve or around, pairs)
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
    """One object per letter, each with lists of its own."""
    out = []
    for gen, exp in word.letters:
        if isinstance(gen, DehnTwist):
            out.append({"op": "twist", "curve": _runs_json(gen.curve.runs), "exp": exp})
        else:
            out.append({"op": "push", "boundary": gen.boundary,
                        "around": _runs_json(gen.around.runs), "exp": exp})
    return out


_LETTER_FIELDS = {"twist": {"op", "exp", "curve"}, "push": {"op", "exp", "boundary", "around"}}


def word_from_json(data: list, page: PlanarPage) -> TwistWord:
    """The word of a JSON list of letter objects; any other value is an
    error. A curve lists holes and [first, last] runs. Each letter's fields
    and exponent are checked, and its generator is built and checked
    against ``page``, as the letter is read, so an error names the first
    bad letter of the word."""
    if not isinstance(data, list):
        raise InvalidWordError(f"a JSON word must be a list of letters, got {echo(data)}")
    letters: list[Letter] = []
    pairs: dict[int, Run] = {}
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
            holes = _json_curve(fields[-1], pairs)
            gen = DehnTwist(holes) if op == "twist" else PlanarPush(fields[0], holes)
            letters.append(_letter(gen, exp))
        except KeyError as exc:
            raise InvalidWordError(f"{op} letter {echo(item)} has no {exc} field") from None
        except InvalidWordError as exc:  # the builders and _letter check every field
            raise InvalidWordError(f"{op} letter {echo(item)}: {exc}") from None
        except TypeError:  # a curve that is no list, e.g. a number, or a run no pair
            raise InvalidWordError(f"{op} letter {echo(item)} needs a list of integers "
                                   "and [first, last] runs") from None
        gen.check(page)  # outside the try: a page error names the curve, not the letter
    return unchecked(TwistWord, page=page, letters=tuple(letters))


def load_word(text: str, page: PlanarPage) -> TwistWord:
    """Parse either the text form or the JSON form, sniffing the format."""
    stripped = text.strip()
    if stripped.startswith("[") or stripped.startswith("{"):
        return word_from_json(parse_json(stripped, InvalidWordError, "malformed JSON word"), page)
    return parse_word(stripped, page)
