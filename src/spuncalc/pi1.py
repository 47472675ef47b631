"""Finite presentations and the page-with-pushes construction.

Words over generators x_1..x_g are tuples of nonzero integers: +i for x_i,
-i for its inverse. A presentation with g generators and k relators maps
to a page built from g circle handles and k sphere cylinders, with the
j-th sphere boundary pushed along a loop spelling relator j. Reading the
fundamental group back off that open book kills nothing on the handle
generators and imposes exactly the pushed loops as relators, so the round
trip reproduces the presentation verbatim (up to free reduction and the
x -> a renaming).
"""

from __future__ import annotations

import re
from itertools import chain

from .errors import InvalidPresentationError, Value, echo, integer, require_integers, unchecked
from .homology import H1Invariants, cokernel_invariants

Word = tuple[int, ...]


def free_reduce(word: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[int] = []
    for letter in word:
        if letter == 0:
            raise InvalidPresentationError("0 is not a generator letter")
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def _words(count: int, words: object, name: str, letter: str) -> tuple[Word, ...]:
    """``words`` as a tuple of tuples, once ``count`` (the number of
    generators or handles, as ``name`` says) and every letter check out;
    ``letter`` names a letter in the out-of-range error."""
    words = tuple(map(tuple, words))
    require_integers(InvalidPresentationError, "counts and letters must be integers",
                     count, *chain(*words))
    if count < 0:
        raise InvalidPresentationError(f"{name} count must be nonnegative")
    for w in words:
        for x in w:
            if x == 0 or abs(x) > count:
                raise InvalidPresentationError(f"{letter} {echo(x)} outside {name}s 1..{count}")
    return words


class GroupPresentation(Value):
    """The constructor checks every letter; ``pi1_of_open_book`` builds its
    result with ``errors.unchecked``."""

    __slots__ = ("generator_count", "relators")

    def __init__(self, generator_count: int, relators: tuple[Word, ...] = ()) -> None:
        object.__setattr__(self, "generator_count", generator_count)
        object.__setattr__(self, "relators", _words(
            generator_count, relators, "generator", "letter"))

    def describe(self, symbol: str = "x") -> str:
        gens = ", ".join(f"{symbol}{i}" for i in range(1, self.generator_count + 1))
        rels = ", ".join(word_to_text(r, symbol) or "1" for r in self.relators)
        return f"< {gens} | {rels} >"

    def to_json(self) -> dict:
        return {
            "generators": self.generator_count,
            "relators": [word_to_text(r) for r in self.relators],
        }


class PushPage(Value):
    """g circle handles and one pushed loop per sphere cylinder: the loops
    are the spheres, so their count is the sphere count. The constructor
    checks every letter; ``page_for_presentation`` uses ``errors.unchecked``."""

    __slots__ = ("handle_count", "loops")

    def __init__(self, handle_count: int, loops: tuple[Word, ...] = ()) -> None:
        object.__setattr__(self, "handle_count", handle_count)
        object.__setattr__(self, "loops", _words(handle_count, loops, "handle", "loop letter"))

    def to_json(self) -> dict:
        return {
            "handles": self.handle_count,
            "spheres": len(self.loops),
            "loops": [word_to_text(w) for w in self.loops],
        }


def page_for_presentation(g: GroupPresentation) -> PushPage:
    """Transcribe: one handle per generator, one pushed sphere per relator."""
    return unchecked(PushPage, handle_count=g.generator_count, loops=g.relators)  # g was checked


def pi1_of_open_book(p: PushPage) -> GroupPresentation:
    """Fundamental group of the open book over the page: the handle
    generators survive untouched and each pushed loop becomes a relator."""
    return unchecked(GroupPresentation, generator_count=p.handle_count,  # p was checked
                     relators=tuple(free_reduce(w) for w in p.loops))


def abelianization(g: GroupPresentation) -> H1Invariants:
    """Invariants of the abelianized group, from the exponent-sum matrix.
    Only generators some relator mentions get a column: each other one is
    a free summand Z, so the matrix has at most relators x letters entries
    whatever the generator count."""
    mentioned = sorted(set(map(abs, chain.from_iterable(g.relators))))
    column = {x: j for j, x in enumerate(mentioned)}
    rows = []
    for r in g.relators:
        row = [0] * len(column)
        for x in r:
            row[column[abs(x)]] += 1 if x > 0 else -1
        rows.append(row)
    h = cokernel_invariants(rows, columns=len(column))
    return H1Invariants(h.factors, h.free_rank + g.generator_count - len(column))


_RELATOR_RE = re.compile(r"(?:[xXaA][0-9]+)*")
_LETTER_RE = re.compile(r"([xXaA])([0-9]+)")


def parse_relator(text: str) -> Word:
    """Parse letters like ``x3`` (generator 3) and ``X3`` (its inverse)."""
    stripped = "".join(text.split())
    if not _RELATOR_RE.fullmatch(stripped):
        raise InvalidPresentationError(f"cannot parse relator {echo(text)}")
    out: list[int] = []
    for symbol, digits in _LETTER_RE.findall(stripped):
        try:  # int() refuses more than 4,300 digits with ValueError
            i = int(digits)
        except ValueError:
            raise InvalidPresentationError(f"generator index of {len(digits)} digits") from None
        if i < 1:
            raise InvalidPresentationError("generator indices are 1-based")
        out.append(i if symbol.islower() else -i)
    return tuple(out)


def word_to_text(word: Word, symbol: str = "x") -> str:
    return "".join(
        (symbol if x > 0 else symbol.upper()) + str(abs(x)) for x in word
    )


# most generators a presentation file may declare: the report names each one
MAX_GENERATORS = 100_000


def parse_presentation(text: str) -> GroupPresentation:
    """Parse the file format: one ``gens g`` line, then one relator per line."""
    gens = None
    relators: list[Word] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, *rest = line.split(maxsplit=1)
        if key == "gens":
            if gens is not None:
                raise InvalidPresentationError(f"repeated gens line: {echo(line)}")
            try:
                (count,) = rest
                gens = integer(count)
            except ValueError:
                raise InvalidPresentationError(f"bad gens line: {echo(line)}") from None
            if gens > MAX_GENERATORS:
                raise InvalidPresentationError(
                    f"gens takes at most {MAX_GENERATORS} generators, got {echo(gens)}")
        else:
            relators.append(parse_relator(line))
    if gens is None:
        raise InvalidPresentationError("missing 'gens' line")
    return GroupPresentation(generator_count=gens, relators=tuple(relators))
