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
from dataclasses import dataclass
from itertools import chain

from .errors import InvalidPresentationError, echo, require_integers
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


def cyclic_reduce(word: Word) -> Word:
    """Freely reduce, then strip inverse pairs straddling the ends."""
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def invert_word(word: Word) -> Word:
    return tuple(-x for x in reversed(word))


@dataclass(frozen=True)
class GroupPresentation:
    generator_count: int
    relators: tuple[Word, ...] = ()

    def __post_init__(self) -> None:
        relators = tuple(map(tuple, self.relators))
        require_integers(InvalidPresentationError, "counts and letters must be integers",
                         self.generator_count, *chain(*relators))
        if self.generator_count < 0:
            raise InvalidPresentationError("generator count must be nonnegative")
        object.__setattr__(self, "relators", relators)
        for r in relators:
            for x in r:
                if x == 0 or abs(x) > self.generator_count:
                    raise InvalidPresentationError(
                        f"letter {echo(x)} outside generators 1..{self.generator_count}"
                    )

    def describe(self, symbol: str = "x") -> str:
        gens = ", ".join(f"{symbol}{i}" for i in range(1, self.generator_count + 1))
        rels = ", ".join(word_to_text(r, symbol) or "1" for r in self.relators)
        return f"< {gens} | {rels} >"

    def to_json(self) -> dict:
        return {
            "generators": self.generator_count,
            "relators": [word_to_text(r) for r in self.relators],
        }


@dataclass(frozen=True)
class PushPage:
    """g circle handles, k sphere cylinders, one pushed loop per sphere."""

    handle_count: int
    sphere_count: int
    loops: tuple[Word, ...] = ()

    def __post_init__(self) -> None:
        loops = tuple(map(tuple, self.loops))
        require_integers(InvalidPresentationError, "counts and letters must be integers",
                         self.handle_count, self.sphere_count, *chain(*loops))
        if self.handle_count < 0 or self.sphere_count < 0:
            raise InvalidPresentationError("atom counts must be nonnegative")
        object.__setattr__(self, "loops", loops)
        if len(loops) != self.sphere_count:
            raise InvalidPresentationError("need exactly one loop per sphere boundary")
        for w in loops:
            for x in w:
                if x == 0 or abs(x) > self.handle_count:
                    raise InvalidPresentationError(
                        f"loop letter {x} outside handles 1..{self.handle_count}"
                    )

    def to_json(self) -> dict:
        return {
            "handles": self.handle_count,
            "spheres": self.sphere_count,
            "loops": [word_to_text(w) for w in self.loops],
        }


def page_for_presentation(g: GroupPresentation) -> PushPage:
    """Transcribe: one handle per generator, one pushed sphere per relator."""
    return PushPage(
        handle_count=g.generator_count,
        sphere_count=len(g.relators),
        loops=g.relators,
    )


def pi1_of_open_book(p: PushPage) -> GroupPresentation:
    """Fundamental group of the open book over the page: the handle
    generators survive untouched and each pushed loop becomes a relator."""
    return GroupPresentation(
        generator_count=p.handle_count,
        relators=tuple(free_reduce(w) for w in p.loops),
    )


def abelianization(g: GroupPresentation) -> H1Invariants:
    """Invariants of the abelianized group, from the exponent-sum matrix."""
    rows = []
    for r in g.relators:
        row = [0] * g.generator_count
        for x in r:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    return cokernel_invariants(rows, columns=g.generator_count)


_LETTER_RE = re.compile(r"([xXaA])(\d+)")


def parse_relator(text: str) -> Word:
    """Parse letters like ``x3`` (generator 3) and ``X3`` (its inverse)."""
    stripped = re.sub(r"\s+", "", text)
    out: list[int] = []
    pos = 0
    for m in _LETTER_RE.finditer(stripped):
        if m.start() != pos:
            raise InvalidPresentationError(f"cannot parse relator {echo(text)}")
        try:  # int() refuses more than 4,300 digits with ValueError
            i = int(m.group(2))
        except ValueError:
            raise InvalidPresentationError(f"generator index of {len(m.group(2))} digits") from None
        if i < 1:
            raise InvalidPresentationError("generator indices are 1-based")
        out.append(i if m.group(1).islower() else -i)
        pos = m.end()
    if pos != len(stripped):
        raise InvalidPresentationError(f"cannot parse relator {echo(text)}")
    return tuple(out)


def word_to_text(word: Word, symbol: str = "x") -> str:
    return "".join(
        (symbol if x > 0 else symbol.upper()) + str(abs(x)) for x in word
    )


def parse_presentation(text: str) -> GroupPresentation:
    """Parse the file format: a ``gens g`` line, then one relator per line."""
    gens = None
    relators: list[Word] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("gens"):
            try:
                _, count = line.split()
                gens = int(count)
            except ValueError:
                raise InvalidPresentationError(f"bad gens line: {echo(line)}") from None
        else:
            relators.append(parse_relator(line))
    if gens is None:
        raise InvalidPresentationError("missing 'gens' line")
    return GroupPresentation(generator_count=gens, relators=tuple(relators))
