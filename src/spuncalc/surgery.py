"""Framed braided surgery diagrams and their diagram moves.

A diagram is a pure braid about an axis (every strand wraps the axis once)
together with an integer framing per strand. The braid word is a list of
generator letters (i, j, sign); summing the signs per pair gives the
off-diagonal linking numbers, the framings the diagonal. First homology of
the surgered manifold is presented by that linking matrix.

Moves return a new diagram together with a record carrying the homology
audit. The sign conventions in force (also echoed in every CLI report):

* blow_up(region, sign) appends a new strand with framing ``sign`` that
  links each region member once positively, and compensates by adding
  ``sign`` to the framing of each member and to each linking inside the
  region; blow_down is its exact inverse via the standard quadratic rule.
* exporting a planar open book sends a braid letter (i, j, sign) to a
  twist along the curve enclosing {i, j} with exponent -sign, and a
  framing f on strand i to a twist along {i} with exponent -f (page-framed
  -1-surgery acts as a positive twist).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvalidDiagramError, InvalidMoveError
from .homology import H1Invariants, LinkingMatrix, cokernel_invariants
from .planar import PlanarPage, TwistWord, twist

SIGN_CONVENTIONS = {
    "page_framed_surgery": "-1-surgery along a page curve acts as a positive Dehn twist",
    "framing_to_twist_exponent": "strand framing f contributes exponent -f on its boundary curve",
    "braid_letter_to_twist_exponent": "braid letter sign e contributes exponent -e on the pair curve",
    "blow_up_linking": "a blown-up strand links each region member once positively",
}

BraidLetter = tuple[int, int, int]


@dataclass(frozen=True)
class FramedBraidDiagram:
    """Pure braid word about the axis plus one framing per strand."""

    strands: int
    braid_word: tuple[BraidLetter, ...] = ()
    framings: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 0:
            raise InvalidDiagramError("strand count must be nonnegative")
        word = tuple((int(i), int(j), int(e)) for i, j, e in self.braid_word)
        framings = tuple(int(f) for f in self.framings)
        object.__setattr__(self, "braid_word", word)
        object.__setattr__(self, "framings", framings)
        if len(framings) != self.strands:
            raise InvalidDiagramError(
                f"{len(framings)} framings for {self.strands} strands"
            )
        for i, j, e in word:
            if not (1 <= i < j <= self.strands):
                raise InvalidDiagramError(f"braid letter ({i},{j}) out of range")
            if e not in (1, -1):
                raise InvalidDiagramError(f"braid letter sign must be +-1, got {e}")

    def linking(self, i: int, j: int) -> int:
        if i == j:
            return self.framings[i - 1]
        lo, hi = min(i, j), max(i, j)
        return sum(e for a, b, e in self.braid_word if (a, b) == (lo, hi))

    def to_json(self) -> dict:
        return {
            "strands": self.strands,
            "framings": list(self.framings),
            "braid": [list(letter) for letter in self.braid_word],
        }

    @staticmethod
    def from_json(data: dict) -> FramedBraidDiagram:
        return FramedBraidDiagram(
            strands=int(data["strands"]),
            braid_word=tuple(tuple(x) for x in data.get("braid", [])),
            framings=tuple(data.get("framings", [])),
        )

    def to_text(self) -> str:
        lines = [f"strands {self.strands}"]
        lines.append("framings " + " ".join(str(f) for f in self.framings))
        for i, j, e in self.braid_word:
            lines.append(f"A {i} {j} {e:+d}")
        return "\n".join(lines) + "\n"


def parse_diagram(text: str) -> FramedBraidDiagram:
    """Parse the text format (``strands n`` / ``framings ...`` / ``A i j e``)
    or the JSON mirror, sniffing the format."""
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InvalidDiagramError(f"malformed JSON diagram: {exc}") from None
        return FramedBraidDiagram.from_json(data)
    strands = None
    framings: tuple[int, ...] = ()
    word: list[BraidLetter] = []
    for raw in stripped.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, *fields = line.split()
        try:
            values = tuple(int(x) for x in fields)
        except ValueError:
            raise InvalidDiagramError(f"non-integer field in diagram line: {line!r}") from None
        if key == "strands" and len(values) == 1:
            strands = values[0]
        elif key == "framings":
            framings = values
        elif key == "A" and len(values) == 3:
            word.append(values)
        else:
            raise InvalidDiagramError(f"unrecognized diagram line: {line!r}")
    if strands is None:
        raise InvalidDiagramError("missing 'strands' line")
    return FramedBraidDiagram(strands=strands, braid_word=tuple(word), framings=framings)


def linking_matrix(d: FramedBraidDiagram) -> LinkingMatrix:
    """Framings on the diagonal, signed crossing counts off it."""
    n = d.strands
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = d.framings[i]
    for a, b, e in d.braid_word:
        rows[a - 1][b - 1] += e
        rows[b - 1][a - 1] += e
    return LinkingMatrix(tuple(tuple(row) for row in rows))


def h1_invariants(m: LinkingMatrix | FramedBraidDiagram) -> H1Invariants:
    """First homology of the surgered manifold presented by the matrix."""
    if isinstance(m, FramedBraidDiagram):
        m = linking_matrix(m)
    if m.size == 0:
        return H1Invariants(factors=(), free_rank=0)
    return cokernel_invariants(m.rows)


@dataclass(frozen=True)
class MoveRecord:
    """Proof obligation attached to a move: the homology must not change."""

    move: str
    detail: str
    h1_before: H1Invariants
    h1_after: H1Invariants

    @property
    def h1_preserved(self) -> bool:
        return self.h1_before == self.h1_after

    def to_json(self) -> dict:
        return {
            "move": self.move,
            "detail": self.detail,
            "h1_before": self.h1_before.to_json(),
            "h1_after": self.h1_after.to_json(),
            "h1_preserved": self.h1_preserved,
        }


def _letters(count: int, i: int, j: int) -> list[BraidLetter]:
    lo, hi = min(i, j), max(i, j)
    sign = 1 if count > 0 else -1
    return [(lo, hi, sign)] * abs(count)


def _record(move: str, detail: str, before: FramedBraidDiagram, after: FramedBraidDiagram) -> MoveRecord:
    return MoveRecord(
        move=move,
        detail=detail,
        h1_before=h1_invariants(before),
        h1_after=h1_invariants(after),
    )


def blow_up(d: FramedBraidDiagram, region: set[int] | list[int] | tuple[int, ...],
            sign: int) -> tuple[FramedBraidDiagram, MoveRecord]:
    """Append a ``sign``-framed strand linking each region member once,
    twisting the region to compensate so the manifold is unchanged."""
    members = sorted({int(i) for i in region})
    if not members:
        raise InvalidMoveError("blow_up region must be nonempty")
    if sign not in (1, -1):
        raise InvalidMoveError("blow_up sign must be +-1")
    if members[0] < 1 or members[-1] > d.strands:
        raise InvalidMoveError(f"region {members} out of range")
    new = d.strands + 1
    word = list(d.braid_word)
    for i in members:
        word.extend(_letters(1, i, new))
    for a_i, i in enumerate(members):
        for j in members[a_i + 1:]:
            word.extend(_letters(sign, i, j))
    framings = list(d.framings)
    for i in members:
        framings[i - 1] += sign
    framings.append(sign)
    out = FramedBraidDiagram(strands=new, braid_word=tuple(word), framings=tuple(framings))
    rec = _record("blow_up", f"region {members}, sign {sign:+d}", d, out)
    return out, rec


def blow_down(d: FramedBraidDiagram, component: int) -> tuple[FramedBraidDiagram, MoveRecord]:
    """Remove a +-1-framed strand, adjusting its neighbors by the quadratic
    rule: framings drop by sign*l(i,c)^2, linkings by sign*l(i,c)*l(j,c)."""
    c = int(component)
    if not 1 <= c <= d.strands:
        raise InvalidMoveError(f"component {c} out of range")
    sign = d.framings[c - 1]
    if sign not in (1, -1):
        raise InvalidMoveError(f"blow_down needs framing +-1, component {c} has {sign}")
    lk = {i: d.linking(i, c) for i in range(1, d.strands + 1) if i != c}

    def shift(i: int) -> int:
        return i if i < c else i - 1

    word: list[BraidLetter] = []
    for a, b, e in d.braid_word:
        if c in (a, b):
            continue
        word.append((shift(a), shift(b), e))
    indices = [i for i in range(1, d.strands + 1) if i != c]
    for a_i, i in enumerate(indices):
        for j in indices[a_i + 1:]:
            delta = -sign * lk[i] * lk[j]
            word.extend(_letters(delta, shift(i), shift(j)))
    framings = [d.framings[i - 1] - sign * lk[i] ** 2 for i in indices]
    out = FramedBraidDiagram(strands=d.strands - 1, braid_word=tuple(word), framings=tuple(framings))
    rec = _record("blow_down", f"component {c}, sign {sign:+d}", d, out)
    return out, rec


def rolfsen_twist(d: FramedBraidDiagram, component: int, t: int) -> tuple[FramedBraidDiagram, MoveRecord]:
    """Add t full twists along the disk of ``component``.

    Strands linking the component pick up t*l(i,c)^2 on their framings and
    t*l(i,c)*l(j,c) on their mutual linkings; the component's own
    coefficient becomes f/(1+t*f), which must stay an integer (so t*f must
    be 0 or -2: a 0-framed component twists freely, a +-1 or +-2 framing
    admits exactly one nontrivial twist count).
    """
    c = int(component)
    t = int(t)
    if not 1 <= c <= d.strands:
        raise InvalidMoveError(f"component {c} out of range")
    f = d.framings[c - 1]
    denom = 1 + t * f
    if denom == 0 or f % denom != 0:
        raise InvalidMoveError(
            f"twisting framing {f} by t={t} leaves the integer calculus"
        )
    lk = {i: d.linking(i, c) for i in range(1, d.strands + 1) if i != c}
    word = list(d.braid_word)
    indices = [i for i in range(1, d.strands + 1) if i != c]
    for a_i, i in enumerate(indices):
        for j in indices[a_i + 1:]:
            word.extend(_letters(t * lk[i] * lk[j], i, j))
    framings = list(d.framings)
    for i in indices:
        framings[i - 1] += t * lk[i] ** 2
    framings[c - 1] = f // denom
    out = FramedBraidDiagram(strands=d.strands, braid_word=tuple(word), framings=tuple(framings))
    rec = _record("rolfsen_twist", f"component {c}, t {t:+d}", d, out)
    return out, rec


def to_planar_open_book(d: FramedBraidDiagram) -> tuple[PlanarPage, TwistWord]:
    """Planar open book of the surgered manifold: one hole per strand,
    one twist letter per braid letter and per nonzero framing."""
    page = PlanarPage(d.strands)
    letters = []
    for i, j, e in d.braid_word:
        letters.append(twist({i, j}, -e))
    for i, f in enumerate(d.framings, start=1):
        if f:
            letters.append(twist({i}, -f))
    return page, TwistWord(page, tuple(letters))
