"""Framed braided surgery diagrams and their diagram moves.

A diagram is a pure braid about an axis (every strand wraps the axis once)
together with an integer framing per strand. A braid letter (i, j, e) is
the generator A_ij to a nonzero integer power e. Only net linking matters:
the framings on the diagonal and the summed exponents of each pair off it
give the linking matrix, which presents first homology of the surgered
manifold. A diagram stores that net linking once, as a map from each
linked pair i < j to its linking number.

Moves are pure diagram transforms: each updates the map and the framings
in O(n^2) for n strands, whatever its twist count, and returns the new
diagram (one letter per linked pair, in index order) and a one-line detail
string. ``apply_moves`` runs a move list and audits the chain, computing
H1 once per diagram. The sign conventions in force (also echoed in every
CLI report):

* blow_up(region, sign) appends a new strand with framing ``sign`` that
  links each region member once positively, and compensates by adding
  ``sign`` to the framing of each member and to each linking inside the
  region; blow_down is its exact inverse via the standard quadratic rule.
* exporting a planar open book sends each linked pair {i, j} with net
  linking n to one twist along the curve enclosing {i, j} with exponent
  -n, and a framing f on strand i to a twist along {i} with exponent -f
  (page-framed -1-surgery acts as a positive twist).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .errors import InvalidDiagramError, InvalidMoveError, echo, parse_json, require_integers
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
    """Pure braid word about the axis plus one framing per strand; the derived
    ``net_linking`` maps each linked pair i < j to its exponent sum."""

    strands: int
    braid_word: tuple[BraidLetter, ...] = ()
    framings: tuple[int, ...] = ()
    net_linking: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            word = tuple((i, j, e) for i, j, e in self.braid_word)
            framings = tuple(self.framings)
        except (TypeError, ValueError):
            raise InvalidDiagramError(
                "framings must be a list and braid letters triples (i, j, e)") from None
        require_integers(InvalidDiagramError, "strands, framings and braid letters must be integers",
                         self.strands, *framings, *chain(*word))
        if self.strands < 0:
            raise InvalidDiagramError("strand count must be nonnegative")
        object.__setattr__(self, "braid_word", word)
        object.__setattr__(self, "framings", framings)
        if len(framings) != self.strands:
            raise InvalidDiagramError(f"{len(framings)} framings for {self.strands} strands")
        links: dict[tuple[int, int], int] = {}
        for i, j, e in word:
            if not (1 <= i < j <= self.strands):
                raise InvalidDiagramError(f"braid letter ({echo(i)},{echo(j)}) out of range")
            if e == 0:
                raise InvalidDiagramError(f"braid letter ({echo(i)},{echo(j)}) has exponent 0")
            n = links.pop((i, j), 0) + e
            if n:
                links[i, j] = n
        object.__setattr__(self, "net_linking", links)

    def linking(self, i: int, j: int) -> int:
        if i == j:
            return self.framings[i - 1]
        return self.net_linking.get((min(i, j), max(i, j)), 0)

    def to_json(self) -> dict:
        return {
            "strands": self.strands,
            "framings": list(self.framings),
            "braid": [list(letter) for letter in self.braid_word],
        }

    @staticmethod
    def from_json(data: dict) -> FramedBraidDiagram:
        if "strands" not in data:
            raise InvalidDiagramError("JSON diagram has no 'strands' field")
        return FramedBraidDiagram(data["strands"], data.get("braid", ()), data.get("framings", ()))

    def to_text(self) -> str:
        lines = [f"strands {self.strands}", "framings " + " ".join(map(str, self.framings))]
        lines += [f"A {i} {j} {e:+d}" for i, j, e in self.braid_word]
        return "\n".join(lines) + "\n"


def parse_diagram(text: str) -> FramedBraidDiagram:
    """Parse the text format (``strands n`` / ``framings ...`` / ``A i j e``)
    or the JSON mirror, sniffing the format."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return FramedBraidDiagram.from_json(
            parse_json(stripped, InvalidDiagramError, "malformed JSON diagram"))
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
            raise InvalidDiagramError(f"non-integer field in diagram line: {echo(line)}") from None
        if key == "strands" and len(values) == 1:
            strands = values[0]
        elif key == "framings":
            framings = values
        elif key == "A" and len(values) == 3:
            word.append(values)
        else:
            raise InvalidDiagramError(f"unrecognized diagram line: {echo(line)}")
    if strands is None:
        raise InvalidDiagramError("missing 'strands' line")
    return FramedBraidDiagram(strands=strands, braid_word=tuple(word), framings=framings)


def linking_matrix(d: FramedBraidDiagram) -> LinkingMatrix:
    """Framings on the diagonal, net linking numbers off it."""
    rows = [[f if j == i else 0 for j in range(d.strands)] for i, f in enumerate(d.framings)]
    for (a, b), e in d.net_linking.items():
        rows[a - 1][b - 1] = rows[b - 1][a - 1] = e
    return LinkingMatrix(tuple(tuple(row) for row in rows))


def h1_invariants(d: FramedBraidDiagram) -> H1Invariants:
    """First homology of the surgered manifold: the cokernel of the
    linking matrix."""
    return cokernel_invariants(linking_matrix(d).rows, columns=d.strands)


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


def _rank_one(links: dict[tuple[int, int], int], framings: list[int], u: list[int],
              s: int) -> FramedBraidDiagram:
    """The update all three moves share: add s*u_i*u_j to each linking and
    s*u_i^2 to each framing. The result has one letter per linked pair,
    in index order."""
    support = [i for i, x in enumerate(u, 1) if x]
    for a, i in enumerate(support):
        framings[i - 1] += s * u[i - 1] ** 2
        for j in support[a + 1:]:
            links[i, j] = links.get((i, j), 0) + s * u[i - 1] * u[j - 1]
    word = tuple((i, j, n) for (i, j), n in sorted(links.items()) if n)
    return FramedBraidDiagram(len(framings), word, tuple(framings))


def blow_up(d: FramedBraidDiagram, region: set[int] | list[int] | tuple[int, ...],
            sign: int) -> tuple[FramedBraidDiagram, str]:
    """Append a ``sign``-framed strand linking each region member once,
    twisting the region to compensate so the manifold is unchanged."""
    require_integers(InvalidMoveError, "move arguments must be integers", sign, *region)
    members = sorted(set(region))
    if not members:
        raise InvalidMoveError("blow_up region must be nonempty")
    if sign not in (1, -1):
        raise InvalidMoveError("blow_up sign must be +-1")
    if members[0] < 1 or members[-1] > d.strands:
        raise InvalidMoveError(f"region {echo(members)} out of range")
    new = d.strands + 1
    links = {**d.net_linking, **{(i, new): 1 for i in members}}
    u = [1 if i in members else 0 for i in range(1, new)]
    return (_rank_one(links, [*d.framings, sign], u, sign),
            f"region {members}, sign {sign:+d}")


def blow_down(d: FramedBraidDiagram, component: int) -> tuple[FramedBraidDiagram, str]:
    """Remove a +-1-framed strand, adjusting its neighbors by the quadratic
    rule: framings drop by sign*l(i,c)^2, linkings by sign*l(i,c)*l(j,c)."""
    require_integers(InvalidMoveError, "move arguments must be integers", component)
    c = component
    if not 1 <= c <= d.strands:
        raise InvalidMoveError(f"component {c} out of range")
    sign = d.framings[c - 1]
    if sign not in (1, -1):
        raise InvalidMoveError(f"blow_down needs framing +-1, component {c} has {sign}")
    # the strands after c move down one place, in order
    links = {(a - (a > c), b - (b > c)): n
             for (a, b), n in d.net_linking.items() if c not in (a, b)}
    framings = [f for i, f in enumerate(d.framings, 1) if i != c]
    u = [d.linking(i, c) for i in range(1, d.strands + 1) if i != c]
    return _rank_one(links, framings, u, -sign), f"component {c}, sign {sign:+d}"


def rolfsen_twist(d: FramedBraidDiagram, component: int, t: int) -> tuple[FramedBraidDiagram, str]:
    """Add t full twists along the disk of ``component``.

    Strands linking the component pick up t*l(i,c)^2 on their framings and
    t*l(i,c)*l(j,c) on their mutual linkings; the component's own
    coefficient becomes f/(1+t*f), which must stay an integer (so t*f must
    be 0 or -2: a 0-framed component twists freely, a +-1 or +-2 framing
    admits exactly one nontrivial twist count).
    """
    require_integers(InvalidMoveError, "move arguments must be integers", component, t)
    c = component
    if not 1 <= c <= d.strands:
        raise InvalidMoveError(f"component {c} out of range")
    f = d.framings[c - 1]
    denom = 1 + t * f
    if denom == 0 or f % denom != 0:
        raise InvalidMoveError(f"twisting framing {f} by t={t} leaves the integer calculus")
    framings = list(d.framings)
    framings[c - 1] = f // denom
    u = [0 if i == c else d.linking(i, c) for i in range(1, d.strands + 1)]
    return _rank_one(dict(d.net_linking), framings, u, t), f"component {c}, t {t:+d}"


def _field(move: dict, key: str):
    try:
        return move[key]
    except (KeyError, TypeError):
        raise InvalidMoveError(f"move {echo(move)} has no {key!r} field") from None


def _int(move: dict, key: str) -> int:
    value = _field(move, key)
    require_integers(InvalidMoveError, f"move {echo(move)}: {key!r} must be an integer", value)
    return value


def _apply(d: FramedBraidDiagram, move: dict) -> tuple[FramedBraidDiagram, str]:
    kind = _field(move, "move")
    if kind == "blow_up":
        region = _field(move, "region")
        if not isinstance(region, list) or any(type(i) is not int for i in region):
            raise InvalidMoveError(f"move {echo(move)}: 'region' must be a list of integers")
        return blow_up(d, region, _int(move, "sign"))
    if kind == "blow_down":
        return blow_down(d, _int(move, "component"))
    if kind == "rolfsen_twist":
        return rolfsen_twist(d, _int(move, "component"), _int(move, "twists"))
    raise InvalidMoveError(f"unknown move kind: {echo(kind)}")


def apply_moves(d: FramedBraidDiagram, moves: list[dict],
                ) -> tuple[FramedBraidDiagram, list[H1Invariants], list[MoveRecord]]:
    """Apply a JSON move list to ``d`` and audit the chain.

    Returns the final diagram, the H1 of every diagram in the chain (input
    first; computed once each, after every move has applied) and one
    record per move built from adjacent entries.
    """
    if not isinstance(moves, list):
        raise InvalidMoveError(f"a move list must be a JSON list, got {type(moves).__name__}")
    chain = [d]
    details = []
    for move in moves:
        d, detail = _apply(d, move)
        chain.append(d)
        details.append(detail)
    h1 = [h1_invariants(x) for x in chain]
    log = [MoveRecord(move["move"], detail, before, after)
           for move, detail, before, after in zip(moves, details, h1, h1[1:])]
    return d, h1, log


def to_planar_open_book(d: FramedBraidDiagram) -> tuple[PlanarPage, TwistWord]:
    """Planar open book of the surgered manifold: one hole per strand, one
    twist letter per linked pair (in index order) and per nonzero framing."""
    page = PlanarPage(d.strands)
    letters = [twist({i, j}, -n) for (i, j), n in sorted(d.net_linking.items())]
    letters += [twist({i}, -f) for i, f in enumerate(d.framings, start=1) if f]
    return page, TwistWord(page, tuple(letters))
