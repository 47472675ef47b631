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
string. ``apply_moves`` runs a move list and audits the chain: each move
carries a certificate, elementary unimodular matrices E and F with
E L F equal to L' up to a split-off +-1 block (L and L' the linking
matrices before and after the move), checked in O(n^2). That is an
isomorphism of first homology, so H1 takes a Smith form only on the
input, and on both sides of any move whose certificate fails; the final
diagram's ranks mod 2 and mod 3 are checked against the input's H1. The
sign conventions in force (also echoed in every CLI report):

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

from functools import cache
from itertools import chain
from typing import Callable

from .errors import (InvalidDiagramError, InvalidMoveError, Value, echo, integers, parse_json,
                     require_integers, unchecked)
from .homology import H1Invariants, Rows, cokernel_invariants
from .modp import invariants_agree
from .planar import CurveClass, DehnTwist, PlanarPage, TwistWord

SIGN_CONVENTIONS = {
    "page_framed_surgery": "-1-surgery along a page curve acts as a positive Dehn twist",
    "framing_to_twist_exponent": "strand framing f contributes exponent -f on its boundary curve",
    "braid_letter_to_twist_exponent": "braid letter sign e contributes exponent -e on the pair curve",
    "blow_up_linking": "a blown-up strand links each region member once positively",
}

BraidLetter = tuple[int, int, int]

# most strands a diagram may have: a move chain takes a Smith form of its
# input, which costs about one Bareiss elimination, growing faster than the
# cube of the strand count (a dense 199-strand chain of three moves takes
# about 1.4 s on a 2-core machine)
MAX_STRANDS = 200


def _require_at_most_max_strands(strands: int) -> None:
    if strands > MAX_STRANDS:
        raise InvalidDiagramError(f"at most {MAX_STRANDS} strands, got {strands}")


class FramedBraidDiagram(Value):
    """Pure braid word about the axis plus one framing per strand; the derived
    ``net_linking`` maps each linked pair i < j to its exponent sum. The
    constructor checks every field; the moves build their results with
    ``errors.unchecked``."""

    __slots__ = ("strands", "braid_word", "framings", "net_linking")
    _compared = ("strands", "braid_word", "framings")  # net_linking is derived from them

    def __init__(self, strands: int, braid_word: tuple[BraidLetter, ...] = (),
                 framings: tuple[int, ...] = ()) -> None:
        try:
            word = tuple((i, j, e) for i, j, e in braid_word)
            framings = tuple(framings)
        except (TypeError, ValueError):
            raise InvalidDiagramError(
                "framings must be a list and braid letters triples (i, j, e)") from None
        require_integers(InvalidDiagramError, "strands, framings and braid letters must be integers",
                         strands, *framings, *chain(*word))
        if strands < 0:
            raise InvalidDiagramError("strand count must be nonnegative")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "braid_word", word)
        object.__setattr__(self, "framings", framings)
        if len(framings) != strands:
            raise InvalidDiagramError(f"{len(framings)} framings for {echo(strands)} strands")
        _require_at_most_max_strands(strands)
        links: dict[tuple[int, int], int] = {}
        for i, j, e in word:
            if not (1 <= i < j <= strands):
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
        unknown = [key for key in data if key not in ("strands", "framings", "braid")]
        if unknown:
            raise InvalidDiagramError(f"JSON diagram has unknown field {echo(unknown[0])}")
        return FramedBraidDiagram(data["strands"], data.get("braid", ()), data.get("framings", ()))

    def to_text(self) -> str:
        lines = [f"strands {self.strands}", "framings " + " ".join(map(str, self.framings))]
        lines += [f"A {i} {j} {e:+d}" for i, j, e in self.braid_word]
        return "\n".join(lines) + "\n"


def parse_diagram(text: str) -> FramedBraidDiagram:
    """Parse the text format (``strands n`` / ``framings ...`` / ``A i j e``,
    each header line once) or the JSON mirror, sniffing the format."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return FramedBraidDiagram.from_json(
            parse_json(stripped, InvalidDiagramError, "malformed JSON diagram"))
    headers: dict[str, tuple[int, ...]] = {}  # the strands and framings lines, once each
    word: list[BraidLetter] = []
    for raw in stripped.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, *fields = line.split(maxsplit=1)
        try:
            values = integers("".join(fields))  # one check for the whole line
        except ValueError:
            raise InvalidDiagramError(f"non-integer field in diagram line: {echo(line)}") from None
        if (key == "strands" and len(values) == 1) or key == "framings":
            if key in headers:
                raise InvalidDiagramError(f"repeated {key} line: {echo(line)}")
            headers[key] = values
        elif key == "A" and len(values) == 3:
            word.append(values)
        else:
            raise InvalidDiagramError(f"unrecognized diagram line: {echo(line)}")
    if "strands" not in headers:
        raise InvalidDiagramError("missing 'strands' line")
    return FramedBraidDiagram(strands=headers["strands"][0], braid_word=tuple(word),
                              framings=headers.get("framings", ()))


def linking_matrix(d: FramedBraidDiagram) -> Rows:
    """The linking rows: framings on the diagonal, net linking numbers off
    it, as a tuple of int tuples. The diagram was checked, so the rows are
    square, symmetric ints by construction."""
    rows = [[0] * d.strands for _ in d.framings]
    for i, f in enumerate(d.framings):
        rows[i][i] = f
    for (a, b), e in d.net_linking.items():
        rows[a - 1][b - 1] = rows[b - 1][a - 1] = e
    return tuple(map(tuple, rows))


def h1_invariants(rows: Rows) -> H1Invariants:
    """First homology of the surgered manifold: the cokernel of its linking
    rows (``linking_matrix``), which are square, one row and one column
    per strand."""
    return cokernel_invariants(rows, columns=len(rows))


def _rank_one(links: dict[tuple[int, int], int], framings: list[int], u: list[int],
              s: int) -> FramedBraidDiagram:
    """The update all three moves share: add s*u_i*u_j to each linking and
    s*u_i^2 to each framing. The result has one letter per linked pair,
    in index order, and at most MAX_STRANDS strands; the moves checked
    their arguments, so it is built unchecked."""
    _require_at_most_max_strands(len(framings))
    support = [i for i, x in enumerate(u, 1) if x]
    for a, i in enumerate(support):
        framings[i - 1] += s * u[i - 1] ** 2
        for j in support[a + 1:]:
            links[i, j] = links.get((i, j), 0) + s * u[i - 1] * u[j - 1]
    links = {pair: n for pair in sorted(links) if (n := links[pair])}
    return unchecked(FramedBraidDiagram, strands=len(framings), framings=tuple(framings),
                     braid_word=tuple((i, j, n) for (i, j), n in links.items()), net_linking=links)


def blow_up(d: FramedBraidDiagram, region: set[int] | list[int] | tuple[int, ...],
            sign: int) -> tuple[FramedBraidDiagram, str]:
    """Append a ``sign``-framed strand linking each region member once,
    twisting the region to compensate so the manifold is unchanged."""
    require_integers(InvalidMoveError, "'region' must be a list of integers", *region)
    require_integers(InvalidMoveError, "'sign' must be an integer", sign)
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
    require_integers(InvalidMoveError, "'component' must be an integer", component)
    c = component
    if not 1 <= c <= d.strands:
        raise InvalidMoveError(f"component {echo(c)} out of range")
    sign = d.framings[c - 1]
    if sign not in (1, -1):
        raise InvalidMoveError(f"blow_down needs framing +-1, component {echo(c)} has {echo(sign)}")
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
    require_integers(InvalidMoveError, "'component' must be an integer", component)
    require_integers(InvalidMoveError, "'twists' must be an integer", t)
    c = component
    if not 1 <= c <= d.strands:
        raise InvalidMoveError(f"component {echo(c)} out of range")
    f = d.framings[c - 1]
    denom = 1 + t * f
    if denom == 0 or f % denom != 0:
        raise InvalidMoveError(
            f"twisting framing {echo(f)} by t={echo(t)} leaves the integer calculus")
    framings = list(d.framings)
    framings[c - 1] = f // denom
    u = [0 if i == c else d.linking(i, c) for i in range(1, d.strands + 1)]
    return _rank_one(dict(d.net_linking), framings, u, t), f"component {c}, t {t:+d}"


# Move certificates (Gompf-Stipsicz, 4-Manifolds and Kirby Calculus, 5.1):
# each builds E and F from the old linking matrix and the move's arguments
# alone, as products of transvections (add k times line c to another line)
# and a column sign, so both are unimodular, and compares E L F with the
# new matrix. None of them calls _rank_one, so a fault in the update the
# moves share shows as a failed certificate.


def _add_rows(m: list[list[int]], c: int, factors: dict[int, int]) -> None:
    """m <- E m: add factors[i] times row c to each row i != c."""
    pivot = m[c]
    for i, k in factors.items():
        m[i] = [a + k * b for a, b in zip(m[i], pivot)]


def _add_columns(m: list[list[int]], c: int, factors: dict[int, int]) -> None:
    """m <- m F: add factors[j] times column c to each column j != c."""
    for row in m:
        x = row[c]
        if x:
            for j, k in factors.items():
                row[j] += k * x


def _blow_up_certified(old: Rows, new: Rows, region: list[int], s: int) -> bool:
    """E diag(L, s) F = L': add s times the new strand's row, whose only
    entry is s, to each region member's row, then the same for columns.
    With s = +-1 the block (s) splits off."""
    n = len(old)
    m = [[*row, 0] for row in old] + [[0] * n + [s]]
    factors = {i - 1: s for i in set(region)}
    _add_rows(m, n, factors)
    _add_columns(m, n, factors)
    return s in (1, -1) and tuple(map(tuple, m)) == new


def _blow_down_certified(old: Rows, new: Rows, c: int) -> bool:
    """E L F = L' with the block (s) inserted at index c, s = L_cc = +-1: E
    subtracts s*L_ic times row c from each other row i, which with s^2 = 1
    clears column c off the diagonal; F, the same on columns, then clears
    row c and changes nothing else, so only E is applied."""
    m = [list(row) for row in old]
    s = m[c][c]
    _add_rows(m, c, {i: -s * x for i, x in enumerate(m[c]) if x and i != c})
    del m[c]
    for row in m:
        del row[c]
    return s in (1, -1) and tuple(map(tuple, m)) == new


def _twist_certified(old: Rows, new: Rows, c: int, t: int) -> bool:
    """E L F = L': E adds t*L_ic times row c to each other row i; F negates
    column c when t*f = -2 (f = L_cc) and is the identity otherwise."""
    m = [list(row) for row in old]
    _add_rows(m, c, {i: t * x for i, x in enumerate(m[c]) if x and i != c})
    if t * old[c][c] == -2:
        for row in m:
            row[c] = -row[c]
    return tuple(map(tuple, m)) == new


def _field(move: dict, key: str):
    try:
        return move[key]
    except (KeyError, TypeError):
        raise InvalidMoveError(f"move {echo(move)} has no {key!r} field") from None


# each move kind's argument keys, in the order its function takes them
_MOVE_FIELDS = {"blow_up": ("region", "sign"), "blow_down": ("component",),
                "rolfsen_twist": ("component", "twists")}


def _apply(d: FramedBraidDiagram, move: dict,
           ) -> tuple[FramedBraidDiagram, str, Callable[[Rows, Rows], bool]]:
    """The move's result, its detail string and its certificate, a test of
    the linking rows before and after the move. Only the JSON shape is
    checked here (kind, keys, fields present, ``region`` a list); the move
    function checks its arguments, and its error gets the move's echo."""
    kind = _field(move, "move")
    keys = _MOVE_FIELDS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise InvalidMoveError(f"unknown move kind: {echo(kind)}")
    unknown = [key for key in move if key != "move" and key not in keys]
    if unknown:
        raise InvalidMoveError(f"move {echo(move)} has unknown field {echo(unknown[0])}")
    args = [_field(move, key) for key in keys]
    if kind == "blow_up" and not isinstance(args[0], list):
        raise InvalidMoveError(f"move {echo(move)}: 'region' must be a list of integers")
    try:
        if kind == "blow_up":
            return *blow_up(d, *args), lambda old, new: _blow_up_certified(old, new, *args)
        c, *t = args  # the component, then a twist's count
        if kind == "blow_down":
            return *blow_down(d, c), lambda old, new: _blow_down_certified(old, new, c - 1)
        return *rolfsen_twist(d, c, *t), lambda old, new: _twist_certified(old, new, c - 1, *t)
    except InvalidMoveError as exc:
        raise InvalidMoveError(f"move {echo(move)}: {exc}") from None


def apply_moves(d: FramedBraidDiagram, moves: list[dict],
                ) -> tuple[FramedBraidDiagram, list[H1Invariants], bool, list[str]]:
    """Apply a JSON move list to ``d`` and audit the chain; each move is
    checked as ``_apply`` runs it, and an error starts with its echo.

    Returns the final diagram, the H1 of every diagram in the chain (input
    first; the last is the final diagram's), whether the input's H1 agrees
    with the final linking matrix's ranks mod 2 and mod 3 (see
    ``modp.invariants_agree``), and each move's detail string; move i
    preserves H1 when ``h1[i] == h1[i + 1]``. After every move has applied,
    each diagram's linking rows are built once. The input's H1 is its Smith
    form, and each move whose certificate holds carries it on, so a chain
    whose certificates all hold takes one Smith form. A move whose
    certificate fails takes the Smith forms of the diagrams on both sides.
    The ranks of the final matrix share no code with the Smith form, so a
    fault in it, or in a certificate, shows as a disagreement where it
    changes how many invariant factors 2 or 3 divides, or the free rank.
    """
    if not isinstance(moves, list):
        raise InvalidMoveError(f"a move list must be a JSON list, got {type(moves).__name__}")
    chain = [d]
    details = []
    certificates = []
    for move in moves:
        d, detail, certificate = _apply(d, move)
        chain.append(d)
        details.append(detail)
        certificates.append(certificate)
    rows = [linking_matrix(x) for x in chain]

    @cache
    def computed(i: int) -> H1Invariants:
        return h1_invariants(rows[i])

    h1 = [computed(0)]
    for i, certificate in enumerate(certificates):
        if certificate(rows[i], rows[i + 1]):
            h1.append(h1[i])
        else:
            h1[i] = computed(i)
            h1.append(computed(i + 1))
    agrees = invariants_agree(h1[0].factors, h1[0].free_rank, d.strands, rows[-1])
    return d, h1, agrees, details


def to_planar_open_book(d: FramedBraidDiagram) -> tuple[PlanarPage, TwistWord]:
    """Planar open book of the surgered manifold: one hole per strand, one
    twist letter per linked pair (in index order) and per nonzero framing.
    The pairs i < j and the holes come from the diagram, so each curve and
    the word are built unchecked, an adjacent pair as its one run."""
    page = PlanarPage(d.strands)
    letters = [(DehnTwist(unchecked(CurveClass, runs=((i, j),) if j == i + 1 else
                                    ((i, i), (j, j)))), -n)
               for (i, j), n in sorted(d.net_linking.items())]
    letters += [(DehnTwist(unchecked(CurveClass, runs=((i, i),))), -f)
                for i, f in enumerate(d.framings, start=1) if f]
    return page, unchecked(TwistWord, page=page, letters=tuple(letters))
