"""Normal forms for open books with boundary-connected-sum pages.

Pages are built from two kinds of atoms of a common dimension m+1: sphere
cylinders S^m x [0,1] and circle disks S^1 x D^m. The monodromies in scope
are products of sphere twists supported on the cylinder atoms and pushes
pairing a circle atom with a cylinder atom. The evaluator works atom-wise:

* cylinder with even twist exponent  -> S^2 x S^m
* cylinder with odd twist exponent   -> twisted S^m-bundle over S^2
* unpaired circle atom               -> S^1 x S^(m+1)
* pushed (circle, cylinder) pair     -> S^(m+2), regardless of the twist
  exponent carried by the paired cylinder (the push absorbs its parity)

and the total space is the connected sum of the atom values, with sphere
summands dropped. The two cylinder rules are ``parity_form``, which also
turns the boundary parities of a planar open book into its target. Results
are compared through a spin-aware normal form: one twisted bundle summand
absorbs the spin condition, so in a pure bundle sum every trivial summand
can be traded for a twisted one. Sums that mix S^1 x S^(m+1) with twisted
bundles are kept symbolic: no absorption across that boundary is asserted.

All statements are stable under raising the sphere dimension of every atom
by one; results record that as a note rather than computing with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence, Union

from .errors import (
    DimensionMismatchError,
    InvalidMonodromyError,
    NotComparableError,
    SpuncalcError,
    echo,
    require_integers,
)

DIMENSION_RAISING_NOTE = (
    "stable under suspension: raising every sphere dimension by one embeds "
    "each atom's open book in its one-higher analogue"
)


@dataclass(frozen=True)
class _Atom:
    """A page atom: its dimension m is all the data it carries."""

    m: int

    def __post_init__(self) -> None:
        require_integers(DimensionMismatchError, "atom dimension m must be an integer", self.m)
        if self.m < 1:
            raise DimensionMismatchError("atom dimension m must be >= 1")


class SphereCyl(_Atom):
    """S^m x [0,1]: the sphere cylinder atom."""

    def __str__(self) -> str:
        return f"S{self.m}x[0,1]"


class CircleDisk(_Atom):
    """S^1 x D^m: the circle disk atom."""

    def __str__(self) -> str:
        return f"S1xD{self.m}"


PageAtom = Union[SphereCyl, CircleDisk]


@dataclass(frozen=True)
class PageForm:
    """Boundary connected sum of atoms; the empty sum is the disk page."""

    atoms: tuple[PageAtom, ...] = ()
    dim: int = 2

    def __post_init__(self) -> None:
        require_integers(DimensionMismatchError, "page dimension m must be an integer", self.dim)
        atoms = tuple(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if atoms:
            ms = {atom.m for atom in atoms}
            if len(ms) > 1:
                raise DimensionMismatchError(f"atoms of mixed dimensions {echo(sorted(ms))}")
            object.__setattr__(self, "dim", atoms[0].m)
        elif self.dim < 1:
            raise DimensionMismatchError("page dimension m must be >= 1")

    def sphere_count(self) -> int:
        return sum(1 for a in self.atoms if isinstance(a, SphereCyl))

    def circle_count(self) -> int:
        return sum(1 for a in self.atoms if isinstance(a, CircleDisk))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [
                {"kind": "sphere_cyl" if isinstance(a, SphereCyl) else "circle_disk", "m": a.m}
                for a in self.atoms
            ],
        }

    @staticmethod
    def from_json(data: dict) -> PageForm:
        atoms: list[PageAtom] = []
        for item in data.get("atoms", []):
            cls = SphereCyl if item["kind"] == "sphere_cyl" else CircleDisk
            atoms.append(cls(item["m"]))
        return PageForm(tuple(atoms), dim=data.get("dim", 2))


@dataclass(frozen=True)
class MonodromyForm:
    """Twist exponents per cylinder atom plus circle/cylinder push pairs.

    Indices are 1-based and count atoms of each kind separately, in page
    order. Every index may appear in at most one push pair.
    """

    twist_exponents: tuple[int, ...] = ()
    pushes: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        twists, pairs = tuple(self.twist_exponents), [(c, s) for c, s in self.pushes]
        require_integers(InvalidMonodromyError, "twist exponents and push indices must be integers",
                         *twists, *chain(*pairs))
        object.__setattr__(self, "twist_exponents", twists)
        object.__setattr__(self, "pushes", frozenset(pairs))

    def check(self, page: PageForm) -> None:
        spheres = page.sphere_count()
        circles = page.circle_count()
        if len(self.twist_exponents) != spheres:
            raise InvalidMonodromyError(
                f"{len(self.twist_exponents)} twist exponents for {spheres} cylinder atoms"
            )
        used_c: set[int] = set()
        used_s: set[int] = set()
        for c, s in self.pushes:
            if not 1 <= c <= circles:
                raise InvalidMonodromyError(f"push references circle atom {echo(c)} of {circles}")
            if not 1 <= s <= spheres:
                raise InvalidMonodromyError(f"push references cylinder atom {echo(s)} of {spheres}")
            if c in used_c or s in used_s:
                raise InvalidMonodromyError("an atom may appear in at most one push pair")
            used_c.add(c)
            used_s.add(s)

    def to_json(self) -> dict:
        return {
            "twists": list(self.twist_exponents),
            "pushes": sorted([c, s] for c, s in self.pushes),
        }

    @staticmethod
    def from_json(data: dict) -> MonodromyForm:
        return MonodromyForm(
            twist_exponents=tuple(data.get("twists", [])),
            pushes=frozenset(tuple(p) for p in data.get("pushes", [])),
        )


@dataclass(frozen=True)
class FourManifoldForm:
    """Connected sum of S^1 x S^(m+1), S^2 x S^m and twisted S^m-bundle summands.

    The empty form is the (m+2)-sphere, the identity of connected sum.
    """

    dim: int = 2
    s1_cross_sphere: int = 0
    trivial_bundle: int = 0
    twisted_bundle: int = 0

    def __post_init__(self) -> None:
        require_integers(SpuncalcError, "form dimension and summand counts must be integers",
                         self.dim, self.s1_cross_sphere, self.trivial_bundle, self.twisted_bundle)
        if self.dim < 1:
            raise DimensionMismatchError("form dimension m must be >= 1")
        if min(self.s1_cross_sphere, self.trivial_bundle, self.twisted_bundle) < 0:
            raise SpuncalcError("summand counts must be nonnegative")

    def is_sphere(self) -> bool:
        return not (self.s1_cross_sphere or self.trivial_bundle or self.twisted_bundle)

    def is_spin(self) -> bool:
        return self.twisted_bundle == 0

    def summand_count(self) -> int:
        return self.s1_cross_sphere + self.trivial_bundle + self.twisted_bundle

    def connected_sum(self, other: FourManifoldForm) -> FourManifoldForm:
        if self.dim != other.dim:
            raise NotComparableError("connected sum of forms in different dimensions")
        return FourManifoldForm(
            dim=self.dim,
            s1_cross_sphere=self.s1_cross_sphere + other.s1_cross_sphere,
            trivial_bundle=self.trivial_bundle + other.trivial_bundle,
            twisted_bundle=self.twisted_bundle + other.twisted_bundle,
        )

    def __add__(self, other: FourManifoldForm) -> FourManifoldForm:
        return self.connected_sum(other)

    def describe(self) -> str:
        m = self.dim

        def block(count: int, name: str) -> str:
            return name if count == 1 else f"#^{count} {name}"

        parts = []
        if self.s1_cross_sphere:
            parts.append(block(self.s1_cross_sphere, f"S1xS{m + 1}"))
        if self.trivial_bundle:
            parts.append(block(self.trivial_bundle, f"S2xS{m}"))
        if self.twisted_bundle:
            parts.append(block(self.twisted_bundle, f"S2x~S{m}"))
        return " # ".join(parts) if parts else f"S{m + 2}"

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "s1xs": self.s1_cross_sphere,
            "trivial": self.trivial_bundle,
            "twisted": self.twisted_bundle,
        }

    @staticmethod
    def from_json(data: dict) -> FourManifoldForm:
        return FourManifoldForm(
            dim=data.get("dim", 2),
            s1_cross_sphere=data.get("s1xs", 0),
            trivial_bundle=data.get("trivial", 0),
            twisted_bundle=data.get("twisted", 0),
        )


def evaluate_open_book(page: PageForm, mono: MonodromyForm) -> FourManifoldForm:
    """Total space of the open book, as a connected-sum normal form."""
    mono.check(page)
    pushed_spheres = {s for _, s in mono.pushes}
    # a pushed pair gives a sphere summand, dropped; check() made the
    # pairs disjoint, so every push removes one circle atom
    unpushed = [e for s, e in enumerate(mono.twist_exponents, 1) if s not in pushed_spheres]
    circles = FourManifoldForm(dim=page.dim,
                               s1_cross_sphere=page.circle_count() - len(mono.pushes))
    return circles + parity_form(unpushed, page.dim)


def parity_form(entries: Sequence[int], dim: int = 2) -> FourManifoldForm:
    """The bundle sum an exponent (or parity) sequence fixes: one S^2 x S^m
    summand per even entry and one twisted S^m-bundle summand per odd one."""
    odd = sum(e % 2 for e in entries)
    return FourManifoldForm(dim=dim, trivial_bundle=len(entries) - odd, twisted_bundle=odd)


def normalize(form: FourManifoldForm) -> FourManifoldForm:
    """Canonical form: in a pure bundle sum with a twisted summand, every
    trivial summand is traded for a twisted one. Mixed sums (with an
    S^1 x S^(m+1) summand) pass through unchanged."""
    if form.twisted_bundle >= 1 and form.s1_cross_sphere == 0:
        return FourManifoldForm(
            dim=form.dim,
            s1_cross_sphere=0,
            trivial_bundle=0,
            twisted_bundle=form.trivial_bundle + form.twisted_bundle,
        )
    return form


def equal(f: FourManifoldForm, g: FourManifoldForm) -> bool:
    """Equality of normal forms; raises when the dimensions differ."""
    if f.dim != g.dim:
        raise NotComparableError(f"forms in dimensions {f.dim} and {g.dim}")
    return normalize(f) == normalize(g)


def twist_image(sphere: Iterable[int], count: int) -> tuple[int, ...]:
    """Class in (Z/2)^count of the twist along the sphere tubed from the
    cores indexed by ``sphere``: the indicator vector of the subset."""
    subset = set(sphere)
    require_integers(SpuncalcError, "tubing indices must be integers", *subset)
    if not subset:
        raise SpuncalcError("twist_image of an empty tubing subset")
    if not all(1 <= i <= count for i in subset):
        raise SpuncalcError(f"tubing subset {echo(sorted(subset))} out of range 1..{count}")
    return tuple(1 if i in subset else 0 for i in range(1, count + 1))


def boundary_sphere_images(n: int) -> list[tuple[int, ...]]:
    """Twist classes of the n+1 boundary spheres of a ball with n subballs
    removed: the n inner spheres and the outer one (which tubes them all)."""
    if n < 1:
        raise SpuncalcError("need at least one inner sphere")
    images = [twist_image({i}, n) for i in range(1, n + 1)]
    images.append(twist_image(range(1, n + 1), n))
    return images


def z2_sum(vectors: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """Componentwise sum over Z/2."""
    if not vectors:
        raise SpuncalcError("empty sum")
    length = len(vectors[0])
    if any(len(v) != length for v in vectors):
        raise SpuncalcError("vectors of different lengths")
    return tuple(sum(col) % 2 for col in zip(*vectors))
