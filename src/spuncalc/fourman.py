"""Normal forms for open books with boundary-connected-sum pages.

The pages are the paper's 3-dimensional ones (atom dimension m = 2),
built from two kinds of atoms: sphere cylinders S^2 x [0,1] and circle
disks S^1 x D^2. A page is stored as how many atoms of each kind it has:
nothing else about it is read. The monodromies in scope are products of
sphere twists supported on the cylinder atoms and pushes pairing a circle
atom with a cylinder atom. The evaluator works atom-wise:

* cylinder with even twist exponent  -> S^2 x S^2
* cylinder with odd twist exponent   -> the twisted S^2-bundle S^2 x~ S^2
* unpaired circle atom               -> S^1 x S^3
* pushed (circle, cylinder) pair     -> S^4, regardless of the twist
  exponent carried by the paired cylinder (the push absorbs its parity)

and the total space is the connected sum of the atom values, with sphere
summands dropped. The two cylinder rules are ``parity_form``, which also
turns the boundary parities of a planar open book into its target. Results
are compared through a spin-aware normal form: one twisted bundle summand
absorbs the spin condition, so in a pure bundle sum every trivial summand
can be traded for a twisted one. Sums that mix S^1 x S^3 with twisted
bundles are kept symbolic: no absorption across that boundary is asserted.

Remark: all statements are stable under suspension, raising the sphere
dimension of every atom by one; results record that as a note rather than
computing with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

from .errors import InvalidMonodromyError, SpuncalcError, echo, require_integers

DIMENSION_RAISING_NOTE = (
    "stable under suspension: raising every sphere dimension by one embeds "
    "each atom's open book in its one-higher analogue"
)


@dataclass(frozen=True)
class PageForm:
    """Boundary connected sum of ``spheres`` sphere cylinders and ``circles``
    circle disks: the atom counts are all the evaluator reads. No atoms is
    the disk page."""

    spheres: int = 0
    circles: int = 0

    def __post_init__(self) -> None:
        require_integers(SpuncalcError, "atom counts must be integers", self.spheres, self.circles)
        if min(self.spheres, self.circles) < 0:
            raise SpuncalcError("atom counts must be nonnegative")


@dataclass(frozen=True)
class MonodromyForm:
    """Twist exponents per cylinder atom plus circle/cylinder push pairs.

    Indices are 1-based and count atoms of each kind separately, in page
    order. Every index may appear in at most one push pair.
    """

    twist_exponents: tuple[int, ...] = ()
    pushes: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        try:
            twists, pairs = tuple(self.twist_exponents), [(c, s) for c, s in self.pushes]
        except (TypeError, ValueError):
            raise InvalidMonodromyError(
                "twist exponents must be a list and pushes pairs (c, s)") from None
        require_integers(InvalidMonodromyError, "twist exponents and push indices must be integers",
                         *twists, *chain(*pairs))
        object.__setattr__(self, "twist_exponents", twists)
        object.__setattr__(self, "pushes", frozenset(pairs))

    def check(self, page: PageForm) -> None:
        spheres, circles = page.spheres, page.circles
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


@dataclass(frozen=True)
class FourManifoldForm:
    """Connected sum of S^1 x S^3, S^2 x S^2 and S^2 x~ S^2 summands.

    The empty form is the 4-sphere, the identity of connected sum.
    """

    s1_cross_sphere: int = 0
    trivial_bundle: int = 0
    twisted_bundle: int = 0

    def __post_init__(self) -> None:
        require_integers(SpuncalcError, "summand counts must be integers",
                         self.s1_cross_sphere, self.trivial_bundle, self.twisted_bundle)
        if min(self.s1_cross_sphere, self.trivial_bundle, self.twisted_bundle) < 0:
            raise SpuncalcError("summand counts must be nonnegative")

    def is_spin(self) -> bool:
        return self.twisted_bundle == 0

    def connected_sum(self, other: FourManifoldForm) -> FourManifoldForm:
        return FourManifoldForm(
            s1_cross_sphere=self.s1_cross_sphere + other.s1_cross_sphere,
            trivial_bundle=self.trivial_bundle + other.trivial_bundle,
            twisted_bundle=self.twisted_bundle + other.twisted_bundle,
        )

    def describe(self) -> str:
        def block(count: int, name: str) -> str:
            return name if count == 1 else f"#^{count} {name}"

        parts = []
        if self.s1_cross_sphere:
            parts.append(block(self.s1_cross_sphere, "S1xS3"))
        if self.trivial_bundle:
            parts.append(block(self.trivial_bundle, "S2xS2"))
        if self.twisted_bundle:
            parts.append(block(self.twisted_bundle, "S2x~S2"))
        return " # ".join(parts) if parts else "S4"

    def to_json(self) -> dict:
        return {
            "dim": 2,  # the atom dimension m, a constant the report schema keeps
            "s1xs": self.s1_cross_sphere,
            "trivial": self.trivial_bundle,
            "twisted": self.twisted_bundle,
        }


def evaluate_open_book(page: PageForm, mono: MonodromyForm) -> FourManifoldForm:
    """Total space of the open book, as a connected-sum normal form."""
    mono.check(page)
    pushed_spheres = {s for _, s in mono.pushes}
    # a pushed pair gives a sphere summand, dropped; check() made the
    # pairs disjoint, so every push removes one circle atom
    unpushed = [e for s, e in enumerate(mono.twist_exponents, 1) if s not in pushed_spheres]
    circles = FourManifoldForm(s1_cross_sphere=page.circles - len(mono.pushes))
    return circles.connected_sum(parity_form(unpushed))


def parity_form(entries: Sequence[int]) -> FourManifoldForm:
    """The bundle sum an exponent (or parity) sequence fixes: one S^2 x S^2
    summand per even entry and one S^2 x~ S^2 summand per odd one."""
    odd = sum(e % 2 for e in entries)
    return FourManifoldForm(trivial_bundle=len(entries) - odd, twisted_bundle=odd)


def normalize(form: FourManifoldForm) -> FourManifoldForm:
    """Canonical form: in a pure bundle sum with a twisted summand, every
    trivial summand is traded for a twisted one. Mixed sums (with an
    S^1 x S^3 summand) pass through unchanged."""
    if form.twisted_bundle >= 1 and form.s1_cross_sphere == 0:
        return FourManifoldForm(twisted_bundle=form.trivial_bundle + form.twisted_bundle)
    return form


def equal(f: FourManifoldForm, g: FourManifoldForm) -> bool:
    """Equality of normal forms."""
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
