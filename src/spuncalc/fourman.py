"""The atom evaluator of open books with boundary-connected-sum pages,
the equality of targets and the twist classes of tubed spheres.

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
summands dropped. The two cylinder rules are ``spun.parity_form``, and
``equal`` compares normal forms. Of the commands, only the atom cases of
``corpus run`` reach this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

from .errors import InvalidMonodromyError, SpuncalcError, echo, require_integers
from .spun import FourManifoldForm, normalize, parity_form


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


def evaluate_open_book(page: PageForm, mono: MonodromyForm) -> FourManifoldForm:
    """Total space of the open book, as a connected-sum normal form."""
    mono.check(page)
    pushed_spheres = {s for _, s in mono.pushes}
    # a pushed pair gives a sphere summand, dropped; check() made the
    # pairs disjoint, so every push removes one circle atom
    unpushed = [e for s, e in enumerate(mono.twist_exponents, 1) if s not in pushed_spheres]
    circles = FourManifoldForm(s1_cross_sphere=page.circles - len(mono.pushes))
    return circles.connected_sum(parity_form(unpushed))


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
