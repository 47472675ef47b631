"""Exceptions, the input checks parsers and constructors share, the value
class base ``Value``, and ``unchecked``.

Everything derives from SpuncalcError (a ValueError), so callers can catch
one type at an API boundary while tests pin down the specific failure.
"""

import json
from typing import Callable, TypeVar

T = TypeVar("T")


class SpuncalcError(ValueError):
    """Base class for all errors raised by this package."""


class InvalidWordError(SpuncalcError):
    """A twist word references boundary components outside its page."""


class PushLetterError(SpuncalcError):
    """An operation that only accepts Dehn twist letters was given a push."""


class InvalidMonodromyError(SpuncalcError):
    """A monodromy form does not fit its page (dangling or reused index)."""


class InvalidDiagramError(SpuncalcError):
    """A framed braid diagram violates its structural invariants."""


class InvalidMoveError(SpuncalcError):
    """A surgery-diagram move is not applicable to the given component."""


class MalformedPairingError(SpuncalcError):
    """The sphere-certificate pairing of boundaries and pushes is broken."""


class ConditionNotApplicableError(SpuncalcError):
    """The word is outside the class the sphere certificate can judge."""


class InvalidPresentationError(SpuncalcError):
    """A group presentation (or its serialized form) is malformed."""


# most characters of an input value that an error message repeats
ECHO_CHARS = 200


def echo(value: object, show: Callable[[object], str] = repr) -> str:
    """``show(value)`` (its repr by default) for an error message that
    repeats input, cut to ECHO_CHARS characters ending in ``...``: a
    value of any size leaves the error one short line."""
    try:
        text = show(value)
    except ValueError:  # an int of more than 4,300 digits has no str()
        return f"<{type(value).__name__} too long to show>"
    return text if len(text) <= ECHO_CHARS else text[:ECHO_CHARS - 3] + "..."


def require_integers(error: type[SpuncalcError], message: str, *values: object) -> None:
    """Raise ``error`` unless every value is an int: validated, never
    coerced, since int() would read 2.9 and "2" as 2 and True as 1."""
    for x in values:
        if type(x) is not int:
            raise error(f"{message}, got {echo(x)}")


def integers(text: str) -> tuple[int, ...]:
    """The whitespace-separated integers of ``text``, each spelt [+-]?[0-9]+
    in ASCII. int() alone would also read "1_0" as 10 and digits other than
    ASCII ones, which a report would then spell differently; one scan of the
    whole text rules both out. ValueError on any other spelling, and on an
    integer of more than 4,300 digits, which int() refuses."""
    if not text.isascii() or "_" in text:
        raise ValueError("integers are spelt [+-]?[0-9]+")
    return tuple(map(int, text.split()))


def integer(text: str) -> int:
    """The one integer of ``text``, spelt as ``integers`` reads it: the type
    of an integer argument in ``cli.COMMANDS``, for both argv readers. The
    table reader leaves a value it refuses to argparse, whose message names it."""
    (value,) = integers(text)
    return value


class Value:
    """Base of the package's value classes. A class lists its fields in
    ``__slots__``, so an object has no ``__dict__``, and its ``__init__``
    sets each once with ``object.__setattr__``; after that a field cannot
    be assigned or deleted. Equality (between objects of one class only),
    hash and repr read the fields ``_compared`` names: all of
    ``__slots__`` unless the class names fewer."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._compared = cls.__dict__.get("_compared", cls.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({fields})"


def unchecked(cls: type[T], **fields: object) -> T:
    """The value class ``cls`` of ``fields``, built without its checks, for
    objects derived from checked data. Each field is set as ``__init__``
    sets it."""
    obj = object.__new__(cls)
    for name in fields:
        object.__setattr__(obj, name, fields[name])
    return obj


def parse_json(text: str, error: type[SpuncalcError], message: str) -> object:
    """``json.loads(text)``, raising ``error`` with ``message`` and the
    parser's reason when the text is not JSON."""
    # ValueError also covers an integer of too many digits, RecursionError
    # too deep nesting: both are bad input, not a crash
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{message}: {exc}") from None
