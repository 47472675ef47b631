"""Exception hierarchy, and the input checks the parsers and constructors share.

Everything derives from SpuncalcError (a ValueError), so callers can catch
one type at an API boundary while tests pin down the specific failure.
"""

import json
from typing import Callable


class SpuncalcError(ValueError):
    """Base class for all errors raised by this package."""


class InvalidWordError(SpuncalcError):
    """A twist word references boundary components outside its page."""


class PageMismatchError(SpuncalcError):
    """Two words (or a word and a page) disagree about the ambient page."""


class PushLetterError(SpuncalcError):
    """An operation that only accepts Dehn twist letters was given a push."""


class DimensionMismatchError(SpuncalcError):
    """Page atoms or manifold forms of different dimensions were mixed."""


class InvalidMonodromyError(SpuncalcError):
    """A monodromy form does not fit its page (dangling or reused index)."""


class NotComparableError(SpuncalcError):
    """Manifold forms of different dimensions cannot be compared."""


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


def parse_json(text: str, error: type[SpuncalcError], message: str) -> object:
    """``json.loads(text)``, raising ``error`` with ``message`` and the
    parser's reason when the text is not JSON."""
    # ValueError also covers an integer of too many digits, RecursionError
    # too deep nesting: both are bad input, not a crash
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{message}: {exc}") from None
