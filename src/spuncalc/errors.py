"""Exception hierarchy, and the integer check the constructors share.

Everything derives from SpuncalcError (a ValueError), so callers can catch
one type at an API boundary while tests pin down the specific failure.
"""


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


def require_integers(error: type[SpuncalcError], message: str, *values: object) -> None:
    """Raise ``error`` unless every value is an int: validated, never
    coerced, since int() would read 2.9 and "2" as 2 and True as 1."""
    for x in values:
        if type(x) is not int:
            raise error(f"{message}, got {x!r}")
