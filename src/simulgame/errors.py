"""Exception types shared across the package."""


class SimulgameError(Exception):
    """Base class for all package errors."""


class UnknownRuleset(SimulgameError):
    """A position or literal refers to a ruleset the engine does not know."""


class LoopyGame(SimulgameError):
    """A position repeated along a descent path; finite descent is violated."""


class SizeLimit(SimulgameError):
    """An operation exceeded its declared size bound."""


class IllegalMove(SimulgameError):
    """A move does not satisfy the ruleset's legality conditions."""


class NotTerminal(SimulgameError):
    """An operation defined only for terminal positions was applied elsewhere."""


class BadParameters(SimulgameError):
    """Numeric parameters outside the documented domain."""


class BadStalk(SimulgameError):
    """A stalk does not have the monochrome-prefix, alternating-suffix shape."""


class BadCordonSpec(SimulgameError):
    """Cordon attachment indices are out of range or not increasing."""


class DimensionMismatch(SimulgameError):
    """Vector/matrix dimensions do not agree."""


class BadLiteral(SimulgameError):
    """A parsed literal cannot be lowered to a position."""


class GameSyntaxError(SimulgameError):
    """Game-expression text failed to parse.

    Carries the byte offset of the failure and the set of tokens that
    would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(message)
        self.offset = offset
        self.expected = tuple(expected)


class MixedOperators(GameSyntaxError):
    """Two distinct sum operators appeared unparenthesized at one level."""
