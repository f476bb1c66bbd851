"""Exception types shared across the package."""


class PeirceError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PeirceError):
    """Malformed text input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class DialectError(PeirceError):
    """A graph uses signs not available in the requested dialect."""


class InvalidPathError(PeirceError):
    """A path does not resolve inside the addressed graph."""


class IllegalRuleError(PeirceError):
    """A rule instance violates its preconditions; carries the reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class ScriptError(PeirceError):
    """A proof-script file could not be parsed; carries the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TooManyAtomsError(PeirceError):
    """Brute-force truth tables are guarded to 20 atoms."""


class OrdinalUnderflowError(PeirceError):
    """Left subtraction b + x = d requires b <= d."""


class EmptyElementError(PeirceError):
    """Continuum elements need at least one piece."""


class NotInMonadError(PeirceError):
    """tail(x, y) requires y to be a proper extension of x."""


class BoundsExceededError(PeirceError):
    """Search gave up because a resource bound was hit, not because the
    space was exhausted."""


class CertificationError(PeirceError):
    """A derivation found by the search did not pass the script checker."""
