"""Exception types, and the base of the value classes, shared across the
package."""

from operator import attrgetter


class Record:
    """A frozen value.  Its fields, the names its class (or base) annotates,
    are given by position or keyword, or take the class attribute of that
    name.  It equals a record of its class with equal fields, hashes as
    their tuple and prints as ``Name(field=value, ...)``."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._fields = tuple(vars(cls).get("__annotations__", cls._fields))
        # what equality compares, read in one call, since ordinals compare
        # often: the tuple of two or more fields, a field alone, or, with no
        # field, the class, which __eq__ has compared already
        cls._compared = attrgetter(*cls._fields or ("__class__",))

    def __init__(self, *values, **named):
        cls, fields = type(self), self._fields
        if len(values) > len(fields) or named.keys() - fields[len(values):]:
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(fields)}")
        named.update(zip(fields, values))
        for name in fields:
            # a field with no default raises AttributeError here, naming it
            object.__setattr__(self, name, named[name] if name in named else getattr(cls, name))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == self._compared(other)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
