"""Ordinal-indexed sequences: a desk-scale model of the continuum carrier.

Ordinals below epsilon-0 live in Cantor normal form: a finite tuple of
(exponent, coefficient) terms with strictly decreasing exponents, the
exponents again ordinals; the lexicographic order of the term tuples is
the ordinal order.  Elements are finitely-piecewise-constant functions
from an ordinal domain to exact rationals, canonical by construction:
adjacent pieces of equal value merge under ordinal addition of lengths,
which makes equality and lexicographic comparison decidable.

``extends`` is the inversion relation (x extends y when y is a strict
initial restriction of x), monads are the collections of proper
extensions, and ``tail``/``concat`` realize the isomorphism between any
monad and the whole space.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .errors import EmptyElementError, NotInMonadError, OrdinalUnderflowError, ParseError, Record

# ---------------------------------------------------------------------------
# Ordinals in Cantor normal form
# ---------------------------------------------------------------------------


class Ordinal(Record):
    terms: tuple[tuple[Ordinal, int], ...]

    def __init__(self, terms: tuple[tuple[Ordinal, int], ...] = ()):
        for exponent, coeff in terms:
            if coeff < 1:
                raise ValueError("coefficients must be positive")
        for (e1, _), (e2, _) in zip(terms, terms[1:]):
            if e1 <= e2:
                raise ValueError("exponents must strictly decrease")
        object.__setattr__(self, "terms", terms)

    # ``a > b`` and ``a >= b`` are read as ``b < a`` and ``b <= a``
    def __lt__(self, other: Ordinal) -> bool:
        return self.terms < other.terms

    def __le__(self, other: Ordinal) -> bool:
        return self.terms <= other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return print_ordinal(self)


ZERO = Ordinal()


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise ValueError("ordinals are non-negative")
    if n == 0:
        return ZERO
    return Ordinal(((ZERO, n),))


ONE = from_int(1)
OMEGA = Ordinal(((ONE, 1),))


def w_pow(exponent: Ordinal, coeff: int = 1) -> Ordinal:
    return Ordinal(((exponent, coeff),))


def ord_cmp(a: Ordinal, b: Ordinal) -> int:
    """-1, 0 or 1 as ``a`` is below, equal to or above ``b``."""
    return (a > b) - (a < b)


def ord_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum: terms of ``a`` below ``b``'s leading exponent are
    absorbed."""
    if b.is_zero():
        return a
    lead = b.terms[0][0]
    keep = [t for t in a.terms if t[0] > lead]
    boundary = [t for t in a.terms if t[0] == lead]
    if boundary:
        merged = (lead, boundary[0][1] + b.terms[0][1])
        return Ordinal(tuple(keep) + (merged,) + b.terms[1:])
    return Ordinal(tuple(keep) + b.terms)


def ord_sub_left(b: Ordinal, d: Ordinal) -> Ordinal:
    """The unique g with b + g = d; OrdinalUnderflowError when b > d."""
    if b > d:
        raise OrdinalUnderflowError(f"{b} > {d}")
    for i in range(len(b.terms)):
        (be, bc), (de, dc) = b.terms[i], d.terms[i]
        if be < de:
            return Ordinal(d.terms[i:])
        if bc < dc:
            return Ordinal(((de, dc - bc),) + d.terms[i + 1:])
        # equal terms: keep walking
    return Ordinal(d.terms[len(b.terms):])


# ---------------------------------------------------------------------------
# Ordinal literals
# ---------------------------------------------------------------------------


# Integer literals, and a rational's numerator and denominator, have at most
# MAX_DIGITS digits: below the 4,300 that str() prints, so sums of them print.
MAX_DIGITS = 4000
_PAST_DIGITS = 10 ** MAX_DIGITS


def skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def parse_ordinal(text: str) -> Ordinal:
    """The ordinal ``text`` denotes, read by functions over ``(text, pos)``
    that return ``(value, pos)``."""
    value, pos = _parse_ordinal_sum(text, 0)
    pos = skip_ws(text, pos)
    if pos != len(text):
        raise ParseError(f"unexpected {text[pos]!r} in ordinal", pos)
    return value


def _parse_ordinal_sum(text: str, pos: int) -> tuple[Ordinal, int]:
    value, pos = _parse_ordinal_term(text, pos)
    while True:
        pos = skip_ws(text, pos)
        if pos < len(text) and text[pos] == "+":
            term, pos = _parse_ordinal_term(text, pos + 1)
            value = ord_add(value, term)
        else:
            return value, pos


def _parse_ordinal_term(text: str, pos: int, allow_coeff: bool = True) -> tuple[Ordinal, int]:
    pos = skip_ws(text, pos)
    if pos == len(text):
        raise ParseError("ordinal expected", pos)
    if text[pos].isdecimal():
        n, end = _integer(text, pos)
        return from_int(n), end
    if text[pos] != "w":
        raise ParseError(f"unexpected {text[pos]!r} in ordinal", pos)
    pos += 1
    exponent = ONE
    if pos < len(text) and text[pos] == "^":
        pos += 1
        if pos < len(text) and text[pos] == "(":
            exponent, pos = _parse_ordinal_sum(text, pos + 1)
            pos = skip_ws(text, pos)
            if pos == len(text) or text[pos] != ")":
                raise ParseError("unclosed '(' in ordinal exponent", pos)
            pos += 1
        else:
            # an unparenthesized exponent never takes '*k'; that binds to
            # the enclosing term, so w^2*3 means (w^2)*3
            exponent, pos = _parse_ordinal_term(text, pos, allow_coeff=False)
    coeff = 1
    if allow_coeff:
        pos = skip_ws(text, pos)
        if pos < len(text) and text[pos] == "*":
            pos = skip_ws(text, pos + 1)
            coeff, end = _integer(text, pos)
            if end == pos:
                raise ParseError("coefficient expected after '*'", pos)
            pos = end
    if coeff < 1:
        raise ParseError("coefficients must be positive", pos)
    return w_pow(exponent, coeff), pos


def _integer(text: str, pos: int) -> tuple[int, int]:
    """The decimal literal at ``pos`` (0 if there is none) and its end."""
    end = pos
    while end < len(text) and text[end].isdecimal():
        end += 1
    if end - pos > MAX_DIGITS:
        raise ParseError(f"integer of more than {MAX_DIGITS} digits", pos)
    return int(text[pos:end] or 0), end


def print_ordinal(a: Ordinal) -> str:
    """Canonical print: no redundant ``*1`` or ``^1``; composite exponents
    are parenthesized."""
    if a.is_zero():
        return "0"
    chunks = []
    for exponent, coeff in a.terms:
        if exponent.is_zero():
            chunks.append(str(coeff))
            continue
        if exponent == ONE:
            body = "w"
        else:
            exp_text = print_ordinal(exponent)
            if "+" in exp_text or "*" in exp_text:
                exp_text = f"({exp_text})"
            body = f"w^{exp_text}"
        chunks.append(body if coeff == 1 else f"{body}*{coeff}")
    return "+".join(chunks)


# ---------------------------------------------------------------------------
# Continuum elements
# ---------------------------------------------------------------------------


class LexRelation(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    PROPER_PREFIX = "proper_prefix"
    PROPER_EXTENSION = "proper_extension"


class ContinuumElement(Record):
    """Pieces (length, value): a piecewise-constant map from the ordinal
    interval [0, domain) to rationals.  Canonical by construction: adjacent
    pieces of equal value merge (lengths add as ordinals), and no piece, or a
    piece of length zero, is an EmptyElementError."""

    pieces: tuple[tuple[Ordinal, Fraction], ...]

    def __init__(self, pieces: tuple[tuple[Ordinal, Fraction], ...]):
        if not pieces:
            raise EmptyElementError("an element needs at least one piece")
        merged: list[tuple[Ordinal, Fraction]] = []
        for length, value in pieces:
            if length.is_zero():
                raise EmptyElementError("piece lengths must be positive ordinals")
            if merged and merged[-1][1] == value:
                merged[-1] = (ord_add(merged[-1][0], length), value)
            else:
                merged.append((length, value))
        object.__setattr__(self, "pieces", tuple(merged))

    def __str__(self) -> str:
        return print_element(self)


def element(*pieces: tuple[Ordinal | int, Fraction | int | str]) -> ContinuumElement:
    normalized = tuple(
        (p if isinstance(p, Ordinal) else from_int(p), Fraction(v))
        for p, v in pieces
    )
    return ContinuumElement(normalized)


def elem_canonicalize(e: ContinuumElement) -> ContinuumElement:
    """The canonical form of ``e``: ``e`` itself, since every element is
    canonical from its construction."""
    return e


def elem_domain(e: ContinuumElement) -> Ordinal:
    total = ZERO
    for length, _ in e.pieces:
        total = ord_add(total, length)
    return total


def _walk(x: ContinuumElement, y: ContinuumElement) -> tuple[LexRelation, tuple]:
    """Walk both piece lists in lockstep; decide at the first ordinal
    position where the values differ, otherwise by domain.  Returns the
    relation of x to y and the pieces of the longer element beyond the
    shorter one's domain (none unless one is a proper prefix of the other)."""
    xs, ys = list(reversed(x.pieces)), list(reversed(y.pieces))
    while xs and ys:
        # the two first pieces; the longer one's remainder goes back
        (len_x, val_x), (len_y, val_y) = xs.pop(), ys.pop()
        if val_x != val_y:
            return (LexRelation.LESS if val_x < val_y else LexRelation.GREATER), ()
        if len_x < len_y:
            ys.append((ord_sub_left(len_x, len_y), val_y))
        elif len_x > len_y:
            xs.append((ord_sub_left(len_y, len_x), val_x))
    if xs:
        return LexRelation.PROPER_EXTENSION, tuple(reversed(xs))
    if ys:
        return LexRelation.PROPER_PREFIX, tuple(reversed(ys))
    return LexRelation.EQUAL, ()


def lex_compare(x: ContinuumElement, y: ContinuumElement) -> LexRelation:
    """The lexicographic relation of x to y."""
    return _walk(x, y)[0]


def extends(x: ContinuumElement, y: ContinuumElement) -> bool:
    """The relation x E y: dom(y) < dom(x) and x agrees with y on dom(y)."""
    return lex_compare(x, y) is LexRelation.PROPER_EXTENSION


def tail(x: ContinuumElement, y: ContinuumElement) -> ContinuumElement:
    """The monad isomorphism applied to y: the part of y beyond dom(x).
    Requires y E x (y properly extends x)."""
    relation, rest = _walk(y, x)
    if relation is not LexRelation.PROPER_EXTENSION:
        raise NotInMonadError("tail(x, y) needs y to properly extend x")
    return ContinuumElement(rest)


def concat(x: ContinuumElement, z: ContinuumElement) -> ContinuumElement:
    """The inverse isomorphism: x followed by z.  Always a proper
    extension of x."""
    return ContinuumElement(x.pieces + z.pieces)


# ---------------------------------------------------------------------------
# Element literals
# ---------------------------------------------------------------------------


def parse_element(text: str) -> ContinuumElement:
    pieces: list[tuple[Ordinal, Fraction]] = []
    pos = skip_ws(text, 0)
    while pos < len(text):
        if text[pos] != "[":
            raise ParseError(f"expected '[' in element, got {text[pos]!r}", pos)
        close = text.find("]", pos)
        if close < 0:
            raise ParseError("unclosed '[' in element", pos)
        body = text[pos + 1:close]
        if ":" not in body:
            raise ParseError("piece needs '<ordinal>:<rational>'", pos)
        ord_text, _, val_text = body.partition(":")
        try:
            length = parse_ordinal(ord_text)
        except ParseError as exc:
            # the position in the whole element, as for the other errors
            raise ParseError(exc.message, pos + 1 + exc.position) from None
        value = _rational(val_text.strip(), pos)
        if length.is_zero():
            raise ParseError("piece lengths must be positive", pos)
        pieces.append((length, value))
        pos = skip_ws(text, close + 1)
    if not pieces:
        raise ParseError("element expected", 0)
    return ContinuumElement(tuple(pieces))


def _rational(text: str, pos: int) -> Fraction:
    """The rational literal ``text`` of the piece at ``pos``."""
    if len(text.lower().partition("e")[2]) > 5:
        # Fraction's time grows with the exponent's value
        raise ParseError("rational exponent longer than five characters", pos)
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}", pos) from exc
    if max(abs(value.numerator), value.denominator) >= _PAST_DIGITS:
        raise ParseError(f"rational with more than {MAX_DIGITS} digits", pos)
    return value


def print_element(e: ContinuumElement) -> str:
    return "".join(f"[{print_ordinal(l)}:{v}]" for l, v in e.pieces)
