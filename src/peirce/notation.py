"""Concrete syntax for graphs and formulas.

Graph grammar::

    graph := item*
    item  := ATOM | '(' graph ')' | '[' graph ('|' graph)* ']'

Whitespace separates items.  ``(g)`` is the zero-loop scroll (the cut);
``[g0 | g1 | ... | gn]`` is a scroll with outer ``g0`` and loops
``g1..gn``; empty text is the blank sheet.  The printer emits
single-space-separated items, cuts as ``( ... )``, loopful scrolls as
``[ ... | ... ]``, and round-trips exactly (index-stable).

Formula grammar: atoms, ``T``, ``F``, ``~``, ``&``, ``|``, ``->`` and
parentheses, with precedence ``~ > & > | > ->``; ``->`` associates right,
``&`` and ``|`` left.  The binary connectives are stated once, in the table
``_BINARY``, which both the parser and the minimal-parenthesis printer read.

A text is read from one list of tokens: ``_TOKEN`` splits it into ``->``,
runs of letters, digits and ``_``, and single other characters, skipping
whitespace.  The readers are functions over ``(tokens, i)`` that return
``(value, i)``, and the list ends in an empty token, so that none of them
tests for the end.  Each reader takes two frames per bracket (formulas by
precedence climbing), and builds one atom per name in the text.  An error
names the position in the text of the token it met, which is found only
then, by splitting the text again.  Ordinals are read from ``(text, pos)``
in ``continuum``.
"""

from __future__ import annotations

import re
from functools import reduce

from . import formulas as fm
from .errors import DialectError, ParseError
from .graphs import ATOM_NAME, Atom, Dialect, Graph, Item, Scroll, well_formed

# ---------------------------------------------------------------------------
# Reading: functions over (tokens, i) that return (value, i)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"->|\w+|\S")
_WORD = re.compile(r"\w")


class _Unread(Exception):
    """A reader's error at a token: its message and the token's index."""


def _read(text: str, read, atoms: dict):
    """What ``read`` reads from the tokens of ``text``, if it reads them
    all; ``atoms`` holds the nodes of the names read so far."""
    tokens = _TOKEN.findall(text)
    tokens.append("")
    try:
        value, i = read(tokens, 0, atoms)
        if tokens[i]:
            raise _Unread(f"unexpected {tokens[i][0]!r}", i)
    except _Unread as exc:
        message, i = exc.args
        raise ParseError(message, _position(text, i)) from None
    return value


def _position(text: str, i: int) -> int:
    """Where token ``i`` of ``text`` starts, or the text's length past its last."""
    for n, token in enumerate(_TOKEN.finditer(text)):
        if n == i:
            return token.start()
    return len(text)


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def parse_graph(text: str, dialect: Dialect) -> Graph:
    """The graph ``text`` denotes, or DialectError at its first violation
    of ``dialect``, named with its path."""
    graph = _read(text, _parse_area, {})
    violations = well_formed(graph, dialect)
    if violations:
        raise DialectError(f"{violations[0].reason} at {violations[0].path}")
    return graph


# the tokens that end an area, the empty one at the end of the text included
_AREA_END = frozenset((")", "]", "|", ""))
_CLOSING = {"(": ")", "[": "]"}


def _parse_area(tokens: list[str], i: int, atoms: dict) -> tuple[Graph, int]:
    """The area at token ``i``: its atoms, read here, and its scrolls."""
    items: list[Item] = []
    token = tokens[i]
    while token not in _AREA_END:
        if token in _CLOSING:
            item, i = _parse_scroll(tokens, i, atoms)
        else:
            item = atoms.get(token)
            if item is None:
                if not ATOM_NAME.match(token):
                    raise _Unread(f"bad atom name {token!r}" if _WORD.match(token)
                                  else f"unexpected {token[0]!r}", i)
                item = atoms[token] = Atom(token)
            i += 1
        items.append(item)
        token = tokens[i]
    return Graph(tuple(items)), i


def _parse_scroll(tokens: list[str], i: int, atoms: dict) -> tuple[Scroll, int]:
    """The scroll opened at token ``i``: its outer area, then a loop after
    each '|'."""
    bracket = tokens[i]
    area, i = _parse_area(tokens, i + 1, atoms)
    regions = [area]
    while tokens[i] == "|":
        if bracket == "(":
            raise _Unread("'|' is only valid inside '[ ]'", i)
        area, i = _parse_area(tokens, i + 1, atoms)
        regions.append(area)
    if tokens[i] != _CLOSING[bracket]:
        raise _Unread(f"unclosed {bracket!r}", i)
    return Scroll(regions[0], tuple(regions[1:])), i + 1


def print_graph(g: Graph) -> str:
    return " ".join(_print_item(item) for item in g.items)


def _print_item(item: Item) -> str:
    if isinstance(item, Atom):
        return item.name
    if item.is_cut:
        return f"({print_graph(item.outer)})"
    return "[" + " | ".join(map(print_graph, item.regions)) + "]"


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

_FORMULA_KEYWORDS = {"T": fm.TOP, "F": fm.BOT}

# The binary connectives, loosest first: a connective's precedence is its
# index, and ``~`` binds tighter than all of them.  (node, sign, right-assoc)
_BINARY = ((fm.Imp, "->", True), (fm.Or, "|", False), (fm.And, "&", False))
_NOT = len(_BINARY)
# a connective's precedence by its sign
_LEVEL = {sign: level for level, (_, sign, _) in enumerate(_BINARY)}


def parse_formula(text: str) -> fm.Formula:
    return _read(text, _binary, dict(_FORMULA_KEYWORDS))


def _binary(tokens: list[str], i: int, atoms: dict,
            minimum: int = 0) -> tuple[fm.Formula, int]:
    """The formula at token ``i`` whose connectives bind at ``minimum`` or
    tighter: an operand, then each chain of one such connective, its
    operands read in one loop and joined from the end if it associates right."""
    f, i = _unary(tokens, i, atoms)
    level = _LEVEL.get(tokens[i], -1)
    while level >= minimum:
        node, sign, right_assoc = _BINARY[level]
        chain = [f]
        while tokens[i] == sign:
            f, i = _binary(tokens, i + 1, atoms, level + 1)
            chain.append(f)
        f = (reduce(lambda right, left: node(left, right), reversed(chain)) if right_assoc
             else reduce(node, chain))
        level = _LEVEL.get(tokens[i], -1)
    return f, i


def _unary(tokens: list[str], i: int, atoms: dict) -> tuple[fm.Formula, int]:
    token = tokens[i]
    f = atoms.get(token)
    if f is not None:
        return f, i + 1
    if token == "~":
        f, i = _unary(tokens, i + 1, atoms)
        return fm.Not(f), i
    if token == "(":
        f, i = _binary(tokens, i + 1, atoms)
        if tokens[i] != ")":
            raise _Unread("unclosed '('", i)
        return f, i + 1
    if not ATOM_NAME.match(token):
        raise _Unread(f"bad token {token[0]!r}" if token else "formula expected", i)
    f = atoms[token] = fm.Atom(token)
    return f, i + 1


def print_formula(f: fm.Formula) -> str:
    return _print_formula(f, 0)


def _print_formula(f: fm.Formula, minimum: int) -> str:
    """``f`` parenthesised when its precedence is below ``minimum``."""
    if isinstance(f, fm.Atom):
        return f.name
    if isinstance(f, fm.Not):
        return "~" + _print_formula(f.body, _NOT)
    for level, (node, sign, right_assoc) in enumerate(_BINARY):
        if isinstance(f, node):
            # the operand on the associating side may be as loose as f
            left = _print_formula(f.left, level + 1 if right_assoc else level)
            right = _print_formula(f.right, level if right_assoc else level + 1)
            body = f"{left} {sign} {right}"
            return f"({body})" if level < minimum else body
    return "T" if isinstance(f, fm.Top) else "F"
