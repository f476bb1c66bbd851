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

Every recursive notation (graphs and formulas here, ordinals in
``continuum``) is read by functions over ``(text, pos)`` that return
``(value, pos)``, and ``read_all`` checks that one read the whole text.
Each reader takes two frames per bracket (formulas by precedence climbing).
"""

from __future__ import annotations

from . import formulas as fm
from .errors import DialectError, ParseError
from .graphs import ATOM_NAME, Atom, Dialect, Graph, Item, Scroll, walk_violations

# ---------------------------------------------------------------------------
# Reading: functions over (text, pos) that return (value, pos)
# ---------------------------------------------------------------------------


def skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _name_end(text: str, pos: int) -> int:
    """The end of the run of letters, digits and ``_`` at ``pos``."""
    while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
        pos += 1
    return pos


def read_all(text: str, read, what: str = ""):
    """What ``read`` reads from the start of ``text``, if only whitespace follows."""
    value, pos = read(text, 0)
    pos = skip_ws(text, pos)
    if pos != len(text):
        raise ParseError(f"unexpected {text[pos]!r}{what}", pos)
    return value


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def parse_graph(text: str, dialect: Dialect) -> Graph:
    """The graph ``text`` denotes, or DialectError at its first violation
    of ``dialect``.  The reader rejects bad atom names itself, and a text
    that reads holds a loop exactly when it holds a '|', so only a
    classical text with a '|' is checked, by the walk, which nests one
    frame per level where the nodes' ``flaws`` nest four."""
    graph = read_all(text, _parse_area)
    if dialect is Dialect.CLASSICAL and "|" in text:
        bad = walk_violations(graph, dialect)[0]
        raise DialectError(f"{bad.reason} at {bad.path}")
    return graph


def _parse_area(text: str, pos: int) -> tuple[Graph, int]:
    items: list[Item] = []
    while True:
        pos = skip_ws(text, pos)
        if pos == len(text) or text[pos] in ")]|":
            return Graph(tuple(items)), pos
        item, pos = _parse_item(text, pos)
        items.append(item)


_CLOSING = {"(": ")", "[": "]"}


def _parse_item(text: str, pos: int) -> tuple[Item, int]:
    ch = text[pos]
    if ch in _CLOSING:
        # a scroll's regions: the outer area, then a loop after each '|'
        area, pos = _parse_area(text, pos + 1)
        regions = [area]
        while pos < len(text) and text[pos] == "|":
            if ch == "(":
                raise ParseError("'|' is only valid inside '[ ]'", pos)
            area, pos = _parse_area(text, pos + 1)
            regions.append(area)
        if pos == len(text) or text[pos] != _CLOSING[ch]:
            raise ParseError(f"unclosed {ch!r}", pos)
        return Scroll(regions[0], tuple(regions[1:])), pos + 1
    end = _name_end(text, pos)
    if end == pos:
        raise ParseError(f"unexpected {ch!r}", pos)
    name = text[pos:end]
    if not ATOM_NAME.match(name):
        raise ParseError(f"bad atom name {name!r}", pos)
    return Atom(name), end


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
# a connective's precedence by the first character of its sign
_LEVEL = {sign[0]: level for level, (_, sign, _) in enumerate(_BINARY)}


def parse_formula(text: str) -> fm.Formula:
    return read_all(text, _binary)


def _binary(text: str, pos: int, minimum: int = 0) -> tuple[fm.Formula, int]:
    """The formula at ``pos`` whose connectives bind at ``minimum`` or
    tighter: an operand, then each such connective with its right operand."""
    f, pos = _unary(text, pos)
    while True:
        pos = skip_ws(text, pos)
        level = _LEVEL.get(text[pos:pos + 1], -1)
        if level < minimum or not text.startswith(_BINARY[level][1], pos):
            return f, pos
        node, sign, right_assoc = _BINARY[level]
        right, pos = _binary(text, pos + len(sign), level if right_assoc else level + 1)
        f = node(f, right)


def _unary(text: str, pos: int) -> tuple[fm.Formula, int]:
    pos = skip_ws(text, pos)
    ch = text[pos:pos + 1]
    if ch == "~":
        f, pos = _unary(text, pos + 1)
        return fm.Not(f), pos
    if ch == "(":
        f, pos = _binary(text, pos + 1)
        pos = skip_ws(text, pos)
        if not text.startswith(")", pos):
            raise ParseError("unclosed '('", pos)
        return f, pos + 1
    if ch == "":
        raise ParseError("formula expected", pos)
    end = _name_end(text, pos)
    name = text[pos:end]
    if name in _FORMULA_KEYWORDS:
        return _FORMULA_KEYWORDS[name], end
    if not ATOM_NAME.match(name):
        raise ParseError(f"bad token {ch!r}", pos)
    return fm.Atom(name), end


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
