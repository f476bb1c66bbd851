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
"""

from __future__ import annotations

from . import formulas as fm
from .errors import DialectError, ParseError
from .graphs import ATOM_NAME, Atom, Dialect, Graph, Item, Scroll, well_formed

# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def parse_graph(text: str, dialect: Dialect) -> Graph:
    graph, pos = _parse_area(text, 0)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ParseError(f"unexpected {text[pos]!r}", pos)
    bad = well_formed(graph, dialect)
    if bad:
        raise DialectError(f"{bad[0].reason} at {bad[0].path}")
    return graph


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_area(text: str, pos: int) -> tuple[Graph, int]:
    items: list[Item] = []
    while True:
        pos = _skip_ws(text, pos)
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
    end = pos
    while end < len(text) and (text[end].isalnum() or text[end] == "_"):
        end += 1
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


class _FormulaParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self) -> fm.Formula:
        f = self.binary(0)
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return f

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos:self.pos + 1]

    def binary(self, level: int) -> fm.Formula:
        if level == _NOT:
            return self.unary()
        node, sign, right_assoc = _BINARY[level]
        f = self.binary(level + 1)
        self.skip_ws()
        while self.text.startswith(sign, self.pos):
            self.pos += len(sign)
            if right_assoc:
                return node(f, self.binary(level))
            f = node(f, self.binary(level + 1))
            self.skip_ws()
        return f

    def unary(self) -> fm.Formula:
        ch = self.peek()
        if ch == "~":
            self.pos += 1
            return fm.Not(self.unary())
        if ch == "(":
            self.pos += 1
            f = self.binary(0)
            if self.peek() != ")":
                raise ParseError("unclosed '('", self.pos)
            self.pos += 1
            return f
        if ch == "":
            raise ParseError("formula expected", self.pos)
        end = self.pos
        while end < len(self.text) and (self.text[end].isalnum() or self.text[end] == "_"):
            end += 1
        name = self.text[self.pos:end]
        if name in _FORMULA_KEYWORDS:
            self.pos = end
            return _FORMULA_KEYWORDS[name]
        if not ATOM_NAME.match(name):
            raise ParseError(f"bad token {self.text[self.pos:self.pos + 1]!r}", self.pos)
        self.pos = end
        return fm.Atom(name)


def parse_formula(text: str) -> fm.Formula:
    return _FormulaParser(text).parse()


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
