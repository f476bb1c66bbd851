"""Deterministic static SVG rendering.

Cut and scroll boundaries are drawn as circles (degenerate axis-aligned
ellipses), atoms as text boxes 10 units per character by 16 units high.
Area contents pack left to right with 8-unit padding.  A scroll's loops
sit in a column on the right side of its outer circle, each internally
tangent to it: the loop's centre lies at distance R - r from the outer
centre, exactly, which is the glued-curves reading of the scroll.  Nested
classical cuts stay strictly separated.  Output bytes depend only on the
input graph.

Layout builds each node's geometry once, bottom up, its size kept in its
own ``rx`` and ``ry`` (no table keyed by node identity), then sets every
centre top down over the same nodes: linear in nodes.  A scroll with loops
takes the first radius, in 2-unit steps, at which its loops fit beside its
outer area, found by one bisection over the steps up to three times the
first radius, where they always fit: at most 54 fit tests.  It grows about
2.8x per level of loop nesting, and one of ``MAX_RADIUS`` (2**53) or more
raises PeirceError: ``[p | [p | ... [p | p]]]`` renders up to 32 levels.
"""

from __future__ import annotations

import math
from bisect import bisect_left
# the three replacements of xml.sax.saxutils.escape (&, <, >), without the
# network modules that importing xml.sax loads
from html import escape
from operator import attrgetter
from typing import Optional

from .errors import PeirceError, Record
from .graphs import Atom, Graph, Item, Scroll

PAD = 8.0
CHAR_W = 10.0
TEXT_H = 16.0
MIN_R = 12.0
MARGIN = 10.0
MAX_RADIUS = 2.0 ** 53


class GeometryNode:
    """A mutable layout node ("sheet", "ellipse" or "text"), compared and printed as a record."""

    _fields = ("kind", "cx", "cy", "rx", "ry", "text", "children")
    _compared = attrgetter(*_fields)
    __eq__, __repr__ = Record.__eq__, Record.__repr__

    def __init__(self, kind: str, cx: float = 0.0, cy: float = 0.0, rx: float = 0.0,
                 ry: float = 0.0, text: Optional[str] = None, children: Optional[list] = None):
        self.kind, self.cx, self.cy, self.rx, self.ry, self.text = kind, cx, cy, rx, ry, text
        self.children = [] if children is None else children


# sizing ---------------------------------------------------------------------


def _circumradius(width: float, height: float) -> float:
    return max(MIN_R, math.hypot(width, height) / 2.0 + PAD / 2.0)


def _extent(nodes: list[GeometryNode]) -> tuple[float, float]:
    """Width and height of a row of nodes packed left to right."""
    if not nodes:
        return 0.0, 0.0
    return (sum(2 * n.rx for n in nodes) + PAD * (len(nodes) - 1),
            max(2 * n.ry for n in nodes))


def _size(item: Item) -> GeometryNode:
    """The item's node with its size and its children's; no centres yet."""
    if isinstance(item, Atom):
        return GeometryNode("text", rx=CHAR_W * len(item.name) / 2.0, ry=TEXT_H / 2.0,
                            text=item.name)
    outer = [_size(i) for i in item.outer.items]
    cw, ch = _extent(outer)
    loops = []
    for loop in item.loops:
        children = [_size(i) for i in loop.items]
        ri = _circumradius(*_extent(children))
        loops.append(GeometryNode("ellipse", rx=ri, ry=ri, children=children))
    r = (_circumradius(cw, ch) if outer else MIN_R) + PAD
    if loops:
        radii, column = [l.rx for l in loops], _extent(loops)[0]
        r = max(r, max(radii) + PAD, column / 2.0 + PAD)
        # the loops fit by radius 3r, so the least fitting step is at most
        # ceil(r), and that bound limits the search: the steps cross at most
        # two powers of two, and below MAX_RADIUS a step is whole ulps, so
        # r + 2.0 * k rounds as k additions of 2.0 do.  An r past MAX_RADIUS
        # raises below at any step; capping it there keeps the range's
        # length a machine int for bisect
        r += 2.0 * bisect_left(range(math.ceil(min(r, MAX_RADIUS)) + 1), True,
                               key=lambda k: _loops_fit(r + 2.0 * k, radii, column, cw))
    if r >= MAX_RADIUS:
        raise PeirceError(f"graph too large to render: a scroll's radius reaches {r:.0f}")
    return GeometryNode("ellipse", rx=r, ry=r, children=outer + loops)


def _loop_centres(r: float, radii: list[float], column: float) -> list[tuple[float, float]]:
    """Loop centres inside an outer circle of radius ``r``: stacked top to
    bottom on the right, each at distance r - r_i from the centre."""
    centres = []
    y = -column / 2.0
    for ri in radii:
        cy = y + ri
        reach = (r - ri) ** 2 - cy ** 2
        cx = math.sqrt(reach) if reach > 0 else 0.0
        centres.append((cx, cy))
        y += 2 * ri + PAD
    return centres


def _loops_fit(r: float, radii: list[float], column: float, content_w: float) -> bool:
    if r <= column / 2.0 + max(radii):
        return False
    # a loop with no room to sit on the right has centre x 0, failing this
    for (cx, _), ri in zip(_loop_centres(r, radii, column), radii):
        if cx - ri < content_w / 2.0 + PAD / 2.0:
            return False
    return True


# placement ------------------------------------------------------------------


def layout(g: Graph) -> GeometryNode:
    """Geometry tree mirroring the graph's nesting tree; the root is the
    sheet, and a scroll's children are its outer items, then its loops."""
    items = [_size(i) for i in g.items]
    width, height = _extent(items)
    _place(items, g, 0.0, 0.0)
    return GeometryNode("sheet", rx=width / 2.0, ry=height / 2.0, children=items)


def _place(nodes: list[GeometryNode], area: Graph, cx: float, cy: float) -> None:
    """Centre the row of ``area``'s item nodes on (cx, cy), and what they hold."""
    x = cx - _extent(nodes)[0] / 2.0
    for node, item in zip(nodes, area.items):
        node.cx, node.cy = x + node.rx, cy
        x += 2 * node.rx + PAD
        if isinstance(item, Scroll):
            n = len(item.outer)
            _place(node.children[:n], item.outer, node.cx, cy)
            loops = node.children[n:]
            centres = _loop_centres(node.rx, [l.rx for l in loops], _extent(loops)[0])
            for (dx, dy), loop_node, loop in zip(centres, loops, item.loops):
                loop_node.cx, loop_node.cy = node.cx + dx, cy + dy
                _place(loop_node.children, loop, loop_node.cx, loop_node.cy)


# SVG ------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.9f}"


def emit_svg(node: GeometryNode) -> str:
    """A stroke-only SVG 1.1 document; byte-identical for equal inputs."""
    shapes: list[str] = []
    drawn: list[GeometryNode] = []

    def visit(n: GeometryNode):
        if n.kind == "ellipse":
            shapes.append(
                f'<ellipse cx="{_fmt(n.cx)}" cy="{_fmt(n.cy)}" '
                f'rx="{_fmt(n.rx)}" ry="{_fmt(n.ry)}" '
                f'fill="none" stroke="black" stroke-width="1.5"/>'
            )
            drawn.append(n)
        elif n.kind == "text":
            shapes.append(
                f'<text x="{_fmt(n.cx)}" y="{_fmt(n.cy + 5.0)}" '
                f'text-anchor="middle" font-family="monospace" '
                f'font-size="14">{escape(n.text or "", quote=False)}</text>'
            )
            drawn.append(n)
        for child in n.children:
            visit(child)

    visit(node)
    # the bounds are those of the drawn boxes, or a point at the origin
    left = min((n.cx - n.rx for n in drawn), default=0.0)
    top = min((n.cy - n.ry for n in drawn), default=0.0)
    width = max((n.cx + n.rx for n in drawn), default=0.0) - left + 2 * MARGIN
    height = max((n.cy + n.ry for n in drawn), default=0.0) - top + 2 * MARGIN
    x0, y0 = left - MARGIN, top - MARGIN
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(width)} {_fmt(height)}" '
        f'width="{_fmt(width)}" height="{_fmt(height)}">\n'
    )
    return head + "".join(f"  {s}\n" for s in shapes) + "</svg>\n"


def render_svg(g: Graph) -> str:
    return emit_svg(layout(g))
