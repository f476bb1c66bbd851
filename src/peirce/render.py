"""Deterministic static SVG rendering.

Cut and scroll boundaries are drawn as circles (degenerate axis-aligned
ellipses), atoms as text boxes 10 units per character by 16 units high.
Area contents pack left to right with 8-unit padding.  A scroll's loops
sit in a column on the right side of its outer circle, each internally
tangent to it: the loop's centre lies at distance R - r from the outer
centre, exactly, which is the glued-curves reading of the scroll.  Nested
classical cuts stay strictly separated.  Output bytes depend only on the
input graph.

Layout sizes each node once, bottom up, then places each node from those
sizes, top down: linear in nodes.  A scroll with loops takes the first
radius, in 2-unit steps, at which its loops fit beside its outer area,
found in log time.  That radius grows about 2.8x per level of loop
nesting, and one of ``MAX_RADIUS`` (2**53) or more, where a step no longer
moves it, raises PeirceError: ``[p | [p | ... [p | p]]]`` renders up to 32
levels.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
# the three replacements of xml.sax.saxutils.escape (&, <, >), without the
# network modules that importing xml.sax loads
from html import escape
from typing import Optional

from .errors import PeirceError
from .graphs import Atom, Graph, Item, Scroll

PAD = 8.0
CHAR_W = 10.0
TEXT_H = 16.0
MIN_R = 12.0
MARGIN = 10.0
MAX_RADIUS = 2.0 ** 53


@dataclass
class GeometryNode:
    kind: str  # "sheet", "ellipse" or "text"
    cx: float = 0.0
    cy: float = 0.0
    rx: float = 0.0
    ry: float = 0.0
    text: Optional[str] = None
    children: list["GeometryNode"] = field(default_factory=list)


# sizing ---------------------------------------------------------------------
#
# One bottom-up pass sizes every node once and records, under the node's
# id(), an area's extent (width, height), an atom's extent, and a scroll's
# extent followed by its radius, loop radii and loop column height.
# Placement only reads these records.  They live for one layout call, while
# every node they name is alive, so no id is reused among them.


def _circumradius(width: float, height: float) -> float:
    return max(MIN_R, math.hypot(width, height) / 2.0 + PAD / 2.0)


def _size_area(g: Graph, sizes: dict) -> tuple[float, float]:
    extents = [_size_item(i, sizes) for i in g.items]
    width = sum(w for w, _ in extents) + PAD * (len(extents) - 1) if extents else 0.0
    sizes[id(g)] = (width, max((h for _, h in extents), default=0.0))
    return sizes[id(g)]


def _size_item(item: Item, sizes: dict) -> tuple[float, float]:
    if isinstance(item, Atom):
        sizes[id(item)] = (CHAR_W * len(item.name), TEXT_H)
        return sizes[id(item)]
    cw, ch = _size_area(item.outer, sizes)
    content_r = _circumradius(cw, ch) if item.outer.items else MIN_R
    radii = [_circumradius(*_size_area(l, sizes)) for l in item.loops]
    r, column = content_r + PAD, 0.0
    if radii:
        column = sum(2 * ri for ri in radii) + PAD * (len(radii) - 1)
        r = max(r, max(radii) + PAD, column / 2.0 + PAD)
        # the loops fit by radius 3r, so the steps cross at most two powers
        # of two, and below MAX_RADIUS a step is whole ulps: r + 2.0 * k
        # rounds as k additions of 2.0 do
        r += 2.0 * _first_step(lambda k: _loops_fit(r + 2.0 * k, radii, column, cw))
    if r >= MAX_RADIUS:
        raise PeirceError(f"graph too large to render: a scroll's radius reaches {r:.0f}")
    sizes[id(item)] = (2 * r, 2 * r, r, radii, column)
    return (2 * r, 2 * r)


def _first_step(fits) -> int:
    """The least k >= 0 with ``fits(k)``, for a ``fits`` false below some
    k and true from it on: doubling a bound until it fits, then bisecting."""
    bound = 1
    while not fits(bound):
        bound *= 2
    return bisect_left(range(bound), True, key=fits)


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
    sheet."""
    sizes: dict = {}
    width, height = _size_area(g, sizes)
    root = GeometryNode("sheet", rx=width / 2.0, ry=height / 2.0)
    root.children = _place_area(g, 0.0, 0.0, sizes)
    return root


def _place_area(g: Graph, cx: float, cy: float, sizes: dict) -> list[GeometryNode]:
    nodes = []
    x = cx - sizes[id(g)][0] / 2.0
    for item in g.items:
        w = sizes[id(item)][0]
        nodes.append(_place_item(item, x + w / 2.0, cy, sizes))
        x += w + PAD
    return nodes


def _place_item(item: Item, cx: float, cy: float, sizes: dict) -> GeometryNode:
    if isinstance(item, Atom):
        w, h = sizes[id(item)]
        return GeometryNode("text", cx=cx, cy=cy, rx=w / 2.0, ry=h / 2.0, text=item.name)
    _, _, r, radii, column = sizes[id(item)]
    node = GeometryNode("ellipse", cx=cx, cy=cy, rx=r, ry=r)
    node.children = _place_area(item.outer, cx, cy, sizes)
    for (dx, dy), ri, loop in zip(_loop_centres(r, radii, column), radii, item.loops):
        loop_node = GeometryNode("ellipse", cx=cx + dx, cy=cy + dy, rx=ri, ry=ri)
        loop_node.children = _place_area(loop, cx + dx, cy + dy, sizes)
        node.children.append(loop_node)
    return node


# SVG ------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.9f}"


def _grow(bounds: list[float], x0: float, y0: float, x1: float, y1: float) -> None:
    bounds[0] = min(bounds[0], x0)
    bounds[1] = min(bounds[1], y0)
    bounds[2] = max(bounds[2], x1)
    bounds[3] = max(bounds[3], y1)


def emit_svg(node: GeometryNode) -> str:
    """A stroke-only SVG 1.1 document; byte-identical for equal inputs."""
    shapes: list[str] = []
    bounds = [math.inf, math.inf, -math.inf, -math.inf]

    def visit(n: GeometryNode):
        if n.kind == "ellipse":
            shapes.append(
                f'<ellipse cx="{_fmt(n.cx)}" cy="{_fmt(n.cy)}" '
                f'rx="{_fmt(n.rx)}" ry="{_fmt(n.ry)}" '
                f'fill="none" stroke="black" stroke-width="1.5"/>'
            )
            _grow(bounds, n.cx - n.rx, n.cy - n.ry, n.cx + n.rx, n.cy + n.ry)
        elif n.kind == "text":
            shapes.append(
                f'<text x="{_fmt(n.cx)}" y="{_fmt(n.cy + 5.0)}" '
                f'text-anchor="middle" font-family="monospace" '
                f'font-size="14">{escape(n.text or "", quote=False)}</text>'
            )
            _grow(bounds, n.cx - n.rx, n.cy - n.ry, n.cx + n.rx, n.cy + n.ry)
        for child in n.children:
            visit(child)

    visit(node)
    if not shapes:
        bounds = [0.0, 0.0, 0.0, 0.0]
    x0, y0 = bounds[0] - MARGIN, bounds[1] - MARGIN
    width, height = bounds[2] - bounds[0] + 2 * MARGIN, bounds[3] - bounds[1] + 2 * MARGIN
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(width)} {_fmt(height)}" '
        f'width="{_fmt(width)}" height="{_fmt(height)}">\n'
    )
    return head + "".join(f"  {s}\n" for s in shapes) + "</svg>\n"


def render_svg(g: Graph) -> str:
    return emit_svg(layout(g))
