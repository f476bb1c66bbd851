import hashlib
import itertools
import math
import random
import time
import xml.etree.ElementTree as ET

import pytest

from peirce import render
from peirce.errors import PeirceError
from peirce.graphs import Atom, Dialect, Graph, Scroll
from peirce.notation import parse_graph
from peirce.render import (
    MAX_RADIUS, MIN_R, PAD, GeometryNode, _loops_fit, emit_svg, layout, render_svg)

from genutil import random_graph
from test_acceptance import _render_corpus

I = Dialect.INTUITIONISTIC


def g(text):
    return parse_graph(text, I)


def ellipses_of(svg_text):
    root = ET.fromstring(svg_text)
    ns = "{http://www.w3.org/2000/svg}"
    out = []
    for el in root.iter(f"{ns}ellipse"):
        out.append(tuple(float(el.get(k)) for k in ("cx", "cy", "rx", "ry")))
    return out


def texts_of(svg_text):
    root = ET.fromstring(svg_text)
    ns = "{http://www.w3.org/2000/svg}"
    return [el.text for el in root.iter(f"{ns}text")]


def containment_forest(ellipses):
    """parent index per ellipse (-1 for top level), by geometric containment."""
    parents = []
    for i, (cx, cy, rx, _) in enumerate(ellipses):
        best, best_r = -1, math.inf
        for j, (ox, oy, orx, _) in enumerate(ellipses):
            if i == j:
                continue
            if math.hypot(cx - ox, cy - oy) + rx <= orx + 1e-6 and orx < best_r:
                best, best_r = j, orx
        parents.append(best)
    return parents


def shape_signature(graph):
    """(ellipse-count, per-scroll loop info) for cross-checking the SVG."""
    count = 0
    for item in graph.items:
        if isinstance(item, Scroll):
            count += 1 + shape_signature(item.outer)[0]
            for loop in item.loops:
                count += 1 + shape_signature(loop)[0]
    return count, None


class TestLayout:
    def test_single_cut(self):
        svg = render_svg(g("(p)"))
        assert len(ellipses_of(svg)) == 1
        assert texts_of(svg) == ["p"]

    def test_blank_sheet(self):
        svg = render_svg(g(""))
        assert ellipses_of(svg) == []

    def test_scroll_tangency(self):
        svg = render_svg(g("[p | q]"))
        ellipses = ellipses_of(svg)
        assert len(ellipses) == 2
        (ocx, ocy, orx, _), (lcx, lcy, lrx, _) = sorted(ellipses, key=lambda e: -e[2])
        dist = math.hypot(ocx - lcx, ocy - lcy)
        assert abs(dist + lrx - orx) < 1e-6

    def test_two_loops_both_tangent(self):
        svg = render_svg(g("[p | q | r]"))
        ellipses = sorted(ellipses_of(svg), key=lambda e: -e[2])
        assert len(ellipses) == 3
        outer = ellipses[0]
        for loop in ellipses[1:]:
            dist = math.hypot(outer[0] - loop[0], outer[1] - loop[1])
            assert abs(dist + loop[2] - outer[2]) < 1e-6

    def test_double_cut_strictly_nested(self):
        svg = render_svg(g("((p))"))
        ellipses = sorted(ellipses_of(svg), key=lambda e: -e[2])
        outer, inner = ellipses
        dist = math.hypot(outer[0] - inner[0], outer[1] - inner[1])
        assert dist + inner[2] <= outer[2] - 4.0

    def test_nesting_matches_graph_tree(self):
        graph = g("(p (q)) [r | s (t)]")
        svg = render_svg(graph)
        ellipses = ellipses_of(svg)
        parents = containment_forest(ellipses)
        # graph has five boundaries: outer cut, inner cut, scroll, its loop, loop's cut
        assert len(ellipses) == 5
        roots = [i for i, par in enumerate(parents) if par == -1]
        assert len(roots) == 2
        depth = {}
        def depth_of(i):
            if parents[i] == -1:
                return 0
            return 1 + depth_of(parents[i])
        depths = sorted(depth_of(i) for i in range(len(ellipses)))
        assert depths == [0, 0, 1, 1, 2]

    def test_byte_identical_output(self):
        graph = g("[p | q (r)] s")
        assert render_svg(graph) == render_svg(graph)

    def test_xml_well_formed_random(self):
        rng = random.Random(163)
        for _ in range(30):
            graph = random_graph(rng, depth=3, dialect=I)
            svg = render_svg(graph)
            ET.fromstring(svg)  # raises on malformed XML

    def test_every_loop_tangent_random(self):
        rng = random.Random(167)
        checked = 0
        while checked < 25:
            graph = random_graph(rng, depth=3, dialect=I)
            node = layout(graph)
            pairs = _loop_pairs(node, graph)
            if not pairs:
                continue
            for outer, loop in pairs:
                dist = math.hypot(outer.cx - loop.cx, outer.cy - loop.cy)
                assert abs(dist + loop.rx - outer.rx) < 1e-6
            checked += 1


def _ladders():
    """Scrolls nested 3 to 9 levels deep, through the loop and through the
    outer area."""
    out = []
    for n in range(3, 10):
        right = left = Graph((Atom("p"),))
        for _ in range(n):
            right = Graph((Scroll(Graph((Atom("p"),)), (right,)),))
            left = Graph((Scroll(left, (Graph((Atom("p"),)),)),))
        out += [right, left]
    return out


def _outer_nested(levels):
    """[[...[p | q]... | q] | q]"""
    return g("[" * levels + "p" + " | q]" * levels)


class TestLayoutBytesAndCost:
    def test_pinned_bytes(self):
        # taken from the layout that re-sized each scroll at every use, so a
        # match means the single sizing pass emits the same bytes
        rng = random.Random(20261018)
        graphs = _render_corpus() + _ladders() + [
            random_graph(rng, depth=rng.randint(1, 6), width=rng.randint(1, 4),
                         dialect=rng.choice(list(Dialect)))
            for _ in range(200)]
        digest = hashlib.sha256()
        for graph in graphs:
            digest.update(render_svg(graph).encode())
        assert digest.hexdigest() == (
            "ef4a537b7aabce38f0003aca4cc2a4b2697418eccdb0ff1e928f216924f3e542")

    @pytest.mark.parametrize("text,digest", [
        ("(" * 95 + "p" + ")" * 95,
         "6a57f73120b848063cf6e3e84d6e4b6de871f6cba2b9d4470c77409065a0a16f"),
        ("[p | " * 32 + "p" + "]" * 32,
         "e9ebfa7df9abb332afe27764e5ac9f3d389bb9d873e4068abb1cf467f000578a"),
        ("[" * 40 + "p" + " | q]" * 40,
         "734fbadfc551d36fd87626e1d7238a14eac7321a70a4705eaa394d2e386c250d"),
    ], ids=["cuts95", "ladder32", "outer40"])
    def test_pinned_bytes_at_the_limits(self, text, digest):
        # the deepest cuts and loop ladder that render, and a deep outer
        # nesting: the largest coordinates, printed with the most digits
        assert hashlib.sha256(render_svg(g(text)).encode()).hexdigest() == digest

    def test_outer_nested_16_levels_within_a_second(self):
        start = time.perf_counter()
        svg = render_svg(_outer_nested(16))
        assert time.perf_counter() - start < 1.0
        assert len(ellipses_of(svg)) == 32

    def test_loop_nested_24_levels_within_a_second(self):
        graph = g("[p | " * 24 + "p" + "]" * 24)
        start = time.perf_counter()
        svg = render_svg(graph)
        assert time.perf_counter() - start < 1.0
        assert len(ellipses_of(svg)) == 48
        pairs = _loop_pairs(layout(graph), graph)
        assert len(pairs) == 24
        for outer, loop in pairs:
            dist = math.hypot(outer.cx - loop.cx, outer.cy - loop.cy)
            assert abs(dist + loop.rx - outer.rx) <= 1e-9 * outer.rx

    def test_outer_nested_40_levels(self):
        graph = _outer_nested(40)
        svg = render_svg(graph)
        assert len(ellipses_of(svg)) == 80
        for outer, loop in _loop_pairs(layout(graph), graph):
            dist = math.hypot(outer.cx - loop.cx, outer.cy - loop.cy)
            assert abs(dist + loop.rx - outer.rx) < 1e-6


class TestLoopRadius:
    """A scroll with loops takes the least radius, in 2-unit steps from the
    lower bound ``r0``, at which its loops fit beside its outer row."""

    @staticmethod
    def _row_width(nodes):
        return sum(2 * n.rx for n in nodes) + PAD * (len(nodes) - 1) if nodes else 0.0

    @classmethod
    def _r0(cls, outer, loops):
        # the lower bound the search starts from, restated here
        radii = [l.rx for l in loops]
        if outer:
            height = max(2 * n.ry for n in outer)
            r = max(MIN_R, math.hypot(cls._row_width(outer), height) / 2.0 + PAD / 2.0)
        else:
            r = MIN_R
        return max(r + PAD, max(radii) + PAD, cls._row_width(loops) / 2.0 + PAD)

    def test_loops_clear_the_outer_row_at_the_least_radius(self):
        rng = random.Random(20261019)
        graphs = [random_graph(rng, depth=rng.randint(2, 6), width=rng.randint(1, 4),
                               dialect=I) for _ in range(1500)]
        graphs += [g("[p | " * n + "p" + "]" * n) for n in range(1, 33)]
        graphs += [_outer_nested(n) for n in range(1, 41)]
        checked = 0
        for graph in graphs:
            for scroll, outer, loops in _scrolls_with_loops(layout(graph), graph):
                radii, column = [l.rx for l in loops], self._row_width(loops)
                cw, rx = self._row_width(outer), scroll.rx
                assert _loops_fit(rx, radii, column, cw)
                for loop in loops:
                    assert (loop.cx - loop.rx
                            >= scroll.cx + cw / 2.0 + PAD / 2.0 - 1e-9 * rx)
                assert (rx - 2.0 < self._r0(outer, loops)
                        or not _loops_fit(rx - 2.0, radii, column, cw))
                checked += 1
        assert checked > 1500

    def test_the_search_stays_logarithmic(self, monkeypatch):
        # consecutive fit tests with the same loops and outer row size one scroll
        keys = []
        fits = render._loops_fit

        def counted(r, radii, column, content_w):
            keys.append((tuple(radii), column, content_w))
            return fits(r, radii, column, content_w)

        monkeypatch.setattr(render, "_loops_fit", counted)
        render_svg(g("[p | " * 32 + "p" + "]" * 32))
        runs = [len(list(run)) for _, run in itertools.groupby(keys)]
        assert len(runs) == 32
        assert max(runs) <= math.log2(MAX_RADIUS) + 1

    def test_a_loop_column_past_the_limit_raises(self):
        # 2,000 loops of the 32-level ladder: the column's half-width passes
        # the largest machine int, and the radius is refused with PeirceError
        # rather than overflowing the search range's length
        ladder = g("[p | " * 32 + "p" + "]" * 32)
        graph = Graph((Scroll(Graph(()), (ladder,) * 2000),))
        with pytest.raises(PeirceError, match="too large to render"):
            render_svg(graph)


class TestEscape:
    def test_markup_in_atom_names(self):
        # the parser yields no such names, so they are built directly; the
        # digest was taken when the escape came from xml.sax.saxutils
        graph = Graph((Atom("a<b&c>d"),
                       Scroll(Graph((Atom("&amp;"), Atom("x>y"))), (Graph((Atom("\"q'"),)),))))
        svg = render_svg(graph)
        assert texts_of(svg) == ["a<b&c>d", "&amp;", "x>y", "\"q'"]
        assert "a&lt;b&amp;c&gt;d" in svg and "&amp;amp;" in svg
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "334499aed4ddf9497aa4ab19b9a9882ca50e0fe46b7191da2708d327d3aca616")


def _loop_pairs(node, graph):
    """(scroll ellipse, loop ellipse) pairs by walking tree and graph together."""
    pairs = []

    def walk_area(geo_children, area):
        for child, item in zip(geo_children, area.items):
            if isinstance(item, Scroll):
                outer_children = child.children[: len(item.outer.items)]
                loop_nodes = child.children[len(item.outer.items):]
                for loop_node, loop in zip(loop_nodes, item.loops):
                    pairs.append((child, loop_node))
                    walk_area(loop_node.children, loop)
                walk_area(outer_children, item.outer)

    walk_area(node.children, graph)
    return pairs


def _scrolls_with_loops(node, graph):
    """(scroll ellipse, outer item nodes, loop ellipses) for every scroll
    with loops; a scroll's loops are its last children."""
    loops_of = {}
    for scroll, loop in _loop_pairs(node, graph):
        loops_of.setdefault(id(scroll), (scroll, []))[1].append(loop)
    return [(scroll, scroll.children[:len(scroll.children) - len(loops)], loops)
            for scroll, loops in loops_of.values()]
