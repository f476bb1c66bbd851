import collections
import hashlib
import random

import pytest

from peirce.calculus import Erase, System, apply_rule, enumerate_rule_instances
from peirce.errors import IllegalRuleError, InvalidPathError
from peirce.graphs import (
    ATOM_NAME,
    BLANK,
    EVEN,
    ODD,
    Atom,
    Dialect,
    Graph,
    Path,
    Scroll,
    Violation,
    canonicalize,
    cut,
    edited,
    equals,
    node_count,
    polarity,
    replace_at,
    resolve,
    resolve_area,
    resolve_item,
    walk,
    well_formed,
)
from peirce.notation import parse_graph, print_graph

from genutil import check_frozen_node, random_graph

C = Dialect.CLASSICAL
I = Dialect.INTUITIONISTIC


def g(text, dialect=I):
    return parse_graph(text, dialect)


class TestNodeContract:
    # the graph nodes are frozen records, built by position and by keyword
    # through an __init__ of their own; test_semantics checks the formula
    # nodes the same way
    @pytest.mark.parametrize("node, defaults", [
        (Atom("p"), {}), (Scroll(g("p"), (g("q"), BLANK)), {"loops": ()}),
        (g("p (q)"), {"items": ()})], ids=["Atom", "Scroll", "Graph"])
    def test_a_frozen_dataclass(self, node, defaults):
        check_frozen_node(node, **defaults)

    def test_defaults_and_replace(self):
        assert Scroll(outer=g("p")) == Scroll(g("p"), ()) == cut(Atom("p"))
        assert Graph() == Graph(items=()) == BLANK
        assert repr(Scroll(BLANK)) == "Scroll(outer=Graph(items=()), loops=())"
        scroll = Scroll(cut(Atom("p")).outer, loops=(g("q"),))
        assert scroll == g("[p | q]").items[0] and scroll.key == g("[p | q]").items[0].key

    def test_the_reader_builds_one_atom_per_name(self):
        graph = parse_graph("p (p)", I)
        assert graph.items[0] is graph.items[1].outer.items[0]
        assert parse_graph("p", I).items[0] is not graph.items[0]


class TestCanonicalize:
    def test_commutes_juxtaposition(self):
        assert print_graph(canonicalize(g("q p"))) == "p q"

    def test_identity_on_sorted(self):
        assert print_graph(canonicalize(g("p"))) == "p"

    def test_recursive_sort(self):
        assert print_graph(canonicalize(g("(q p) a"))) == "a (p q)"

    def test_idempotent_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(300):
            graph = random_graph(rng, dialect=I)
            once = canonicalize(graph)
            assert canonicalize(once) == once

    def test_sorts_loops(self):
        graph = g("[ | q | p]")
        assert print_graph(canonicalize(graph)) == "[ | p | q]"

    def test_a_canonical_graph_is_returned_itself(self, computed):
        # a node already in key order is its own canonical form, so no node
        # is built for it; an unsorted area or loop list is rebuilt, and so
        # is each node above it
        for text in ("a [p | q | r] (p q)", "", "[ | a | (a)]"):
            graph = g(text)
            computed.clear()
            assert canonicalize(graph) is graph and computed == []
        graph = g("a [p | r | q] (p q)")
        once = canonicalize(graph)
        assert once.items[0] is graph.items[0] and once.items[2] is graph.items[2]
        assert once is not graph and once.items[1] is not graph.items[1]
        assert once.items[1].outer is graph.items[1].outer

    def test_seeded_graphs_print_as_a_full_rebuild_does(self):
        # 2,000 graphs of both dialects: canonicalize is idempotent by
        # identity, and prints as a form built anew at every node does
        rng = random.Random(409)
        kept = 0
        for _ in range(2_000):
            graph = random_graph(rng, depth=4, dialect=rng.choice([C, I]))
            once = canonicalize(graph)
            assert canonicalize(once) is once
            assert print_graph(once) == print_graph(_rebuilt(graph))
            kept += once is graph
        assert 200 < kept < 1_800


def _rebuilt(node):
    """The canonical form of ``node``, every node built anew."""
    if isinstance(node, Atom):
        return Atom(node.name)
    if isinstance(node, Scroll):
        return Scroll(_rebuilt(node.outer), tuple(sorted(map(_rebuilt, node.loops), key=_key)))
    return Graph(tuple(sorted(map(_rebuilt, node.items), key=_key)))


def _key(node):
    return node.key


class TestEquals:
    def test_area_order_irrelevant(self):
        assert equals(g("p (q p)"), g("p (p q)"))

    def test_multiplicity_matters(self):
        assert not equals(g("p"), g("p p"))

    def test_scroll_is_not_double_cut(self):
        assert not equals(g("[p | q]"), g("(p (q))"))

    def test_loop_order_irrelevant(self):
        assert equals(g("[ | p | q]"), g("[ | q | p]"))
        assert not equals(g("[ | p | q]"), g("[ | p]"))

    def test_outer_loop_roles_distinct(self):
        assert not equals(g("[p | q]"), g("[q | p]"))

    def test_equivalence_relation(self):
        rng = random.Random(11)
        graphs = [random_graph(rng, depth=3, dialect=I) for _ in range(40)]
        for a in graphs:
            assert equals(a, a)
        for a in graphs:
            for b in graphs:
                assert equals(a, b) == equals(b, a)

    def test_congruence_under_replace(self):
        rng = random.Random(13)
        for _ in range(100):
            base = random_graph(rng, depth=3, dialect=I)
            areas = [p for p, _ in walk(base)[0]]
            area = rng.choice(areas)
            fill_a = random_graph(rng, depth=2, dialect=I)
            fill_b = Graph(tuple(reversed(fill_a.items)))
            assert equals(replace_at(base, area, fill_a), replace_at(base, area, fill_b))


def _structural_key(graph):
    """The structural order written out as nested tuples: atoms by name
    before scrolls, scrolls by outer area, then by sorted loops."""
    def item_key(item):
        if isinstance(item, Atom):
            return (0, item.name)
        return (1, _structural_key(item.outer), tuple(sorted(_structural_key(l) for l in item.loops)))
    return tuple(sorted(item_key(i) for i in graph.items))


class TestKey:
    def test_cut_differs_from_empty_loop_scroll(self):
        assert g("(p)").key != g("[p | ]").key
        assert g("()").key != g("[ | ]").key
        assert g("[ | ]").key != g("[ | | ]").key

    def test_atom_name_prefixes_differ(self):
        assert g("p").key != g("pq").key
        assert g("p q").key != g("pq").key

    def test_key_order_is_the_structural_order(self):
        rng = random.Random(17)
        graphs = [random_graph(rng, depth=rng.randint(1, 4), atoms=3, dialect=I)
                  for _ in range(150)]
        graphs += [Graph(tuple(reversed(x.items))) for x in graphs[:50]]
        for a in graphs:
            for b in graphs:
                ka, kb = _structural_key(a), _structural_key(b)
                assert (a.key < b.key) == (ka < kb)
                assert (a.key == b.key) == (ka == kb)

    def test_node_count_counts_atoms_and_scrolls(self):
        assert node_count(g("")) == 0
        assert node_count(g("p (q) [r | s | ]")) == 6


class TestResolve:
    def test_item(self):
        item = resolve(g("p (q)"), Path.parse("1"))
        assert isinstance(item, Scroll) and item.is_cut

    def test_nested_atom(self):
        assert resolve(g("p (q)"), Path.parse("1.outer.0")) == Atom("q")

    def test_loop_atom(self):
        assert resolve(g("[p | q]"), Path.parse("0.loop0.0")) == Atom("q")

    def test_empty_path_is_sheet(self):
        graph = g("p (q)")
        assert resolve(graph, Path()) == graph

    def test_out_of_range(self):
        with pytest.raises(InvalidPathError):
            resolve(g("p"), Path.parse("1"))

    def test_atom_has_no_regions(self):
        with pytest.raises(InvalidPathError):
            resolve(g("p"), Path.parse("0.outer"))

    def test_loop_out_of_range(self):
        with pytest.raises(InvalidPathError):
            resolve(g("[p | q]"), Path.parse("0.loop1"))


class TestPolarity:
    def test_sheet_even(self):
        assert polarity(g("p (q)"), Path()) == EVEN

    def test_cut_contents_odd(self):
        assert polarity(g("p (q)"), Path.parse("1.outer")) == ODD

    def test_loop_even(self):
        assert polarity(g("[p | q]"), Path.parse("0.loop0")) == EVEN

    def test_outer_step_flips(self):
        graph = g("((p))")
        assert polarity(graph, Path.parse("0.outer")) == ODD
        assert polarity(graph, Path.parse("0.outer.0.outer")) == EVEN

    def test_loop_entry_preserves_enclosing_parity(self):
        graph = g("([p | q])")
        assert polarity(graph, Path.parse("0.outer")) == ODD
        assert polarity(graph, Path.parse("0.outer.0.loop0")) == ODD


class TestReplaceAt:
    def test_replace_cut_contents(self):
        out = replace_at(g("p (q)"), Path.parse("1.outer"), g("r s"))
        assert print_graph(out) == "p (r s)"

    def test_replace_sheet_with_blank(self):
        assert replace_at(g("p"), Path(), BLANK) == BLANK

    def test_replace_loop(self):
        out = replace_at(g("[p | q]"), Path.parse("0.loop0"), g("q r"))
        assert print_graph(out) == "[p | q r]"

    def test_locality(self):
        graph = g("p (q) [r | s]")
        out = replace_at(graph, Path.parse("1.outer"), g("x"))
        assert resolve(out, Path.parse("0")) == resolve(graph, Path.parse("0"))
        assert resolve(out, Path.parse("2")) == resolve(graph, Path.parse("2"))


class TestWellFormed:
    def test_classical_cut_ok(self):
        assert well_formed(g("(p)", C), C) == []

    def test_loop_rejected_in_classical(self):
        violations = well_formed(g("[p | q]"), C)
        assert len(violations) == 1
        assert violations[0].path == Path.parse("0")

    def test_loop_fine_intuitionistically(self):
        assert well_formed(g("[p | q]"), I) == []

    def test_bad_atom_name(self):
        violations = well_formed(Graph((Atom("9bad"),)), I)
        assert violations and "9bad" in violations[0].reason


def _reference_well_formed(graph, dialect):
    """well_formed as a walk over every item, with no cached flaws: the
    reference the nodes' flaws are checked against."""
    out = []
    for path, item in walk(graph)[1]:
        if isinstance(item, Atom):
            if not ATOM_NAME.match(item.name):
                out.append(Violation(path, f"bad atom name {item.name!r}"))
        elif item.loops and dialect is C:
            out.append(Violation(path, "scroll loops are not classical signs"))
    return out


_FLAWS = (Atom("9bad"), Scroll(Graph((Atom("p"),)), (Graph((Atom("q"),)),)), Scroll(BLANK, (BLANK,)))


def _planted(rng, graph, flaws):
    """``graph`` with ``flaws`` items, each a bad name or a loop, put in
    areas drawn at random, so at random depths."""
    for _ in range(flaws):
        path, area = rng.choice(walk(graph)[0])
        at = rng.randint(0, len(area))
        flaw = rng.choice(_FLAWS)
        graph = edited(graph, path.parts, lambda area: area.items[:at] + (flaw,) + area.items[at:])
    return graph


def _random_flawed(rng):
    graph = random_graph(rng, depth=rng.randint(1, 5), dialect=rng.choice([C, I]))
    return _planted(rng, graph, rng.choice([0, 0, 1, 2]))


class TestFlaws:
    def test_well_formed_is_the_reference_walk(self):
        rng = random.Random(347)
        flawed = 0
        for _ in range(600):
            graph = _random_flawed(rng)
            for dialect in (C, I):
                assert well_formed(graph, dialect) == _reference_well_formed(graph, dialect)
                flawed += bool(well_formed(graph, dialect))
        assert flawed > 300

    def test_edits_of_graphs_with_cached_flaws(self):
        # an edit's result shares the nodes off its spine, whose flaws are
        # already cached: a clean edit in a flawed graph and a flawed edit
        # in a clean graph are both told apart from a clean result
        rng = random.Random(353)
        seen = collections.Counter()
        for _ in range(600):
            graph = _random_flawed(rng)
            graph.flaws
            path, _ = rng.choice(walk(graph)[0])
            contents = _random_flawed(rng)
            if rng.random() < 0.5:
                contents.flaws
            result = edited(graph, path.parts, lambda _: contents.items)
            spine = edited(graph, path.parts, lambda _: ())
            for dialect in (C, I):
                expected = _reference_well_formed(result, dialect)
                assert well_formed(result, dialect) == expected
                seen[bool(_reference_well_formed(contents, dialect)),
                     bool(_reference_well_formed(spine, dialect)), bool(expected)] += 1
        # (flawed contents, flawed spine, flawed result)
        assert seen[False, True, True] > 100 and seen[True, False, True] > 100
        assert seen[False, False, False] > 100 and seen[True, True, True] > 50


@pytest.fixture
def computed(monkeypatch):
    """The nodes whose flaws are computed, in the order they are: a node
    computes them in its __init__."""
    nodes = []
    for kind in (Atom, Scroll, Graph):
        monkeypatch.setattr(kind, "__init__", lambda node, *args, init=kind.__init__, **named:
                            init(node, *args, **named) or nodes.append(node))
    return nodes


def _nodes(graph):
    """The ids of the graph's nodes: its areas and items."""
    areas, items = walk(graph)
    return {id(node) for _, node in areas + items}


class TestFlawsOnce:
    def test_a_second_step_computes_only_its_new_spine(self, computed):
        rng = random.Random(359)
        spines = 0
        for _ in range(200):
            system = rng.choice([System.CLASSICAL, System.INTUITIONISTIC])
            graph = random_graph(rng, depth=4, atoms=2, dialect=system)
            vocab = tuple(random_graph(rng, depth=2, dialect=system) for _ in range(2))
            checked = apply_rule(system, graph, rng.choice(
                enumerate_rule_instances(system, graph, vocab)))
            rules = enumerate_rule_instances(system, checked, vocab)
            # the shared blank area is built once, at import
            old = _nodes(checked).union(*map(_nodes, vocab), {id(BLANK)})
            computed.clear()
            result = apply_rule(system, checked, rng.choice(rules))
            new = _nodes(result) - old
            assert sorted(map(id, computed)) == sorted(new)
            spines += len(new)
        assert spines > 600

    def test_an_intuitionistic_parse_checks_nothing(self, monkeypatch):
        # no parse walks its graph; each node's flaws are computed as it is
        # built, so a parse computes the flaws of the nodes it builds
        walked = []
        monkeypatch.setattr("peirce.graphs.walk", lambda graph: walked.append(graph) or walk(graph))
        rng = random.Random(367)
        texts = [print_graph(random_graph(rng, dialect=rng.choice([C, I]))) for _ in range(300)]
        for text in texts:
            parse_graph(text, I)
        # nor does a classical one without a loop
        for text in texts:
            if "|" not in text:
                parse_graph(text, C)
        assert walked == []
        assert any("|" in text for text in texts)


class TestPathText:
    @pytest.mark.parametrize("text", ["/", "0", "1.outer.0", "2.loop0", "0.loop12.3"])
    def test_round_trip(self, text):
        assert str(Path.parse(text)) == text

    def test_rejects_garbage(self):
        with pytest.raises(InvalidPathError):
            Path.parse("0.sideways")


class TestPathGuards:
    @pytest.mark.parametrize("build,message", [
        (lambda: Path((-1,)), "step 0: expected a non-negative int, got -1"),
        (lambda: Path(("0",)), "step 0: expected a non-negative int, got '0'"),
        (lambda: Path.parse("0").item(1), "can only select an item inside an area"),
        (lambda: Path().parent_area(), "only item paths have a parent area"),
        (lambda: resolve_area(g("p"), Path.parse("0")), "0 addresses an item, not an area"),
        (lambda: resolve_item(g("p"), Path()), "/ addresses an area, not an item"),
    ])
    def test_message(self, build, message):
        with pytest.raises(InvalidPathError) as err:
            build()
        assert str(err.value) == message


def _walk_texts(graph, prefix=""):
    """The (area text, area) and (item text, item) pairs in depth-first
    order, spelled as path text: the walks' meaning, stated recursively."""
    areas, items = [(prefix or "/", graph)], []
    for index, item in enumerate(graph.items):
        path = f"{prefix}.{index}" if prefix else str(index)
        items.append((path, item))
        if isinstance(item, Scroll):
            regions = [("outer", item.outer)] + [
                (f"loop{k}", loop) for k, loop in enumerate(item.loops)]
            for name, area in regions:
                more_areas, more_items = _walk_texts(area, f"{path}.{name}")
                areas += more_areas
                items += more_items
    return areas, items


def test_walks_match_the_recursive_reference():
    rng = random.Random(811)
    pairs = 0
    for _ in range(300):
        graph = random_graph(rng, depth=rng.randint(1, 5), dialect=rng.choice([C, I]))
        for walked, expected in zip(walk(graph), _walk_texts(graph)):
            assert [str(path) for path, _ in walked] == [text for text, _ in expected]
            assert all(node is other for (_, node), (_, other) in zip(walked, expected))
            pairs += len(walked)
    assert pairs > 1500


def _interleaved(graph, prefix=()):
    """The walk as one generator of areas and items interleaved, each area
    followed by its items, each scroll by its regions' walks."""
    yield Path(prefix), graph
    for index, item in enumerate(graph.items):
        yield Path(prefix + (index,)), item
        if isinstance(item, Scroll):
            for region, area in enumerate(item.regions):
                yield from _interleaved(area, prefix + (index, region))


def test_walk_lists_are_the_interleaved_walk_filtered():
    rng = random.Random(823)
    nested = Graph()
    for _ in range(150):
        nested = Graph((cut(*nested.items),))
    graphs = [random_graph(rng, depth=rng.randint(1, 5), dialect=dialect)
              for dialect in (C, I) for _ in range(150)] + [nested]
    for graph in graphs:
        sites = list(_interleaved(graph))
        areas, items = walk(graph)
        for walked, expected in ((areas, [s for s in sites if isinstance(s[1], Graph)]),
                                 (items, [s for s in sites if not isinstance(s[1], Graph)])):
            assert [path for path, _ in walked] == [path for path, _ in expected]
            assert all(node is other for (_, node), (_, other) in zip(walked, expected))
    assert len(walk(nested)[0]) == 151 and len(walk(nested)[1]) == 150
    assert any(isinstance(item, Scroll) and item.loops for g in graphs for _, item in walk(g)[1])


def _path_text(rng):
    """A path text, most of them well formed; some with out-of-range or
    over-long indices, bad regions and stray characters."""
    if rng.random() < 0.04:
        return rng.choice(["", "/", " / ", " 0 ", "0.", ".0"])
    chunks = []
    for pos in range(rng.randint(1, 7)):
        if pos % 2 == 0:
            chunks.append(rng.choice(["0", "1", "2", "0", "1", "3", "9", "007",
                                      "1" + "0" * 30, "7" * 4400, "-1", "x", "", "\u0663"]))
        else:
            chunks.append(rng.choice(["outer", "outer", "outer", "loop0", "loop0", "loop1",
                                      "loop2", "loop9", "loop01", "loop" + "9" * 4400,
                                      "loop", "loopx", "Outer", "0"]))
    return ".".join(chunks)


def _outcome(run):
    try:
        return run()
    except (InvalidPathError, IllegalRuleError) as exc:
        return f"error: {exc}"


def _shown(node):
    if isinstance(node, Graph):
        return "area " + print_graph(node)
    return "item " + print_graph(Graph((node,)))


def _path_lines():
    """Parse-and-print, resolve and erase outcomes of seeded path texts
    against seeded graphs of both dialects."""
    rng = random.Random(1213)
    graphs = [random_graph(rng, depth=rng.randint(2, 5), width=4, dialect=dialect)
              for dialect in (C, I) for _ in range(6)]
    lines = []
    for _ in range(3000):
        text = _path_text(rng)
        try:
            path = Path.parse(text)
        except InvalidPathError as exc:
            lines.append(f"error: {exc}")
            continue
        lines.append(str(path))
        for graph in rng.sample(graphs, 4):
            system = System.INTUITIONISTIC if any(
                isinstance(item, Scroll) and item.loops for _, item in walk(graph)[1]
            ) else rng.choice(list(System))
            lines.append(_outcome(lambda: _shown(resolve(graph, path))))
            lines.append(_outcome(lambda: print_graph(apply_rule(system, graph, Erase(path)))))
    return lines


def test_path_outcomes_are_pinned():
    # the digest of these outcomes while regions were tagged "outer" and
    # ("loop", k), so a match means numbering the regions changed no text
    lines = _path_lines()
    assert sum(line.startswith("area ") for line in lines) > 300
    assert sum(line.startswith("item ") for line in lines) > 300
    assert sum("out of range" in line for line in lines) > 300
    assert sum("has no regions" in line for line in lines) > 100
    assert sum("digits is too long" in line for line in lines) > 100
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "43355242076aa181b4034cf68d8bb2cc82146ec657e6d30c60d7f0f3c24ce63e"
