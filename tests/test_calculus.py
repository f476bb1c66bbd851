import random

import pytest

from peirce import calculus, graphs
from peirce.calculus import (
    Deiterate,
    Detach,
    DoubleCutElim,
    DoubleCutIntro,
    Erase,
    Insert,
    Iterate,
    LoopAdd,
    LoopRemove,
    ProofScript,
    ScrollUnwrap,
    ScrollWrap,
    System,
    apply_rule,
    check_script,
    enumerate_rule_instances,
    moves,
)
from peirce.errors import IllegalRuleError
from peirce.graphs import (
    Atom,
    Dialect,
    Graph,
    Path,
    Scroll,
    equals,
    node_count,
    resolve_area,
    well_formed,
)
from peirce.calculus import in_scope
from peirce.graphs import OUTER, walk
from peirce.notation import parse_graph, print_graph
from peirce.scriptfile import parse_script
from peirce.search import default_vocabulary
from peirce.semantics import graph_to_formula, taut_classical, taut_int
from peirce import formulas as fm

from genutil import random_graph

CL = System.CLASSICAL
IN = System.INTUITIONISTIC


def g(text, system=IN):
    return parse_graph(text, system)


def p(text):
    return Path.parse(text)


class TestApplyRule:
    def test_erase_even(self):
        assert print_graph(apply_rule(CL, g("p q", CL), Erase(p("1")))) == "p"

    def test_insert_odd(self):
        out = apply_rule(CL, g("(p)", CL), Insert(p("0.outer"), g("q", CL)))
        assert print_graph(out) == "(p q)"

    def test_iterate_into_cut(self):
        out = apply_rule(CL, g("p (q)", CL), Iterate(p("0"), p("1.outer")))
        assert print_graph(out) == "p (q p)"

    def test_iterate_beside_original(self):
        out = apply_rule(CL, g("p", CL), Iterate(p("0"), Path()))
        assert print_graph(out) == "p p"

    def test_iterate_from_outer_into_loop(self):
        out = apply_rule(IN, g("[p | q]"), Iterate(p("0.outer.0"), p("0.loop0")))
        assert print_graph(out) == "[p | q p]"

    def test_iterate_not_into_itself(self):
        with pytest.raises(IllegalRuleError):
            apply_rule(CL, g("(p)", CL), Iterate(p("0"), p("0.outer")))

    def test_iterate_not_between_loops(self):
        graph = g("[ | p | q]")
        with pytest.raises(IllegalRuleError):
            apply_rule(IN, graph, Iterate(p("0.loop0.0"), p("0.loop1")))

    def test_deiterate_inverse_of_iterate(self):
        graph = g("p (q p)", CL)
        out = apply_rule(CL, graph, Deiterate(p("1.outer.1"), p("0")))
        assert print_graph(out) == "p (q)"

    def test_deiterate_needs_equal_witness(self):
        with pytest.raises(IllegalRuleError):
            apply_rule(CL, g("p (q)", CL), Deiterate(p("1.outer.0"), p("0")))

    def test_deiterate_needs_scope(self):
        # the inner p is not in scope of an item sitting deeper
        graph = g("(p) p", CL)
        with pytest.raises(IllegalRuleError):
            apply_rule(CL, graph, Deiterate(p("1"), p("0.outer.0")))

    def test_double_cut_intro_elim_roundtrip(self):
        graph = g("p q", CL)
        wrapped = apply_rule(CL, graph, DoubleCutIntro(Path(), frozenset({0})))
        assert print_graph(wrapped) == "((p)) q"
        back = apply_rule(CL, wrapped, DoubleCutElim(p("0")))
        assert equals(back, graph)

    def test_double_cut_elim_requires_empty_donut(self):
        with pytest.raises(IllegalRuleError):
            apply_rule(CL, g("((p) q)", CL), DoubleCutElim(p("0")))

    def test_double_cut_rules_classical_only(self):
        with pytest.raises(IllegalRuleError):
            apply_rule(IN, g("p"), DoubleCutIntro(Path(), frozenset()))

    def test_scroll_rules_intuitionistic_only(self):
        with pytest.raises(IllegalRuleError):
            apply_rule(CL, g("p", CL), ScrollWrap(Path(), frozenset()))

    def test_wrap_unwrap_roundtrip(self):
        graph = g("p q")
        wrapped = apply_rule(IN, graph, ScrollWrap(Path(), frozenset({0, 1})))
        assert print_graph(wrapped) == "[ | p q]"
        back = apply_rule(IN, wrapped, ScrollUnwrap(p("0")))
        assert equals(back, graph)

    def test_unwrap_needs_empty_outer(self):
        with pytest.raises(IllegalRuleError):
            apply_rule(IN, g("[p | q]"), ScrollUnwrap(p("0")))

    def test_loop_add_even(self):
        out = apply_rule(IN, g("()"), LoopAdd(p("0"), g("q")))
        assert print_graph(out) == "[ | q]"

    def test_loop_add_odd_rejected(self):
        with pytest.raises(IllegalRuleError):
            apply_rule(IN, g("([p | q])"), LoopAdd(p("0.outer.0"), g("r")))

    def test_loop_remove_odd(self):
        out = apply_rule(IN, g("([ | q | r])"), LoopRemove(p("0.outer.0"), 0))
        assert print_graph(out) == "([ | r])"

    def test_loop_remove_even_rejected(self):
        with pytest.raises(IllegalRuleError):
            apply_rule(IN, g("[ | q | r]"), LoopRemove(p("0"), 0))

    def test_loop_index_out_of_range(self):
        with pytest.raises(IllegalRuleError) as err:
            apply_rule(IN, g("[p | q]"), LoopRemove(p("0"), 1))
        assert err.value.reason == "loop index out of range"

    def test_detach(self):
        out = apply_rule(IN, g("[p | q]"), Detach(p("0")))
        assert print_graph(out) == "(p (q))"

    def test_detach_odd_rejected(self):
        with pytest.raises(IllegalRuleError):
            apply_rule(IN, g("([p | q])"), Detach(p("0.outer.0")))

    def test_erase_odd_rejected(self):
        with pytest.raises(IllegalRuleError):
            apply_rule(CL, g("(p q)", CL), Erase(p("0.outer.1")))

    def test_insert_even_rejected(self):
        with pytest.raises(IllegalRuleError):
            apply_rule(CL, g("p", CL), Insert(Path(), g("q", CL)))

    def test_insert_checks_dialect(self):
        with pytest.raises(IllegalRuleError):
            apply_rule(CL, g("(p)", CL), Insert(p("0.outer"), g("[q | r]")))

    def test_invalid_path_reported(self):
        with pytest.raises(IllegalRuleError) as err:
            apply_rule(CL, g("p", CL), Erase(p("4")))
        assert "invalid path" in err.value.reason

    @pytest.mark.parametrize("system,text,rule,reason", [
        (CL, "(p)", Insert(p("0.outer"), Graph((Scroll(Graph(), (Graph(),)),))),
         "inserted graph not in dialect: scroll loops are not classical signs"),
        (IN, "(p)", Insert(p("0.outer"), Graph((Atom("9bad"),))),
         "inserted graph not in dialect: bad atom name '9bad'"),
        (IN, "[p | q]", LoopAdd(p("0"), Graph((Atom("9bad"),))),
         "loop graph not in dialect: bad atom name '9bad'"),
    ])
    def test_graph_drawn_from_outside_the_dialect(self, system, text, rule, reason):
        with pytest.raises(IllegalRuleError) as err:
            apply_rule(system, g(text, system), rule)
        assert err.value.reason == reason

    def test_result_outside_the_dialect(self):
        # a classical step on a graph read as intuitionistic: the erase is
        # legal, and the loop it leaves is not a classical sign
        with pytest.raises(IllegalRuleError) as err:
            apply_rule(CL, g("p [q | r]", IN), Erase(p("0")))
        assert err.value.reason == (
            "result not well-formed: scroll loops are not classical signs at 0")


class TestEnumerate:
    def test_blank_sheet_classical(self):
        instances = enumerate_rule_instances(CL, Graph(), (g("p", CL),))
        assert DoubleCutIntro(Path(), frozenset()) in instances
        assert not any(isinstance(r, Erase) for r in instances)

    def test_two_atoms_classical(self):
        instances = enumerate_rule_instances(CL, g("p q", CL), ())
        assert Erase(p("0")) in instances
        assert Erase(p("1")) in instances
        assert Iterate(p("0"), Path()) in instances

    def test_polarity_gates_loops(self):
        instances = enumerate_rule_instances(IN, g("[p | q]"), (g("r"),))
        assert LoopAdd(p("0"), g("r")) in instances
        assert not any(isinstance(r, LoopRemove) for r in instances)

    def test_detach_only_in_even_areas(self):
        instances = enumerate_rule_instances(IN, g("([p | q])"), ())
        assert not any(isinstance(r, Detach) for r in instances)
        instances = enumerate_rule_instances(IN, g("[p | q]"), ())
        assert Detach(p("0")) in instances

    def test_all_enumerated_instances_apply(self):
        rng = random.Random(51)
        for _ in range(120):
            system = rng.choice([CL, IN])
            graph = random_graph(rng, depth=3, dialect=system)
            vocab = (g("p", system), g("(q)", system))
            for rule in enumerate_rule_instances(system, graph, vocab):
                out = apply_rule(system, graph, rule)
                assert well_formed(out, system) == []

    def test_growth_bound_is_exact(self):
        # the bound drops exactly the instances whose result is too large,
        # and keeps the order of the rest
        rng = random.Random(97)
        for _ in range(150):
            system = rng.choice([CL, IN])
            graph = random_graph(rng, depth=3, dialect=system)
            # vocabularies of either dialect, empty graphs included
            vocab = tuple(random_graph(rng, depth=2, dialect=rng.choice(list(Dialect)))
                          for _ in range(rng.randint(0, 3)))
            every = enumerate_rule_instances(system, graph, vocab)
            sizes = [node_count(apply_rule(system, graph, rule)) for rule in every]
            for k in range(5):
                fitting = [rule for rule, size in zip(every, sizes)
                           if size <= node_count(graph) + k]
                assert enumerate_rule_instances(system, graph, vocab, max_growth=k) == fitting

    def test_deterministic_order(self):
        graph = g("p (q) [r | s]")
        a = enumerate_rule_instances(IN, graph, (g("p"),))
        b = enumerate_rule_instances(IN, graph, (g("p"),))
        assert a == b


class TestSoundness:
    def _soundness_run(self, system, count, seed):
        rng = random.Random(seed)
        checked = 0
        while checked < count:
            graph = random_graph(rng, depth=3, atoms=3, dialect=system)
            vocab = (g("p", system), g("q", system))
            instances = enumerate_rule_instances(system, graph, vocab)
            if not instances:
                continue
            rule = rng.choice(instances)
            out = apply_rule(system, graph, rule)
            step = fm.Imp(graph_to_formula(graph), graph_to_formula(out))
            if system is CL:
                assert taut_classical(step), (print_graph(graph), rule, print_graph(out))
            else:
                assert taut_int(step), (print_graph(graph), rule, print_graph(out))
            checked += 1

    def test_classical_soundness_sample(self):
        self._soundness_run(CL, 300, seed=61)

    def test_intuitionistic_soundness_sample(self):
        self._soundness_run(IN, 300, seed=67)

    def test_iterate_deiterate_roundtrip_random(self):
        rng = random.Random(71)
        done = 0
        while done < 80:
            system = rng.choice([CL, IN])
            graph = random_graph(rng, depth=3, dialect=system)
            iterations = [r for r in enumerate_rule_instances(system, graph, ())
                          if isinstance(r, Iterate)]
            if not iterations:
                continue
            rule = rng.choice(iterations)
            stepped = apply_rule(system, graph, rule)
            copy_path = rule.target.item(len(resolve_area(stepped, rule.target).items) - 1)
            back = apply_rule(system, stepped, Deiterate(copy_path, rule.source))
            assert equals(back, graph)
            done += 1


class TestCheckScript:
    def test_valid_script_with_expect(self):
        script = ProofScript(CL, g("p (q)", CL), (
            (Iterate(p("0"), p("1.outer")), g("p (p q)", CL)),
        ))
        report = check_script(script)
        assert report.ok and equals(report.final, g("p (q p)", CL))

    def test_three_step_derivation(self):
        script = ProofScript(CL, Graph(), (
            (DoubleCutIntro(Path(), frozenset()), None),
            (Insert(p("0.outer"), g("p", CL)), None),
            (Iterate(p("0.outer.1"), p("0.outer.0.outer")), None),
        ))
        report = check_script(script)
        assert report.ok
        assert equals(report.final, g("(p (p))", CL))

    def test_expectation_mismatch(self):
        script = ProofScript(CL, g("p q", CL), (
            (Erase(p("0")), g("p", CL)),
        ))
        report = check_script(script)
        assert not report.ok
        assert report.failed_step == 0
        assert "mismatch" in report.reason

    def test_illegal_rule_reports_step(self):
        script = ProofScript(CL, g("p q", CL), (
            (Erase(p("0")), None),
            (Erase(p("5")), None),
        ))
        report = check_script(script)
        assert not report.ok and report.failed_step == 1

    def test_double_negated_excluded_middle_in_nine_steps(self):
        # The hypothesis ([ | p | (p)]) is used twice: a copy is weakened
        # to (p), the disjunction is rebuilt from it, and deiteration merges
        # the result back into the hypothesis.
        script = parse_script(
            "system intuitionistic\n"
            "graph\n"
            "wrap / items\n"
            "detach 0\n"
            "insert 0.outer ([ | p | (p)])\n"
            "iterate 0.outer.1 -> 0.outer.0.outer\n"
            "loopremove 0.outer.0.outer.0.outer.0 1\n"
            "unwrap 0.outer.0.outer.0.outer.0\n"
            "wrap 0.outer.0.outer items 0\n"
            "loopadd 0.outer.0.outer.0 p\n"
            "deiterate 0.outer.0 witness 0.outer.1\n"
            "expect (([ | p | (p)]))\n"
        )
        report = check_script(script)
        assert report.ok, report.reason
        assert len(script.steps) == 9
        assert equals(report.final, g("(([ | p | (p)]))"))
        assert max(node_count(step.graph) for step in report.results) == 12


def _crossings(parts):
    """The curves crossed from the sheet to an area: entering a scroll's
    outer area crosses its outer curve, entering a loop the outer curve and
    then the loop's."""
    crossed = []
    for pos in range(1, len(parts), 2):
        crossed.append((parts[:pos], OUTER))
        if parts[pos] != OUTER:
            crossed.append((parts[:pos], parts[pos]))
    return crossed


class TestScope:
    def test_scope_is_the_curve_nesting_order(self):
        # reference: the target's crossings extend those of the source's
        # area, and the target does not lie inside the source item
        rng = random.Random(101)
        verdicts = {True: 0, False: 0}
        outer_to_loop = 0
        for _ in range(400):
            system = rng.choice([CL, IN])
            graph = random_graph(rng, depth=4, dialect=system)
            areas = [path for path, _ in walk(graph)[0]]
            for item, _ in walk(graph)[1]:
                source = _crossings(item.parts[:-1])
                for area in areas:
                    expected = (_crossings(area.parts)[:len(source)] == source
                                and area.parts[:len(item.parts)] != item.parts)
                    assert in_scope(item, area) == expected, (print_graph(graph), item, area)
                    verdicts[expected] += 1
                    # from a scroll's outer area into one of its loops
                    scroll = item.parts[:-2]
                    region = area.parts[len(scroll):len(scroll) + 1]
                    outer_to_loop += (expected and item.parts[-2:-1] == (OUTER,)
                                      and area.parts[:len(scroll)] == scroll
                                      and region not in ((), (OUTER,)))
        assert min(verdicts.values()) > 2000 and outer_to_loop > 100


class TestCheckerAndEnumeratorAgree:
    def test_enumerated_exactly_when_accepted(self):
        # every candidate over the enumerator's candidate space: each item
        # and area, each (source, target) and (item, witness) pair, the
        # empty and singleton index sets, each vocabulary graph (of either
        # dialect) and each loop index
        rng = random.Random(103)
        accepted = rejected = 0
        for _ in range(200):
            system = rng.choice([CL, IN])
            graph = random_graph(rng, depth=3, dialect=system)
            vocab = tuple(random_graph(rng, depth=2, dialect=rng.choice(list(Dialect)))
                          for _ in range(rng.randint(0, 3)))
            areas, items = walk(graph)
            candidates = []
            for path, node in items:
                candidates += [Erase(path), DoubleCutElim(path), ScrollUnwrap(path), Detach(path)]
                candidates += [LoopAdd(path, v) for v in vocab]
                candidates += [LoopRemove(path, k) for k in range(len(getattr(node, "loops", ())))]
                candidates += [Iterate(path, area) for area, _ in areas]
                candidates += [Deiterate(path, witness) for witness, _ in items]
            for path, area in areas:
                candidates += [Insert(path, v) for v in vocab]
                for chosen in [frozenset()] + [frozenset((i,)) for i in range(len(area.items))]:
                    candidates += [DoubleCutIntro(path, chosen), ScrollWrap(path, chosen)]
            listed = enumerate_rule_instances(system, graph, vocab)
            assert set(listed) <= set(candidates)
            for rule in candidates:
                try:
                    apply_rule(system, graph, rule)
                except IllegalRuleError:
                    assert rule not in listed, (system, print_graph(graph), rule)
                    rejected += 1
                else:
                    assert rule in listed, (system, print_graph(graph), rule)
                    accepted += 1
        assert accepted > 3000 and rejected > 3000


class TestWrapPlacement:
    @pytest.mark.parametrize("system,rule,expected", [
        (IN, ScrollWrap(Path(), frozenset({0, 2})), "[ | p r] q"),
        (IN, ScrollWrap(Path(), frozenset({1, 2})), "p [ | q r]"),
        (CL, DoubleCutIntro(Path(), frozenset({2, 1})), "p ((q r))"),
        (CL, DoubleCutIntro(Path(), frozenset()), "p q r (())"),
    ])
    def test_wrapper_takes_the_place_of_the_first_chosen_item(self, system, rule, expected):
        assert print_graph(apply_rule(system, g("p q r", system), rule)) == expected

    def test_an_empty_area_of_a_wrapper_is_the_shared_blank(self):
        # the wrap and the double cut build no empty area of their own
        wrapped = apply_rule(IN, g("p", IN), ScrollWrap(Path(), frozenset())).items[1]
        assert len(wrapped.loops) == 1 and wrapped.outer is wrapped.loops[0] is graphs.BLANK
        wrapped = apply_rule(IN, g("p", IN), ScrollWrap(Path(), frozenset({0}))).items[0]
        assert wrapped.outer is graphs.BLANK and print_graph(wrapped.loops[0]) == "p"
        cut = apply_rule(CL, g("p", CL), DoubleCutIntro(Path(), frozenset())).items[1]
        assert cut.outer.items[0].outer is graphs.BLANK


def _reference_key(node):
    # the canonical key, recomputed from the structure: no cached key read
    if isinstance(node, Atom):
        return graphs._ATOM + node.name + graphs._END_NAME
    if isinstance(node, Scroll):
        return (graphs._SCROLL + _reference_key(node.outer)
                + "".join(sorted(_reference_key(loop) for loop in node.loops)) + graphs._END_LOOPS)
    return "".join(sorted(_reference_key(item) for item in node.items)) + graphs._END_AREA


def _reference_size(node):
    if isinstance(node, Atom):
        return 1
    if isinstance(node, Scroll):
        return 1 + sum(map(_reference_size, (node.outer,) + node.loops))
    return sum(map(_reference_size, node.items))


class TestEdits:
    def test_spliced_key_is_the_built_graphs_key(self):
        # every move of random graphs of both systems, with vocabularies of
        # either dialect: its instance is the listed one, the key spliced
        # up the spine is the built graph's, and the built graph is
        # apply_rule's
        rng = random.Random(127)
        checked = nested = 0
        for _ in range(320):
            system = rng.choice([CL, IN])
            graph = random_graph(rng, depth=4, dialect=system)
            vocab = tuple(random_graph(rng, depth=2, dialect=rng.choice(list(Dialect)))
                          for _ in range(rng.randint(0, 3)))
            listed = enumerate_rule_instances(system, graph, vocab)
            listing = list(moves(system, graph, vocab))
            assert len(listing) == len(listed)
            for (kind, entry, ops), rule in zip(listing, listed):
                assert kind(*ops[::2]) == rule and entry is calculus.RULES[kind]
                parts, contents = entry.edit(*ops)
                key = graphs.edited_key(graph, parts, contents)
                built = graphs.edited(graph, parts, contents)
                assert key == _reference_key(built), (print_graph(graph), rule)
                assert graphs.key_size(key) == _reference_size(built)
                assert built == apply_rule(system, graph, rule)
                checked += 1
                nested += len(parts) >= 4
        assert checked > 9_000 and nested > 4_000

    def test_deiteration_tries_equal_items_only(self, monkeypatch):
        # the witnesses offered are the removed item's equals, in walk order
        rule = calculus.RULES[Deiterate]
        pairs = []

        def witness(path, item, witness_path, other):
            pairs.append(item.key == other.key)
            return rule.condition(path, item, witness_path, other)
        monkeypatch.setitem(calculus.RULES, Deiterate,
                            calculus.Rule(**dict(vars(rule), condition=witness)))
        rng = random.Random(131)
        listed = 0
        for _ in range(100):
            system = rng.choice([CL, IN])
            graph = random_graph(rng, depth=4, atoms=2, dialect=system)
            listed += sum(isinstance(r, Deiterate)
                          for r in enumerate_rule_instances(system, graph))
        assert all(pairs) and len(pairs) > listed > 100

    def test_deiteration_offers_witnesses_in_walk_order(self, monkeypatch):
        # each item's witnesses, itself included, are the walk's items with
        # its key, in walk order
        rule = calculus.RULES[Deiterate]
        offered = []

        def witness(path, item, witness_path, other):
            offered.append((path, witness_path))
            return rule.condition(path, item, witness_path, other)
        monkeypatch.setitem(calculus.RULES, Deiterate,
                            calculus.Rule(**dict(vars(rule), condition=witness)))
        rng = random.Random(131)
        repeated = 0
        for _ in range(100):
            system = rng.choice([CL, IN])
            graph = random_graph(rng, depth=4, atoms=2, dialect=system)
            offered.clear()
            enumerate_rule_instances(system, graph)
            items = walk(graph)[1]
            expected = [(path, other) for path, item in items
                        for other, equal in items if equal.key == item.key]
            assert offered == expected, print_graph(graph)
            repeated += len(expected) - len(items)
        assert repeated > 100

    def test_only_an_empty_loops_removal_keeps_the_node_count(self):
        # search._search's last forward layer rests on this: there only the
        # goal can be met, so a state with the goal's node count lists its
        # moves only when its key is one code longer than the goal's.  A
        # loop copy or a loop merge rule (ROADMAP direction 1) applied to an
        # empty loop would break it, adding or removing one END_AREA code;
        # the last layer must then accept a key one code longer or shorter.
        rng = random.Random(157)
        changed = kept = 0
        for _ in range(1_200):
            system = rng.choice([CL, IN])
            graph, other = (random_graph(rng, depth=4, atoms=2, dialect=system)
                            for _ in range(2))
            vocab = default_vocabulary(graph, other)
            for kind, rule, ops in moves(system, graph, vocab):
                key = graphs.edited_key(graph, *rule.edit(*ops))
                if graphs.key_size(key) != node_count(graph):
                    changed += 1
                    continue
                assert kind is LoopRemove and not ops[1].loops[ops[2]].items, (
                    print_graph(graph), kind(*ops[::2]))
                assert len(key) == len(graph.key) - 1
                kept += 1
        assert changed > 90_000 and kept > 200

    def test_sizes_once_per_state(self, monkeypatch):
        # the size bound is decided once per state: one size for each item
        # (an iteration source) and each drawn graph, not one per target
        sizes = []
        monkeypatch.setattr(calculus, "node_count",
                            lambda node: sizes.append(node) or node_count(node))
        rng = random.Random(137)
        for _ in range(300):
            system = rng.choice([CL, IN])
            graph = random_graph(rng, depth=4, atoms=2, dialect=system)
            # vocabularies of either dialect, empty graphs included
            vocab = tuple(random_graph(rng, depth=2, dialect=rng.choice(list(Dialect)))
                          for _ in range(rng.randint(0, 3)))
            drawn = sum(not well_formed(v, system) for v in vocab)
            for k in range(5):
                sizes.clear()
                enumerate_rule_instances(system, graph, vocab, k)
                assert len(sizes) == len(walk(graph)[1]) + drawn
