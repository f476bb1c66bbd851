import collections
import functools
import hashlib
import random
import sys

import pytest

from peirce import calculus, formulas as fm, graphs, search
from peirce.cli import main
from peirce.calculus import (DoubleCutElim, ProofScript, Report, ScrollUnwrap, System, apply_rule,
                             check_script, enumerate_rule_instances)
from peirce.errors import BoundsExceededError, CertificationError, DialectError
from peirce.graphs import Atom, Dialect, Graph, Path, Scroll, canonicalize, equals, node_count
from peirce.notation import parse_graph, print_graph
from peirce.scriptfile import format_script
from peirce.search import SearchBounds, default_vocabulary, derive, size_cap
from peirce.semantics import formula_to_graph, graph_to_formula, taut_classical, taut_int
from peirce.notation import parse_formula

from genutil import random_graph

CL = System.CLASSICAL
IN = System.INTUITIONISTIC


def goal_graph(text, system):
    return formula_to_graph(parse_formula(text), system)


def predecessors(system, g, vocabulary=(), max_growth=None):
    """The graphs that calculus.predecessor_edits gives, in its order."""
    return [graphs.edited(g, *edit)
            for edit in calculus.predecessor_edits(system, g, vocabulary, max_growth)]


class TestDerive:
    def test_identity_derivation_is_empty(self):
        g = parse_graph("p (q)", Dialect.CLASSICAL)
        script = derive(CL, g, parse_graph("p (q)", Dialect.CLASSICAL))
        assert script is not None and script.steps == ()

    def test_three_step_classical(self):
        script = derive(CL, Graph(), parse_graph("(p (p))", Dialect.CLASSICAL),
                        SearchBounds(max_depth=4))
        assert script is not None and len(script.steps) == 3
        report = check_script(script)
        assert report.ok and equals(report.final, parse_graph("(p (p))", Dialect.CLASSICAL))

    def test_double_cut_elim_one_step(self):
        script = derive(CL, parse_graph("((p))", Dialect.CLASSICAL),
                        parse_graph("p", Dialect.CLASSICAL), SearchBounds(max_depth=1))
        assert script is not None and len(script.steps) == 1

    def test_certified_scripts(self):
        for system, text in [(CL, "p & q -> p"), (IN, "F -> q"), (IN, "p -> p")]:
            script = derive(system, Graph(), goal_graph(text, system))
            assert script is not None
            assert check_script(script).ok

    def test_monotonicity_in_depth(self):
        goal = goal_graph("p -> p", IN)
        shallow = derive(IN, Graph(), goal, SearchBounds(max_depth=3))
        deeper = derive(IN, Graph(), goal, SearchBounds(max_depth=7))
        assert shallow is not None and deeper is not None
        assert len(deeper.steps) == len(shallow.steps)

    def test_deterministic_result(self):
        goal = goal_graph("p -> ~~p", IN)
        a = derive(IN, Graph(), goal)
        b = derive(IN, Graph(), goal)
        assert a == b

    def test_soundness_of_found_derivations(self):
        for system, text in [(CL, "~~p -> p"), (IN, "p -> (q -> p)")]:
            goal = goal_graph(text, system)
            script = derive(system, Graph(), goal)
            assert script is not None
            final = check_script(script).final
            formula = graph_to_formula(final)
            if system is CL:
                assert taut_classical(formula)
            else:
                assert taut_int(formula)

    def test_excluded_middle_absent(self):
        goal = goal_graph("p | ~p", IN)
        assert not taut_int(parse_formula("p | ~p"))
        script = derive(IN, Graph(), goal, SearchBounds(max_depth=6))
        assert script is None

    def test_bounds_exceeded_is_distinct(self):
        goal = goal_graph("((p -> q) -> p) -> p", CL)
        with pytest.raises(BoundsExceededError):
            derive(CL, Graph(), goal, SearchBounds(max_depth=12, max_visited=5))

    @pytest.mark.parametrize("ends", ["goal", "start"])
    def test_an_endpoint_outside_the_dialect_is_refused(self, ends):
        # [p | q] built directly, as the classical reader would refuse it
        g = Graph((Scroll(Graph((Atom("p"),)), (Graph((Atom("q"),)),)),))
        start, goal = (Graph(), g) if ends == "goal" else (g, Graph())
        with pytest.raises(DialectError, match=r"^scroll loops are not classical signs at 0$"):
            derive(CL, start, goal)

    @pytest.mark.parametrize("depth,expansions", [(5, 317), (7, 1047)])
    def test_excluded_middle_expands_a_fixed_number_of_states(self, depth, expansions):
        # exhausting the space takes exactly this many expansions: building
        # fewer successors must not change which states are expanded
        goal = goal_graph("p | ~p", IN)
        assert derive(IN, Graph(), goal, SearchBounds(max_depth=depth,
                                                      max_visited=expansions)) is None
        with pytest.raises(BoundsExceededError):
            derive(IN, Graph(), goal, SearchBounds(max_depth=depth,
                                                   max_visited=expansions - 1))

    def test_the_scan_after_a_meeting_spends_no_budget(self):
        # the least budget that finds each C6 goal counts the states
        # expanded up to the meeting; the rest of a forward layer that met
        # the other side is scanned for a nearer key without spending it
        least = []
        for system, text in C6_PROVABLE:
            goal, budget = goal_graph(text, system), 1
            while True:
                try:
                    script = derive(system, Graph(), goal, SearchBounds(max_visited=budget))
                    break
                except BoundsExceededError:
                    budget += 1
            assert script == derive(system, Graph(), goal)
            least.append(budget)
        assert least == [3, 7, 3, 4, 3, 7, 8, 3]

    def test_each_state_is_decided_once(self, monkeypatch):
        # size_cap and the backward layers share one verdict per key: no
        # key reaches the oracles twice in one search
        decided = {"taut_classical": [], "taut_int": []}
        translated = []
        translate = search.graph_to_formula

        def translating(g):
            translated[:] = [g.key]
            return translate(g)

        def counting(name, oracle):
            def counted(formula):
                decided[name].append(translated[0])
                return oracle(formula)
            return counted
        monkeypatch.setattr(search, "graph_to_formula", translating)
        for name in decided:
            monkeypatch.setattr(search, name, counting(name, getattr(search, name)))
        totals = dict.fromkeys(decided, 0)
        for system, text in C6_PROVABLE:
            for keys in decided.values():
                keys.clear()
            assert derive(system, Graph(), goal_graph(text, system)) is not None
            for name, keys in decided.items():
                assert len(keys) == len(set(keys)), (text, name)
                totals[name] += len(keys)
        assert totals == {"taut_classical": 32, "taut_int": 10}

    @pytest.mark.parametrize("final", [None, Graph()])
    def test_certification_is_unconditional(self, monkeypatch, final):
        # a rejected script and a script ending elsewhere both raise,
        # under python -O as well: the check is not an assert
        report = Report(final is not None, [], None if final else 0, "planted", final)
        monkeypatch.setattr(search, "check_script", lambda script: report)
        with pytest.raises(CertificationError):
            derive(CL, Graph(), goal_graph("p -> p", CL))


# The C6 goals of the acceptance suite: today's cap is node_count(goal).
C6_PROVABLE = [(CL, "p -> p"), (CL, "((p -> q) -> p) -> p"), (CL, "~~p -> p"),
               (CL, "p & q -> p"), (IN, "p -> p"), (IN, "p -> (q -> p)"),
               (IN, "p -> ~~p"), (IN, "F -> q")]


class TestSizeCap:
    @pytest.mark.parametrize("system,text", C6_PROVABLE)
    def test_provable_goals_keep_their_cap(self, system, text):
        goal = goal_graph(text, system)
        cap = size_cap(system, Graph(), goal, default_vocabulary(Graph(), goal))[0]
        assert cap == node_count(goal)

    def test_non_theorem_keeps_its_cap(self):
        goal = goal_graph("p | ~p", IN)
        assert size_cap(IN, Graph(), goal, default_vocabulary(Graph(), goal))[0] == 4

    def test_double_negated_excluded_middle_widens_by_one_hypothesis(self):
        goal = goal_graph("~~(p | ~p)", IN)
        assert node_count(goal) == 6
        # widened by ([ | p | (p)]), the largest item in an odd area
        assert size_cap(IN, Graph(), goal, default_vocabulary(Graph(), goal))[0] == 11

    def test_past_the_truth_table_the_cap_is_not_widened(self):
        # 21 atoms: the entailment test's truth table refuses the goal, so
        # the cap stays node_count(goal) + node_count(start)
        goal = parse_graph(" ".join(f"a{i}" for i in range(21)), Dialect.INTUITIONISTIC)
        assert size_cap(IN, Graph(), goal, default_vocabulary(Graph(), goal))[0] == 21
        assert derive(IN, Graph(), goal, SearchBounds(max_depth=1)) is None


def _vocabulary(rng, system):
    texts = ["p", "q", "(p)", "p q"] + (["[p | q]", "[ | p]"] if system is IN else ["((q))"])
    return tuple(parse_graph(t, system) for t in rng.sample(texts, 3))


class TestPredecessors:
    def test_every_predecessor_reaches_the_graph(self):
        rng = random.Random(83)
        proposed = 0
        for _ in range(150):
            system = rng.choice([CL, IN])
            graph = random_graph(rng, depth=3, atoms=2, dialect=system, width=2)
            vocab = _vocabulary(rng, system)
            for prev in predecessors(system, graph, vocab):
                proposed += 1
                assert any(equals(apply_rule(system, prev, rule), graph)
                           for rule in enumerate_rule_instances(system, prev, vocab))
        assert proposed > 1500

    @pytest.mark.parametrize("system,text,vocab,dual,rule", [
        (IN, "p", "q", "p q", "erasure"),
        (IN, "(p q)", "q", "(p)", "insertion"),
        (IN, "p (p)", "", "p ()", "iteration"),
        (IN, "p ()", "", "p (p)", "deiteration"),
        (IN, "[ | p]", "", "p", "wrap"),
        (IN, "p", "", "[ | p]", "unwrap"),
        (IN, "[p | q]", "q", "(p)", "loop addition"),
        (IN, "((p))", "q", "([p | q])", "loop removal"),
        (IN, "(p (q))", "", "[p | q]", "detachment"),
        (CL, "((p))", "", "p", "double-cut introduction"),
        (CL, "p", "", "((p))", "double-cut elimination"),
    ])
    def test_dual_of_each_rule(self, system, text, vocab, dual, rule):
        graph = parse_graph(text, system)
        vocabulary = tuple(parse_graph(v, system) for v in vocab.split())
        proposed = {print_graph(canonicalize(prev))
                    for prev in predecessors(system, graph, vocabulary)}
        assert dual in proposed, rule

    def test_detachment_is_one_way(self):
        proposed = {print_graph(canonicalize(prev))
                    for prev in predecessors(IN, parse_graph("[p | q]", Dialect.INTUITIONISTIC))}
        assert "(p (q))" not in proposed

    @pytest.mark.parametrize("system,text,rule", [
        (IN, "[ | p q]", ScrollUnwrap(Path.parse("0"))),
        (CL, "((p q))", DoubleCutElim(Path.parse("0"))),
    ])
    def test_predecessors_are_a_subset(self, system, text, rule):
        # a listed instance rewrites the graph into p q, but the duals of
        # unwrap and double-cut elimination wrap at most one item
        graph, target = parse_graph(text, system), parse_graph("p q", system)
        vocab = default_vocabulary(graph, target)
        assert [r for r in enumerate_rule_instances(system, graph, vocab)
                if equals(apply_rule(system, graph, r), target)] == [rule]
        proposed = {print_graph(canonicalize(prev))
                    for prev in predecessors(system, target, vocab)}
        assert text not in proposed

    def test_two_sided_search_agrees_with_plain_bfs(self):
        # plain BFS is the oracle: on the same bounded space the two-sided
        # search finds a derivation exactly when BFS does, and a certified one
        rng = random.Random(89)
        verdicts = []
        for case in range(40):
            system = rng.choice([CL, IN])
            start = random_graph(rng, depth=2, atoms=2, dialect=system, width=2)
            if case % 2:
                goal = random_graph(rng, depth=3, atoms=2, dialect=system, width=2)
            else:
                goal = start
                for _ in range(rng.randint(1, 3)):
                    rules = enumerate_rule_instances(system, goal, _vocabulary(rng, system))
                    goal = apply_rule(system, goal, rng.choice(rules))
            vocab = default_vocabulary(start, goal)
            cap = node_count(start) + node_count(goal)
            bounds = SearchBounds(max_depth=3, max_visited=100_000)
            plain = search._search(system, start, goal, vocab, cap, bounds)
            two = search._search(system, start, goal, vocab, cap, bounds,
                                 search._entailed_by(system, start))
            assert (plain is None) == (two is None), (print_graph(start), print_graph(goal))
            verdicts.append(two is not None)
            for chain in (plain, two):
                # a step the forward side recorded replays its first listed move
                if chain is not None:
                    keys, graph = [start.key], start
                    for rule in chain:
                        graph = apply_rule(system, graph, rule)
                        keys.append(graph.key)
                    assert chain == _reference_replay(system, start, keys, vocab, cap)
            if two is not None:
                assert len(two) >= len(plain)
                script = ProofScript(system, start, tuple((rule, None) for rule in two))
                report = check_script(script)
                assert report.ok and equals(report.final, goal)
        assert sum(verdicts) >= 10 and verdicts.count(False) >= 5

    def test_a_two_sided_script_need_not_be_the_shallowest(self):
        # from (), plain BFS's last step unwraps three items: no listed
        # predecessor undoes it, but it adds no node, so the scan of the
        # forward layer that meets the other side finds it.  From q (q) the
        # step without a listed undo comes before the meeting layer, and
        # the sides meet one step deeper.
        def steps(text, goal_text):
            start, goal = parse_graph(text, IN), parse_graph(goal_text, IN)
            vocab = default_vocabulary(start, goal)
            cap, entailed = size_cap(IN, start, goal, vocab)
            assert entailed is not None
            for backward in (None, entailed):
                chain = search._search(IN, start, goal, vocab, cap, SearchBounds(max_depth=5),
                                       backward)
                script = ProofScript(IN, start, tuple((rule, None) for rule in chain))
                yield format_script(script).splitlines()[2:]
        plain, two = steps("()", "() ([ | ()]) [ | ]")
        assert plain == two == ["loopadd 0 () ([ | ()]) [ | ]", "unwrap 0"]
        plain, two = steps("q (q)", "p p")
        assert plain == ["deiterate 1.outer.0 witness 0", "erase 0", "loopadd 0 p p", "unwrap 0"]
        assert two == ["deiterate 1.outer.0 witness 0", "loopadd 1 p", "erase 0", "unwrap 0",
                       "iterate 0 -> /"]

    def test_an_edit_adding_nodes_undoes_a_listed_predecessor(self):
        # why a meeting's forward layer is scanned only with edits adding no
        # node: every edit of u adding nodes has u among the listed
        # predecessors of its result w, within the cap; some edits adding
        # no node have no listed undo (unwrap around two items, ...)
        rng = random.Random(131)
        growing, unlisted = 0, 0
        for _ in range(300):
            system = rng.choice([CL, IN])
            u, other = (random_graph(rng, depth=3, atoms=2, dialect=system, width=2)
                        for _ in range(2))
            vocab = default_vocabulary(u, other)
            cap = node_count(u) + node_count(other)
            for edit in calculus.edits(system, u, vocab, cap - node_count(u)):
                w = graphs.edited(u, *edit)
                undos = calculus.predecessor_edits(system, w, vocab, cap - node_count(w))
                listed = u.key in {graphs.edited_key(w, *undo) for undo in undos}
                if node_count(w) > node_count(u):
                    assert listed, (print_graph(u), print_graph(w))
                    growing += 1
                else:
                    unlisted += not listed
        assert growing > 2000 and unlisted >= 10

    def test_the_scan_skips_only_moves_with_a_listed_undo(self):
        # a move adding no node that the scan after a meeting skips has u
        # among the listed predecessors of its result w, within the cap, so
        # a w nearer the goal would have met the forward side already; the
        # moves it keys have no listed undo
        rng = random.Random(131)
        skipped = keyed = 0
        for _ in range(300):
            system = rng.choice([CL, IN])
            u, other = (random_graph(rng, depth=3, atoms=2, dialect=system, width=2)
                        for _ in range(2))
            vocab = default_vocabulary(u, other)
            cap = node_count(u) + node_count(other)
            scanned = {graphs.edited_key(u, *edit)
                       for edit in calculus.unlisted_edits(system, u, vocab)}
            for edit in calculus.edits(system, u, vocab, 0):
                w = graphs.edited(u, *edit)
                undos = calculus.predecessor_edits(system, w, vocab, cap - node_count(w))
                listed = u.key in {graphs.edited_key(w, *undo) for undo in undos}
                assert listed != (w.key in scanned), (print_graph(u), print_graph(w))
                skipped += listed
                keyed += not listed
        assert skipped > 500 and keyed >= 10


def formulas_of_size(size):
    """Every formula over p, q and F with ``size`` symbols (atoms, F and
    connectives)."""
    if size == 1:
        return [fm.Atom("p"), fm.Atom("q"), fm.BOT]
    found = [fm.Not(f) for f in formulas_of_size(size - 1)]
    for left_size in range(1, size - 1):
        for left in formulas_of_size(left_size):
            for right in formulas_of_size(size - 1 - left_size):
                found += [fm.And(left, right), fm.Or(left, right), fm.Imp(left, right)]
    return found


class TestSmallTheorems:
    @pytest.mark.parametrize("system,taut,lengths", [
        (CL, taut_classical, {1: 1, 2: 35, 3: 25, 4: 38, 5: 16}),
        (IN, taut_int, {2: 1, 3: 51, 4: 19, 5: 44}),
    ])
    def test_theorems_of_five_symbols(self, system, taut, lengths):
        # every theorem of at most 5 symbols, as graph keys, from the blank
        # sheet within 500 states, at the lengths plain BFS finds on the
        # same cap.  The misses are disjunction eliminations that no bound
        # derives, since no rule removes a duplicate loop.
        goals = {}
        for size in range(1, 6):
            for formula in formulas_of_size(size):
                if taut(formula):
                    goal = formula_to_graph(formula, system)
                    goals.setdefault(goal.key, goal)
        found, missed = collections.Counter(), []
        for key in sorted(goals):
            try:
                script = derive(system, Graph(), goals[key], SearchBounds(max_visited=500))
                found[len(script.steps)] += 1
            except BoundsExceededError:
                missed.append(print_graph(goals[key]))
        assert found == lengths
        assert sorted(missed) == ([] if system is CL else UNDERIVABLE)


# The intuitionistic theorems of at most 5 symbols that no bound derives
# from the blank sheet (TestReadingR).
UNDERIVABLE = [
    "([ | () | ()])", "[[ | () | ()] | ()]", "[[ | () | ()] | p]", "[[ | () | ()] | q]",
    "[[ | p | ()] | p]", "[[ | p | p] | p]", "[[ | q | ()] | q]", "[[ | q | q] | q]"]


def reading_r(g):
    """graph_to_formula's reading, except that a scroll with two or more
    loops reads as T."""
    parts = [_reading_r_item(item) for item in g.items]
    return functools.reduce(fm.And, parts) if parts else fm.TOP


def _reading_r_item(item):
    if isinstance(item, Atom):
        return fm.Atom(item.name)
    if len(item.loops) >= 2:
        return fm.TOP
    outer = reading_r(item.outer)
    return fm.Imp(outer, reading_r(item.loops[0])) if item.loops else fm.Not(outer)


class TestReadingR:
    """The intuitionistic rules are incomplete.  Every rule keeps reading R:
    R(g) -> R(g') is an IPC theorem for each move g -> g'.  R reads the
    blank sheet as T, so a graph whose reading is not a theorem has no
    derivation from it at any bound, though its formula is a theorem.  No
    rule removes a duplicate loop, so F | F -> F is out of reach."""

    VOCABULARY = ("p", "q", "(p)", "p q", "[p | q]", "[ | p | q]", "[ | p | p]")

    def test_every_rule_keeps_it(self):
        rng = random.Random(151)
        vocabulary = [parse_graph(text, IN) for text in self.VOCABULARY]
        drawn = set()
        for _ in range(1_500):
            graph = random_graph(rng, depth=3, atoms=2, dialect=IN)
            vocab = tuple(rng.sample(vocabulary, rng.randint(1, len(vocabulary))))
            by_class = collections.defaultdict(list)
            for rule in enumerate_rule_instances(IN, graph, vocab):
                by_class[type(rule)].append(rule)
            kind = rng.choice(list(by_class))
            rule = rng.choice(by_class[kind])
            out = apply_rule(IN, graph, rule)
            assert taut_int(fm.Imp(reading_r(graph), reading_r(out))), (
                print_graph(graph), rule, print_graph(out))
            drawn.add(kind)
        assert drawn == set(calculus.SYSTEM_RULES[IN])

    def test_the_underivable_theorems_read_as_non_theorems(self):
        for text in UNDERIVABLE:
            goal = parse_graph(text, IN)
            assert taut_int(graph_to_formula(goal)), text
            assert not taut_int(reading_r(goal)), text


class TestVocabulary:
    def test_subgraphs_of_endpoints(self):
        g = parse_graph("[p | q]", Dialect.INTUITIONISTIC)
        vocab = default_vocabulary(Graph(), g)
        texts = {t for t in map(str, ())}
        from peirce.notation import print_graph
        texts = {print_graph(v) for v in vocab}
        assert "p" in texts and "q" in texts and "[p | q]" in texts
        assert "" not in texts

    def test_matches_the_canonical_print_dedupe(self):
        # the same representatives, in the same order, as deduplicating by
        # canonical print: the C6 goals, and endpoints of both dialects, half
        # of them a graph and a reordered copy, so that multiset-equal
        # subgraphs in different author orders meet
        rng = random.Random(139)
        pairs = [(Graph(), goal_graph(text, system)) for system, text in
                 C6_PROVABLE + [(IN, "~~(p | ~p)"), (IN, "p | ~p")]]
        for case in range(400):
            dialect = rng.choice(list(Dialect))
            start = random_graph(rng, depth=4, atoms=3, dialect=dialect)
            goal = random_graph(rng, depth=4, atoms=3, dialect=dialect)
            pairs.append((start, _reordered(rng, start) if case % 2 else goal))
        reordered = 0
        for start, goal in pairs:
            vocab = [print_graph(v) for v in default_vocabulary(start, goal)]
            assert vocab == [print_graph(v) for v in _reference_vocabulary(start, goal)]
            reordered += len(vocab) < len(set(map(print_graph, _subgraphs(start, goal))))
        assert len(pairs) > 400 and reordered > 80


def _reordered(rng, g):
    """``g`` with every area's items and every scroll's loops shuffled."""
    items = [item if isinstance(item, Atom) else
             Scroll(_reordered(rng, item.outer),
                    tuple(rng.sample([_reordered(rng, loop) for loop in item.loops],
                                     len(item.loops))))
             for item in g.items]
    return Graph(tuple(rng.sample(items, len(items))))


def _subgraphs(*endpoints):
    """Every non-empty area's contents and every item on its own, with
    repeats, each endpoint's areas before its items."""
    for g in endpoints:
        areas, items = graphs.walk(g)
        yield from (area for _, area in areas if area.items)
        yield from (Graph((item,)) for _, item in items)


def _reference_vocabulary(*endpoints):
    """The subgraphs deduplicated by canonical print: the first of each
    print, in print order."""
    seen = {}
    for v in _subgraphs(*endpoints):
        seen.setdefault(print_graph(canonicalize(v)), v)
    return tuple(seen[text] for text in sorted(seen))


class TestPredecessorBound:
    def test_growth_bound_is_exact(self):
        # as for enumerate_rule_instances: the bounded list is the unbounded
        # one less the graphs over the bound, in the same order
        rng = random.Random(109)
        dropped = 0
        for _ in range(150):
            system = rng.choice([CL, IN])
            graph = random_graph(rng, depth=3, dialect=system)
            # vocabularies of either dialect, empty graphs included
            vocab = tuple(random_graph(rng, depth=2, dialect=rng.choice(list(Dialect)))
                          for _ in range(rng.randint(0, 3)))
            every = predecessors(system, graph, vocab)
            for k in range(5):
                fitting = [prev for prev in every if node_count(prev) <= node_count(graph) + k]
                assert predecessors(system, graph, vocab, k) == fitting
                dropped += len(every) - len(fitting)
        assert dropped > 1000


class TestVocabularyCheck:
    def test_each_vocabulary_graph_is_checked_once_per_search(self, monkeypatch):
        # each Walk checks the vocabulary with well_formed, which reads the
        # graphs' flaws: the vocabulary graphs are checked, and none walked
        checked, walked = collections.Counter(), collections.Counter()
        well_formed, walk_violations = graphs.well_formed, graphs.walk_violations

        def counting(g, dialect):
            checked[id(g), dialect] += 1
            return well_formed(g, dialect)

        def walking(g, dialect):
            walked[id(g)] += 1
            return walk_violations(g, dialect)
        for module in (graphs, calculus, search):
            monkeypatch.setattr(module, "well_formed", counting)
        monkeypatch.setattr(graphs, "walk_violations", walking)
        goal = goal_graph("p -> (q -> p)", IN)
        # fresh objects, so that the checks of the endpoints are not counted
        vocab = tuple(parse_graph(print_graph(v), Dialect.INTUITIONISTIC)
                      for v in default_vocabulary(Graph(), goal))
        monkeypatch.setattr(search, "default_vocabulary", lambda *endpoints: vocab)
        assert derive(IN, Graph(), goal) is not None
        assert all(checked[id(v), Dialect.INTUITIONISTIC] for v in vocab)
        assert [walked[id(v)] for v in vocab] == [0] * len(vocab)


class TestKeyFirst:
    def test_exhaustion_builds_only_the_states_it_keeps(self, monkeypatch):
        # successors are keyed first, and a graph is built once per state
        # a layer reaches, within the cap (4 nodes): the 316 expanded after
        # the start at depth 5, where building every new key built 555 and
        # building every successor 2,700
        built = []
        build = search._apply_fast

        def counting(*args):
            graph = build(*args)
            built.append(graph.key)
            return graph
        monkeypatch.setattr(search, "_apply_fast", counting)
        goal = goal_graph("p | ~p", IN)
        assert derive(IN, Graph(), goal, SearchBounds(max_depth=5)) is None
        assert len(built) == len(set(built)) == 316
        assert Graph().key not in built and max(map(graphs.key_size, built)) <= 4

    def test_c6_goals_build_a_fixed_number_of_graphs(self, monkeypatch):
        # one graph per state a layer or the scan reaches: an edit past
        # the cap would be reached and counted here, so this holds the
        # calculus to the search's cap
        built = []
        build = search._apply_fast

        def counting(*args):
            built[-1] += 1
            return build(*args)
        monkeypatch.setattr(search, "_apply_fast", counting)
        for system, text in C6_PROVABLE:
            built.append(0)
            assert derive(system, Graph(), goal_graph(text, system),
                          SearchBounds(max_depth=12, max_visited=10_000)) is not None
        assert built == [4, 26, 4, 6, 4, 21, 21, 4]
        assert sum(built) == 90

    def test_the_last_layer_lists_moves_only_where_the_goal_may_be_one_move_away(
            self, monkeypatch):
        # of the 317 states the depth-5 exhaustion expands, 242 sit in the
        # last layer, where only the goal can be met; 172 of them have the
        # goal's node count (4) but a key not one code longer than the
        # goal's, and list no edit
        listed, keyed = [], []
        listing, key = search.moves, search.edited_key

        def counting(*args):
            listed.append(args[1].key)
            return listing(*args)
        monkeypatch.setattr(search, "moves", counting)
        monkeypatch.setattr(search, "edited_key", lambda *args: keyed.append(1) or key(*args))
        goal = goal_graph("p | ~p", IN)
        assert derive(IN, Graph(), goal, SearchBounds(max_depth=5)) is None
        assert len(listed) == len(set(listed)) == 145
        assert len(keyed) == 1_721

    @pytest.mark.parametrize("depth, recorded", [(5, 317), (12, 8_795)])
    def test_the_last_layer_records_only_a_meeting(self, depth, recorded):
        # the forward side records the key of each state it reaches, and
        # in its last layer only a meeting: recording each new key there
        # too made 552 and 14,148.  ``ahead`` is read as _search returns
        sizes = []

        def returning(frame, event, arg):
            if event == "return":
                sizes.append(len(frame.f_locals["ahead"]))
            return returning
        sys.settrace(lambda frame, event, arg:
                     returning if frame.f_code is search._search.__code__ else None)
        try:
            assert derive(IN, Graph(), goal_graph("p | ~p", IN),
                          SearchBounds(max_depth=depth)) is None
        finally:
            sys.settrace(None)
        assert sizes == [recorded]

    # sha256 of `eg prove` stdout: the C6 goals and the depth-5 exhaustion
    @pytest.mark.parametrize("argv,code,digest", [
        (["--system", "classical", "--goal", "(p (p))"], 0,
         "991b353052ffb89c38b46d3d19dd031fe4cfbc940d07292fa1bb78bc290afe23"),
        (["--system", "classical", "--goal", "(((p (q)) (p)) (p))"], 0,
         "23f027fffea014d6f207143e0ef1ac6e888f747d2f1611e2648c4836f91b3323"),
        (["--system", "classical", "--goal", "(((p)) (p))"], 0,
         "e8c683849f7f5e85b2e28877ee574f6b51ae325f13817ae40cfb23d4cfe39b2d"),
        (["--system", "classical", "--goal", "(p q (p))"], 0,
         "230bd863dc0a53ed12e56b7e52576098cdb6c23c742b88f9936df9de7a72eeae"),
        (["--system", "intuitionistic", "--goal", "[p | p]"], 0,
         "718c90f3e0accf06943d48fc2d77a21c580dcbc81708e1d97b738eaf6c666aba"),
        (["--system", "intuitionistic", "--goal", "[p | [q | p]]"], 0,
         "a5d3197e00af6af205b1beb05460b9db3d3917986e17776d86b0938e85b114ff"),
        (["--system", "intuitionistic", "--goal", "[p | ((p))]"], 0,
         "4f862e3156fcf55c799d6b0e06c2c919ba323c7250c4c4e2ea920598cd8b2d36"),
        (["--system", "intuitionistic", "--goal", "[() | q]"], 0,
         "bf4d3b174cc9e689a6bf5ebfa67ff9c6653330709602a056f7fb316f789d284c"),
        (["--system", "intuitionistic", "--goal", "[ | p | (p)]", "--depth", "5"], 1,
         "76a4c4ab680eded20cb5032dff6e96422a6eb9a0633dadbe9119f66714cf091c"),
    ])
    def test_prove_output_is_pinned(self, capsys, argv, code, digest):
        if "--depth" not in argv:
            argv = argv + ["--depth", "12", "--max-visited", "10000"]
        assert main(["prove"] + argv) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out


class TestKeyFirstBackward:
    def test_each_side_builds_only_new_keys_within_the_cap(self, monkeypatch):
        # the random two-sided searches of TestPredecessors: on each side a
        # graph is built once per key that side had not reached, within the
        # cap, and never for the side's own end; the backward side's
        # predecessors are keyed first like the forward side's successors.
        # A build is tagged by the call that makes it: a layer given the
        # backward side's filter, a forward layer or its scan, or the replay
        built = {"ahead": [], "behind": [], "replay": []}
        offered = collections.Counter()

        def tagged(*args):
            for edit in predecessor_edits(*args):
                offered["behind"] += 1
                yield edit

        def maker():
            frame = sys._getframe(2)
            while frame.f_code.co_name not in ("layer", "nearest", "_replay"):
                frame = frame.f_back
            if frame.f_code.co_name == "_replay":
                return "replay"
            return "behind" if frame.f_locals.get("accept") else "ahead"

        def counting(*args):
            graph = build(*args)
            built[maker()].append(graph.key)
            return graph
        build, predecessor_edits = search._apply_fast, search.predecessor_edits
        monkeypatch.setattr(search, "predecessor_edits", tagged)
        monkeypatch.setattr(search, "_apply_fast", counting)
        rng = random.Random(89)
        cases = []
        for case in range(40):
            system = rng.choice([CL, IN])
            start = random_graph(rng, depth=2, atoms=2, dialect=system, width=2)
            if case % 2:
                goal = random_graph(rng, depth=3, atoms=2, dialect=system, width=2)
            else:
                goal = start
                for _ in range(rng.randint(1, 3)):
                    rules = enumerate_rule_instances(system, goal, _vocabulary(rng, system))
                    goal = apply_rule(system, goal, rng.choice(rules))
            cases.append((system, start, goal, 3))
        # a state is built only when a layer reaches it, and these shallow
        # searches reach 6 backward states past the goal's layer; this
        # search reaches 105
        cases.append((IN, Graph(), goal_graph("p -> (q -> (r -> p))", IN), 12))
        backward = 0
        for system, start, goal, depth in cases:
            vocab = default_vocabulary(start, goal)
            cap = node_count(start) + node_count(goal)
            for keys in built.values():
                keys.clear()
            search._search(system, start, goal, vocab, cap,
                           SearchBounds(max_depth=depth, max_visited=100_000),
                           search._entailed_by(system, start))
            for name, end in (("ahead", start), ("behind", goal)):
                keys = built[name]
                assert len(keys) == len(set(keys)) and end.key not in keys
                assert all(graphs.key_size(key) <= cap for key in keys)
            backward += len(built["behind"])
        assert backward > 100 and offered["behind"] > backward + 100


def _reference_distance(system, start, goal, vocab, cap, depth):
    """The fewest moves from ``start`` to ``goal`` within ``depth``, or None:
    a BFS over keys through the cap, each enumerated instance applied
    through the checker."""
    frontier, seen = [start], {start.key}
    for distance in range(depth + 1):
        if goal.key in {g.key for g in frontier}:
            return distance
        following = []
        for g in frontier if distance < depth else ():
            for rule in enumerate_rule_instances(system, g, vocab, cap - node_count(g)):
                h = apply_rule(system, g, rule)
                if h.key not in seen:
                    seen.add(h.key)
                    following.append(h)
        frontier = following
    return None


class TestLastLayer:
    """In the last forward layer only the goal can be met, so a state lists
    only the moves that could give the goal's node count, and none when it
    has that count already, unless its key is one code longer than the
    goal's: the removal of an empty loop keeps the node count."""

    def test_an_empty_loops_removal_is_found_in_the_last_layer(self):
        start, goal = parse_graph("([p | ])", IN), parse_graph("((p))", IN)
        assert node_count(start) == node_count(goal)
        script = derive(IN, start, goal, SearchBounds(max_depth=1))
        assert script is not None
        assert format_script(script).splitlines()[2:] == ["loopremove 0.outer.0 0"]

    def test_a_derivation_is_found_exactly_when_a_bfs_over_keys_finds_one(self):
        # goals k = 1-4 random moves from their start, searched at depth
        # k - 1, k and k + 1, plain and two-sided, against a BFS that
        # shares nothing with _search but the listing of moves.  Half the
        # intuitionistic starts hold ([a | ]) for an atom a, and a walk ends
        # with the removal of an empty loop whenever one is offered
        rng = random.Random(163)
        found = missed = last = emptied = searched = 0
        while searched < 160:
            system = rng.choice([CL, IN])
            start = random_graph(rng, depth=2, atoms=2, dialect=system, width=2)
            if system is IN and searched % 2:
                start = Graph(start.items + parse_graph(f"([{rng.choice('pq')} | ])", IN).items)
            k, goal = rng.randint(1, 4), start
            for step in range(k):
                rules = enumerate_rule_instances(system, goal, _vocabulary(rng, system))
                empty = [rule for rule in rules if isinstance(rule, calculus.LoopRemove)
                         and not graphs.resolve_item(goal, rule.item).loops[rule.loop].items]
                ends_empty = bool(empty) and step == k - 1
                goal = apply_rule(system, goal, rng.choice(empty if ends_empty else rules))
            vocab = default_vocabulary(start, goal)
            cap = node_count(start) + node_count(goal)
            if cap > 7:
                # the reference BFS grows too fast past this
                continue
            searched += 1
            emptied += ends_empty
            distance = _reference_distance(system, start, goal, vocab, cap, k + 1)
            for depth in (k - 1, k, k + 1):
                bounds = SearchBounds(max_depth=depth, max_visited=100_000)
                for entailed in (None, search._entailed_by(system, start)):
                    chain = search._search(system, start, goal, vocab, cap, bounds, entailed)
                    reached = distance is not None and distance <= depth
                    assert (chain is not None) == reached, (
                        print_graph(start), print_graph(goal), depth, entailed is not None)
                    if chain is None:
                        missed += 1
                        continue
                    script = ProofScript(system, start, tuple((rule, None) for rule in chain))
                    report = check_script(script)
                    assert report.ok and equals(report.final, goal)
                    found += 1
                    last += distance == depth
        assert found > 600 and missed > 200 and last > 200 and emptied > 15


class TestPredecessorEdits:
    def test_edits_listed_first_build_the_predecessors(self):
        # each edit holds its own contents, so edits kept and built later
        # (as the search keys them first) give the predecessors, in order
        rng = random.Random(113)
        listed = 0
        for _ in range(150):
            system = rng.choice([CL, IN])
            graph = random_graph(rng, depth=3, atoms=2, dialect=system, width=3)
            vocab = _vocabulary(rng, system)
            edits = list(calculus.predecessor_edits(system, graph, vocab))
            built = [graphs.edited(graph, *edit) for edit in edits]
            assert [print_graph(g) for g in built] == [
                print_graph(g) for g in predecessors(system, graph, vocab)]
            assert [graphs.edited_key(graph, *edit) for edit in edits] == [
                g.key for g in built]
            listed += len(edits)
        assert listed > 2000

    def test_listing_order_is_pinned(self):
        # the order in which predecessors are listed decides which states
        # the backward side keeps first, and so the scripts it prints: the
        # inverse pairs' own moves first, then the site undos
        rng = random.Random(131)
        digest, listed = hashlib.sha256(), 0
        for _ in range(300):
            system = rng.choice([CL, IN])
            graph = random_graph(rng, depth=3, atoms=2, dialect=system, width=3)
            vocab = _vocabulary(rng, system)
            for max_growth in (None, 0, 2):
                keys = [graphs.edited_key(graph, *edit) for edit in
                        calculus.predecessor_edits(system, graph, vocab, max_growth)]
                digest.update(repr(keys).encode())
                listed += len(keys)
        assert listed == 13_584
        assert digest.hexdigest() == (
            "6267523d76f4b9ccf63f9b36d57b45e96981fe408ca10bf0a48c74998306d29d")


def _reference_replay(system, start, keys, vocab, cap):
    """For each step, the first enumerated instance whose result has the
    next key, each instance applied through the checker."""
    chain, graph = [], start
    for key in keys[1:]:
        rule = next(r for r in enumerate_rule_instances(system, graph, vocab,
                                                        cap - node_count(graph))
                    if apply_rule(system, graph, r).key == key)
        chain.append(rule)
        graph = apply_rule(system, graph, rule)
    return chain


class TestReplay:
    def test_replay_is_the_first_listed_instance_reaching_each_key(self):
        # seeded random chains of keys, each step a random listed instance
        rng = random.Random(139)
        steps = later = 0
        for _ in range(60):
            system = rng.choice([CL, IN])
            start = random_graph(rng, depth=3, atoms=2, dialect=system, width=2)
            vocab = _vocabulary(rng, system)
            graph, keys, cap = start, [start.key], node_count(start)
            for _ in range(rng.randint(1, 4)):
                listed = enumerate_rule_instances(system, graph, vocab)
                graph = apply_rule(system, graph, rng.choice(listed))
                keys.append(graph.key)
                cap = max(cap, node_count(graph))
            chain = search._replay(system, start, keys, vocab, cap)
            assert chain == _reference_replay(system, start, keys, vocab, cap)
            steps += len(chain)
            graph = start
            for rule in chain:
                later += rule != enumerate_rule_instances(system, graph, vocab,
                                                          cap - node_count(graph))[0]
                graph = apply_rule(system, graph, rule)
        assert steps > 100 and later > 50

    def test_a_chain_no_move_follows_is_refused(self):
        # no single move from the blank sheet, with no vocabulary, gives p q r
        keys = [Graph().key, parse_graph("p q r", Dialect.CLASSICAL).key]
        with pytest.raises(CertificationError, match="search chain cannot be replayed"):
            search._replay(CL, Graph(), keys, (), 3)

    def test_only_the_steps_the_forward_side_did_not_record_list_moves(self, monkeypatch):
        # a forward step is replayed from the move its layer recorded; only
        # a backward step, or a key the scan found, lists the moves: 12 of
        # the 31 steps of the C6 scripts.  Every chain is still the first
        # listed instance reaching each key
        listed, unrecorded, steps = [], [], []
        replay, listing = search._replay, search.moves

        def recording(system, start, keys, vocab, cap, made=None):
            unrecorded.append(sum((made or {}).get(key, (None,))[0] is None for key in keys[1:]))
            listed.append(0)
            chain = replay(system, start, keys, vocab, cap, made)
            assert chain == _reference_replay(system, start, keys, vocab, cap)
            steps.append(len(chain))
            return chain

        def counting(*args):
            if sys._getframe(1).f_code is replay.__code__:
                listed[-1] += 1
            return listing(*args)
        monkeypatch.setattr(search, "_replay", recording)
        monkeypatch.setattr(search, "moves", counting)
        for system, text in C6_PROVABLE:
            assert derive(system, Graph(), goal_graph(text, system),
                          SearchBounds(max_visited=10_000)) is not None
        assert listed == unrecorded == [1, 2, 1, 2, 1, 2, 2, 1]
        assert steps == [3, 5, 3, 4, 3, 5, 5, 3]
        # searched forward alone, every step is recorded
        listed.clear()
        for system, text in C6_PROVABLE:
            goal = goal_graph(text, system)
            assert search._search(system, Graph(), goal, default_vocabulary(Graph(), goal),
                                  node_count(goal), SearchBounds()) is not None
        assert listed == [0] * 8 and steps[8:] == steps[:8]
