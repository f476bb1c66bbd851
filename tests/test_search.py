import collections
import hashlib
import random

import pytest

from peirce import calculus, graphs, search
from peirce.cli import main
from peirce.calculus import ProofScript, Report, System, apply_rule, check_script, enumerate_rule_instances
from peirce.errors import BoundsExceededError, CertificationError
from peirce.graphs import Dialect, Graph, canonicalize, equals, node_count
from peirce.notation import parse_graph, print_graph
from peirce.search import SearchBounds, default_vocabulary, derive, predecessors, size_cap
from peirce.semantics import formula_to_graph, graph_to_formula, taut_classical, taut_int
from peirce.notation import parse_formula

from genutil import random_graph

CL = System.CLASSICAL
IN = System.INTUITIONISTIC


def goal_graph(text, system):
    return formula_to_graph(parse_formula(text), system.dialect)


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

    def test_goal_over_the_cap_is_still_met(self):
        # with a negative slack the cap (1 node) is below the goal's size;
        # the goal is met all the same, so its successor is built
        script = derive(CL, parse_graph("p", Dialect.CLASSICAL),
                        parse_graph("p p", Dialect.CLASSICAL),
                        SearchBounds(max_depth=2, size_slack=-2))
        assert script is not None and len(script.steps) == 1

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
        cap = size_cap(system, Graph(), goal, default_vocabulary(Graph(), goal))
        assert cap == node_count(goal)

    def test_non_theorem_keeps_its_cap(self):
        goal = goal_graph("p | ~p", IN)
        assert size_cap(IN, Graph(), goal, default_vocabulary(Graph(), goal)) == 4

    def test_double_negated_excluded_middle_widens_by_one_hypothesis(self):
        goal = goal_graph("~~(p | ~p)", IN)
        assert node_count(goal) == 6
        # widened by ([ | p | (p)]), the largest item in an odd area
        assert size_cap(IN, Graph(), goal, default_vocabulary(Graph(), goal)) == 11

    def test_slack_adds_to_the_cap(self):
        goal = goal_graph("p -> p", IN)
        vocab = default_vocabulary(Graph(), goal)
        assert size_cap(IN, Graph(), goal, vocab, 2) == node_count(goal) + 2


def _vocabulary(rng, system):
    texts = ["p", "q", "(p)", "p q"] + (["[p | q]", "[ | p]"] if system is IN else ["((q))"])
    return tuple(parse_graph(t, system.dialect) for t in rng.sample(texts, 3))


class TestPredecessors:
    def test_every_predecessor_reaches_the_graph(self):
        rng = random.Random(83)
        proposed = 0
        for _ in range(150):
            system = rng.choice([CL, IN])
            graph = random_graph(rng, depth=3, atoms=2, dialect=system.dialect, width=2)
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
        graph = parse_graph(text, system.dialect)
        vocabulary = tuple(parse_graph(v, system.dialect) for v in vocab.split())
        proposed = {print_graph(canonicalize(prev))
                    for prev in predecessors(system, graph, vocabulary)}
        assert dual in proposed, rule

    def test_detachment_is_one_way(self):
        proposed = {print_graph(canonicalize(prev))
                    for prev in predecessors(IN, parse_graph("[p | q]", Dialect.INTUITIONISTIC))}
        assert "(p (q))" not in proposed

    def test_two_sided_search_agrees_with_plain_bfs(self):
        # plain BFS is the oracle: on the same bounded space the two-sided
        # search finds a derivation exactly when BFS does, and a certified one
        rng = random.Random(89)
        verdicts = []
        for case in range(40):
            system = rng.choice([CL, IN])
            start = random_graph(rng, depth=2, atoms=2, dialect=system.dialect, width=2)
            if case % 2:
                goal = random_graph(rng, depth=3, atoms=2, dialect=system.dialect, width=2)
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
            if two is not None:
                script = ProofScript(system, start, tuple((rule, None) for rule in two))
                report = check_script(script)
                assert report.ok and equals(report.final, goal)
        assert sum(verdicts) >= 10 and verdicts.count(False) >= 5


class TestVocabulary:
    def test_subgraphs_of_endpoints(self):
        g = parse_graph("[p | q]", Dialect.INTUITIONISTIC)
        vocab = default_vocabulary(Graph(), g)
        texts = {t for t in map(str, ())}
        from peirce.notation import print_graph
        texts = {print_graph(v) for v in vocab}
        assert "p" in texts and "q" in texts and "[p | q]" in texts
        assert "" not in texts


class TestPredecessorBound:
    def test_growth_bound_is_exact(self):
        # as for enumerate_rule_instances: the bounded list is the unbounded
        # one less the graphs over the bound, in the same order
        rng = random.Random(109)
        dropped = 0
        for _ in range(150):
            system = rng.choice([CL, IN])
            graph = random_graph(rng, depth=3, dialect=system.dialect)
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
        checked = collections.Counter()
        well_formed = graphs.well_formed

        def counting(g, dialect):
            checked[id(g), dialect] += 1
            return well_formed(g, dialect)
        for module in (graphs, calculus, search):
            monkeypatch.setattr(module, "well_formed", counting)
        goal = goal_graph("p -> (q -> p)", IN)
        # fresh objects, so that the checks of the endpoints are not counted
        vocab = tuple(parse_graph(print_graph(v), Dialect.INTUITIONISTIC)
                      for v in default_vocabulary(Graph(), goal))
        assert derive(IN, Graph(), goal, SearchBounds(vocabulary=vocab)) is not None
        assert [checked[id(v), Dialect.INTUITIONISTIC] for v in vocab] == [1] * len(vocab)


class TestKeyFirst:
    def test_exhaustion_builds_only_the_states_it_keeps(self, monkeypatch):
        # successors are keyed first: a graph is built once per new key
        # within the cap (4 nodes), 555 of them at depth 5, where building
        # every successor built 2,700
        built = []
        build = search._apply_fast

        def counting(*args):
            graph = build(*args)
            built.append(graph.key)
            return graph
        monkeypatch.setattr(search, "_apply_fast", counting)
        goal = goal_graph("p | ~p", IN)
        assert derive(IN, Graph(), goal, SearchBounds(max_depth=5)) is None
        assert len(built) == len(set(built)) == 555
        assert Graph().key not in built and max(map(graphs.key_size, built)) <= 4

    # sha256 of `eg prove` stdout: the C6 goals and the depth-5 exhaustion
    @pytest.mark.parametrize("argv,code,digest", [
        (["--system", "classical", "--goal", "(p (p))"], 0,
         "991b353052ffb89c38b46d3d19dd031fe4cfbc940d07292fa1bb78bc290afe23"),
        (["--system", "classical", "--goal", "(((p (q)) (p)) (p))"], 0,
         "23f027fffea014d6f207143e0ef1ac6e888f747d2f1611e2648c4836f91b3323"),
        (["--system", "classical", "--goal", "(((p)) (p))"], 0,
         "e8c683849f7f5e85b2e28877ee574f6b51ae325f13817ae40cfb23d4cfe39b2d"),
        (["--system", "classical", "--goal", "(p q (p))"], 0,
         "87baa06a3aab8e796474c0eef4a0fbcc17ee72d9d8d02031ae33953c97b86679"),
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
        # predecessors are keyed first like the forward side's successors
        built = {"ahead": [], "behind": [], "replay": []}
        offered = collections.Counter()
        side = []

        def tagging(name, edits):
            def tagged(*args):
                for edit in edits(*args):
                    side[:] = [name]
                    offered[name] += 1
                    yield edit
            return tagged

        def counting(g, parts, contents, key):
            built[side[0]].append(key)
            return build(g, parts, contents, key)
        def replaying(*args):
            side[:] = ["replay"]
            return replay(*args)
        build, replay = search._apply_fast, search._replay
        monkeypatch.setattr(search, "_replay", replaying)
        monkeypatch.setattr(search, "edits", tagging("ahead", search.edits))
        monkeypatch.setattr(search, "predecessor_edits",
                            tagging("behind", search.predecessor_edits))
        monkeypatch.setattr(search, "_apply_fast", counting)
        rng = random.Random(89)
        backward = 0
        for case in range(40):
            system = rng.choice([CL, IN])
            start = random_graph(rng, depth=2, atoms=2, dialect=system.dialect, width=2)
            if case % 2:
                goal = random_graph(rng, depth=3, atoms=2, dialect=system.dialect, width=2)
            else:
                goal = start
                for _ in range(rng.randint(1, 3)):
                    rules = enumerate_rule_instances(system, goal, _vocabulary(rng, system))
                    goal = apply_rule(system, goal, rng.choice(rules))
            vocab = default_vocabulary(start, goal)
            cap = node_count(start) + node_count(goal)
            for keys in built.values():
                keys.clear()
            search._search(system, start, goal, vocab, cap,
                           SearchBounds(max_depth=3, max_visited=100_000),
                           search._entailed_by(system, start))
            for name, end in (("ahead", start), ("behind", goal)):
                keys = built[name]
                assert len(keys) == len(set(keys)) and end.key not in keys
                assert all(graphs.key_size(key) <= cap for key in keys)
            backward += len(built["behind"])
        assert backward > 100 and offered["behind"] > backward + 100


class TestPredecessorEdits:
    def test_edits_listed_first_build_the_predecessors(self):
        # each edit holds its own contents, so edits kept and built later
        # (as the search keys them first) give the predecessors, in order
        rng = random.Random(113)
        listed = 0
        for _ in range(150):
            system = rng.choice([CL, IN])
            graph = random_graph(rng, depth=3, atoms=2, dialect=system.dialect, width=3)
            vocab = _vocabulary(rng, system)
            edits = list(calculus.predecessor_edits(system, graph, vocab))
            built = [graphs.edited(graph, *edit) for edit in edits]
            assert [print_graph(g) for g in built] == [
                print_graph(g) for g in predecessors(system, graph, vocab)]
            assert [graphs.edited_key(graph, *edit) for edit in edits] == [
                g.key for g in built]
            listed += len(edits)
        assert listed > 2000
