"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
import random
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import product

import pytest

from peirce import formulas as fm
from peirce.calculus import (
    Detach,
    System,
    apply_rule,
    check_script,
    enumerate_rule_instances,
)
from peirce.cli import main as eg_main
from peirce.continuum import (
    ONE,
    ZERO,
    LexRelation,
    concat,
    elem_domain,
    element,
    extends,
    from_int,
    lex_compare,
    ord_add,
    ord_cmp,
    ord_sub_left,
    parse_element,
    parse_ordinal,
    print_element,
    print_ordinal,
    tail,
    w_pow,
)
from peirce.graphs import Dialect, Graph, Path, canonicalize, equals, polarity
from peirce.kripke import forces, kripke_countermodel, persistent
from peirce.notation import parse_formula, parse_graph, print_formula, print_graph
from peirce.render import layout, render_svg
from peirce.scriptfile import parse_script
from peirce.search import SearchBounds, derive
from peirce.semantics import (
    entails,
    formula_to_graph,
    graph_to_formula,
    taut_classical,
    taut_int,
)

from genutil import random_element, random_formula, random_graph, random_ordinal

CL = System.CLASSICAL
IN = System.INTUITIONISTIC


def report(criterion, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status} ({elapsed:.2f}s){suffix}")


# -- criterion 1 -------------------------------------------------------------


TABLE_SCRIPTS = [
    ("double cut elimination", "system classical\ngraph ((p))\ndcremove 0\nexpect p\n"),
    ("double cut introduction", "system classical\ngraph p\ndcadd / items 0\nexpect ((p))\n"),
    ("erasure", "system classical\ngraph p q\nerase 1\nexpect p\n"),
    ("insertion", "system classical\ngraph (p)\ninsert 0.outer q\nexpect (p q)\n"),
    ("iteration", "system classical\ngraph p (q)\niterate 0 -> 1.outer\nexpect p (p q)\n"),
    ("deiteration", "system classical\ngraph p (p q)\ndeiterate 1.outer.0 witness 0\nexpect p (q)\n"),
]

MISUSE_SCRIPTS = [
    ("erase in odd area", "system classical\ngraph (p q)\nerase 0.outer.1\n"),
    ("insert in even area", "system classical\ngraph p\ninsert / q\n"),
    ("eliminate a non-empty donut", "system classical\ngraph ((p) q)\ndcremove 0\n"),
    ("iterate against nesting", "system classical\ngraph (p) q\niterate 0.outer.0 -> /\n"),
    ("deiterate without a matching witness", "system classical\ngraph p (q)\ndeiterate 1.outer.0 witness 0\n"),
]


def test_c1_table_corpus():
    start = time.time()
    failures = []
    for name, text in TABLE_SCRIPTS:
        report_ = check_script(parse_script(text))
        if not report_.ok:
            failures.append(f"{name}: {report_.reason}")
    for name, text in MISUSE_SCRIPTS:
        report_ = check_script(parse_script(text))
        if report_.ok:
            failures.append(f"{name}: wrongly accepted")
    elapsed = time.time() - start
    ok = not failures and elapsed < 1.0
    report("C1 table corpus", ok, elapsed, "; ".join(failures))
    assert not failures
    assert elapsed < 1.0


# -- criteria 2 and 3: rule soundness ----------------------------------------


def _soundness(system, count, seed, budget):
    start = time.time()
    rng = random.Random(seed)
    vocab = tuple(parse_graph(t, system) for t in ("p", "q", "(p)"))
    checked = 0
    failures = []
    while checked < count:
        g = random_graph(rng, depth=4, atoms=4, dialect=system)
        instances = enumerate_rule_instances(system, g, vocab)
        if not instances:
            continue
        rule = rng.choice(instances)
        out = apply_rule(system, g, rule)
        step = fm.Imp(graph_to_formula(g), graph_to_formula(out))
        sound = taut_classical(step) if system is CL else taut_int(step)
        if not sound:
            failures.append((print_graph(g), rule, print_graph(out)))
            if len(failures) > 3:
                break
        checked += 1
    elapsed = time.time() - start
    return failures, checked, elapsed


def test_c2_rule_soundness_classical():
    failures, checked, elapsed = _soundness(CL, 10_000, seed=20260810, budget=120)
    ok = not failures and elapsed < 120
    report("C2 classical soundness (10,000 pairs)", ok, elapsed,
           f"{checked} applications" + (f"; first failure {failures[0]}" if failures else ""))
    assert not failures
    assert elapsed < 120


def test_c3_rule_soundness_intuitionistic():
    failures, checked, elapsed = _soundness(IN, 10_000, seed=20260811, budget=600)
    ok = not failures and elapsed < 600
    report("C3 intuitionistic soundness (10,000 pairs)", ok, elapsed,
           f"{checked} applications" + (f"; first failure {failures[0]}" if failures else ""))
    assert not failures
    assert elapsed < 600


# -- criterion 4: footnote separation suite ----------------------------------


def test_c4_separation_suite():
    start = time.time()
    classical_only = ["p | ~p", "~~p -> p", "((p -> q) -> p) -> p",
                      "~(p & q) -> (~p | ~q)"]
    int_theorems = ["p -> ~~p", "~~(p | ~p)",
                    "(~p | ~q) -> ~(p & q)", "~(p | q) -> (~p & ~q)",
                    "(~p & ~q) -> ~(p | q)"]
    failures = []
    for text in classical_only:
        f = parse_formula(text)
        if not taut_classical(f):
            failures.append(f"classical should prove {text}")
        if taut_int(f):
            failures.append(f"intuitionistic should reject {text}")
    for text in int_theorems:
        if not taut_int(parse_formula(text)):
            failures.append(f"intuitionistic should prove {text}")
    elapsed = time.time() - start
    ok = not failures and elapsed < 1.0
    report("C4 separation suite", ok, elapsed, "; ".join(failures))
    assert not failures
    assert elapsed < 1.0


# -- criterion 5: one-way passage --------------------------------------------


def test_c5_one_way_passage():
    start = time.time()
    failures = []
    imp = parse_formula("p -> q")
    neg = parse_formula("~(p & ~q)")
    if not entails(Dialect.INTUITIONISTIC, imp, neg):
        failures.append("forward passage should be sound")
    if entails(Dialect.INTUITIONISTIC, neg, imp):
        failures.append("reverse passage should fail")

    # detachment is only offered in even areas
    even_graph = parse_graph("[p | q]", Dialect.INTUITIONISTIC)
    odd_graph = parse_graph("([p | q])", Dialect.INTUITIONISTIC)
    if not any(isinstance(r, Detach) for r in enumerate_rule_instances(IN, even_graph, ())):
        failures.append("detach missing in even area")
    if any(isinstance(r, Detach) for r in enumerate_rule_instances(IN, odd_graph, ())):
        failures.append("detach offered in odd area")

    converse = fm.Imp(neg, imp)
    model = kripke_countermodel(converse, 3)
    if model is None or model.worlds > 3:
        failures.append("no small countermodel for the converse")
    else:
        if not persistent(model):
            failures.append("countermodel breaks persistence")
        if not any(not forces(model, w, converse) for w in range(model.worlds)):
            failures.append("countermodel does not falsify")
    elapsed = time.time() - start
    ok = not failures and elapsed < 1.0
    report("C5 one-way passage", ok, elapsed, "; ".join(failures))
    assert not failures
    assert elapsed < 1.0


# -- criterion 6: derivation search ------------------------------------------


PROVE_GOALS = [
    ("classical", "p -> p"),
    ("classical", "((p -> q) -> p) -> p"),
    ("classical", "~~p -> p"),
    ("classical", "p & q -> p"),
    ("intuitionistic", "p -> p"),
    ("intuitionistic", "p -> (q -> p)"),
    ("intuitionistic", "p -> ~~p"),
    ("intuitionistic", "~~(p | ~p)"),
    ("intuitionistic", "F -> q"),
]

# sha256 of `eg prove` stdout for the goal whose script no search test pins
# (tests/test_search.py pins the other eight)
PROVE_DIGESTS = {
    "~~(p | ~p)": "9e6288b716b6968eaf70de37bb20e98adaa7760204b304152b76fb187091accd",
}


@pytest.mark.parametrize("system_name,formula_text", PROVE_GOALS)
def test_c6_prove(system_name, formula_text, capsys):
    # the state budget keeps each run inside the one-minute window;
    # the successful goals all finish well below a thousand expansions
    system = System(system_name)
    goal = formula_to_graph(parse_formula(formula_text), system)
    start = time.time()
    code = eg_main(["prove", "--system", system_name, "--goal", print_graph(goal),
                    "--depth", "12", "--max-visited", "10000"])
    captured = capsys.readouterr()
    elapsed = time.time() - start
    with capsys.disabled():
        if code == 0:
            script = parse_script(captured.out)
            checked = check_script(script)
            ok = checked.ok and equals(checked.final, goal) and elapsed < 60
            report(f"C6 prove {system_name} {formula_text!r}", ok, elapsed,
                   f"{len(script.steps)} steps, checker-validated")
            assert checked.ok and equals(checked.final, goal)
        else:
            how = ("bounded space exhausted" if code == 1
                   else "state budget spent first")
            report(f"C6 prove {system_name} {formula_text!r}", False, elapsed,
                   f"no derivation ({how}); see the decisions ledger on the "
                   "reconstructed intuitionistic rule set")
            assert code == 0, f"no derivation for {formula_text} within depth 12"
    digest = PROVE_DIGESTS.get(formula_text)
    assert digest in (None, hashlib.sha256(captured.out.encode()).hexdigest()), captured.out
    assert elapsed < 60


def test_c6_excluded_middle_absent(capsys):
    start = time.time()
    goal = formula_to_graph(parse_formula("p | ~p"), Dialect.INTUITIONISTIC)
    code = eg_main(["prove", "--system", "intuitionistic", "--goal",
                    print_graph(goal), "--depth", "12"])
    out = capsys.readouterr().out
    elapsed = time.time() - start
    ok = code == 1 and "no derivation" in out
    with capsys.disabled():
        report("C6 prove intuitionistic 'p | ~p' stays absent", ok, elapsed,
               "corroborated by C4: not an intuitionistic theorem")
    assert ok
    assert elapsed < 60


# -- criterion 7: oracle cross-validation ------------------------------------


def test_c7_oracle_cross_validation():
    start = time.time()
    rng = random.Random(20260812)
    implications = 0
    model_checks = 0
    failures = []
    for _ in range(2_000):
        f = random_formula(rng, connectives=8, atoms=3)
        if taut_int(f):
            implications += 1
            if not taut_classical(f):
                failures.append(f"int theorem not classical: {print_formula(f)}")
            model = kripke_countermodel(f, 4)
            model_checks += 1
            if model is not None:
                failures.append(f"int theorem has countermodel: {print_formula(f)}")
        if len(failures) > 3:
            break
    elapsed = time.time() - start
    ok = not failures and elapsed < 300
    report("C7 oracle cross-validation (2,000 formulas)", ok, elapsed,
           f"{implications} theorems, {model_checks} model sweeps" +
           ("; " + failures[0] if failures else ""))
    assert not failures
    assert elapsed < 300


# -- criterion 8: continuum properties ---------------------------------------


def triple_add(x, y):
    if y[0] > 0:
        return (x[0] + y[0], y[1], y[2])
    if y[1] > 0:
        return (x[0], x[1] + y[1], y[2])
    return (x[0], x[1], x[2] + y[2])


def triple_to_ordinal(x):
    total = ZERO
    if x[0]:
        total = ord_add(total, w_pow(from_int(2), x[0]))
    if x[1]:
        total = ord_add(total, w_pow(ONE, x[1]))
    if x[2]:
        total = ord_add(total, from_int(x[2]))
    return total


def test_c8_continuum_properties():
    from peirce.errors import OrdinalUnderflowError

    start = time.time()
    rng = random.Random(20260813)
    failures = []

    elems = [random_element(rng) for _ in range(120)]
    for e in elems:
        if extends(e, e):
            failures.append("E not irreflexive")
    pairs = 0
    while pairs < 10_000:
        x, y, z = (rng.choice(elems) for _ in range(3))
        if extends(x, y) and extends(y, x):
            failures.append("E not asymmetric")
        if extends(x, y) and extends(y, z) and not extends(x, z):
            failures.append("E not transitive")
        if ord_cmp(elem_domain(x), elem_domain(y)) == 0:
            if lex_compare(x, y) not in (LexRelation.LESS, LexRelation.GREATER,
                                         LexRelation.EQUAL):
                failures.append("lex not total on equal domains")
        w = concat(x, z)
        if tail(x, w) != z:
            failures.append("tail(x, concat(x, z)) != z")
        y2 = concat(x, y)
        z2 = concat(x, z)
        if extends(y2, z2) != extends(tail(x, y2), tail(x, z2)):
            failures.append("monad map does not preserve E")
        if lex_compare(y2, z2) is not lex_compare(tail(x, y2), tail(x, z2)):
            failures.append("monad map does not preserve lex order")
        pairs += 1
        if failures:
            break

    # exhaustive agreement with the w^3 brute-force model
    triples = list(product(range(5), repeat=3))
    for x in triples:
        ox = triple_to_ordinal(x)
        for y in triples:
            oy = triple_to_ordinal(y)
            if ord_add(ox, oy) != triple_to_ordinal(triple_add(x, y)):
                failures.append(f"ordinal addition disagrees at {x}+{y}")
                break
            if ord_cmp(ox, oy) != (x > y) - (x < y):
                failures.append(f"ordinal comparison disagrees at {x},{y}")
                break
            if x <= y:
                if ord_add(ox, ord_sub_left(ox, oy)) != oy:
                    failures.append(f"left subtraction disagrees at {x},{y}")
                    break
        if failures:
            break

    elapsed = time.time() - start
    ok = not failures and elapsed < 60
    report("C8 continuum properties", ok, elapsed,
           f"{pairs} random triples, {len(triples) ** 2} exhaustive ordinal pairs" +
           ("; " + failures[0] if failures else ""))
    assert not failures
    assert elapsed < 60


# -- criterion 9: parser/printer round trips ---------------------------------


def test_c9_round_trips():
    start = time.time()
    rng = random.Random(20260814)
    failures = 0
    for _ in range(10_000):
        dialect = rng.choice([Dialect.CLASSICAL, Dialect.INTUITIONISTIC])
        g = random_graph(rng, dialect=dialect)
        if parse_graph(print_graph(g), dialect) != g:
            failures += 1
    for _ in range(10_000):
        f = random_formula(rng)
        if parse_formula(print_formula(f)) != f:
            failures += 1
    for _ in range(2_000):
        o = random_ordinal(rng, depth=3)
        if parse_ordinal(print_ordinal(o)) != o:
            failures += 1
        e = random_element(rng)
        if parse_element(print_element(e)) != e:
            failures += 1
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 30
    report("C9 round trips (10,000 graphs/formulas + literals)", ok, elapsed,
           f"{failures} failures")
    assert failures == 0
    assert elapsed < 30


# -- criterion 10: renderer ---------------------------------------------------


RENDER_CORPUS = [
    "", "p", "()", "(p)", "((p))", "(p (q))", "[p | q]", "[ | p | q]",
    "[p | q | r]", "[() | q]", "(([ | p | (p)]))", "p q r", "(p) (q)",
    "((p) (q))", "[p q | r s]", "[[p | q] | r]", "(p [q | r])",
]


def _render_corpus():
    rng = random.Random(20260815)
    corpus = [parse_graph(t, Dialect.INTUITIONISTIC) for t in RENDER_CORPUS]
    while len(corpus) < 50:
        corpus.append(random_graph(rng, depth=3, dialect=Dialect.INTUITIONISTIC))
    return corpus


def _check_render(g):
    import math

    svg = render_svg(g)
    ET.fromstring(svg)
    if svg != render_svg(g):
        return "output not deterministic"
    node = layout(g)

    def walk_area(children, area):
        geo_items = [c for c in children]
        if len(geo_items) != len(area.items):
            return "geometry arity mismatch"
        for child, item in zip(geo_items, area.items):
            from peirce.graphs import Scroll
            if isinstance(item, Scroll):
                if child.kind != "ellipse":
                    return "scroll not drawn as ellipse"
                outer_children = child.children[: len(item.outer.items)]
                loop_nodes = child.children[len(item.outer.items):]
                if len(loop_nodes) != len(item.loops):
                    return "loop arity mismatch"
                for loop_node, loop in zip(loop_nodes, item.loops):
                    dist = math.hypot(child.cx - loop_node.cx, child.cy - loop_node.cy)
                    if abs(dist + loop_node.rx - child.rx) > 1e-6:
                        return "loop not tangent"
                    bad = walk_area(loop_node.children, loop)
                    if bad:
                        return bad
                for inner_child, inner_item in zip(outer_children, item.outer.items):
                    if isinstance(inner_item, Scroll):
                        dist = math.hypot(child.cx - inner_child.cx,
                                          child.cy - inner_child.cy)
                        if dist + inner_child.rx > child.rx - 4.0:
                            return "nested boundary not strictly separated"
                bad = walk_area(outer_children, item.outer)
                if bad:
                    return bad
            else:
                if child.kind != "text":
                    return "atom not drawn as text"
        return None

    return walk_area(node.children, g)


def test_c10_renderer():
    start = time.time()
    failures = []
    corpus = _render_corpus()
    assert len(corpus) >= 50
    for g in corpus:
        bad = _check_render(g)
        if bad:
            failures.append(f"{print_graph(g)!r}: {bad}")
    elapsed = time.time() - start
    ok = not failures and elapsed < 5
    report("C10 renderer (50-graph corpus)", ok, elapsed,
           failures[0] if failures else f"{len(corpus)} graphs")
    assert not failures
    assert elapsed < 5
