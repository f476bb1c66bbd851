import random
from itertools import product

import pytest

from peirce import formulas as fm
from peirce.errors import TooManyAtomsError
from peirce.graphs import Dialect
from peirce.notation import parse_formula, parse_graph, print_formula, print_graph
from peirce.semantics import (
    entails,
    eval_classical,
    formula_to_graph,
    graph_to_formula,
    taut_classical,
    taut_int,
)

from genutil import random_formula, random_graph

C = Dialect.CLASSICAL
I = Dialect.INTUITIONISTIC


def f(text):
    return parse_formula(text)


class TestGraphToFormula:
    def test_cut_is_negation(self):
        g = parse_graph("p (q)", C)
        assert print_formula(graph_to_formula(g)) == "p & ~q"

    def test_scroll_is_implication(self):
        assert print_formula(graph_to_formula(parse_graph("[p | q]", I))) == "p -> q"

    def test_two_loops_are_disjunction(self):
        got = graph_to_formula(parse_graph("[ | p | q]", I))
        assert got == fm.Imp(fm.TOP, fm.Or(fm.Atom("p"), fm.Atom("q")))

    def test_blank_is_truth(self):
        assert graph_to_formula(parse_graph("", C)) == fm.TOP

    def test_empty_cut_is_negated_truth(self):
        assert graph_to_formula(parse_graph("()", C)) == fm.Not(fm.TOP)

    def test_deterministic_canonical_order(self):
        a = graph_to_formula(parse_graph("q p", C))
        b = graph_to_formula(parse_graph("p q", C))
        assert a == b == fm.And(fm.Atom("p"), fm.Atom("q"))


class TestFormulaToGraph:
    def test_classical_implication(self):
        g = formula_to_graph(f("p -> q"), C)
        assert print_graph(g) == "(p (q))"

    def test_intuitionistic_implication(self):
        assert print_graph(formula_to_graph(f("p -> q"), I)) == "[p | q]"

    def test_bottom(self):
        assert print_graph(formula_to_graph(fm.BOT, I)) == "()"

    def test_classical_disjunction(self):
        assert print_graph(formula_to_graph(f("p | q"), C)) == "((p) (q))"

    def test_intuitionistic_disjunction(self):
        assert print_graph(formula_to_graph(f("p | q"), I)) == "[ | p | q]"

    def test_round_trip_preserves_equivalence(self):
        rng = random.Random(31)
        for _ in range(150):
            formula = random_formula(rng, connectives=6)
            for dialect in (C, I):
                back = graph_to_formula(formula_to_graph(formula, dialect))
                equiv = fm.And(fm.Imp(formula, back), fm.Imp(back, formula))
                if dialect is C:
                    assert taut_classical(equiv)
                else:
                    assert taut_int(equiv)


class TestClassicalOracle:
    def test_excluded_middle(self):
        assert taut_classical(f("p | ~p"))

    def test_double_negation(self):
        assert taut_classical(f("~~p -> p"))

    def test_non_tautology(self):
        assert not taut_classical(f("p -> q"))

    def test_eval(self):
        assert eval_classical(f("p -> q"), {"p": False, "q": False})
        assert not eval_classical(f("p & ~q"), {"p": True, "q": True})

    def test_atom_guard(self):
        wide = fm.Atom("a0")
        for i in range(1, 21):
            wide = fm.And(wide, fm.Atom(f"a{i}"))
        with pytest.raises(TooManyAtomsError):
            taut_classical(wide)

    def test_sixteen_binary_connective_patterns(self):
        # truth tables over two atoms, checked against direct enumeration
        names = ["p", "q"]
        rows = list(product((False, True), repeat=2))
        for pattern in range(16):
            outputs = [(pattern >> i) & 1 == 1 for i in range(4)]
            formula = None
            for row, out in zip(rows, outputs):
                if out:
                    continue
                clause = fm.Or(
                    fm.Atom("p") if not row[0] else fm.Not(fm.Atom("p")),
                    fm.Atom("q") if not row[1] else fm.Not(fm.Atom("q")),
                )
                formula = clause if formula is None else fm.And(formula, clause)
            if formula is None:
                formula = fm.TOP
            expected_taut = all(outputs)
            assert taut_classical(formula) == expected_taut
            for row, out in zip(rows, outputs):
                assignment = dict(zip(names, row))
                assert eval_classical(formula, assignment) == out


def _row_by_row(formula):
    """The truth table one row at a time, through eval_classical."""
    names = sorted(fm.atoms(formula))
    return all(eval_classical(formula, dict(zip(names, values)))
               for values in product((False, True), repeat=len(names)))


def _recursive_eval(formula, assignment):
    """A recursive evaluator local to the tests, sharing no code with
    the bitset one."""
    if isinstance(formula, fm.Atom):
        return assignment[formula.name]
    if isinstance(formula, (fm.Top, fm.Bot)):
        return isinstance(formula, fm.Top)
    if isinstance(formula, fm.Not):
        return not _recursive_eval(formula.body, assignment)
    left = _recursive_eval(formula.left, assignment)
    right = _recursive_eval(formula.right, assignment)
    if isinstance(formula, fm.And):
        return left and right
    if isinstance(formula, fm.Or):
        return left or right
    return not left or right


def test_eval_classical_agrees_with_recursive_evaluator():
    rng = random.Random(59)
    rows = 0
    for _ in range(300):
        formula = _formula_over(rng, ["p", "q", "r"], rng.randint(0, 10))
        names = sorted(fm.atoms(formula))
        for values in product((False, True), repeat=len(names)):
            assignment = dict(zip(names, values))
            expected = _recursive_eval(formula, assignment)
            assert eval_classical(formula, assignment) is expected, print_formula(formula)
            rows += 1
    assert rows > 1000


def _formula_over(rng, names, connectives):
    if connectives <= 0:
        roll = rng.random()
        if roll < 0.8:
            return fm.Atom(rng.choice(names))
        return fm.TOP if roll < 0.9 else fm.BOT
    kind = rng.randrange(4)
    if kind == 0:
        return fm.Not(_formula_over(rng, names, connectives - 1))
    left_budget = rng.randint(0, connectives - 1)
    return (fm.And, fm.Or, fm.Imp)[kind - 1](
        _formula_over(rng, names, left_budget),
        _formula_over(rng, names, connectives - 1 - left_budget))


def _chain(names):
    links = fm.TOP
    for a, b in zip(names, names[1:]):
        links = fm.And(links, fm.Imp(fm.Atom(a), fm.Atom(b)))
    return fm.Imp(links, fm.Imp(fm.Atom(names[0]), fm.Atom(names[-1])))


class TestBitsetTruthTable:
    def test_agrees_with_row_by_row_reference(self):
        rng = random.Random(53)
        tautologies = 0
        for _ in range(400):
            names = [f"a{i}" for i in range(rng.randint(1, 10))]
            g = _formula_over(rng, names, rng.randint(0, 12))
            h = _formula_over(rng, names, rng.randint(0, 6))
            for formula in (g, fm.Or(g, fm.Not(g)), fm.Imp(fm.And(g, h), h),
                            fm.Imp(g, h)):
                expected = _row_by_row(formula)
                assert taut_classical(formula) == expected, print_formula(formula)
                tautologies += expected
        assert 800 < tautologies < 1600

    @pytest.mark.parametrize("text,expected", [
        ("T", True), ("F", False), ("~F", True), ("~T", False),
        ("F -> p", True), ("p -> T", True), ("p | T", True), ("p & T", False),
        ("T -> F", False), ("(p -> F) | p", True),
    ])
    def test_constants(self, text, expected):
        assert taut_classical(f(text)) == expected == _row_by_row(f(text))

    @pytest.mark.parametrize("width", [19, 20])
    def test_wide_tables(self, width):
        names = [f"a{i}" for i in range(width)]
        assert taut_classical(_chain(names))
        broken = _chain(names[:7] + names[8:])
        assert not taut_classical(fm.Imp(fm.And(fm.Atom("a7"), broken.left),
                                         broken.right.right))
        every = fm.Atom(names[0])
        for name in names[1:]:
            every = fm.And(every, fm.Atom(name))
        assert taut_classical(fm.Imp(every, fm.Atom(names[-1])))
        assert not taut_classical(fm.Imp(fm.Atom(names[-1]), every))
        assert taut_classical(fm.Or(fm.Not(every), every))
        assert not taut_classical(fm.Or(every, fm.Not(fm.Atom(names[0]))))

    def test_twenty_one_atoms_guarded(self):
        with pytest.raises(TooManyAtomsError):
            taut_classical(_chain([f"a{i}" for i in range(21)]))


class TestIntuitionisticOracle:
    @pytest.mark.parametrize("text", [
        "p -> p",
        "p -> ~~p",
        "~~(p | ~p)",
        "(~p | ~q) -> ~(p & q)",
        "~(p | q) -> (~p & ~q)",
        "(~p & ~q) -> ~(p | q)",
        "(p -> q) -> ~(p & ~q)",
        "F -> q",
        "p & q -> p",
        "p -> (q -> p)",
        "~~~p -> ~p",
    ])
    def test_theorems(self, text):
        assert taut_int(f(text))

    @pytest.mark.parametrize("text", [
        "p | ~p",
        "~~p -> p",
        "((p -> q) -> p) -> p",
        "~(p & q) -> (~p | ~q)",
        "~(p & ~q) -> (p -> q)",
        "(p -> q) | (q -> p)",
    ])
    def test_non_theorems(self, text):
        assert not taut_int(f(text))

    def test_int_implies_classical_random(self):
        rng = random.Random(37)
        for _ in range(400):
            formula = random_formula(rng)
            if taut_int(formula):
                assert taut_classical(formula)


class TestEntails:
    def test_one_way_passage(self):
        assert entails(I, f("p -> q"), f("~(p & ~q)"))
        assert not entails(I, f("~(p & ~q)"), f("p -> q"))
        assert entails(C, f("~(p & ~q)"), f("p -> q"))
