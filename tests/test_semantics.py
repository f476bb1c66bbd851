import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from peirce import formulas as fm
from peirce import semantics
from peirce.errors import TooManyAtomsError
from peirce.graphs import Dialect
from peirce.kripke import kripke_countermodel
from peirce.notation import parse_formula, parse_graph, print_formula, print_graph
from peirce.semantics import (
    entails,
    eval_classical,
    formula_to_graph,
    graph_to_formula,
    taut_classical,
    taut_int,
)

from genutil import check_frozen_node, random_formula, random_graph

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

    def test_translation_bytes_are_pinned(self):
        # the digest of these formulas while an area's conjunction and a
        # scroll's disjunction were each folded by a loop of their own
        rng = random.Random(73)
        lines = [print_formula(graph_to_formula(random_graph(rng, depth=5, dialect=dialect)))
                 for _ in range(1500) for dialect in (C, I)]
        assert any(" | " in line for line in lines) and any(" & " in line for line in lines)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "a6b450624580d33d18850b6c9202d8a1ba14cb98ae0b276fe1799afde584b25c"


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

    def test_encoding_bytes_are_pinned(self):
        # the digest of these graphs while classical -> and | were each
        # encoded by a branch of their own
        rng = random.Random(97)
        drawn = [random_formula(rng, rng.randint(0, 8)) for _ in range(3000)]
        texts = [print_formula(formula) for formula in drawn]
        assert any(" -> " in text for text in texts) and any(" | " in text for text in texts)
        lines = [print_graph(formula_to_graph(formula, dialect))
                 for formula in drawn for dialect in Dialect]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "10bb6d76bdf5edf830263c4ac15e1eb17f2bf62941d80482ccc257d3129ce392"


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
    names = fm.atoms(fm.postfix(formula))
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
        names = fm.atoms(fm.postfix(formula))
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
        # one for each way G4ip's rules take a node apart: T and & on the
        # left, each kind of implication head, and | on either side
        "(T -> p) -> p",
        "T & p -> p",
        "(F -> p) & q -> q",
        "((p & q) -> r) -> (p -> (q -> r))",
        "((p | q) -> r) -> (q -> r)",
        "((p -> q) -> r) -> (q -> r)",
        "p & (p -> q) -> q",
        "(p | q) & ~p -> q",
        "p -> p | q",
        "(p -> q) & (p | r) -> q | r",
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
        "((p -> q) -> r) -> r",
        "(p -> q) -> q",
        "((p | q) -> r) -> r",
    ])
    def test_non_theorems(self, text):
        assert not taut_int(f(text))

    def test_int_implies_classical_random(self):
        rng = random.Random(37)
        for _ in range(400):
            formula = random_formula(rng)
            if taut_int(formula):
                assert taut_classical(formula)


def _reference_prove(gamma, goal, cache, proved):
    """G4ip as it stood before its left rules built ``gamma - {f}`` only
    for the formula a rule fires on; ``proved`` counts the sequents it
    proves, that is, its memo misses."""
    key = (gamma, goal)
    hit = cache.get(key)
    if hit is not None:
        return hit
    proved[0] += 1
    result = _reference_prove_uncached(gamma, goal, cache, proved)
    cache[key] = result
    return result


def _reference_prove_uncached(gamma, goal, cache, proved):
    prove = _reference_prove
    if isinstance(goal, fm.Top) or fm.BOT in gamma or goal in gamma:
        return True
    if isinstance(goal, fm.And):
        return (prove(gamma, goal.left, cache, proved)
                and prove(gamma, goal.right, cache, proved))
    if isinstance(goal, fm.Imp):
        return prove(gamma | {goal.left}, goal.right, cache, proved)
    for f in gamma:
        rest = gamma - {f}
        if isinstance(f, fm.Top):
            return prove(rest, goal, cache, proved)
        if isinstance(f, fm.And):
            return prove(rest | {f.left, f.right}, goal, cache, proved)
        if isinstance(f, fm.Or):
            return (prove(rest | {f.left}, goal, cache, proved)
                    and prove(rest | {f.right}, goal, cache, proved))
        if isinstance(f, fm.Imp):
            head = f.left
            if isinstance(head, fm.Top):
                return prove(rest | {f.right}, goal, cache, proved)
            if isinstance(head, fm.Bot):
                return prove(rest, goal, cache, proved)
            if isinstance(head, fm.And):
                return prove(rest | {fm.Imp(head.left, fm.Imp(head.right, f.right))},
                             goal, cache, proved)
            if isinstance(head, fm.Or):
                return prove(rest | {fm.Imp(head.left, f.right),
                                     fm.Imp(head.right, f.right)}, goal, cache, proved)
            if isinstance(head, fm.Atom) and head in gamma:
                return prove(rest | {f.right}, goal, cache, proved)
    if isinstance(goal, fm.Or):
        if (prove(gamma, goal.left, cache, proved)
                or prove(gamma, goal.right, cache, proved)):
            return True
    for f in gamma:
        if isinstance(f, fm.Imp) and isinstance(f.left, fm.Imp):
            rest = gamma - {f}
            inner = f.left
            if (prove(rest | {fm.Imp(inner.right, f.right)}, inner, cache, proved)
                    and prove(rest | {f.right}, goal, cache, proved)):
                return True
    return False


def pigeonhole(n):
    """n + 1 pigeons do not fit in n holes: an intuitionistic theorem, by
    Glivenko's theorem, since it is a negated classical one."""
    p = [[f"p{i}_{j}" for j in range(n)] for i in range(n + 1)]
    parts = ["(" + " | ".join(row) + ")" for row in p]
    parts += [f"~({p[i][j]} & {p[k][j]})"
              for j in range(n) for i in range(n + 1) for k in range(i + 1, n + 1)]
    return f("~(" + " & ".join(parts) + ")")


class TestG4ipWork:
    def test_same_sequents_as_the_reference(self, monkeypatch):
        # one process, one hash order.  Each distinct sequent that _prove is
        # asked misses its memo once; the reference memoises every step,
        # where _prove sees only the saturated sequents left to branch on
        asked = set()
        prove = semantics._prove

        def counted(gamma, goal):
            asked.add((gamma, goal))
            return prove(gamma, goal)

        counted.cache_clear = prove.cache_clear
        monkeypatch.setattr(semantics, "_prove", counted)
        rng = random.Random(61)
        formulas = [random_formula(rng, connectives=rng.randint(0, 10), atoms=rng.randint(1, 4))
                    for _ in range(2_000)]
        theorems = total = reference = 0
        for formula in formulas + [pigeonhole(n) for n in (2, 3, 4)]:
            expected = [0]
            verdict = _reference_prove(frozenset(), _rebuilt_without_not(formula), {}, expected)
            asked.clear()
            assert taut_int(formula) == verdict, print_formula(formula)
            assert len(asked) <= expected[0], print_formula(formula)
            theorems += verdict
            total += len(asked)
            reference += expected[0]
        assert theorems > 300
        assert total < reference / 2, (total, reference)

    def test_saturated_sequents_only(self, monkeypatch):
        # every sequent _prove receives is saturated: no rule that neither
        # branches nor loses provability fires on it, and the goal is left
        # for a branching rule or none
        prove = semantics._prove
        seen = [0]

        def checked(gamma, goal):
            for f in gamma:
                assert type(f) not in (fm.And, fm.Top, fm.Bot), print_formula(f)
                if type(f) in (fm.Imp, fm.Not):
                    head = f.left if type(f) is fm.Imp else f.body
                    assert type(head) not in (fm.Bot, fm.Top, fm.And, fm.Or), print_formula(f)
                    assert type(head) is not fm.Atom or head not in gamma, print_formula(f)
            assert type(goal) not in (fm.Imp, fm.And, fm.Top), print_formula(goal)
            assert goal not in gamma, print_formula(goal)
            seen[0] += 1
            return prove(gamma, goal)

        checked.cache_clear = prove.cache_clear
        monkeypatch.setattr(semantics, "_prove", checked)
        rng = random.Random(61)
        for _ in range(2_000):
            taut_int(random_formula(rng, connectives=rng.randint(0, 10), atoms=rng.randint(1, 4)))
        for n in (2, 3, 4):
            assert taut_int(pigeonhole(n))
        assert seen[0] > 1_000

    def test_memo_is_empty_after_each_call(self):
        assert taut_int(pigeonhole(2))
        assert semantics._prove.cache_info().currsize == 0
        # a balanced conjunction of 2,000 atoms is shallow to hash, and the
        # left rule for & runs in a loop, so it takes no recursion per
        # conjunction: p -> p is proved and the right conjunct is not
        parts = [fm.Atom(f"a{i}") for i in range(2_000)]
        while len(parts) > 1:
            parts = [fm.And(*parts[i:i + 2]) if i + 1 < len(parts) else parts[i]
                     for i in range(0, len(parts), 2)]
        assert not taut_int(fm.And(f("p -> p"), fm.Imp(parts[0], f("q"))))
        assert semantics._prove.cache_info().currsize == 0

    @pytest.mark.parametrize("seed, counts", [(seed, [5, 37, 243]) for seed in "012"])
    def test_sequents_proved_per_hash_seed(self, seed, counts):
        # _prove scans gamma, a frozenset, in hash order, and an atom's hash
        # comes from its name's bytes, not from the process's string-hash
        # seed, so every seed proves the same sequents.  Each count is the
        # memo's misses of one taut_int call, read as the call clears the memo.
        code = ("import json, sys\n"
                "from peirce import parse_formula, semantics\n"
                "counts = []\n"
                "clear = semantics._prove.cache_clear\n"
                "semantics._prove.cache_clear = lambda: (\n"
                "    counts.append(semantics._prove.cache_info().misses), clear())\n"
                "for text in json.load(sys.stdin):\n"
                "    assert semantics.taut_int(parse_formula(text))\n"
                "print(counts)\n")
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        texts = json.dumps([print_formula(pigeonhole(n)) for n in (2, 3, 4)])
        done = subprocess.run([sys.executable, "-c", code], input=texts, capture_output=True,
                              text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout) == (0, f"{counts}\n"), done.stderr


def _hashed_fields(node):
    """The tuple whose hash is ``node``'s: its fields, but an atom's name
    read as the integer its UTF-8 bytes spell, little end first."""
    if type(node) is fm.Atom:
        return (int.from_bytes(node.name.encode(), "little"),)
    return tuple(getattr(node, name) for name in type(node)._fields)


class TestStoredHash:
    def test_the_dataclass_hash(self):
        # each node's hash is the one a frozen dataclass computed, and a
        # record computes, that of the tuple of its fields, with an atom's
        # name read as an integer
        rng = random.Random(89)
        roots = [fm.TOP, fm.BOT] + [random_formula(rng, connectives=rng.randint(0, 12), atoms=5)
                                    for _ in range(300)]
        nodes = [sub for root in roots for sub in _subformulas(root)]
        assert {type(node) for node in nodes} == {
            fm.Atom, fm.Top, fm.Bot, fm.Not, fm.And, fm.Or, fm.Imp}
        for node in nodes:
            assert hash(node) == hash(_hashed_fields(node)), print_formula(node)

    def test_the_hash_is_the_same_at_every_seed(self):
        # the names' own hashes differ between the two seeds; the atoms'
        # hashes, and so those of the formulas over them, do not
        code = ("from peirce import formulas as fm, parse_formula\n"
                "names = ['p', 'a0', 'p\u00e9', 'q\\ud800']\n"
                "print([hash(name) for name in names])\n"
                "print([hash(fm.Atom(name)) for name in names],"
                " hash(parse_formula('(p -> a0) & ~p | T')))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        names, atoms = zip(*[
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(env, PYTHONHASHSEED=seed), timeout=60,
                           check=True).stdout.splitlines()
            for seed in ("0", "1")])
        assert names[0] != names[1] and atoms[0] == atoms[1]

    def test_a_deep_chain_hashes_without_recursion(self):
        # the dataclass hash recursed once per level; built bottom-up, no
        # step here recurses (equality still does, so none is compared)
        node = fm.Atom("p")
        for _ in range(100_000):
            node = fm.Not(node)
        assert hash(node) == hash((node.body,))


class TestNodeContract:
    # each node's __init__ writes its fields and its hash into its slots;
    # the classes are frozen records
    @pytest.mark.parametrize("node", [
        fm.Atom("p"), fm.TOP, fm.BOT, fm.Not(fm.Atom("p")), fm.And(fm.Atom("p"), fm.TOP),
        fm.Or(fm.BOT, fm.Atom("q")), fm.Imp(fm.Atom("p"), fm.Not(fm.Atom("q")))],
        ids=lambda node: type(node).__name__)
    def test_a_frozen_dataclass_with_the_dataclass_hash(self, node):
        check_frozen_node(node)
        fields = tuple(getattr(node, name) for name in type(node)._fields)
        assert hash(node) == hash(_hashed_fields(node)) == hash(type(node)(*fields))

    def test_replace_hashes_the_new_fields(self):
        p, q = fm.Atom("p"), fm.Atom("q")
        swapped = fm.Imp(left=q, right=fm.Imp(p, q).right)
        assert swapped == fm.Imp(q, q) and hash(swapped) == hash((q, q))
        assert repr(fm.Not(p)) == "Not(body=Atom(name='p'))"

    def test_the_reader_builds_one_atom_per_name(self):
        formula = f("p & p -> p")
        assert formula.left.left is formula.left.right is formula.right
        assert f("T & ~T").left is f("T") is fm.TOP


def _subformulas(f):
    yield f
    if isinstance(f, fm.Not):
        yield from _subformulas(f.body)
    elif isinstance(f, (fm.And, fm.Or, fm.Imp)):
        yield from _subformulas(f.left)
        yield from _subformulas(f.right)


def _rebuilt_without_not(f):
    """The reference ``strip_not``: every connective node built anew."""
    if isinstance(f, fm.Not):
        return fm.Imp(_rebuilt_without_not(f.body), fm.BOT)
    if isinstance(f, (fm.And, fm.Or, fm.Imp)):
        return type(f)(_rebuilt_without_not(f.left), _rebuilt_without_not(f.right))
    return f


class TestNegationInPlace:
    # G4ip reads ~A as A -> F where it stands; _rebuilt_without_not
    # rewrites every ~A so before G4ip starts
    def test_same_verdict_as_on_the_rebuilt_formula(self):
        rng = random.Random(97)
        theorems = 0
        for _ in range(300):
            formula = random_formula(rng, connectives=rng.randint(0, 12), atoms=4)
            rebuilt = _rebuilt_without_not(formula)
            verdict = taut_int(formula)
            assert verdict == taut_int(rebuilt), print_formula(formula)
            # the truth table and the Kripke search read ~A as A -> F too
            assert taut_classical(formula) == taut_classical(rebuilt), print_formula(formula)
            assert (str(kripke_countermodel(formula, 3))
                    == str(kripke_countermodel(rebuilt, 3))), print_formula(formula)
            theorems += verdict
        assert 30 < theorems < 270

    def test_a_deep_chain_takes_no_recursion(self):
        # a & chain 10,000 levels deep, as the reader nests a0 & a1 & ...,
        # with a ~ at its bottom: taken apart on the left, and as a goal
        # conjunct by conjunct, with no recursion per &
        plain = fm.Atom("a")
        negated = fm.Not(plain)
        for i in range(10_000):
            plain = fm.And(plain, fm.Atom(f"b{i % 7}"))
            negated = fm.And(negated, plain.right)
        assert taut_int(fm.Imp(negated, negated))
        assert not taut_int(fm.Imp(negated, plain))
        # and the truth table evaluates it with its own stack
        assert taut_classical(fm.Imp(negated, negated))
        assert not taut_classical(fm.Imp(negated, plain))
        assert (fm.atoms(fm.postfix(negated)) == fm.atoms(fm.postfix(plain))
                == ["a"] + [f"b{i}" for i in range(7)])


class TestEntails:
    def test_one_way_passage(self):
        assert entails(I, f("p -> q"), f("~(p & ~q)"))
        assert not entails(I, f("~(p & ~q)"), f("p -> q"))
        assert entails(C, f("~(p & ~q)"), f("p -> q"))
