import hashlib
import random
import subprocess
import sys
import time
from itertools import combinations, islice, permutations, product

import pytest

from peirce import formulas as fm
from peirce import kripke
from peirce.cli import main
from peirce.errors import BoundsExceededError, CertificationError
from peirce.graphs import Dialect
from peirce.kripke import KripkeModel, _posets, forces, kripke_countermodel, persistent
from peirce.notation import parse_formula, print_formula
from peirce.semantics import taut_int

from genutil import random_formula


def f(text):
    return parse_formula(text)


class TestCountermodels:
    def test_double_negation_two_chain(self):
        model = kripke_countermodel(f("~~p -> p"), 2)
        assert model is not None and model.worlds == 2
        assert not forces(model, 0, f("~~p -> p"))

    def test_theorem_has_none(self):
        assert kripke_countermodel(f("p -> p"), 5) is None

    def test_excluded_middle_two_chain(self):
        model = kripke_countermodel(f("p | ~p"), 2)
        assert model is not None and model.worlds == 2
        assert any(not forces(model, w, f("p | ~p")) for w in range(model.worlds))

    def test_one_world_suffices_for_classical_falsifiable(self):
        model = kripke_countermodel(f("p -> q"), 1)
        assert model is not None and model.worlds == 1

    def test_converse_passage_small_model(self):
        model = kripke_countermodel(f("~(p & ~q) -> (p -> q)"), 3)
        assert model is not None and model.worlds <= 3

    def test_guard(self):
        with pytest.raises(ValueError):
            kripke_countermodel(f("p"), 6)

    def test_returned_models_verify(self):
        rng = random.Random(41)
        for _ in range(60):
            formula = random_formula(rng, connectives=6)
            model = kripke_countermodel(formula, 3)
            if model is None:
                continue
            assert persistent(model)
            assert any(not forces(model, w, formula) for w in range(model.worlds))

    def test_agrees_with_sequent_oracle(self):
        rng = random.Random(43)
        for _ in range(120):
            formula = random_formula(rng, connectives=6)
            if taut_int(formula):
                assert kripke_countermodel(formula, 3) is None
            # non-theorems need not have small countermodels, so no converse

    def test_forcing_builds_no_implication(self, monkeypatch):
        # ~A is read as A -> F in place: its operands are taken from the
        # node, and no A -> F node is built at each world visited
        rng = random.Random(47)
        cases = []
        while len(cases) < 300:
            formula = random_formula(rng, connectives=rng.randint(1, 8))
            model = kripke_countermodel(formula, 3)
            if model is not None:
                cases.append((formula, model))
        assert sum("~" in print_formula(formula) for formula, _ in cases) > 100
        built = [0]
        init = fm.Imp.__init__

        def counted(self, *args):
            built[0] += 1
            init(self, *args)

        monkeypatch.setattr(fm.Imp, "__init__", counted)
        for formula, model in cases:
            assert not all(forces(model, w, formula) for w in range(model.worlds))
        assert built[0] == 0
        assert fm.Imp(fm.BOT, fm.BOT) and built[0] == 1


def _forced(formula, masks, up, full):
    """The worlds forcing ``formula``, one world at a time for -> and ~."""
    if isinstance(formula, fm.Atom):
        return masks[formula.name]
    if isinstance(formula, fm.Top):
        return full
    if isinstance(formula, fm.Bot):
        return 0
    if isinstance(formula, fm.And):
        return _forced(formula.left, masks, up, full) & _forced(formula.right, masks, up, full)
    if isinstance(formula, fm.Or):
        return _forced(formula.left, masks, up, full) | _forced(formula.right, masks, up, full)
    if isinstance(formula, fm.Not):
        left, right = _forced(formula.body, masks, up, full), 0
    else:
        left = _forced(formula.left, masks, up, full)
        right = _forced(formula.right, masks, up, full)
    return sum(1 << w for w in range(len(up))
               if all(not (up[w] >> v & 1) or not (left >> v & 1) or right >> v & 1
                      for v in range(len(up))))


def _every_poset_countermodel(formula, max_worlds):
    """The search over every poset of ``_posets``, accepting a failure at
    any world: the search before it was restricted to rooted models."""
    names = sorted(fm.atoms(formula))
    for n in range(1, max_worlds + 1):
        full = (1 << n) - 1
        for up, upsets in _posets(n):
            for choice in product(upsets, repeat=len(names)):
                if _forced(formula, dict(zip(names, choice)), up, full) != full:
                    return KripkeModel(n, up, tuple(
                        frozenset(name for name, mask in zip(names, choice) if mask >> w & 1)
                        for w in range(n)))
    return None


class TestRootedSearch:
    def test_same_models_as_every_poset_search(self):
        rng = random.Random(59)
        found = 0
        larger = 0
        for i in range(150):
            g = random_formula(rng, connectives=rng.randint(0, 4), atoms=rng.randint(1, 3))
            h = random_formula(rng, connectives=rng.randint(0, 2), atoms=rng.randint(1, 3))
            max_worlds = 1 + i % 4
            # g itself, then classical tautologies whose countermodels, if
            # any, have more than one world
            for formula in (g, fm.Or(g, fm.Not(g)), fm.Imp(fm.Not(fm.Not(g)), g),
                            fm.Imp(fm.Imp(fm.Imp(g, h), g), g)):
                expected = _every_poset_countermodel(formula, max_worlds)
                got = kripke_countermodel(formula, max_worlds)
                assert str(got) == str(expected)
                found += got is not None
                larger += got is not None and got.worlds > 1
        assert found > 250 and larger > 120

    def test_lying_evaluator_is_caught(self, monkeypatch):
        monkeypatch.setattr(fm, "eval_mask", lambda *args: 0)
        with pytest.raises(CertificationError):
            kripke_countermodel(f("p -> p"), 2)

    def test_lying_evaluator_is_caught_under_optimize(self):
        code = ("from peirce import formulas as fm, kripke_countermodel, parse_formula\n"
                "from peirce.errors import CertificationError\n"
                "fm.eval_mask = lambda *args: 0\n"
                "try:\n"
                "    kripke_countermodel(parse_formula('p -> p'), 2)\n"
                "except CertificationError:\n"
                "    print('caught')\n")
        done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "caught\n"), done.stderr


def _pin_corpus():
    """1,500 formulas of 1-5 atoms, a third of them classical
    tautologies of the shapes whose countermodels need more than one world,
    each at 1-4 worlds, and at 5 too when it has at most 3 atoms."""
    rng = random.Random(131)
    for i in range(1500):
        g = random_formula(rng, connectives=rng.randint(0, 6), atoms=1 + i % 5)
        formula = (g, fm.Or(g, fm.Not(g)), fm.Imp(fm.Not(fm.Not(g)), g))[i % 3]
        top = 5 if len(fm.atoms(formula)) <= 3 else 4
        for worlds in range(1, top + 1):
            yield formula, worlds


def bounded_depth(k):
    """``p1 | (p1 -> (p2 | (p2 -> ... (pk | ~pk))))``: valid on every frame
    whose chains have at most k worlds, so its least countermodel is a
    chain of k + 1 worlds."""
    text = f"p{k} | ~p{k}"
    for i in range(k - 1, 0, -1):
        text = f"p{i} | (p{i} -> ({text}))"
    return f(text)


class TestValuationLanes:
    def test_same_models_as_one_valuation_at_a_time(self):
        # the digest of the models found when each valuation was evaluated
        # on its own, in product order
        digest = hashlib.sha256()
        calls = found = 0
        for formula, worlds in _pin_corpus():
            model = kripke_countermodel(formula, worlds)
            digest.update(f"{model}\n".encode())
            calls += 1
            found += model is not None
        assert (calls, found) == (7452, 4235)
        assert digest.hexdigest() == (
            "ea1e1a6d82e4fa528424adea4ab6b35a960bf56f477d35165304d1c9d9f74c5d")

    @pytest.mark.parametrize("lanes", [1, 10])
    def test_any_pass_size_finds_the_same_models(self, monkeypatch, lanes):
        # a pass of one lane is one valuation at a time, in product order;
        # ten lanes split every frame with more than two atoms into passes
        corpus = list(islice(_pin_corpus(), 1200))
        expected = [str(kripke_countermodel(formula, worlds)) for formula, worlds in corpus]
        monkeypatch.setattr(kripke, "MAX_LANES", lanes)
        assert [str(kripke_countermodel(formula, worlds)) for formula, worlds in corpus] == expected

    def test_depth_bound(self):
        model = kripke_countermodel(bounded_depth(4), 5)
        assert str(model) == ("worlds: 5; order: 0<=1, 0<=2, 0<=3, 0<=4, 1<=2, 1<=3, 1<=4, "
                              "2<=3, 2<=4, 3<=4; val: 0:{}; 1:{p1}; 2:{p1,p2}; "
                              "3:{p1,p2,p3}; 4:{p1,p2,p3,p4}")
        assert kripke_countermodel(bounded_depth(5), 5) is None


class TestValuationBudget:
    def test_model_within_the_budget_is_returned(self, monkeypatch):
        # the search tries p's 2 valuations on one world, then its 3 on two
        # worlds, where the last pass holds the countermodel to p | ~p
        monkeypatch.setattr(kripke, "MAX_VALUATIONS", 5)
        assert kripke_countermodel(f("p | ~p"), 2) is not None
        monkeypatch.setattr(kripke, "MAX_VALUATIONS", 4)
        with pytest.raises(BoundsExceededError):
            kripke_countermodel(f("p | ~p"), 2)

    def test_six_atoms_complete_within_it(self):
        assert kripke_countermodel(bounded_depth(6), 5) is None

    def test_seven_atoms_exit_2(self, capsys):
        start = time.process_time()
        code = main(["taut", "--logic", "intuitionistic", "--countermodel",
                     "--max-worlds", "5", print_formula(bounded_depth(7))])
        elapsed = time.process_time() - start
        out, err = capsys.readouterr()
        assert (code, out) == (2, "not a theorem\n")
        assert err == ("eg: the Kripke countermodel search passed its budget of "
                       "50,000,000 valuations\n")
        assert elapsed < 15


class TestRootedFrames:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_shifted_posets_are_the_rooted_posets(self, n):
        full = (1 << n) - 1
        shifted = [((full,) + tuple(u << 1 for u in up), [u << 1 for u in upsets] + [full])
                   for up, upsets in _posets(n - 1)]
        assert shifted == [(up, upsets) for up, upsets in _posets(n) if up[0] == full]

    def test_largest_posets_never_built(self, monkeypatch):
        asked = []
        posets = kripke._posets
        monkeypatch.setattr(kripke, "_posets", lambda n: asked.append(n) or posets(n))
        assert kripke_countermodel(f("(p -> q) -> (~q -> ~p)"), 5) is None
        assert sorted(asked) == [0, 1, 2, 3, 4]


def _pair_posets(n):
    """The frames as first built from sets of (a, b) pairs: every
    transitive subrelation of 0 < 1 < ... < n-1, kept the first time its
    canonical signature is met."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        rel = {(i, i) for i in range(n)}
        for idx, (a, b) in enumerate(pairs):
            if bits >> idx & 1:
                rel.add((a, b))
        if not _transitive(rel):
            continue
        signature = _canonical_signature(rel, n)
        if signature in seen:
            continue
        seen.add(signature)
        up = tuple(sum(1 << b for b in range(n) if (a, b) in rel) for a in range(n))
        upsets = [mask for mask in range(1 << n) if _is_upset(mask, up, n)]
        out.append((up, upsets))
    return out


def _transitive(rel):
    return all((a, d) in rel for (a, b) in rel for (c, d) in rel if b == c)


def _canonical_signature(rel, n):
    best = None
    for perm in permutations(range(n)):
        masks = []
        for a in range(n):
            mask = 0
            for b in range(n):
                if (a, b) in rel:
                    mask |= 1 << perm[b]
            masks.append(mask)
        masks = tuple(masks[p] for p in _inverse(perm))
        if best is None or masks < best:
            best = masks
    return best


def _inverse(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


def _is_upset(mask, up, n):
    return all(not (mask >> w & 1) or (up[w] & ~mask & ((1 << n) - 1)) == 0
               for w in range(n))


class TestFramesAsUpMasks:
    @pytest.mark.parametrize("n", range(6))
    def test_same_frames_as_the_pair_sets(self, n):
        # the same list, order, representatives and up-sets
        assert _posets(n) == _pair_posets(n)

    def test_counts_are_the_posets_up_to_isomorphism(self):
        # OEIS A000112
        assert [len(_posets(n)) for n in range(6)] == [1, 1, 2, 5, 16, 63]


class TestModelPrinting:
    def test_format(self):
        model = KripkeModel(
            worlds=2,
            up=(0b11, 0b10),
            valuation=(frozenset(), frozenset({"p"})),
        )
        assert str(model) == "worlds: 2; order: 0<=1; val: 0:{}; 1:{p}"
