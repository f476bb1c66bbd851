"""Graph/formula translations and the two propositional oracles.

The classical oracle is a truth table over all 2^n rows at once, one
bitmask per atom (guarded at 20 atoms).
The intuitionistic oracle is a contraction-free sequent procedure in the
G4ip style: the four implication-left refinements make it terminate on
every input, and it decides full IPC.  Negation is treated internally as
implication into falsum.
"""

from __future__ import annotations

from . import formulas as fm
from .errors import TooManyAtomsError
from .graphs import Atom, Dialect, Graph, Item, Scroll, canonicalize

# ---------------------------------------------------------------------------
# Translations
# ---------------------------------------------------------------------------


def graph_to_formula(g: Graph) -> fm.Formula:
    """Juxtaposition is conjunction, the blank area is truth, a zero-loop
    scroll is negation, and ``[g0 | g1 | ... | gn]`` is
    ``g0 -> (g1 | ... | gn)``.  Items are folded right-nested in canonical
    order, so the result is deterministic."""
    return _area_formula(canonicalize(g))


def _area_formula(g: Graph) -> fm.Formula:
    if not g.items:
        return fm.TOP
    parts = [_item_formula(item) for item in g.items]
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = fm.And(part, out)
    return out


def _item_formula(item: Item) -> fm.Formula:
    if isinstance(item, Atom):
        return fm.Atom(item.name)
    antecedent = _area_formula(item.outer)
    if not item.loops:
        return fm.Not(antecedent)
    disjuncts = [_area_formula(loop) for loop in item.loops]
    out = disjuncts[-1]
    for part in reversed(disjuncts[:-1]):
        out = fm.Or(part, out)
    return fm.Imp(antecedent, out)


def formula_to_graph(f: fm.Formula, dialect: Dialect) -> Graph:
    return Graph(_encode(f, dialect))


def _encode(f: fm.Formula, d: Dialect) -> tuple[Item, ...]:
    if isinstance(f, fm.Atom):
        return (Atom(f.name),)
    if isinstance(f, fm.Top):
        return ()
    if isinstance(f, fm.Bot):
        return (Scroll(Graph()),)
    if isinstance(f, fm.And):
        return _encode(f.left, d) + _encode(f.right, d)
    if isinstance(f, fm.Not):
        return (Scroll(Graph(_encode(f.body, d))),)
    if d is Dialect.CLASSICAL:
        if isinstance(f, fm.Imp):
            inner = Scroll(Graph(_encode(f.right, d)))
            return (Scroll(Graph(_encode(f.left, d) + (inner,))),)
        # A | B  ~>  ((A)(B))
        left = Scroll(Graph(_encode(f.left, d)))
        right = Scroll(Graph(_encode(f.right, d)))
        return (Scroll(Graph((left, right))),)
    if isinstance(f, fm.Imp):
        return (Scroll(Graph(_encode(f.left, d)), (Graph(_encode(f.right, d)),)),)
    # A | B  ~>  [ | A | B]
    return (Scroll(Graph(), (Graph(_encode(f.left, d)), Graph(_encode(f.right, d)))),)


# ---------------------------------------------------------------------------
# Classical oracle
# ---------------------------------------------------------------------------


def eval_classical(f: fm.Formula, assignment: dict[str, bool]) -> bool:
    """``f`` under one assignment: a truth table of one row."""
    row = {name: 1 if value else 0 for name, value in assignment.items()}
    return fm.eval_mask(f, row, 1) == 1


def taut_classical(f: fm.Formula) -> bool:
    names = sorted(fm.atoms(f))
    if len(names) > 20:
        raise TooManyAtomsError(f"{len(names)} atoms exceed the truth-table guard")
    # Atom i is true in the rows whose bit i is set.  Each new atom doubles
    # the table: the old masks repeat in the upper half, where it is true.
    masks, rows = [], 1
    for _ in names:
        masks = [m | m << rows for m in masks] + [((1 << rows) - 1) << rows]
        rows <<= 1
    full = (1 << rows) - 1
    return fm.eval_mask(f, dict(zip(names, masks)), full) == full


# ---------------------------------------------------------------------------
# Intuitionistic oracle (G4ip)
# ---------------------------------------------------------------------------


def taut_int(f: fm.Formula) -> bool:
    """True iff ``f`` is a theorem of intuitionistic propositional logic."""
    cache: dict = {}
    return _prove(frozenset(), fm.strip_not(f), cache)


def _prove(gamma: frozenset, goal: fm.Formula, cache: dict) -> bool:
    key = (gamma, goal)
    hit = cache.get(key)
    if hit is not None:
        return hit
    result = _prove_uncached(gamma, goal, cache)
    cache[key] = result
    return result


def _prove_uncached(gamma: frozenset, goal: fm.Formula, cache: dict) -> bool:
    if isinstance(goal, fm.Top) or fm.BOT in gamma or goal in gamma:
        return True
    # invertible right rules
    if isinstance(goal, fm.And):
        return _prove(gamma, goal.left, cache) and _prove(gamma, goal.right, cache)
    if isinstance(goal, fm.Imp):
        return _prove(gamma | {goal.left}, goal.right, cache)
    # invertible left rules
    for f in gamma:
        rest = gamma - {f}
        if isinstance(f, fm.Top):
            return _prove(rest, goal, cache)
        if isinstance(f, fm.And):
            return _prove(rest | {f.left, f.right}, goal, cache)
        if isinstance(f, fm.Or):
            return (_prove(rest | {f.left}, goal, cache)
                    and _prove(rest | {f.right}, goal, cache))
        if isinstance(f, fm.Imp):
            head = f.left
            if isinstance(head, fm.Top):
                return _prove(rest | {f.right}, goal, cache)
            if isinstance(head, fm.Bot):
                return _prove(rest, goal, cache)
            if isinstance(head, fm.And):
                return _prove(rest | {fm.Imp(head.left, fm.Imp(head.right, f.right))},
                              goal, cache)
            if isinstance(head, fm.Or):
                return _prove(rest | {fm.Imp(head.left, f.right),
                                      fm.Imp(head.right, f.right)}, goal, cache)
            if isinstance(head, fm.Atom) and head in gamma:
                return _prove(rest | {f.right}, goal, cache)
    # non-invertible choices
    if isinstance(goal, fm.Or):
        if _prove(gamma, goal.left, cache) or _prove(gamma, goal.right, cache):
            return True
    for f in gamma:
        if isinstance(f, fm.Imp) and isinstance(f.left, fm.Imp):
            rest = gamma - {f}
            inner = f.left
            if (_prove(rest | {fm.Imp(inner.right, f.right)}, inner, cache)
                    and _prove(rest | {f.right}, goal, cache)):
                return True
    return False


def entails(logic: Dialect, f1: fm.Formula, f2: fm.Formula) -> bool:
    """Whether ``f1 -> f2`` is a tautology of the given logic."""
    implication = fm.Imp(f1, f2)
    if logic is Dialect.CLASSICAL:
        return taut_classical(implication)
    return taut_int(implication)
