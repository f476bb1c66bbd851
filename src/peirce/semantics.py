"""Graph/formula translations and the two propositional oracles.

The classical oracle is a truth table over all 2^n rows at once, one
bitmask per atom (guarded at 20 atoms).
The intuitionistic oracle is a contraction-free sequent procedure in the
G4ip style: the four implication-left refinements make it terminate on
every input, and it decides full IPC.  Negation is treated internally as
implication into falsum.
"""

from __future__ import annotations

import functools

from . import formulas as fm
from .errors import TooManyAtomsError
from .graphs import Atom, Dialect, Graph, Item, Scroll, _key

# ---------------------------------------------------------------------------
# Translations
# ---------------------------------------------------------------------------


def graph_to_formula(g: Graph) -> fm.Formula:
    """Juxtaposition is conjunction, the blank area is truth, a zero-loop
    scroll is negation, and ``[g0 | g1 | ... | gn]`` is
    ``g0 -> (g1 | ... | gn)``.  Items and loops are folded right-nested in
    canonical-key order, so the result is deterministic."""
    if not g.items:
        return fm.TOP
    return _fold(fm.And, [_item_formula(item) for item in sorted(g.items, key=_key)])


def _item_formula(item: Item) -> fm.Formula:
    if isinstance(item, Atom):
        return fm.Atom(item.name)
    antecedent = graph_to_formula(item.outer)
    if not item.loops:
        return fm.Not(antecedent)
    return fm.Imp(antecedent, _fold(fm.Or, [graph_to_formula(loop)
                                            for loop in sorted(item.loops, key=_key)]))


def _fold(node, parts: list[fm.Formula]) -> fm.Formula:
    """``parts`` joined by the binary ``node``, nested to the right."""
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = node(part, out)
    return out


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
        # A -> B  ~>  (A (B)), and A | B is ~A -> B  ~>  ((A) (B))
        left = _encode(f.left, d)
        left = left if isinstance(f, fm.Imp) else (Scroll(Graph(left)),)
        return (Scroll(Graph(left + (Scroll(Graph(_encode(f.right, d))),))),)
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
    return fm.eval_mask(f, row, (1,), 1) == 1


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
    return fm.eval_mask(f, dict(zip(names, masks)), (1,), rows) == full


# ---------------------------------------------------------------------------
# Intuitionistic oracle (G4ip)
# ---------------------------------------------------------------------------


def taut_int(f: fm.Formula) -> bool:
    """True iff ``f`` is a theorem of intuitionistic propositional logic."""
    try:
        return _prove(frozenset(), fm.strip_not(f))
    finally:
        # each call starts from an empty memo and keeps nothing; an entry
        # depends only on its sequent, so threads may share the memo
        _prove.cache_clear()


@functools.cache
def _prove(gamma: frozenset, goal: fm.Formula) -> bool:
    # no formula class has subclasses, so each node's kind is its type
    kind = type(goal)
    if kind is fm.Top or fm.BOT in gamma or goal in gamma:
        return True
    # invertible right rules
    if kind is fm.And:
        return _prove(gamma, goal.left) and _prove(gamma, goal.right)
    if kind is fm.Imp:
        return _prove(gamma | {goal.left}, goal.right)
    # invertible left rules: the first formula one of them fires on
    for f in gamma:
        kind = type(f)
        if kind is fm.Imp:
            head = f.left
            if type(head) is fm.Imp or type(head) is fm.Atom and head not in gamma:
                continue
        elif kind is not fm.And and kind is not fm.Or and kind is not fm.Top:
            continue
        rest = gamma - {f}
        if kind is fm.Top:
            return _prove(rest, goal)
        if kind is fm.And:
            return _prove(rest | {f.left, f.right}, goal)
        if kind is fm.Or:
            return _prove(rest | {f.left}, goal) and _prove(rest | {f.right}, goal)
        kind = type(head)
        if kind is fm.Bot:
            return _prove(rest, goal)
        if kind is fm.And:
            return _prove(rest | {fm.Imp(head.left, fm.Imp(head.right, f.right))}, goal)
        if kind is fm.Or:
            return _prove(rest | {fm.Imp(head.left, f.right), fm.Imp(head.right, f.right)}, goal)
        # a true head: T, or an atom in gamma
        return _prove(rest | {f.right}, goal)
    # non-invertible choices
    if type(goal) is fm.Or:
        if _prove(gamma, goal.left) or _prove(gamma, goal.right):
            return True
    for f in gamma:
        if type(f) is fm.Imp and type(f.left) is fm.Imp:
            rest = gamma - {f}
            inner = f.left
            if (_prove(rest | {fm.Imp(inner.right, f.right)}, inner)
                    and _prove(rest | {f.right}, goal)):
                return True
    return False


def entails(logic: Dialect, f1: fm.Formula, f2: fm.Formula) -> bool:
    """Whether ``f1 -> f2`` is a tautology of the given logic."""
    implication = fm.Imp(f1, f2)
    if logic is Dialect.CLASSICAL:
        return taut_classical(implication)
    return taut_int(implication)
