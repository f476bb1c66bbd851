"""Graph/formula translations and the two propositional oracles.

The classical oracle is a truth table over all 2^n rows at once, one
bitmask per atom (guarded at 20 atoms), over one walk's list of nodes.
The intuitionistic oracle is a contraction-free sequent procedure in the
G4ip style: the four implication-left refinements make it terminate on
every input, and it decides full IPC.  Negation is read where it stands
as implication into falsum: ``~A`` answers ``left`` and ``right`` as
``A -> F``, and no formula is rewritten first.  The rules that neither
branch nor lose provability run in a loop over one set until none
fires, without recursion, and only the saturated sequents left for the
branching rules are memoised.
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
    """The items of ``f``'s graph; the conjuncts of an ``&`` come from a
    stack, left to right, so a long chain of them takes no recursion."""
    items, todo = [], [f]
    while todo:
        f = todo.pop()
        if isinstance(f, fm.And):
            todo += f.right, f.left
        elif isinstance(f, fm.Atom):
            items.append(Atom(f.name))
        elif isinstance(f, fm.Bot):
            items.append(Scroll(Graph()))
        elif isinstance(f, fm.Not):
            items.append(Scroll(Graph(_encode(f.body, d))))
        elif isinstance(f, fm.Top):
            pass
        elif d is Dialect.CLASSICAL:
            # A -> B  ~>  (A (B)), and A | B is ~A -> B  ~>  ((A) (B))
            left = _encode(f.left, d)
            left = left if isinstance(f, fm.Imp) else (Scroll(Graph(left)),)
            items.append(Scroll(Graph(left + (Scroll(Graph(_encode(f.right, d))),))))
        elif isinstance(f, fm.Imp):
            items.append(Scroll(Graph(_encode(f.left, d)), (Graph(_encode(f.right, d)),)))
        else:
            # A | B  ~>  [ | A | B]
            items.append(Scroll(Graph(), (Graph(_encode(f.left, d)), Graph(_encode(f.right, d)))))
    return tuple(items)


# ---------------------------------------------------------------------------
# Classical oracle
# ---------------------------------------------------------------------------


def eval_classical(f: fm.Formula, assignment: dict[str, bool]) -> bool:
    """``f`` under one assignment: a truth table of one row."""
    row = {name: 1 if value else 0 for name, value in assignment.items()}
    return fm.eval_mask(fm.postfix(f), row, (1,), 1) == 1


def taut_classical(f: fm.Formula) -> bool:
    # one walk lists the nodes that give the atoms and that are evaluated
    nodes = fm.postfix(f)
    names = sorted({g.name for g in nodes if type(g) is fm.Atom})
    if len(names) > 20:
        raise TooManyAtomsError(f"{len(names)} atoms exceed the truth-table guard")
    # Atom i is true in the rows whose bit i is set.  Each new atom doubles
    # the table: the old masks repeat in the upper half, where it is true.
    masks, rows = [], 1
    for _ in names:
        masks = [m | m << rows for m in masks] + [((1 << rows) - 1) << rows]
        rows <<= 1
    full = (1 << rows) - 1
    return fm.eval_mask(nodes, dict(zip(names, masks)), (1,), rows) == full


# ---------------------------------------------------------------------------
# Intuitionistic oracle (G4ip)
# ---------------------------------------------------------------------------


def taut_int(f: fm.Formula) -> bool:
    """True iff ``f`` is a theorem of intuitionistic propositional logic."""
    try:
        return _sequent(frozenset(), [], f)
    finally:
        # each call starts from an empty memo and keeps nothing; an entry
        # depends only on its sequent, so threads may share the memo
        _prove.cache_clear()


def _sequent(gamma: frozenset, new: list, goal: fm.Formula) -> bool:
    """Whether ``gamma, new => goal``, where ``gamma`` is saturated: no
    rule that neither branches nor loses provability fires on it.  Here
    ``->R`` and those left rules (T, ``&``, and ``->`` with an F, T, ``&``,
    ``|`` or held atom head) are applied in one loop over one set, which
    is frozen once; the memoised ``_prove`` gets the rules that branch."""
    # no formula class has subclasses, so each node's kind is its type
    while type(goal) is fm.Imp or type(goal) is fm.Not:
        new.append(goal.left)
        goal = goal.right
    if new:
        out = set(gamma)
        while new:
            atoms = set()
            while new:
                f = new.pop()
                kind = type(f)
                if kind is fm.And:
                    new += f.left, f.right
                elif kind is fm.Imp or kind is fm.Not:
                    head, tail = f.left, f.right
                    kind = type(head)
                    if kind is fm.And:
                        new.append(fm.Imp(head.left, fm.Imp(head.right, tail)))
                    elif kind is fm.Or:
                        new += fm.Imp(head.left, tail), fm.Imp(head.right, tail)
                    elif kind is fm.Top or kind is fm.Atom and head in out:
                        new.append(tail)
                    elif kind is not fm.Bot:
                        out.add(f)
                elif kind is not fm.Top:
                    if kind is fm.Atom and f not in out:
                        atoms.add(f)
                    out.add(f)
            # an implication or ~ held before its atom head came fires once a pass
            if atoms:
                fired = [f for f in out if (type(f) is fm.Imp or type(f) is fm.Not)
                         and f.left in atoms]
                out.difference_update(fired)
                new = [f.right for f in fired]
        gamma = frozenset(out)
    if fm.BOT in gamma:
        return True
    # an & goal's conjuncts are taken left to right from a stack, so a long
    # chain of them takes no recursion
    goals = [goal]
    while goals:
        goal = goals.pop()
        kind = type(goal)
        if kind is fm.And:
            goals += goal.right, goal.left
        elif kind is fm.Imp or kind is fm.Not:
            if not _sequent(gamma, [], goal):
                return False
        elif kind is not fm.Top and goal not in gamma and not _prove(gamma, goal):
            return False
    return True


@functools.cache
def _prove(gamma: frozenset, goal: fm.Formula) -> bool:
    """A saturated sequent whose goal is an atom, F or a disjunction that
    ``gamma`` lacks: only the rules that branch are left."""
    # | on the left is invertible: the first disjunction decides
    for f in gamma:
        if type(f) is fm.Or:
            rest = gamma - {f}
            return _sequent(rest, [f.left], goal) and _sequent(rest, [f.right], goal)
    # non-invertible choices
    if type(goal) is fm.Or:
        if _sequent(gamma, [], goal.left) or _sequent(gamma, [], goal.right):
            return True
    # (A -> B) -> C, which takes ~(A -> B), ~A -> C and ~~A too
    for f in gamma:
        kind = type(f)
        if kind is fm.Imp or kind is fm.Not:
            inner, tail = f.left, f.right
            kind = type(inner)
            if kind is fm.Imp or kind is fm.Not:
                rest = gamma - {f}
                if (_sequent(rest, [fm.Imp(inner.right, tail)], inner)
                        and _sequent(rest, [tail], goal)):
                    return True
    return False


def entails(logic: Dialect, f1: fm.Formula, f2: fm.Formula) -> bool:
    """Whether ``f1 -> f2`` is a tautology of the given logic."""
    implication = fm.Imp(f1, f2)
    if logic is Dialect.CLASSICAL:
        return taut_classical(implication)
    return taut_int(implication)
