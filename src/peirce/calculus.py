"""Illative transformation rules, rule application, and script checking.

The classical system works on the classical dialect with erasure,
insertion, iteration, deiteration, and the double cut.  The intuitionistic
system keeps erasure, insertion, iteration and deiteration, replaces the
double cut by the scroll wrap (``S`` and ``[ | S]`` are interchangeable
anywhere), adds loop handling (a loop may be added where the scroll sits
in an even area and removed where it sits in an odd one), and has the
one-way detachment ``[g0 | g1]``  ->  ``(g0 (g1))`` in even areas.

Every rule is stated once, as an entry of one table (``RULES``): its side
conditions (shape, polarity, scope, and the dialect of a graph it draws),
the nodes it adds, its rewrite as an edit of one area, and how it is
undone.  apply_rule evaluates the conditions and raises the first failing
one's reason.  ``moves`` is the one listing of a graph's moves: each rule
with the operands that the same conditions accept, no instance built.
enumerate_rule_instances builds their instances, ``edits`` gives their
edits, ``predecessor_edits`` undoes each rule as its entry says, as edits
too, and ``unlisted_edits`` gives the edits that no listed predecessor
undoes.  Every graph a rule gives or undoes is built from its edit, and
``operands`` reads an instance's operands back from its graph.

Iteration scope is a test on paths.  An area is in scope of an item when
it lies in the item's area or, if that is a scroll's outer area, in one of
the same scroll's loops (entering a loop crosses the outer curve first),
and not inside the item itself.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterator, Optional, Union

from .errors import IllegalRuleError, InvalidPathError, Record
from .graphs import (
    BLANK,
    EVEN,
    ODD,
    OUTER,
    Dialect,
    Graph,
    Path,
    Scroll,
    edited,
    equals,
    node_count,
    resolve_area,
    resolve_item,
    walk,
    well_formed,
)


# a logic names both its rules and the signs they act on: the classical
# rules act on cuts, the intuitionistic ones on scrolls with loops
System = Dialect


class Erase(Record):
    item: Path


class Insert(Record):
    area: Path
    graph: Graph


class Iterate(Record):
    source: Path
    target: Path


class Deiterate(Record):
    item: Path
    witness: Path


class DoubleCutIntro(Record):
    area: Path
    indices: frozenset[int] = frozenset()


class DoubleCutElim(Record):
    item: Path


class ScrollWrap(Record):
    area: Path
    indices: frozenset[int] = frozenset()


class ScrollUnwrap(Record):
    item: Path


class LoopAdd(Record):
    item: Path
    graph: Graph


class LoopRemove(Record):
    item: Path
    loop: int


class Detach(Record):
    item: Path


RuleInstance = Union[
    Erase, Insert, Iterate, Deiterate, DoubleCutIntro, DoubleCutElim,
    ScrollWrap, ScrollUnwrap, LoopAdd, LoopRemove, Detach,
]


def in_scope(source_item: Path, target_area: Path) -> bool:
    """Whether iteration from the source item may land in the target area:
    the target lies in the source's area, or in a loop of the scroll whose
    outer area that is, and not inside the source item itself."""
    area = source_item.parts[:-1]
    if area[-1:] == (OUTER,):
        area = area[:-1]
    return target_area.parts[:len(area)] == area and not target_area.starts_with(source_item)


# ---------------------------------------------------------------------------
# The rule table
# ---------------------------------------------------------------------------
#
# A rule's operands are its instance's fields in order, each path followed
# by the node it addresses: an Iterate's are (source, item, target, area).
# Conditions take the operands and give the checker's reason, or None when
# they hold.  Edits take the operands and give the rewrite as an edit of
# one area: its path's parts and ``contents``, a function from that area to
# its new items (graphs.edited builds the graph, graphs.edited_key gives
# its key without building it).


class Walk:
    """A graph's candidate operands: its items, areas and scrolls in walk
    order, and (as 1-tuples) the vocabulary graphs in the system's dialect
    (``drawn``).  The one size bound, ``limit`` (``max_growth``; None:
    none), is decided here, and ``fitting`` lists the drawn graphs within
    it."""

    def __init__(self, system: System, g: Graph, vocabulary: tuple[Graph, ...], max_growth=None):
        self.areas, self.items = walk(g)
        self.scrolls = [site for site in self.items if isinstance(site[1], Scroll)]
        self.drawn = [(v,) for v in vocabulary if not well_formed(v, system)]
        self.limit = float("inf") if max_growth is None else max_growth
        self.fitting = [site for site in self.drawn if node_count(site[0]) <= self.limit]


class Rule(Record):
    """One rule of the calculus.  Its first operand comes from the Walk list
    ``site``, and ``more`` gives the candidates for the rest at one site
    (None: the site is all).  Side conditions, checked in this order: the
    shape and scope ``condition``, the ``polarity`` (EVEN or ODD) of the
    first operand's area, and, where ``drawn`` names a graph operand, its
    dialect.  ``edit``: the rewrite, as the edit the operands give.
    ``growth``: the nodes the rewrite adds, a number (None: none, or an
    operand's size, and ``more`` offers only operands within the bound).

    How the rule is undone: by ``undo(walk, path, node)`` at each ``at``
    site of the rule's polarity, edits adding at most ``walk.limit``; or,
    with no ``undo``, the rule is one half of an inverse pair, and its own
    moves that ``keep`` passes (None: all) undo its partner."""

    name: str
    site: str
    edit: Callable[..., tuple]
    more: Optional[Callable[..., list]] = None
    growth: Optional[int] = None
    condition: Optional[Callable[..., Optional[str]]] = None
    polarity: Optional[str] = None
    drawn: Optional[str] = None
    at: str = ""
    undo: Optional[Callable[..., Iterator[tuple]]] = None
    keep: Optional[Callable[..., bool]] = None

    def fits(self, path: Path) -> bool:
        """Whether the area of ``path`` has the rule's polarity."""
        return self.polarity is None or path.is_odd == (self.polarity == ODD)


def accepted(rule: Rule, walk: Walk) -> Iterator[tuple]:
    """The candidate operands at the walked graph that satisfy the rule's
    side conditions and add at most ``walk.limit`` nodes, in walk order."""
    # the dialect and size of drawn graphs need no test: the Walk lists
    # only those that pass
    if rule.growth is not None and rule.growth > walk.limit:
        return
    more, condition, polarity = rule.more, rule.condition, rule.polarity
    odd = polarity == ODD
    for site in getattr(walk, rule.site):
        if polarity is None or site[0].is_odd == odd:
            for rest in more(walk, *site) if more else ((),):
                ops = site + rest
                if not (condition and condition(*ops)):
                    yield ops


def _target_scope(source, item, target, area) -> Optional[str]:
    return None if in_scope(source, target) else "target area not within the source item's scope"


def _witness(path, item, witness_path, witness) -> Optional[str]:
    # the enumeration offers equal items only, in walk order; the checker
    # needs the key test, and unequal items lie at different paths
    if witness.key != item.key:
        return "bad witness: items are not equal"
    if witness_path == path:
        return "witness must differ from the removed item"
    if not in_scope(witness_path, path.parent_area()):
        return "bad witness: removed item not within the witness's scope"
    return None


def _chosen(path, area, indices) -> Optional[str]:
    in_range = not indices or 0 <= min(indices) and max(indices) < len(area.items)
    return None if in_range else "item index out of range"


def _is_cut(node) -> bool:
    return isinstance(node, Scroll) and node.is_cut


def _donut(path, item) -> Optional[str]:
    if not _is_cut(item):
        return "not a cut"
    if len(item.outer.items) != 1 or not _is_cut(item.outer.items[0]):
        return "donut not empty"
    return None


def _unwrappable(path, item) -> Optional[str]:
    if isinstance(item, Scroll) and len(item.loops) == 1 and not item.outer.items:
        return None
    return "unwrap needs a one-loop scroll with empty outer"


def _scroll(path, item, *_) -> Optional[str]:
    return None if isinstance(item, Scroll) else "loops attach to scrolls"


def _loop(path, item, k) -> Optional[str]:
    return _scroll(path, item) or (None if 0 <= k < len(item.loops)
                                   else "loop index out of range")


def _one_loop(path, item) -> Optional[str]:
    if isinstance(item, Scroll) and len(item.loops) == 1:
        return None
    return "detachment needs a one-loop scroll"


def _choices(walk, path, area) -> tuple:
    return _index_choices(len(area.items))


@cache
def _index_choices(n: int) -> tuple:
    # one set per index, shared by every area of that size: the search
    # keeps the sets of the moves it records
    return ((frozenset(),),) + tuple((frozenset((i,)),) for i in range(n))


def _splice(path: Path, replacement: tuple) -> tuple:
    """The edit that puts ``replacement`` in place of the item at ``path``."""
    i = path.parts[-1]
    return path.parts[:-1], lambda area: area.items[:i] + replacement + area.items[i + 1:]


def _wrapping(wrapper: Callable[[Graph], Scroll]) -> Callable[..., tuple]:
    """The edit that puts an area's chosen items in ``wrapper(chosen)``."""
    def edit(path, area, indices) -> tuple:
        chosen = Graph(tuple(area.items[i] for i in sorted(indices))) if indices else BLANK
        rest = [item for i, item in enumerate(area.items) if i not in indices]
        rest.insert(min(indices, default=len(rest)), wrapper(chosen))
        rest = tuple(rest)
        return path.parts, lambda _: rest
    return edit


def _splicing(replacement: Callable[..., tuple]) -> Callable[..., tuple]:
    """The edit that puts ``replacement(item, *rest)`` in the item's place."""
    return lambda path, *ops: _splice(path, replacement(*ops))


_removal = _splicing(lambda *_: ())


def _unerase(walk, path, area) -> Iterator[tuple]:
    return (RULES[Insert].edit(path, area, v) for (v,) in walk.fitting if len(v.items) == 1)


def _uninsert(walk, path, area) -> Iterator[tuple]:
    for (v,) in walk.drawn:
        rest = list(area.items)
        for item in v.items:
            match = next((i for i, other in enumerate(rest) if other.key == item.key), None)
            if match is None:
                break
            del rest[match]
        else:
            yield path.parts, lambda _, rest=tuple(rest): rest


def _unadd_loop(walk, path, item) -> Iterator[tuple]:
    return (RULES[LoopRemove].edit(path, item, k) for k, loop in enumerate(item.loops)
            if any(loop.key == v.key for (v,) in walk.drawn))


def _unremove_loop(walk, path, item) -> Iterator[tuple]:
    return (RULES[LoopAdd].edit(path, item, v) for (v,) in walk.fitting)


def _undetach(walk, path, item) -> Iterator[tuple]:
    items = item.outer.items if item.is_cut else ()
    return (_splice(path, (Scroll(Graph(items[:i] + items[i + 1:]), (inner.outer,)),))
            for i, inner in enumerate(items) if _is_cut(inner))


RULES: dict[type, Rule] = {
    Erase: Rule("erasure", "items", _removal, polarity=EVEN, at="areas", undo=_unerase),
    Insert: Rule("insertion", "areas",
                 lambda path, area, graph: (path.parts, lambda _: area.items + graph.items),
                 more=lambda walk, *site: walk.fitting, polarity=ODD, drawn="inserted",
                 at="areas", undo=_uninsert),
    Iterate: Rule("iteration", "items",
                  lambda source, item, target, area:
                      (target.parts, lambda _: area.items + (item,)),
                  condition=_target_scope,
                  more=lambda walk, _, item: walk.areas if node_count(item) <= walk.limit else ()),
    Deiterate: Rule("deiteration", "items", _removal, condition=_witness,
                    more=lambda walk, _, item: [site for site in walk.items
                                                if site[1].key == item.key]),
    DoubleCutIntro: Rule("double-cut introduction", "areas",
                         _wrapping(lambda chosen: Scroll(Graph((Scroll(chosen),)))),
                         more=_choices, growth=2, condition=_chosen),
    DoubleCutElim: Rule("double-cut elimination", "scrolls",
                        _splicing(lambda item: item.outer.items[0].outer.items),
                        condition=_donut,
                        keep=lambda path, item: len(item.outer.items[0].outer.items) <= 1),
    ScrollWrap: Rule("wrap", "areas", _wrapping(lambda chosen: Scroll(BLANK, (chosen,))),
                     more=_choices, growth=1, condition=_chosen),
    ScrollUnwrap: Rule("unwrap", "scrolls", _splicing(lambda item: item.loops[0].items),
                       condition=_unwrappable,
                       keep=lambda path, item: len(item.loops[0].items) <= 1),
    LoopAdd: Rule("loop addition", "scrolls",
                  _splicing(lambda item, graph: (Scroll(item.outer, item.loops + (graph,)),)),
                  more=lambda walk, *site: walk.fitting, condition=_scroll, polarity=EVEN,
                  drawn="loop", at="scrolls", undo=_unadd_loop),
    LoopRemove: Rule("loop removal", "scrolls",
                     _splicing(lambda item, k: (Scroll(item.outer,
                                                       item.loops[:k] + item.loops[k + 1:]),)),
                     more=lambda walk, path, item: [(k,) for k in range(len(item.loops))],
                     condition=_loop, polarity=ODD, at="scrolls", undo=_unremove_loop),
    Detach: Rule("detachment", "scrolls",
                 _splicing(lambda item: (Scroll(Graph(item.outer.items
                                                      + (Scroll(item.loops[0]),))),)),
                 growth=1, condition=_one_loop, polarity=EVEN, at="scrolls", undo=_undetach),
}

SYSTEM_RULES = {
    System.CLASSICAL: (Erase, Insert, Iterate, Deiterate, DoubleCutIntro, DoubleCutElim),
    System.INTUITIONISTIC: (Erase, Insert, Iterate, Deiterate, ScrollWrap, ScrollUnwrap,
                            LoopAdd, LoopRemove, Detach),
}


def operands(g: Graph, rule: RuleInstance) -> tuple:
    """The rule's operands in ``g``: its fields, each path followed by the
    node it addresses."""
    ops = []
    try:
        for name, value in zip(rule._fields, rule._values()):
            ops.append(value)
            if name in ("area", "target"):
                ops.append(resolve_area(g, value))
            elif isinstance(value, Path):
                ops.append(resolve_item(g, value))
    except InvalidPathError as exc:
        raise IllegalRuleError(f"invalid path: {exc}") from exc
    return tuple(ops)


def apply_rule(system: System, g: Graph, rule: RuleInstance) -> Graph:
    """The rewritten graph, or IllegalRuleError with the reason."""
    if type(rule) not in SYSTEM_RULES[system]:
        raise IllegalRuleError(f"{type(rule).__name__} is not a rule of the {system.value} system")
    ops = operands(g, rule)
    entry = RULES[type(rule)]
    reason = entry.condition and entry.condition(*ops)
    if not reason and not entry.fits(ops[0]):
        reason = f"wrong polarity: {entry.name} needs an {entry.polarity} area"
    bad = not reason and entry.drawn and well_formed(ops[-1], system)
    if bad:
        reason = f"{entry.drawn} graph not in dialect: {bad[0].reason}"
    if reason:
        raise IllegalRuleError(reason)
    result = edited(g, *entry.edit(*ops))
    bad = well_formed(result, system)
    if bad:
        raise IllegalRuleError(f"result not well-formed: {bad[0].reason} at {bad[0].path}")
    return result


def moves(system: System, g: Graph, vocabulary: tuple[Graph, ...] = (),
          max_growth: Optional[int] = None) -> Iterator[tuple[type, Rule, tuple]]:
    """Every legal move at ``g``, as its rule class, table entry and
    operands, with no instance built; in a fixed deterministic order: rule
    by rule in the system's order, each in walk order.

    Insertion and loop contents are drawn from ``vocabulary``; graphs
    outside the system's dialect are dropped.  Wrap and double-cut item
    choices are limited to the empty set and singletons; arbitrary subsets
    remain available through apply_rule.

    ``max_growth`` drops the moves that would add more nodes than it; the
    rest keep their order.  Rules that add no nodes are never dropped.
    """
    walk = Walk(system, g, vocabulary, max_growth)
    for kind in SYSTEM_RULES[system]:
        rule = RULES[kind]
        for ops in accepted(rule, walk):
            yield kind, rule, ops


def enumerate_rule_instances(system: System, g: Graph,
                             vocabulary: tuple[Graph, ...] = (),
                             max_growth: Optional[int] = None) -> list[RuleInstance]:
    """The rule instances of the moves, in their order."""
    return [kind(*ops[::2]) for kind, _, ops in moves(system, g, vocabulary, max_growth)]


def edits(system: System, g: Graph, vocabulary: tuple[Graph, ...] = (),
          max_growth: Optional[int] = None) -> Iterator[tuple]:
    """The edits of the moves, in their order."""
    return (rule.edit(*ops) for _, rule, ops in moves(system, g, vocabulary, max_growth))


def predecessor_edits(system: System, g: Graph, vocabulary: tuple[Graph, ...] = (),
                      max_growth: Optional[int] = None) -> Iterator[tuple]:
    """The edits of ``g`` into some of its predecessors: graphs with a move
    (same vocabulary) rewriting to ``g`` up to multiset equality, less
    those adding over ``max_growth`` nodes.  Not every such graph: the
    moves undoing unwrap and double-cut elimination wrap at most one item, so
    ``[ | p q]`` and ``((p q))`` are not predecessors of ``p q``.
    First the moves ``g`` admits of the rules that are one half of an
    inverse pair (iteration and deiteration, wrap and unwrap, the
    double-cut rules: the rules with no ``undo``), those that ``keep``
    passes, in the order of ``moves``; then the site undos, area by area
    and scroll by scroll, at the sites of their rules' polarity."""
    walk = Walk(system, g, vocabulary, max_growth)
    rules = [RULES[kind] for kind in SYSTEM_RULES[system]]
    for rule in rules:
        if rule.undo is None:
            yield from (rule.edit(*ops) for ops in accepted(rule, walk)
                        if rule.keep is None or rule.keep(*ops))
    for at in ("areas", "scrolls"):
        for path, node in getattr(walk, at):
            for rule in rules:
                if rule.at == at and rule.fits(path):
                    yield from rule.undo(walk, path, node)


def unlisted_edits(system: System, g: Graph, vocabulary: tuple[Graph, ...] = ()) -> Iterator[tuple]:
    """The edits of the moves adding no node that predecessor_edits does not
    undo: ``g`` is not a listed predecessor of their result, under any
    bound that ``g`` fits.  In the order of ``moves``, they are the unwraps
    and double-cut removals that their rule's ``keep`` rejects, and the
    erasures and loop removals of a graph that is not a drawn vocabulary
    graph.  Iteration undoes every deiteration."""
    walk = Walk(system, g, vocabulary, 0)
    drawn = {v.key for (v,) in walk.drawn}
    unlisted = {
        Erase: lambda path, item: Graph((item,)).key not in drawn,
        DoubleCutElim: lambda *ops: not RULES[DoubleCutElim].keep(*ops),
        ScrollUnwrap: lambda *ops: not RULES[ScrollUnwrap].keep(*ops),
        LoopRemove: lambda path, item, k: item.loops[k].key not in drawn,
    }
    for kind in SYSTEM_RULES[system]:
        if kind in unlisted:
            rule, test = RULES[kind], unlisted[kind]
            yield from (rule.edit(*ops) for ops in accepted(rule, walk) if test(*ops))


# ---------------------------------------------------------------------------
# Proof scripts
# ---------------------------------------------------------------------------


class ProofScript(Record):
    system: System
    start: Graph
    steps: tuple[tuple[RuleInstance, Optional[Graph]], ...]


class StepResult(Record):
    index: int
    rule: RuleInstance
    graph: Optional[Graph]
    error: Optional[str]


class Report(Record):
    ok: bool
    results: list[StepResult]
    failed_step: Optional[int]
    reason: Optional[str]
    final: Optional[Graph]


def check_script(script: ProofScript) -> Report:
    """Apply each step, failing fast with the step index and reason.
    ``expect`` graphs are compared with multiset equality."""
    g = script.start
    results: list[StepResult] = []
    for index, (rule, expect) in enumerate(script.steps):
        try:
            g = apply_rule(script.system, g, rule)
        except IllegalRuleError as exc:
            results.append(StepResult(index, rule, None, exc.reason))
            return Report(False, results, index, f"illegal rule: {exc.reason}", None)
        if expect is not None and not equals(g, expect):
            results.append(StepResult(index, rule, g, "expectation mismatch"))
            return Report(False, results, index, "expectation mismatch", None)
        results.append(StepResult(index, rule, g, None))
    return Report(True, results, None, None, g)
