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
the nodes it adds, its rewrite as an edit of one area, and its dual.
apply_rule evaluates the conditions and raises the first failing one's
reason, enumerate_rule_instances lists the candidate operands that the
same conditions accept (``edits`` gives their edits, for a search that
keys a successor before building it), and ``predecessor_edits`` undoes
each rule by its dual, as edits too.  Every graph a rule gives or undoes
is built from its edit.

Iteration scope is a test on paths.  An area is in scope of an item when
it lies in the item's area or, if that is a scroll's outer area, in one of
the same scroll's loops (entering a loop crosses the outer curve first),
and not inside the item itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional, Union

from .errors import IllegalRuleError, InvalidPathError
from .graphs import (
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
    walk_areas,
    walk_items,
    well_formed,
)


class System(Enum):
    CLASSICAL = "classical"
    INTUITIONISTIC = "intuitionistic"

    @property
    def dialect(self) -> Dialect:
        if self is System.CLASSICAL:
            return Dialect.CLASSICAL
        return Dialect.INTUITIONISTIC


@dataclass(frozen=True)
class Erase:
    item: Path


@dataclass(frozen=True)
class Insert:
    area: Path
    graph: Graph


@dataclass(frozen=True)
class Iterate:
    source: Path
    target: Path


@dataclass(frozen=True)
class Deiterate:
    item: Path
    witness: Path


@dataclass(frozen=True)
class DoubleCutIntro:
    area: Path
    indices: frozenset[int] = frozenset()


@dataclass(frozen=True)
class DoubleCutElim:
    item: Path


@dataclass(frozen=True)
class ScrollWrap:
    area: Path
    indices: frozenset[int] = frozenset()


@dataclass(frozen=True)
class ScrollUnwrap:
    item: Path


@dataclass(frozen=True)
class LoopAdd:
    item: Path
    graph: Graph


@dataclass(frozen=True)
class LoopRemove:
    item: Path
    loop: int


@dataclass(frozen=True)
class Detach:
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
    order, its items grouped by key (each group in walk order), and (as
    1-tuples) the vocabulary graphs in the system's dialect."""

    def __init__(self, system: System, g: Graph, vocabulary: tuple[Graph, ...]):
        self.items = list(walk_items(g))
        self.areas = list(walk_areas(g))
        self.scrolls = [site for site in self.items if isinstance(site[1], Scroll)]
        self.drawn = [(v,) for v in vocabulary if not v.violations[system.dialect]]
        self.by_key: dict[str, list] = {}
        for site in self.items:
            self.by_key.setdefault(site[1].key, []).append(site)


@dataclass(frozen=True)
class Dual:
    """How a rule is undone: by the instances of the table rule ``rule``
    that ``keep`` passes, or by ``undo(walk, path, node, limit)`` at each
    ``at`` site of the rule's polarity: edits adding at most ``limit``."""

    rule: Optional[type] = None
    keep: Optional[Callable[..., bool]] = None
    at: str = ""
    undo: Optional[Callable[..., Iterator[tuple]]] = None


@dataclass(frozen=True)
class Rule:
    """One rule of the calculus.  Its first operand comes from the Walk list
    ``site``, and ``more`` gives the candidates for the rest at one site
    (None: the site is all).  Side conditions, checked in this order: the
    shape and scope ``condition``, the ``polarity`` (EVEN or ODD) of the
    first operand's area, and, where ``drawn`` names a graph operand, its
    dialect.  ``edit``: the rewrite, as the edit the operands give.
    ``growth``: the nodes the rewrite adds, a number or a function of the
    operands (None: none, and no bound drops it)."""

    name: str
    site: str
    edit: Callable[..., tuple]
    dual: Dual
    more: Optional[Callable[..., list]] = None
    growth: Union[int, Callable[..., int], None] = None
    condition: Optional[Callable[..., Optional[str]]] = None
    polarity: Optional[str] = None
    drawn: Optional[str] = None

    def fits(self, path: Path) -> bool:
        """Whether the area of ``path`` has the rule's polarity."""
        return self.polarity is None or path.is_odd == (self.polarity == ODD)


def accepted(rule: Rule, walk: Walk, limit: float) -> Iterator[tuple]:
    """The candidate operands at the walked graph that satisfy the rule's
    side conditions and add at most ``limit`` nodes, in walk order."""
    # the dialect of drawn graphs needs no test: the Walk holds no others
    more, growth, condition = rule.more, rule.growth, rule.condition
    if isinstance(growth, int):
        if growth > limit:
            return
        growth = None
    for site in getattr(walk, rule.site):
        if rule.fits(site[0]):
            for rest in more(walk, *site) if more else ((),):
                ops = site + rest
                if ((growth is None or growth(*ops) <= limit)
                        and not (condition and condition(*ops))):
                    yield ops


def _target_scope(source, item, target, area) -> Optional[str]:
    return None if in_scope(source, target) else "target area not within the source item's scope"


def _witness(path, item, witness_path, witness) -> Optional[str]:
    # the enumeration offers equal items only (Walk.by_key); the checker
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


def _choices(walk, path, area) -> list:
    return [(frozenset(),)] + [(frozenset((i,)),) for i in range(len(area.items))]


def _splice(path: Path, replacement: tuple) -> tuple:
    """The edit that puts ``replacement`` in place of the item at ``path``."""
    i = path.parts[-1]
    return path.parts[:-1], lambda area: area.items[:i] + replacement + area.items[i + 1:]


def _wrapping(wrapper: Callable[[Graph], Scroll]) -> Callable[..., tuple]:
    """The edit that puts an area's chosen items in ``wrapper(chosen)``."""
    def edit(path, area, indices) -> tuple:
        chosen = Graph(tuple(area.items[i] for i in sorted(indices)))
        rest = [item for i, item in enumerate(area.items) if i not in indices]
        rest.insert(min(indices, default=len(rest)), wrapper(chosen))
        rest = tuple(rest)
        return path.parts, lambda _: rest
    return edit


def _splicing(replacement: Callable[..., tuple]) -> Callable[..., tuple]:
    """The edit that puts ``replacement(item, *rest)`` in the item's place."""
    return lambda path, *ops: _splice(path, replacement(*ops))


_removal = _splicing(lambda *_: ())


def _unerase(walk, path, area, limit) -> Iterator[tuple]:
    return (RULES[Insert].edit(path, area, v) for (v,) in walk.drawn
            if len(v.items) == 1 and node_count(v) <= limit)


def _uninsert(walk, path, area, limit) -> Iterator[tuple]:
    for (v,) in walk.drawn:
        rest = list(area.items)
        for item in v.items:
            match = next((i for i, other in enumerate(rest) if other.key == item.key), None)
            if match is None:
                break
            del rest[match]
        else:
            yield path.parts, lambda _, rest=tuple(rest): rest


def _unadd_loop(walk, path, item, limit) -> Iterator[tuple]:
    keys = {v.key for (v,) in walk.drawn}
    return (RULES[LoopRemove].edit(path, item, k)
            for k, loop in enumerate(item.loops) if loop.key in keys)


def _unremove_loop(walk, path, item, limit) -> Iterator[tuple]:
    return (RULES[LoopAdd].edit(path, item, v) for (v,) in walk.drawn if node_count(v) <= limit)


def _undetach(walk, path, item, limit) -> Iterator[tuple]:
    items = item.outer.items if item.is_cut else ()
    return (_splice(path, (Scroll(Graph(items[:i] + items[i + 1:]), (inner.outer,)),))
            for i, inner in enumerate(items) if _is_cut(inner))


RULES: dict[type, Rule] = {
    Erase: Rule("erasure", "items", _removal, Dual(at="areas", undo=_unerase), polarity=EVEN),
    Insert: Rule("insertion", "areas",
                 lambda path, area, graph: (path.parts, lambda _: area.items + graph.items),
                 Dual(at="areas", undo=_uninsert), more=lambda walk, *site: walk.drawn,
                 growth=lambda path, area, graph: node_count(graph), polarity=ODD,
                 drawn="inserted"),
    Iterate: Rule("iteration", "items",
                  lambda source, item, target, area:
                      (target.parts, lambda _: area.items + (item,)),
                  Dual(Deiterate), more=lambda walk, *site: walk.areas,
                  growth=lambda source, item, target, area: node_count(item),
                  condition=_target_scope),
    Deiterate: Rule("deiteration", "items", _removal, Dual(Iterate),
                    more=lambda walk, path, item: walk.by_key[item.key], condition=_witness),
    DoubleCutIntro: Rule("double-cut introduction", "areas",
                         _wrapping(lambda chosen: Scroll(Graph((Scroll(chosen),)))),
                         Dual(DoubleCutElim,
                              lambda path, item: len(item.outer.items[0].outer.items) <= 1),
                         more=_choices, growth=2, condition=_chosen),
    DoubleCutElim: Rule("double-cut elimination", "scrolls",
                        _splicing(lambda item: item.outer.items[0].outer.items),
                        Dual(DoubleCutIntro), condition=_donut),
    ScrollWrap: Rule("wrap", "areas", _wrapping(lambda chosen: Scroll(Graph(), (chosen,))),
                     Dual(ScrollUnwrap, lambda path, item: len(item.loops[0].items) <= 1),
                     more=_choices, growth=1, condition=_chosen),
    ScrollUnwrap: Rule("unwrap", "scrolls", _splicing(lambda item: item.loops[0].items),
                       Dual(ScrollWrap), condition=_unwrappable),
    LoopAdd: Rule("loop addition", "scrolls",
                  _splicing(lambda item, graph: (Scroll(item.outer, item.loops + (graph,)),)),
                  Dual(at="scrolls", undo=_unadd_loop), more=lambda walk, *site: walk.drawn,
                  growth=lambda path, item, graph: node_count(graph), condition=_scroll,
                  polarity=EVEN, drawn="loop"),
    LoopRemove: Rule("loop removal", "scrolls",
                     _splicing(lambda item, k: (Scroll(item.outer,
                                                       item.loops[:k] + item.loops[k + 1:]),)),
                     Dual(at="scrolls", undo=_unremove_loop),
                     more=lambda walk, path, item: [(k,) for k in range(len(item.loops))],
                     condition=_loop, polarity=ODD),
    Detach: Rule("detachment", "scrolls",
                 _splicing(lambda item: (Scroll(Graph(item.outer.items
                                                      + (Scroll(item.loops[0]),))),)),
                 Dual(at="scrolls", undo=_undetach),
                 growth=1, condition=_one_loop, polarity=EVEN),
}

SYSTEM_RULES = {
    System.CLASSICAL: (Erase, Insert, Iterate, Deiterate, DoubleCutIntro, DoubleCutElim),
    System.INTUITIONISTIC: (Erase, Insert, Iterate, Deiterate, ScrollWrap, ScrollUnwrap,
                            LoopAdd, LoopRemove, Detach),
}


def _operands(g: Graph, rule: RuleInstance) -> tuple:
    """The rule's operands in ``g``."""
    ops = []
    try:
        for name, value in vars(rule).items():
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
    ops = _operands(g, rule)
    entry = RULES[type(rule)]
    reason = entry.condition and entry.condition(*ops)
    if not reason and not entry.fits(ops[0]):
        reason = f"wrong polarity: {entry.name} needs an {entry.polarity} area"
    bad = not reason and entry.drawn and ops[-1].violations[system.dialect]
    if bad:
        reason = f"{entry.drawn} graph not in dialect: {bad[0].reason}"
    if reason:
        raise IllegalRuleError(reason)
    result = edited(g, *entry.edit(*ops))
    bad = well_formed(result, system.dialect)
    if bad:
        raise IllegalRuleError(f"result not well-formed: {bad[0].reason} at {bad[0].path}")
    return result


def rule_edit(g: Graph, rule: RuleInstance) -> tuple:
    """The edit of ``rule`` at ``g``, its side conditions unchecked: for
    instances that enumerate_rule_instances listed."""
    return RULES[type(rule)].edit(*_operands(g, rule))


def enumerate_rule_instances(system: System, g: Graph,
                             vocabulary: tuple[Graph, ...] = (),
                             max_growth: Optional[int] = None) -> list[RuleInstance]:
    """Every legal rule instance, in a fixed deterministic order: rule by
    rule in the system's order, each in walk order.

    Insertion and loop contents are drawn from ``vocabulary``; graphs
    outside the system's dialect are dropped.  Wrap and double-cut item
    choices are limited to the empty set and singletons; arbitrary subsets
    remain available through apply_rule.

    ``max_growth`` drops, before they are built, the instances whose rule's
    growth (the nodes it adds) exceeds it; the rest keep their order.
    Rules that add no nodes are never dropped.
    """
    walk = Walk(system, g, vocabulary)
    limit = float("inf") if max_growth is None else max_growth
    return [kind(*ops[::2]) for kind in SYSTEM_RULES[system]
            for ops in accepted(RULES[kind], walk, limit)]


def edits(system: System, g: Graph, vocabulary: tuple[Graph, ...] = (),
          max_growth: Optional[int] = None) -> Iterator[tuple]:
    """The edits of the instances enumerate_rule_instances lists, in its
    order, with no instance built."""
    walk = Walk(system, g, vocabulary)
    limit = float("inf") if max_growth is None else max_growth
    for kind in SYSTEM_RULES[system]:
        rule = RULES[kind]
        for ops in accepted(rule, walk, limit):
            yield rule.edit(*ops)


def predecessor_edits(system: System, g: Graph, vocabulary: tuple[Graph, ...] = (),
                      max_growth: Optional[int] = None) -> Iterator[tuple]:
    """The edits of ``g`` into its predecessors: graphs with an instance that
    enumerate_rule_instances lists (same vocabulary) rewriting to ``g`` up
    to multiset equality, less those adding over ``max_growth`` nodes.
    First the instances ``g`` admits of the rules undoing another (iteration
    and deiteration, wrap and unwrap, the double-cut rules), in enumeration
    order; then the other duals, area by area and scroll by scroll, at the
    sites of their rules' polarity."""
    walk = Walk(system, g, vocabulary)
    limit = float("inf") if max_growth is None else max_growth
    rules = [RULES[kind] for kind in SYSTEM_RULES[system]]
    undoing = {rule.dual.rule: rule.dual for rule in rules if rule.dual.rule}
    for kind, rule in zip(SYSTEM_RULES[system], rules):
        dual = undoing.get(kind)
        if dual:
            yield from (rule.edit(*ops) for ops in accepted(rule, walk, limit)
                        if dual.keep is None or dual.keep(*ops))
    for at in ("areas", "scrolls"):
        for path, node in getattr(walk, at):
            for rule in rules:
                if rule.dual.at == at and rule.fits(path):
                    yield from rule.dual.undo(walk, path, node, limit)


# ---------------------------------------------------------------------------
# Proof scripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProofScript:
    system: System
    start: Graph
    steps: tuple[tuple[RuleInstance, Optional[Graph]], ...]


@dataclass
class StepResult:
    index: int
    rule: RuleInstance
    graph: Optional[Graph]
    error: Optional[str]


@dataclass
class Report:
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
