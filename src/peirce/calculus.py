"""Illative transformation rules, rule application, and script checking.

The classical system works on the classical dialect with erasure,
insertion, iteration, deiteration, and the double cut.  The intuitionistic
system keeps erasure, insertion, iteration and deiteration, replaces the
double cut by the scroll wrap (``S`` and ``[ | S]`` are interchangeable
anywhere), adds loop handling (a loop may be added where the scroll sits
in an even area and removed where it sits in an odd one), and has the
one-way detachment ``[g0 | g1]``  ->  ``(g0 (g1))`` in even areas.

Iteration scope follows the curve-nesting order: an area is in scope of
the source's area when its crossing sequence extends the source area's
crossing sequence, which in particular lets a graph be iterated from a
scroll's outer area into that scroll's own loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .errors import IllegalRuleError, InvalidPathError
from .graphs import (
    Dialect,
    Graph,
    Item,
    Path,
    Scroll,
    equals,
    locate_item,
    node_count,
    rebuild,
    resolve_area,
    splice_located,
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

_CLASSICAL_RULES = (Erase, Insert, Iterate, Deiterate, DoubleCutIntro, DoubleCutElim)
_INTUITIONISTIC_RULES = (Erase, Insert, Iterate, Deiterate, ScrollWrap, ScrollUnwrap,
                         LoopAdd, LoopRemove, Detach)


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise IllegalRuleError(reason)


def _item_at(g: Graph, path: Path) -> tuple[Graph, Item]:
    """The area holding the addressed item, and the item."""
    try:
        return locate_item(g, path)
    except InvalidPathError as exc:
        raise IllegalRuleError(f"invalid path: {exc}") from exc


def _area_at(g: Graph, path: Path) -> Graph:
    try:
        return resolve_area(g, path)
    except InvalidPathError as exc:
        raise IllegalRuleError(f"invalid path: {exc}") from exc


def in_scope(source_item: Path, target_area: Path) -> bool:
    """Whether iteration from the source item may land in the target area:
    the target lies at or below the source's area along the curve-nesting
    order and does not lie inside the source item itself."""
    src_area = source_item.parent_area()
    src_cross = src_area.crossings()
    tgt_cross = target_area.crossings()
    if tgt_cross[: len(src_cross)] != src_cross:
        return False
    return not target_area.starts_with(source_item)


def apply_rule(system: System, g: Graph, rule: RuleInstance) -> Graph:
    """The rewritten graph, or IllegalRuleError with the reason."""
    allowed = _CLASSICAL_RULES if system is System.CLASSICAL else _INTUITIONISTIC_RULES
    _require(isinstance(rule, allowed),
             f"{type(rule).__name__} is not a rule of the {system.value} system")
    result = _apply(g, rule)
    if isinstance(rule, (Insert, LoopAdd)):
        bad = well_formed(rule.graph, system.dialect)
        if bad:
            what = "inserted" if isinstance(rule, Insert) else "loop"
            raise IllegalRuleError(f"{what} graph not in dialect: {bad[0].reason}")
    bad = well_formed(result, system.dialect)
    if bad:
        raise IllegalRuleError(f"result not well-formed: {bad[0].reason} at {bad[0].path}")
    return result


def _apply(g: Graph, rule: RuleInstance) -> Graph:
    """The rewrite, resolving each path once.  The graph of an Insert or
    LoopAdd is not checked against the dialect here: apply_rule checks it,
    and the search draws it from a vocabulary already filtered."""
    if isinstance(rule, Erase):
        area, _ = _item_at(g, rule.item)
        _require(not rule.item.is_odd, "wrong polarity: erasure needs an even area")
        return splice_located(g, rule.item, area, ())

    if isinstance(rule, Insert):
        area = _area_at(g, rule.area)
        _require(rule.area.is_odd, "wrong polarity: insertion needs an odd area")
        return rebuild(g, rule.area, Graph(area.items + rule.graph.items))

    if isinstance(rule, Iterate):
        _, item = _item_at(g, rule.source)
        area = _area_at(g, rule.target)
        _require(in_scope(rule.source, rule.target),
                 "target area not within the source item's scope")
        return rebuild(g, rule.target, Graph(area.items + (item,)))

    if isinstance(rule, Deiterate):
        area, item = _item_at(g, rule.item)
        _, witness = _item_at(g, rule.witness)
        _require(rule.witness != rule.item, "witness must differ from the removed item")
        _require(witness.key == item.key, "bad witness: items are not equal")
        _require(in_scope(rule.witness, rule.item.parent_area()),
                 "bad witness: removed item not within the witness's scope")
        return splice_located(g, rule.item, area, ())

    if isinstance(rule, DoubleCutIntro):
        return _wrap(g, rule.area, rule.indices, double=True)

    if isinstance(rule, DoubleCutElim):
        area, item = _item_at(g, rule.item)
        _require(isinstance(item, Scroll) and item.is_cut, "not a cut")
        _require(len(item.outer.items) == 1, "donut not empty")
        inner = item.outer.items[0]
        _require(isinstance(inner, Scroll) and inner.is_cut, "donut not empty")
        return splice_located(g, rule.item, area, inner.outer.items)

    if isinstance(rule, ScrollWrap):
        return _wrap(g, rule.area, rule.indices, double=False)

    if isinstance(rule, ScrollUnwrap):
        area, item = _item_at(g, rule.item)
        _require(isinstance(item, Scroll) and len(item.loops) == 1
                 and not item.outer.items,
                 "unwrap needs a one-loop scroll with empty outer")
        return splice_located(g, rule.item, area, item.loops[0].items)

    if isinstance(rule, LoopAdd):
        area, item = _item_at(g, rule.item)
        _require(isinstance(item, Scroll), "loops attach to scrolls")
        _require(not rule.item.is_odd, "wrong polarity: loop addition needs an even area")
        return splice_located(g, rule.item, area,
                              (Scroll(item.outer, item.loops + (rule.graph,)),))

    if isinstance(rule, LoopRemove):
        area, item = _item_at(g, rule.item)
        _require(isinstance(item, Scroll), "loops attach to scrolls")
        _require(0 <= rule.loop < len(item.loops), "loop index out of range")
        _require(rule.item.is_odd, "wrong polarity: loop removal needs an odd area")
        loops = item.loops[: rule.loop] + item.loops[rule.loop + 1:]
        return splice_located(g, rule.item, area, (Scroll(item.outer, loops),))

    if isinstance(rule, Detach):
        area, item = _item_at(g, rule.item)
        _require(isinstance(item, Scroll) and len(item.loops) == 1,
                 "detachment needs a one-loop scroll")
        _require(not rule.item.is_odd, "wrong polarity: detachment needs an even area")
        inner = Scroll(item.loops[0])
        return splice_located(g, rule.item, area,
                              (Scroll(Graph(item.outer.items + (inner,))),))

    raise IllegalRuleError(f"unknown rule {rule!r}")


def _wrap(g: Graph, area_path: Path, indices: frozenset[int], double: bool) -> Graph:
    area = _area_at(g, area_path)
    _require(all(0 <= i < len(area.items) for i in indices), "item index out of range")
    chosen = tuple(area.items[i] for i in sorted(indices))
    rest = [item for i, item in enumerate(area.items) if i not in indices]
    if double:
        wrapper: Item = Scroll(Graph((Scroll(Graph(chosen)),)))
    else:
        wrapper = Scroll(Graph(), (Graph(chosen),))
    at = min((sum(1 for j in range(len(area.items)) if j < i and j not in indices)
              for i in indices), default=len(rest))
    rest.insert(at, wrapper)
    return rebuild(g, area_path, Graph(tuple(rest)))


# ---------------------------------------------------------------------------
# Instance enumeration
# ---------------------------------------------------------------------------


def enumerate_rule_instances(system: System, g: Graph,
                             vocabulary: tuple[Graph, ...] = (),
                             max_growth: Optional[int] = None) -> list[RuleInstance]:
    """Every legal rule instance, in a fixed deterministic order.

    Insertion and loop contents are drawn from ``vocabulary``.  Wrap and
    double-cut item choices are limited to the empty set and singletons,
    which keeps the enumeration polynomial; arbitrary subsets remain
    available through apply_rule.

    ``max_growth`` drops, before they are built, the instances that would
    add more than that many nodes to ``g``; the rest keep their order.
    Each rule adds a fixed number of nodes: insertion and loop addition
    the size of their graph, iteration the size of the source item, the
    double cut two, wrap and detachment one.  The other rules add none and
    are never dropped.
    """
    areas = list(walk_areas(g))
    items = list(walk_items(g))
    area_cross = {path.parts: path.crossings() for path, _ in areas}
    limit = float("inf") if max_growth is None else max_growth
    # keep only vocabulary entries valid in this dialect (no violations)
    # and small enough to fit
    vocab = [graph for graph in vocabulary
             if node_count(graph) <= limit and not well_formed(graph, system.dialect)]
    out: list[RuleInstance] = []

    def scoped(src: Path, tgt: Path) -> bool:
        src_cross = area_cross[src.parts[:-1]]
        tgt_cross = area_cross[tgt.parts]
        if tgt_cross[: len(src_cross)] != src_cross:
            return False
        return not tgt.starts_with(src)

    for path, _ in items:
        if not path.is_odd:
            out.append(Erase(path))

    for path, _ in areas:
        if path.is_odd:
            for graph in vocab:
                out.append(Insert(path, graph))

    for src, item in items:
        if node_count(item) <= limit:
            for tgt, _ in areas:
                if scoped(src, tgt):
                    out.append(Iterate(src, tgt))

    keys = [item.key for _, item in items]
    for (path, item), key in zip(items, keys):
        for (wpath, witness), wkey in zip(items, keys):
            if wpath != path and wkey == key and scoped(wpath, path.parent_area()):
                out.append(Deiterate(path, wpath))

    if system is System.CLASSICAL:
        for path, area in areas if 2 <= limit else ():
            out.append(DoubleCutIntro(path, frozenset()))
            for i in range(len(area.items)):
                out.append(DoubleCutIntro(path, frozenset((i,))))
        for path, item in items:
            if (isinstance(item, Scroll) and item.is_cut
                    and len(item.outer.items) == 1
                    and isinstance(item.outer.items[0], Scroll)
                    and item.outer.items[0].is_cut):
                out.append(DoubleCutElim(path))
        return out

    for path, area in areas if 1 <= limit else ():
        out.append(ScrollWrap(path, frozenset()))
        for i in range(len(area.items)):
            out.append(ScrollWrap(path, frozenset((i,))))
    scrolls = [(path, item) for path, item in items if isinstance(item, Scroll)]
    for path, item in scrolls:
        if len(item.loops) == 1 and not item.outer.items:
            out.append(ScrollUnwrap(path))
    for path, item in scrolls:
        if not path.is_odd:
            for graph in vocab:
                out.append(LoopAdd(path, graph))
    for path, item in scrolls:
        if path.is_odd:
            for k in range(len(item.loops)):
                out.append(LoopRemove(path, k))
    for path, item in scrolls if 1 <= limit else ():
        if len(item.loops) == 1 and not path.is_odd:
            out.append(Detach(path))
    return out


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
