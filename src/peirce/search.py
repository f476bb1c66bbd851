"""Bounded, certifying derivation search.

Breadth-first over canonical keys: rule instances are enumerated in a
fixed order and states visited in FIFO order, so the result is
reproducible and the shallowest derivation is found first (whence
monotonicity in the depth bound).  Multiset-equal graphs have the same
successors up to multiset equality, so one exact representative is
expanded per canonical key and an empty frontier proves exhaustion of the
bounded space.

Insertion and loop contents come from the bounds' vocabulary (by default,
subgraphs of the two endpoint graphs) and intermediate states are capped
in size relative to the endpoints; both bounds make the search incomplete
by design for pathological goals.

The size cap is ``node_count(goal) + node_count(start) + size_slack``,
widened in one case only: when the start entails the goal but entails
none of the goal's one-step predecessors within that cap.  Every state on
a derivation from the start is entailed by it (the rules are sound), so
such a space holds no derivation at all, and the search could only spend
its budget.  The widened cap adds the size of the largest item in an odd
area of either endpoint: room for one more copy of a hypothesis, which is
what deiteration (the calculus's contraction) consumes.  The widened space
contains the original one.

In the widened space the search runs from both ends (bidirectional BFS,
Pohl 1971).  The forward side is the BFS above.  The backward side expands
:func:`predecessors`, the exact duals of the instances the forward side
enumerates, and keeps only states the start entails (a truth table first,
then the intuitionistic oracle).  Each round expands one whole layer of
the side with the smaller frontier, and the sides join on canonical keys.
A joined derivation need not be the shallowest.  A negative verdict comes
from the forward side alone (exhausted space or full depth), never from an
oracle.  Without widening the backward side is the goal alone, and the
search is the plain BFS.

No state over the cap is built.  The forward side takes the instances
that add at most ``cap - node_count(g)`` nodes (or up to the goal's size,
should the goal exceed the cap), the backward side asks predecessors for
those within the cap.  Such a state was always discarded, since every key
it could meet lies within that size, so the states expanded, their order
and the scripts found are those of building every one.  The ``~~(p |
~p)`` search builds 124,064 predecessors; built unbounded, 112,077 more
were over the cap.

Nor is a forward successor built before its key is known to be new.  Each
instance's edit (calculus.edits, in enumeration order) gives the key by
splicing it up the edited area's spine (graphs.edited_key); that key is
tested against both sides and the cap, and only a new key within the cap
is built.  Depth-5 ``p | ~p`` builds the 555 states it keeps, not 2,700.

``max_visited`` bounds the states expanded, on both sides together.
Every script found is re-checked through check_script before being
returned; a failed re-check raises CertificationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import formulas as fm
from .calculus import (
    RULES,
    SYSTEM_RULES,
    ProofScript,
    RuleInstance,
    System,
    Walk,
    accepted,
    check_script,
    edits,
    enumerate_rule_instances,
    rule_edit,
)
from .errors import BoundsExceededError, CertificationError, DialectError, TooManyAtomsError
from .graphs import (
    Graph,
    canonicalize,
    edited,
    # the forward side's builds, under a name of their own so they can be counted
    edited as _apply_fast,
    edited_key,
    equals,
    key_size,
    node_count,
    walk_areas,
    walk_items,
    well_formed,
)
from .notation import print_graph
from .semantics import graph_to_formula, taut_classical, taut_int


@dataclass(frozen=True)
class SearchBounds:
    max_depth: int = 12
    vocabulary: Optional[tuple[Graph, ...]] = None
    max_visited: int = 500_000
    size_slack: int = 0


def default_vocabulary(*endpoints: Graph) -> tuple[Graph, ...]:
    """All non-empty subgraphs of the endpoints: every area's contents and
    every item on its own, deduplicated up to multiset equality."""
    seen: dict[str, Graph] = {}
    for g in endpoints:
        for _, area in walk_areas(g):
            if area.items:
                seen.setdefault(print_graph(canonicalize(area)), area)
        for _, item in walk_items(g):
            single = Graph((item,))
            seen.setdefault(print_graph(canonicalize(single)), single)
    return tuple(seen[key] for key in sorted(seen))


def derive(system: System, start: Graph, goal: Graph,
           bounds: SearchBounds = SearchBounds()) -> Optional[ProofScript]:
    """A script from ``start`` to ``goal`` (multiset-equal), or None if
    there is none within the bounds.  Raises BoundsExceededError when the
    state budget runs out before the bounded space is exhausted, and
    CertificationError when check_script rejects the script found."""
    for g in (start, goal):
        bad = well_formed(g, system.dialect)
        if bad:
            raise DialectError(f"{bad[0].reason} at {bad[0].path}")
    vocabulary = bounds.vocabulary
    if vocabulary is None:
        vocabulary = default_vocabulary(start, goal)
    cap = size_cap(system, start, goal, vocabulary, bounds.size_slack)
    widened = cap > node_count(goal) + node_count(start) + bounds.size_slack
    chain = _search(system, start, goal, vocabulary, cap, bounds,
                    _entailed_by(system, start) if widened else None)
    if chain is None:
        return None
    script = ProofScript(system, start, tuple((rule, None) for rule in chain))
    report = check_script(script)
    if not report.ok:
        raise CertificationError(f"search result rejected at step "
                                 f"{report.failed_step}: {report.reason}")
    if not equals(report.final, goal):
        raise CertificationError("search result does not end at the goal")
    return script


def _entailed_by(system: System, start: Graph) -> Callable[[Graph], bool]:
    """Whether ``start`` entails a graph in the system's logic; in the
    intuitionistic one a truth table rules out most graphs before G4ip."""
    premise = graph_to_formula(start)

    def entailed(g: Graph) -> bool:
        step = fm.Imp(premise, graph_to_formula(g))
        return taut_classical(step) and (system is System.CLASSICAL or taut_int(step))
    return entailed


def size_cap(system: System, start: Graph, goal: Graph,
             vocabulary: tuple[Graph, ...], size_slack: int = 0) -> int:
    """The largest state the search keeps: ``node_count(goal) +
    node_count(start) + size_slack``, widened by the size of the largest
    item in an odd area of either endpoint when the start entails the goal
    but none of the goal's predecessors within that cap."""
    cap = node_count(goal) + node_count(start) + size_slack
    entailed = _entailed_by(system, start)
    try:
        if equals(start, goal) or not entailed(goal):
            return cap
    except TooManyAtomsError:
        return cap
    for g in predecessors(system, goal, vocabulary, cap - node_count(goal)):
        if node_count(g) <= cap and entailed(g):
            return cap
    return cap + max((node_count(item)
                      for g in (start, goal) for path, item in walk_items(g)
                      if path.is_odd), default=0)


def predecessors(system: System, g: Graph, vocabulary: tuple[Graph, ...] = (),
                 max_growth: Optional[int] = None) -> list[Graph]:
    """Graphs from which one instance that enumerate_rule_instances lists
    (with the same vocabulary) rewrites to ``g`` up to multiset equality,
    less those with more than ``max_growth`` nodes over ``g``'s.  Each rule
    is undone by its dual in the rule table: first come the instances that
    ``g`` admits of the rules that undo another one (iteration and
    deiteration, wrap and unwrap, the two double-cut rules), in the
    enumeration's order; then the other duals, area by area and scroll by
    scroll, where their rules' polarity holds."""
    walk = Walk(system, g, vocabulary)
    limit = float("inf") if max_growth is None else max_growth
    rules = [RULES[kind] for kind in SYSTEM_RULES[system]]
    undoing = {rule.dual.rule: rule.dual for rule in rules if rule.dual.rule}
    out: list[Graph] = []
    for kind in SYSTEM_RULES[system]:
        dual = undoing.get(kind)
        if dual is not None:
            out.extend(edited(g, *RULES[kind].edit(*ops))
                       for ops in accepted(RULES[kind], walk, limit)
                       if dual.keep is None or dual.keep(*ops))
    for at in ("areas", "scrolls"):
        for path, node in getattr(walk, at):
            for rule in rules:
                if rule.dual.at == at and rule.fits(path):
                    out.extend(rule.dual.undo(g, walk, path, node, limit))
    return out


def _search(system: System, start: Graph, goal: Graph, vocabulary: tuple[Graph, ...],
            cap: int, bounds: SearchBounds,
            entailed: Optional[Callable[[Graph], bool]] = None,
            ) -> Optional[list[RuleInstance]]:
    """Rule instances from ``start`` to ``goal``.  The backward side runs
    when ``entailed`` is given and expands only the states it accepts; it
    tests them when their layer is expanded, so frontier sizes count
    states not yet tested.  ``ahead`` maps each key the forward side
    reached to the key it came from; ``behind`` maps each key the backward
    side reached to the key it leads to and its distance from the goal."""
    goal_key = goal.key
    if start.key == goal_key:
        return []
    # every key the forward side can meet or keep, the goal's included,
    # has at most ``limit`` nodes, so no successor over it is built
    limit = max(cap, node_count(goal))
    ahead: dict[str, Optional[str]] = {start.key: None}
    behind: dict[str, tuple[Optional[str], int]] = {goal_key: (None, 0)}
    frontier = [start]
    back_frontier = [goal] if entailed else []
    budget = bounds.max_visited
    depth = back_depth = 0

    def spend():
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise BoundsExceededError("visited-state budget exhausted")

    while depth < bounds.max_depth:
        if (back_frontier and len(back_frontier) < len(frontier)
                and depth + back_depth < bounds.max_depth):
            next_back: list[Graph] = []
            for g in back_frontier:
                if not entailed(g):
                    continue
                spend()
                for prev in predecessors(system, g, vocabulary, cap - node_count(g)):
                    key = prev.key
                    if key in behind or node_count(prev) > cap:
                        continue
                    behind[key] = (g.key, back_depth + 1)
                    if key in ahead:
                        return _replay(system, start, _chain(ahead, behind, key),
                                       vocabulary, limit)
                    next_back.append(prev)
            back_frontier = next_back
            back_depth += 1
            continue
        next_frontier: list[Graph] = []
        for g in frontier:
            spend()
            for parts, contents in edits(system, g, vocabulary, limit - node_count(g)):
                key = edited_key(g, parts, contents)
                meet = behind.get(key)
                if meet is not None and depth + 1 + meet[1] <= bounds.max_depth:
                    ahead[key] = g.key
                    return _replay(system, start, _chain(ahead, behind, key),
                                   vocabulary, limit)
                if key in ahead or key_size(key) > cap:
                    continue
                ahead[key] = g.key
                next_frontier.append(_apply_fast(g, parts, contents, key))
        if not next_frontier:
            return None
        frontier = next_frontier
        depth += 1
    return None


def _chain(ahead: dict, behind: dict, meeting: str) -> list[str]:
    """The keys from the start through ``meeting`` to the goal."""
    keys = [meeting]
    while ahead[keys[-1]] is not None:
        keys.append(ahead[keys[-1]])
    keys.reverse()
    while behind[keys[-1]][0] is not None:
        keys.append(behind[keys[-1]][0])
    return keys


def _replay(system: System, start: Graph, keys: list[str],
            vocabulary: tuple[Graph, ...], limit: int) -> list[RuleInstance]:
    """For each step, the first enumerated instance that reaches the next
    key.  On the forward side that is the instance the search recorded,
    because it expanded the same representatives in the same order.  No
    key after the start has more than ``limit`` nodes."""
    chain: list[RuleInstance] = []
    g = start
    for key in keys[1:]:
        for rule in enumerate_rule_instances(system, g, vocabulary, limit - node_count(g)):
            parts, contents = rule_edit(g, rule)
            if edited_key(g, parts, contents) == key:
                break
        else:
            raise CertificationError("search chain cannot be replayed")
        chain.append(rule)
        g = _apply_fast(g, parts, contents, key)
    return chain
