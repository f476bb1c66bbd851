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
the predecessors (calculus.predecessor_edits), the exact duals of the
instances the forward side enumerates, and keeps only states the start
entails (a truth table first, then the intuitionistic oracle).  Each round
expands one whole layer of the side with the smaller frontier, and the
sides join on canonical keys.  A joined derivation need not be the
shallowest.  A negative verdict comes from the forward side alone
(exhausted space or full depth), never from an oracle.  Without widening
the backward side is the goal alone, and the search is the plain BFS.

Both sides expand a layer alike, and build no state that is not kept.  A
state's edits, in enumeration order, are only those that add at most
``cap - node_count(g)`` nodes (forward, up to the goal's size should the
goal exceed the cap).  Each edit's key is spliced up the edited area's
spine (graphs.edited_key); a key the side has seen is skipped, one the
other side holds joins them, and a graph is built only for a new key
within the cap.  The states expanded, their order and the scripts found
are those of building every successor.  Depth-5 ``p | ~p`` builds the 555
states it keeps, not 2,700; the ``~~(p | ~p)`` search builds 80,563,
54,086 of them backward.

``max_visited`` bounds the states expanded, on both sides together.
Every script found is re-checked through check_script before being
returned; a failed re-check raises CertificationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import formulas as fm
from .calculus import (
    ProofScript,
    RuleInstance,
    System,
    check_script,
    edits,
    enumerate_rule_instances,
    predecessor_edits,
    rule_edit,
)
from .errors import BoundsExceededError, CertificationError, DialectError, TooManyAtomsError
from .graphs import (
    Graph,
    canonicalize,
    edited,
    # the search's builds, under a name of their own so they can be counted
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
    if any(map(entailed, predecessors(system, goal, vocabulary, cap - node_count(goal)))):
        return cap
    return cap + max((node_count(item)
                      for g in (start, goal) for path, item in walk_items(g)
                      if path.is_odd), default=0)


def predecessors(system: System, g: Graph, vocabulary: tuple[Graph, ...] = (),
                 max_growth: Optional[int] = None) -> list[Graph]:
    """The graphs that calculus.predecessor_edits gives, in its order."""
    return [edited(g, *edit) for edit in predecessor_edits(system, g, vocabulary, max_growth)]


def _search(system: System, start: Graph, goal: Graph, vocabulary: tuple[Graph, ...],
            cap: int, bounds: SearchBounds,
            entailed: Optional[Callable[[Graph], bool]] = None,
            ) -> Optional[list[RuleInstance]]:
    """Rule instances from ``start`` to ``goal``.  The backward side runs
    when ``entailed`` is given and expands only the states it accepts,
    tested as their layer is expanded (frontier sizes count untested
    states).  ``ahead`` and ``behind`` map each key a side reached to the
    key it came from and its distance from that side's end."""
    if start.key == goal.key:
        return []
    # every key the forward side can meet or keep, the goal's included,
    # has at most ``limit`` nodes, so no successor over it is built
    limit = max(cap, node_count(goal))
    ahead: dict[str, tuple[Optional[str], int]] = {start.key: (None, 0)}
    behind: dict[str, tuple[Optional[str], int]] = {goal.key: (None, 0)}
    budget = bounds.max_visited

    def layer(states, seen, other, distance, successors, most, accept=None):
        """The layer after ``states`` and None, or None and the key where
        an edit into a graph of at most ``most`` nodes meets ``other``."""
        nonlocal budget
        found = []
        for g in states:
            if accept and not accept(g):
                continue
            budget -= 1
            if budget < 0:
                raise BoundsExceededError("visited-state budget exhausted")
            for parts, contents in successors(system, g, vocabulary, most - node_count(g)):
                key = edited_key(g, parts, contents)
                if key in seen:
                    continue
                meet = other.get(key)
                if meet is not None and distance + 1 + meet[1] <= bounds.max_depth:
                    seen[key] = (g.key, distance + 1)
                    return None, key
                if key_size(key) > cap:
                    continue
                seen[key] = (g.key, distance + 1)
                found.append(_apply_fast(g, parts, contents, key))
        return found, None

    frontier, back_frontier = [start], [goal] if entailed else []
    depth = back_depth = 0
    while depth < bounds.max_depth:
        if (back_frontier and len(back_frontier) < len(frontier)
                and depth + back_depth < bounds.max_depth):
            back_frontier, meeting = layer(back_frontier, behind, ahead, back_depth,
                                           predecessor_edits, cap, entailed)
            back_depth += 1
        else:
            frontier, meeting = layer(frontier, ahead, behind, depth, edits, limit)
            depth += 1
        if meeting is not None:
            keys = _trail(ahead, meeting)[::-1] + _trail(behind, meeting)[1:]
            return _replay(system, start, keys, vocabulary, limit)
        if not frontier:
            return None
    return None


def _trail(side: dict, key: str) -> list[str]:
    """``key`` and the keys it came from, back to that side's end."""
    keys = [key]
    while side[keys[-1]][0] is not None:
        keys.append(side[keys[-1]][0])
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
