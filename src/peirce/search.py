"""Bounded, certifying derivation search.

Breadth-first over canonical keys: a state's moves are listed in a fixed
order (calculus.moves) and states visited in FIFO order, so the result is
reproducible, and searched forward alone the shallowest derivation is
found first.  Multiset-equal graphs have the same
successors up to multiset equality, so one exact representative is
expanded per canonical key and an empty frontier proves exhaustion of the
bounded space.

Insertion and loop contents are the subgraphs of the two endpoint graphs
(default_vocabulary) and intermediate states are capped in size relative
to the endpoints; both bounds make the search incomplete by design for
pathological goals.

size_cap decides the cap and the sides, once per search.  The cap is
``node_count(goal) + node_count(start)``, widened in one case only: when
the start entails the goal but entails none of the goal's listed one-step
predecessors within that cap.  Every state on a derivation from the start
is entailed by it (the rules are sound), so such a space holds no
derivation through a listed predecessor.  The widened cap adds the size of
the largest item in an odd area of either endpoint: room for one more copy
of a hypothesis, which is what deiteration (the calculus's contraction)
consumes.  The widened space contains the original one, so widening loses
no derivation.

Whenever the start entails the goal, widened or not, the search runs from
both ends (bidirectional BFS, Pohl 1971).  The forward side is the BFS
above.  The backward side expands the predecessors
(calculus.predecessor_edits): a subset of the graphs that a move the
forward side lists rewrites into the state.  It keeps only states the
start entails (a truth table first, then the intuitionistic oracle),
decided once per key for the whole search, so the backward layers reuse
size_cap's verdicts on the goal and its predecessors.  Each
round expands one whole layer of the side with the smaller frontier, and
the sides join on canonical keys.  A goal the start does not entail is
searched forward only, so a negative verdict comes from the forward side
alone (exhausted space or full depth), never from an oracle.

The stopping rule makes the joined script the shallowest over the listed
predecessors: no derivation within the bounds is shorter whose every step
starts at a listed predecessor of the step's result.  Whenever one of the
shallowest derivations is such, the script is as short as plain BFS's.  A
meeting in a backward layer is returned at once: every listed predecessor
is a forward edit within the cap, so a state the forward side reached
before its last layer has had its successors met already, and all
meetings of one backward layer have the same total depth.  A meeting in a
forward layer is kept, and the rest of that layer is scanned for a key
that the backward side reached nearer the goal.  Only an edit that no
listed predecessor of its result undoes can reach one
(calculus.unlisted_edits): the backward side, expanding any other
result, would have listed the edited state, and the sides would have met
there.  The scan keys those edits alone, all of which add no node, and
spends no budget.

The gap is the steps without a listed undo, all of which add no node:
unwrapping a loop, or removing a double cut, around two or more items, and
erasing an item or removing a loop that is not a vocabulary graph.  Such a
step before the meeting layer can lengthen the script, and a larger depth
bound can give a longer one: intuitionistic ``q (q)`` to ``p p`` takes 4
steps at depth 4 but 5 at depth 5, where plain BFS takes 4, the last an
``unwrap`` of a two-item loop.  Given enough budget, a derivation is
found exactly when the forward side alone finds one: it runs to the full
depth unless the sides meet.

Both sides expand a layer alike but for the forward side's last.  A
state's edits, in the order of its moves, are only those that add at most
``cap - node_count(g)`` nodes.  Each edit's key is spliced up the edited
area's spine (graphs.edited_key); a key the side has seen is skipped, one
the other side holds joins them, and a new key joins the next frontier as
the state it came from and the edit.  Its graph is built only when a
layer or the scan reaches it, and computes its key as it is built; no
edit past the cap is offered, so no size is measured.  In the
last forward layer only the goal can be met, so the bound there is
``node_count(goal) - node_count(g)``; only an empty loop's removal keeps
the node count, and it drops one key code, so a state of the goal's size
lists its moves only when its key is one code longer than the goal's.
The states expanded, their order and the scripts found are those of
building every successor.  Depth-5 ``p | ~p`` builds the 316 states it
expands after the start, where building every new key built 555 and
building every successor 2,700; it lists the moves of 145 of its 317
states and keys 1,721 edits, where listing every state's keyed 2,700.

The sides record each key with the key it came from and its distance,
but for the last forward layer, which records only a meeting.  The
forward side also records the move that first reached the key, as its
rule class and the instance's fields, taken from calculus.moves as the
layer keys its edit.  The script is read back along the keys through the
meeting.  A forward step is that recorded move, and its graph is built
from the move's edit with no listing.  A backward step, and a key the
scan found, list the moves at the step: the first move whose edit
reaches the next key is taken, and only that move's rule instance is
built.  It is the move the forward side would have recorded, so each
script is the one that listing every step gives.
``max_visited`` bounds the states expanded, on both sides together.
Every script found is re-checked through check_script before being
returned; a failed re-check raises CertificationError.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import formulas as fm
from .calculus import (
    RULES,
    ProofScript,
    RuleInstance,
    System,
    check_script,
    moves,
    operands,
    predecessor_edits,
    unlisted_edits,
)
from .errors import BoundsExceededError, CertificationError, DialectError, Record, TooManyAtomsError
from .graphs import (
    Graph,
    canonicalize,
    edited,
    # the search's builds, under a name of their own so they can be counted
    edited as _apply_fast,
    edited_key,
    equals,
    node_count,
    walk,
    well_formed,
)
from .notation import print_graph
from .semantics import graph_to_formula, taut_classical, taut_int


class SearchBounds(Record):
    max_depth: int = 12
    max_visited: int = 500_000


def default_vocabulary(*endpoints: Graph) -> tuple[Graph, ...]:
    """All non-empty subgraphs of the endpoints: every area's contents and
    every item on its own, the first seen of each key (multiset equality),
    in the order of their canonical prints."""
    seen: dict[str, Graph] = {}
    for g in endpoints:
        areas, items = walk(g)
        for v in [area for _, area in areas if area.items] + [Graph((item,)) for _, item in items]:
            seen.setdefault(v.key, v)
    return tuple(sorted(seen.values(), key=lambda v: print_graph(canonicalize(v))))


def derive(system: System, start: Graph, goal: Graph,
           bounds: SearchBounds = SearchBounds()) -> Optional[ProofScript]:
    """A script from ``start`` to ``goal`` (multiset-equal), or None if
    there is none within the bounds.  Raises BoundsExceededError when the
    state budget runs out before the bounded space is exhausted, and
    CertificationError when check_script rejects the script found."""
    for g in (start, goal):
        bad = well_formed(g, system)
        if bad:
            raise DialectError(f"{bad[0].reason} at {bad[0].path}")
    vocabulary = default_vocabulary(start, goal)
    cap, entailed = size_cap(system, start, goal, vocabulary)
    chain = _search(system, start, goal, vocabulary, cap, bounds, entailed)
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
    """Whether ``start`` entails a graph in the system's logic, decided once
    per key; in the intuitionistic one a truth table rules out most graphs
    before G4ip."""
    premise = graph_to_formula(start)
    verdicts: dict[str, bool] = {}

    def entailed(g: Graph) -> bool:
        verdict = verdicts.get(g.key)
        if verdict is None:
            step = fm.Imp(premise, graph_to_formula(g))
            verdict = verdicts[g.key] = taut_classical(step) and (
                system is System.CLASSICAL or taut_int(step))
        return verdict
    return entailed


def size_cap(system: System, start: Graph, goal: Graph, vocabulary: tuple[Graph, ...],
             ) -> tuple[int, Optional[Callable[[Graph], bool]]]:
    """The search's plan: its size bound, and the backward side's filter
    (the start's entailment), given whenever the start entails the goal,
    or None for the plain BFS.  The bound is ``node_count(goal) +
    node_count(start)``, widened by the size of the largest item in an odd
    area of either endpoint when the start entails the goal but none of
    its listed predecessors within that cap.  Past 20 atoms, where the
    truth table gives up, the cap is not widened and the BFS is plain."""
    cap = node_count(goal) + node_count(start)
    entailed = _entailed_by(system, start)
    try:
        if equals(start, goal) or not entailed(goal):
            return cap, None
        if any(entailed(edited(goal, *edit)) for edit in
               predecessor_edits(system, goal, vocabulary, cap - node_count(goal))):
            return cap, entailed
    except TooManyAtomsError:
        return cap, None
    growth = max((node_count(item) for g in (start, goal) for path, item in walk(g)[1]
                  if path.is_odd), default=0)
    return cap + growth, entailed


def _search(system: System, start: Graph, goal: Graph, vocabulary: tuple[Graph, ...],
            cap: int, bounds: SearchBounds,
            entailed: Optional[Callable[[Graph], bool]] = None,
            ) -> Optional[list[RuleInstance]]:
    """Rule instances from ``start`` to ``goal``.  The backward side runs
    when ``entailed`` is given and expands only the states it accepts,
    tested as their layer is expanded (frontier sizes count untested
    states).  ``ahead`` and ``behind`` map each key a side recorded to the
    key it came from, its distance from that side's end, and the move
    that first reached it: on the forward side its rule class and then the
    instance's fields, on the backward side, and for a key the scan found,
    None.  A frontier holds each new key's state as the state it came
    from and the edit, built when reached."""
    if start.key == goal.key:
        return []
    ahead: dict[str, tuple] = {start.key: (None, 0, None)}
    behind: dict[str, tuple] = {goal.key: (None, 0, None)}
    budget = bounds.max_visited

    def reach(states, i):
        """The graph of ``states[i]``, built in its place when it is an edit."""
        state = states[i]
        if type(state) is tuple:
            state = states[i] = _apply_fast(*state)
        return state

    def layer(states, seen, other, distance, successors, accept=None, last=False):
        """The layer after ``states`` and None, or None and the key where
        the sides meet: on the backward side the first meeting, on the
        forward side the first of least total depth.  The ``last`` forward
        layer can meet only the goal and records no other key; a state
        there lists only the edits that may give the goal's node count,
        and none when it has it and a key not one code longer."""
        nonlocal budget
        found = []
        size = node_count(goal) if last else cap
        for i in range(len(states)):
            g = reach(states, i)
            if accept and not accept(g):
                continue
            budget -= 1
            if budget < 0:
                raise BoundsExceededError("visited-state budget exhausted")
            room = size - node_count(g)
            if last and room == 0 and len(g.key) != len(goal.key) + 1:
                continue
            for kind, ops, parts, contents in successors(system, g, vocabulary, max(room, 0)):
                key = edited_key(g, parts, contents)
                if key in seen:
                    continue
                meet = other.get(key)
                if meet is not None and distance + 1 + meet[1] <= bounds.max_depth:
                    seen[key] = (g.key, distance + 1, kind, *ops[::2])
                    return None, key if seen is behind else nearest(states, i, key, distance)
                if not last:
                    seen[key] = (g.key, distance + 1, kind, *ops[::2])
                    found.append((g, parts, contents))
        return found, None

    def nearest(states, i, key, distance):
        """Of ``key`` and the keys of ``behind`` that edits of ``states[i:]``
        reach, the first nearest the goal.  Only the edits that no listed
        predecessor of their result undoes are keyed: from any other
        result nearer the goal than ``key``, the backward side would have
        listed the state, and the sides would have met already."""
        far = behind[key][1]
        for i in range(i, len(states)):
            g = reach(states, i)
            for parts, contents in unlisted_edits(system, g, vocabulary):
                near = edited_key(g, parts, contents)
                if behind.get(near, (None, far))[1] < far:
                    key, far = near, behind[near][1]
                    ahead[key] = (g.key, distance + 1, None)
        return key

    frontier, back_frontier = [start], [goal] if entailed else []
    depth = back_depth = 0
    while depth < bounds.max_depth:
        if (back_frontier and len(back_frontier) < len(frontier)
                and depth + back_depth < bounds.max_depth):
            back_frontier, meeting = layer(back_frontier, behind, ahead, back_depth,
                                           _predecessors, entailed)
            back_depth += 1
        else:
            frontier, meeting = layer(frontier, ahead, behind, depth, _successors,
                                      last=depth == bounds.max_depth - 1)
            depth += 1
        if meeting is not None:
            forward = _trail(ahead, meeting)[::-1]
            keys = forward + _trail(behind, meeting)[1:]
            made = {key: ahead[key][2:] for key in forward}
            return _replay(system, start, keys, vocabulary, cap, made)
        if not frontier:
            return None
    return None


def _successors(system: System, g: Graph, vocabulary: tuple[Graph, ...], max_growth: int):
    """The forward side's edits, in the order of ``moves``, each after its
    move's rule class and operands."""
    for kind, rule, ops in moves(system, g, vocabulary, max_growth):
        yield (kind, ops) + rule.edit(*ops)


def _predecessors(system: System, g: Graph, vocabulary: tuple[Graph, ...], max_growth: int):
    """The backward side's edits, each after no move (None, no operand)."""
    for edit in predecessor_edits(system, g, vocabulary, max_growth):
        yield (None, ()) + edit


def _trail(side: dict, key: str) -> list[str]:
    """``key`` and the keys it came from, back to that side's end."""
    keys = [key]
    while side[keys[-1]][0] is not None:
        keys.append(side[keys[-1]][0])
    return keys


def _replay(system: System, start: Graph, keys: list[str], vocabulary: tuple[Graph, ...],
            cap: int, made: Optional[dict] = None) -> list[RuleInstance]:
    """For each step, the instance of the move that ``made`` records for
    the step's key: its rule class and then the instance's fields, or
    None.  Where it records none, the instance is that of the first move
    (calculus.moves) whose edit reaches the key, and only that move's
    instance is built; the forward side records that move, because it
    expanded the same representatives in the same order.  Each step's
    graph is built from its move's edit.  No key after the start has more
    than ``cap`` nodes."""
    made = made or {}
    chain: list[RuleInstance] = []
    g = start
    for key in keys[1:]:
        kind, *fields = made.get(key, (None,))
        if kind is not None:
            rule = kind(*fields)
            parts, contents = RULES[kind].edit(*operands(g, rule))
        else:
            for kind, entry, ops in moves(system, g, vocabulary, cap - node_count(g)):
                parts, contents = entry.edit(*ops)
                if edited_key(g, parts, contents) == key:
                    break
            else:
                raise CertificationError("search chain cannot be replayed")
            rule = kind(*ops[::2])
        chain.append(rule)
        g = _apply_fast(g, parts, contents)
    return chain
