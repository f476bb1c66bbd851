"""Propositional formulas over atoms with T, F, ~, &, |, ->."""

from __future__ import annotations

from typing import Union

from .errors import Record

# Each node stores the hash a record computes, that of the tuple of its
# fields, taken from their stored hashes, so hashing never recurses.  The
# fields and the hash sit in slots, whose reads CPython 3.11 specialises:
# G4ip and the Kripke search make them by the thousand.
_set = object.__setattr__


class _Node(Record):
    """A formula node; built with no fields, it is a constant."""

    __slots__ = ("_hash",)

    def __init__(self):
        _set(self, "_hash", hash(()))

    def __hash__(self):
        return self._hash


class Atom(_Node):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str):
        _set(self, "name", name)
        _set(self, "_hash", hash((name,)))


class Top(_Node):
    __slots__ = ()


class Bot(_Node):
    __slots__ = ()


class Not(_Node):
    __slots__ = ("body",)
    body: Formula

    def __init__(self, body: Formula):
        _set(self, "body", body)
        _set(self, "_hash", hash((body,)))


class _Pair(_Node):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((left, right)))


class And(_Pair):
    __slots__ = ()


class Or(_Pair):
    __slots__ = ()


class Imp(_Pair):
    __slots__ = ()


Formula = Union[Atom, Top, Bot, Not, And, Or, Imp]

TOP = Top()
BOT = Bot()


def atoms(f: Formula) -> set[str]:
    names = set()
    todo = [f]
    while todo:
        f = todo.pop()
        if isinstance(f, Atom):
            names.add(f.name)
        elif isinstance(f, Not):
            todo.append(f.body)
        elif not isinstance(f, (Top, Bot)):
            todo += f.left, f.right
    return names


def eval_mask(f: Formula, atom_masks: dict[str, int], up: tuple[int, ...],
              width: int) -> int:
    """The bitmask of the points where ``f`` holds.  Bit ``w * width + v``
    is world ``w`` in lane ``v``: each world holds one block of ``width``
    lanes, and ``up[w]`` masks the worlds above ``w`` in a Kripke order,
    all numbered ``w`` or higher.  A truth table is one world, ``up=(1,)``,
    with one lane per row."""
    # for each distance d > 0, the shift that brings world w + d's block
    # down to world w's, and the blocks of the worlds w with w + d above them
    steps = []
    for d in range(1, len(up)):
        below = sum(1 << w * width for w in range(len(up) - d) if up[w] >> w + d & 1)
        steps.append((d * width, below * ((1 << width) - 1)))
    return _holds(f, atom_masks, (1 << len(up) * width) - 1, steps)


def _holds(f: Formula, atom_masks: dict[str, int], full: int,
           steps: list[tuple[int, int]]) -> int:
    if isinstance(f, Atom):
        return atom_masks[f.name]
    if isinstance(f, Top):
        return full
    if isinstance(f, Bot):
        return 0
    if isinstance(f, And):
        return _holds(f.left, atom_masks, full, steps) & _holds(f.right, atom_masks, full, steps)
    if isinstance(f, Or):
        return _holds(f.left, atom_masks, full, steps) | _holds(f.right, atom_masks, full, steps)
    # the points where a -> b (or ~a, that is a -> F) fails: a without b
    # there or at a point above, which, the order being transitive, the
    # steps may reach in any order
    if isinstance(f, Not):
        bad = _holds(f.body, atom_masks, full, steps)
    else:
        bad = _holds(f.left, atom_masks, full, steps) & ~_holds(f.right, atom_masks, full, steps)
    for shift, below in steps:
        bad |= bad >> shift & below
    return full & ~bad
