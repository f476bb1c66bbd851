"""Propositional formulas over atoms with T, F, ~, &, |, ->."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


def _node(cls):
    """A frozen dataclass whose hash is the one its ``__init__`` stores."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = lambda node: node._hash
    return cls


# Each node's __init__ writes its fields into the instance dict in one
# step, where a frozen dataclass's own sets each through object.__setattr__,
# and with them the dataclass's own hash, that of the tuple of the fields,
# taken from their stored hashes, so hashing never recurses.  The dict so
# built has keys of its own, not the ones the class's instances share: a
# node takes about 90 bytes more, and CPython 3.11 specialises the reads of
# its fields, which G4ip and the Kripke search make by the thousand.


def _constant(node) -> None:
    node.__dict__["_hash"] = hash(())


def _pair(node, left: "Formula", right: "Formula") -> None:
    node.__dict__.update(left=left, right=right, _hash=hash((left, right)))


@_node
class Atom:
    name: str

    def __init__(self, name: str):
        self.__dict__.update(name=name, _hash=hash((name,)))


@_node
class Top:
    __init__ = _constant


@_node
class Bot:
    __init__ = _constant


@_node
class Not:
    body: "Formula"

    def __init__(self, body: "Formula"):
        self.__dict__.update(body=body, _hash=hash((body,)))


@_node
class And:
    left: "Formula"
    right: "Formula"
    __init__ = _pair


@_node
class Or:
    left: "Formula"
    right: "Formula"
    __init__ = _pair


@_node
class Imp:
    left: "Formula"
    right: "Formula"
    __init__ = _pair


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
