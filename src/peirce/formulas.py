"""Propositional formulas over atoms with T, F, ~, &, |, ->."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


def _node(cls):
    """A frozen dataclass that stores its dataclass hash when it is built."""
    cls.__post_init__ = _store_hash
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = lambda node: node._hash
    return cls


def _store_hash(node) -> None:
    # the dataclass's own hash, that of the tuple of the fields, taken from
    # their stored hashes, so hashing never recurses; when __init__ calls
    # this, the instance dict holds just the fields, in order
    node.__dict__["_hash"] = hash(tuple(node.__dict__.values()))


@_node
class Atom:
    name: str


@_node
class Top:
    pass


@_node
class Bot:
    pass


@_node
class Not:
    body: "Formula"


@_node
class And:
    left: "Formula"
    right: "Formula"


@_node
class Or:
    left: "Formula"
    right: "Formula"


@_node
class Imp:
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Top, Bot, Not, And, Or, Imp]

TOP = Top()
BOT = Bot()


def atoms(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, (Top, Bot)):
        return set()
    if isinstance(f, Not):
        return atoms(f.body)
    return atoms(f.left) | atoms(f.right)


def strip_not(f: Formula) -> Formula:
    """``f`` with every ``~a`` rewritten as ``a -> F``."""
    if isinstance(f, Not):
        return Imp(strip_not(f.body), BOT)
    if isinstance(f, (And, Or, Imp)):
        left, right = strip_not(f.left), strip_not(f.right)
        return f if left is f.left and right is f.right else type(f)(left, right)
    return f


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
