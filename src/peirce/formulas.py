"""Propositional formulas over atoms with T, F, ~, &, |, ->."""

from __future__ import annotations

from typing import Union

from .errors import Record

# Each node stores the hash a record computes, that of the tuple of its
# fields, taken from their stored hashes, so hashing never recurses; an
# atom's field is read as the integer its name's UTF-8 bytes spell, little
# end first, which no string-hash seed moves.  So a formula's hash, and the
# order in which G4ip scans a set of formulas, is the same in every
# process.  The fields and the hash sit in slots, whose reads CPython 3.11
# specialises: G4ip and the Kripke search make them by the thousand.
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
        # surrogatepass: every str encodes, a lone surrogate included
        code = int.from_bytes(name.encode("utf-8", "surrogatepass"), "little")
        _set(self, "_hash", hash((code,)))


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
# ~A is A -> F: a Not answers left, its body read from the same slot, and
# right, F, so the rules for -> read it where it stands; its one field,
# equality, hash and repr stay those of body
Not.left, Not.right = Not.body, BOT


def postfix(f: Formula) -> list[Formula]:
    """``f``'s nodes, each after its operands (``~A``'s are ``A`` and F),
    the left before the right, from a walk that keeps its own stack."""
    nodes, todo = [], [f]
    while todo:
        f = todo.pop()
        nodes.append(f)
        kind = type(f)
        if kind is not Atom and kind is not Top and kind is not Bot:
            todo += f.left, f.right
    # the walk met each node before its operands, the right one first
    return nodes[::-1]


def atoms(nodes: list[Formula]) -> list[str]:
    """The names of the atoms among a formula's ``postfix`` nodes, sorted."""
    return sorted({f.name for f in nodes if type(f) is Atom})


def eval_mask(nodes: list[Formula], atom_masks: dict[str, int], up: tuple[int, ...],
              width: int) -> int:
    """The bitmask of the points where a formula holds, its ``postfix``
    ``nodes`` run as a stack machine.  Bit ``w * width + v`` is world ``w``
    in lane ``v``: each world holds one block of ``width`` lanes, and
    ``up[w]`` masks the worlds above ``w`` in a Kripke order, all numbered
    ``w`` or higher.  A truth table is one world, ``up=(1,)``, a lane a row."""
    # for each distance d > 0, the shift that brings world w + d's block
    # down to world w's, and the blocks of the worlds w with w + d above them
    steps = []
    for d in range(1, len(up)):
        below = sum(1 << w * width for w in range(len(up) - d) if up[w] >> w + d & 1)
        steps.append((d * width, below * ((1 << width) - 1)))
    full = (1 << len(up) * width) - 1
    stack = []
    for f in nodes:
        kind = type(f)
        if kind is Atom:
            stack.append(atom_masks[f.name])
        elif kind is Top or kind is Bot:
            stack.append(full if kind is Top else 0)
        else:
            right = stack.pop()
            if kind is And:
                stack[-1] &= right
            elif kind is Or:
                stack[-1] |= right
            else:
                # the points where a -> b (or ~a, that is a -> F) fails: a
                # without b there or at a point above, which, the order
                # being transitive, the steps may reach in any order
                bad = stack[-1] & ~right
                for shift, below in steps:
                    bad |= bad >> shift & below
                stack[-1] = full & ~bad
    return stack.pop()
