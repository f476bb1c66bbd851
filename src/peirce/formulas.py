"""Propositional formulas over atoms with T, F, ~, &, |, ->."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
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


def size(f: Formula) -> int:
    if isinstance(f, (Atom, Top, Bot)):
        return 1
    if isinstance(f, Not):
        return 1 + size(f.body)
    return 1 + size(f.left) + size(f.right)


def strip_not(f: Formula) -> Formula:
    """``f`` with every ``~a`` rewritten as ``a -> F``."""
    if isinstance(f, Not):
        return Imp(strip_not(f.body), BOT)
    if isinstance(f, (And, Or, Imp)):
        return type(f)(strip_not(f.left), strip_not(f.right))
    return f


def eval_mask(f: Formula, atom_masks: dict[str, int], full: int,
              up: tuple[int, ...] | None = None) -> int:
    """The bitmask of the points where ``f`` holds.  ``up[w]`` masks the
    points above ``w`` in a Kripke order; None is a truth table's order."""
    if isinstance(f, Atom):
        return atom_masks[f.name]
    if isinstance(f, Top):
        return full
    if isinstance(f, Bot):
        return 0
    if isinstance(f, And):
        return eval_mask(f.left, atom_masks, full, up) & eval_mask(f.right, atom_masks, full, up)
    if isinstance(f, Or):
        return eval_mask(f.left, atom_masks, full, up) | eval_mask(f.right, atom_masks, full, up)
    # the points where a -> b (or ~a, that is a -> F) fails: a without b
    if isinstance(f, Not):
        bad = eval_mask(f.body, atom_masks, full, up)
    else:
        bad = eval_mask(f.left, atom_masks, full, up) & ~eval_mask(f.right, atom_masks, full, up)
    if up is None:
        return full & ~bad
    mask = 0
    for w, above in enumerate(up):
        if not above & bad:
            mask |= 1 << w
    return mask
