"""Seeded random generators, a check of the node classes, and a fresh
interpreter to run code in, shared by unit and acceptance tests."""

from __future__ import annotations

import dataclasses
import inspect
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from peirce import formulas as fm
from peirce.continuum import (
    ContinuumElement,
    Ordinal,
    ZERO,
    elem_canonicalize,
    from_int,
    ord_add,
    w_pow,
)
from peirce.graphs import Atom, Dialect, Graph, Scroll

ROOT = Path(__file__).parents[1]

ATOM_POOL = ("p", "q", "r", "s", "t")


def random_graph(rng: random.Random, depth: int = 4, atoms: int = 4,
                 dialect: Dialect = Dialect.CLASSICAL, width: int = 3) -> Graph:
    names = ATOM_POOL[:atoms]
    n = rng.randint(0, width)
    return Graph(tuple(_random_item(rng, depth, names, dialect, width)
                       for _ in range(n)))


def _random_item(rng, depth, names, dialect, width):
    if depth <= 1 or rng.random() < 0.45:
        return Atom(rng.choice(names))
    outer = Graph(tuple(_random_item(rng, depth - 1, names, dialect, width)
                        for _ in range(rng.randint(0, width - 1))))
    if dialect is Dialect.CLASSICAL:
        return Scroll(outer)
    loops = tuple(
        Graph(tuple(_random_item(rng, depth - 1, names, dialect, width)
                    for _ in range(rng.randint(0, width - 1))))
        for _ in range(rng.randint(0, 2))
    )
    return Scroll(outer, loops)


def random_formula(rng: random.Random, connectives: int = 8, atoms: int = 3) -> fm.Formula:
    names = ATOM_POOL[:atoms]
    if connectives <= 0:
        roll = rng.random()
        if roll < 0.8:
            return fm.Atom(rng.choice(names))
        return fm.TOP if roll < 0.9 else fm.BOT
    left_budget = rng.randint(0, connectives - 1)
    kind = rng.randrange(4)
    if kind == 0:
        return fm.Not(random_formula(rng, connectives - 1, atoms))
    left = random_formula(rng, left_budget, atoms)
    right = random_formula(rng, connectives - 1 - left_budget, atoms)
    return (fm.And, fm.Or, fm.Imp)[kind - 1](left, right)


def random_ordinal(rng: random.Random, depth: int = 2) -> Ordinal:
    if depth <= 0 or rng.random() < 0.35:
        return from_int(rng.randint(0, 5))
    total = ZERO
    for _ in range(rng.randint(1, 3)):
        exponent = random_ordinal(rng, depth - 1)
        total = ord_add(total, w_pow(exponent, rng.randint(1, 4)))
    return total


def random_positive_ordinal(rng: random.Random, depth: int = 2) -> Ordinal:
    while True:
        o = random_ordinal(rng, depth)
        if not o.is_zero():
            return o


def random_element(rng: random.Random, pieces: int = 3) -> ContinuumElement:
    parts = tuple(
        (random_positive_ordinal(rng), Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        for _ in range(rng.randint(1, pieces))
    )
    return elem_canonicalize(ContinuumElement(parts))


def check_frozen_node(node) -> None:
    """``node``'s class is still a frozen dataclass whatever ``__init__`` it
    has: its fields refuse assignment, its signature is its fields, and it
    is built by keyword and by ``dataclasses.replace`` into an equal node
    with the same repr."""
    fields = dataclasses.fields(node)
    for name in [field.name for field in fields] + ["other"]:
        try:
            setattr(node, name, None)
        except dataclasses.FrozenInstanceError:
            continue
        raise AssertionError(f"{type(node).__name__}.{name} was assigned")
    empty = inspect.Parameter.empty
    assert [(param.name, param.default, param.kind)
            for param in inspect.signature(type(node)).parameters.values()] == [
        (field.name, empty if field.default is dataclasses.MISSING else field.default,
         inspect.Parameter.POSITIONAL_OR_KEYWORD) for field in fields]
    values = {field.name: getattr(node, field.name) for field in fields}
    for twin in (type(node)(**values), dataclasses.replace(node)):
        assert twin == node and repr(twin) == repr(node) and twin is not node


def fresh(code: str, cwd=None) -> str:
    """The stdout of ``code`` run in a fresh interpreter with the package
    on its path, so that no other test's imports count."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout
