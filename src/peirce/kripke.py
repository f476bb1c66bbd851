"""Finite Kripke models: forcing, persistence, and countermodel search.

Models are enumerated up to isomorphism: frames are built as up-masks (bit b
of ``up[a]`` set when a <= b) inside the order 0 < 1 < ... < n-1, each kept
at its least relabelling, and valuations range over up-sets so persistence
holds by construction.  Only rooted posets are tried and only the root is
tested: the worlds above a failing world form a countermodel too, so a
smallest countermodel fails at its least world, world 0.  A rooted poset on
n worlds is a poset on n - 1 worlds, shifted up one, under a new least world
0, so the search builds its frames from the posets one world smaller.

A frame's valuations are evaluated together, as bit lanes: world w holds
bits ``w * width`` to ``(w + 1) * width - 1``, and lane v is the v-th
valuation in ``product(values, repeat=atoms)`` order, the last atom varying
fastest.  A search walks its formula once, into ``formulas.postfix``
nodes, which one ``formulas.eval_mask`` call runs over a whole pass.  The
lowest failing lane of world 0 is the valuation a one-at-a-time search
would have met first, so the model returned does not depend on the lanes.
A pass holds at most ``MAX_LANES`` lanes; the first atoms past that take
their values in an outer loop, in the same order, as masks constant across
the lanes.  A search that tries more than ``MAX_VALUATIONS`` valuations
raises BoundsExceededError.  A model found must pass the recursive forcing
relation, the independent half of the pair, or CertificationError is
raised.
"""

from __future__ import annotations

import functools
from itertools import combinations, permutations, product

from . import formulas as fm
from .errors import BoundsExceededError, CertificationError, Record

MAX_WORLDS = 5
MAX_LANES = 4096            # valuations evaluated in one pass
MAX_VALUATIONS = 50_000_000  # valuations one search may try


class KripkeModel(Record):
    """Worlds 0..n-1, a reflexive-transitive order as up-masks (bit b of
    ``up[a]`` set when a <= b), and a monotone valuation."""

    worlds: int
    up: tuple[int, ...]
    valuation: tuple[frozenset[str], ...]

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def __str__(self) -> str:
        order = ", ".join(f"{a}<={b}" for a in range(self.worlds) for b in range(self.worlds)
                          if a != b and self.leq(a, b))
        val = "; ".join(
            f"{w}:{{{','.join(sorted(self.valuation[w]))}}}" for w in range(self.worlds)
        )
        return f"worlds: {self.worlds}; order: {order}; val: {val}"


def forces(model: KripkeModel, world: int, f: fm.Formula) -> bool:
    """The standard forcing clauses, evaluated directly; ``~A`` is ``A -> F``."""
    # a left-nested chain of & and | is taken down its left spine in a
    # loop, so a long flat chain takes no recursion: an & fails, and an |
    # holds, where its right operand does
    while isinstance(f, (fm.And, fm.Or)):
        if forces(model, world, f.right) is isinstance(f, fm.Or):
            return isinstance(f, fm.Or)
        f = f.left
    if isinstance(f, fm.Atom):
        return f.name in model.valuation[world]
    if isinstance(f, fm.Top):
        return True
    if isinstance(f, fm.Bot):
        return False
    return all(forces(model, v, f.right)
               for v in range(model.worlds)
               if model.leq(world, v) and forces(model, v, f.left))


def persistent(model: KripkeModel) -> bool:
    return all(model.valuation[a] <= model.valuation[b]
               for a in range(model.worlds) for b in range(model.worlds) if model.leq(a, b))


# ---------------------------------------------------------------------------
# Poset enumeration (up to isomorphism)
# ---------------------------------------------------------------------------

@functools.cache
def _posets(n: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """Non-isomorphic reflexive-transitive orders on n worlds.

    Each entry is (up-masks per world, list of up-set masks).  Every finite
    poset admits a linear extension, so generating only relations contained
    in 0 < 1 < ... < n-1 loses nothing up to isomorphism.
    """
    pairs = list(combinations(range(n), 2))
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[tuple[int, ...], list[int]]] = []
    for bits in range(1 << len(pairs)):
        up = [1 << a for a in range(n)]
        for idx, (a, b) in enumerate(pairs):
            if bits >> idx & 1:
                up[a] |= 1 << b
        # transitive: a world b above a sees nothing that a does not
        if any(up[a] >> b & 1 and up[b] & ~up[a] for a, b in pairs):
            continue
        signature = min(_relabelled(up, perm) for perm in permutations(range(n)))
        if signature in seen:
            continue
        seen.add(signature)
        upsets = [m for m in range(1 << n)
                  if all(up[w] & ~m == 0 for w in range(n) if m >> w & 1)]
        out.append((tuple(up), upsets))
    return out


def _relabelled(up: list[int], perm: tuple[int, ...]) -> tuple[int, ...]:
    """The up-masks with world w renamed perm[w], listed by new name."""
    return tuple(mask for _, mask in sorted(
        (perm[a], sum(1 << p for b, p in enumerate(perm) if m >> b & 1))
        for a, m in enumerate(up)))


# ---------------------------------------------------------------------------
# Countermodel search
# ---------------------------------------------------------------------------


def kripke_countermodel(f: fm.Formula, max_worlds: int) -> KripkeModel | None:
    """A smallest model, of at most ``max_worlds`` worlds, in which ``f``
    fails at the root, or None.  Any returned model is verified against the
    recursive forcing relation before being handed back.  Raises
    BoundsExceededError once the search has tried ``MAX_VALUATIONS``
    valuations."""
    if not 1 <= max_worlds <= MAX_WORLDS:
        raise ValueError(f"max_worlds must be in 1..{MAX_WORLDS}")
    nodes = fm.postfix(f)
    names = fm.atoms(nodes)
    tried = 0
    for n in range(1, max_worlds + 1):
        full = (1 << n) - 1
        for below, upsets in _posets(n - 1):
            up = (full,) + tuple(u << 1 for u in below)
            values = [u << 1 for u in upsets] + [full]
            # the last atoms share the lanes of a pass, the first ones are fixed per pass
            inner = len(names)
            while len(values) ** inner > MAX_LANES:
                inner -= 1
            width = len(values) ** inner
            lanes = (1 << width) - 1
            outer = len(names) - inner
            masks = dict(zip(names[outer:], _lane_masks(values, inner, n, width)))
            fixed = [sum(lanes << w * width for w in range(n) if u >> w & 1) for u in values]
            for prefix in product(fixed, repeat=outer):
                tried += width
                if tried > MAX_VALUATIONS:
                    raise BoundsExceededError(f"the Kripke countermodel search passed its "
                                              f"budget of {MAX_VALUATIONS:,} valuations")
                masks.update(zip(names, prefix))
                failing = lanes & ~fm.eval_mask(nodes, masks, up, width)
                if failing:
                    # the first failing lane, read back world by world
                    lane = (failing & -failing).bit_length() - 1
                    valuation = tuple(frozenset(name for name in names
                                                if masks[name] >> w * width + lane & 1)
                                      for w in range(n))
                    model = KripkeModel(n, up, valuation)
                    if not persistent(model) or forces(model, 0, f):
                        raise CertificationError(f"model fails the forcing re-check: {model}")
                    return model
    return None


def _lane_masks(values: list[int], atoms: int, n: int, width: int) -> list[int]:
    """Each of the last ``atoms`` atoms' masks on ``n`` worlds, where lane v
    gives the atoms the values of v's digits in base ``len(values)``, most
    significant first: the order of ``product(values, repeat=atoms)``."""
    masks = []
    for i in range(atoms):
        stride = len(values) ** (atoms - 1 - i)   # lanes per run of one value
        period = stride * len(values)
        repeat = ((1 << width) - 1) // ((1 << period) - 1)   # a bit per period
        run = (1 << stride) - 1
        mask = 0
        for w in range(n):
            pattern = sum(run << c * stride for c, u in enumerate(values) if u >> w & 1)
            mask |= pattern * repeat << w * width
        masks.append(mask)
    return masks

