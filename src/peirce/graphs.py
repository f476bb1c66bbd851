"""Core data model for existential graphs.

A graph is a juxtaposition (ordered sequence) of items.  An item is either
an atom or a scroll: an outer closed curve with zero or more loops glued to
its inside.  A scroll with zero loops is the plain Alpha cut, so one item
type covers both dialects.  Boundaries nest and never intersect, which the
tree representation gives for free.

Areas are stored in author order so paths stay stable; equality is by
multiset, via each node's canonical ``key``.  Nodes are frozen records
(``errors.Record``), and each computes its ``key`` and ``flaws`` as it is
built, from its children's.

A scroll's regions are numbered: region ``OUTER`` (0) is its outer area
and region ``k + 1`` its loop ``k``, so ``scroll.regions[r]`` is region
``r`` and a path is a tuple of integers.
"""

from __future__ import annotations

import re
from enum import Enum
from operator import attrgetter, is_
from typing import Callable, Iterator, Union

from .errors import InvalidPathError, Record

ATOM_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

EVEN = "even"
ODD = "odd"


class Dialect(Enum):
    CLASSICAL = "classical"
    INTUITIONISTIC = "intuitionistic"


# Canonical keys are strings over a prefix-free code: an atom is
# ATOM name END_NAME, a scroll is SCROLL, its outer area's key, its loops'
# keys in sorted order and END_LOOPS, and an area is its items' keys in
# sorted order and END_AREA.  Each terminator sorts below every code that
# can stand in its place, so string order on keys is the structural order
# (atoms by name before scrolls, scrolls by outer area, then by loops) and
# equal keys mean multiset-equal nodes.  A cut ``(X)`` and the empty-loop
# scroll ``[X | ]`` differ by the empty loop's END_AREA.  The code is
# prefix-free, and keys injective, only over well-formed names, which hold
# no control character: the atom ``a\x00\x03b`` has the key of ``a b``.  So
# a node's ``flaws`` test its names themselves and are not read off its key.
_END_NAME, _END_LOOPS, _END_AREA, _ATOM, _SCROLL = "\x00", "\x01", "\x02", "\x03", "\x04"

# A node's ``flaws`` are bits: a bad atom name in it, a loop in it.  A
# dialect forbids the bits it maps to.
_BAD_NAME, _LOOPS = 1, 2
_FORBIDDEN = {Dialect.CLASSICAL: _BAD_NAME | _LOOPS, Dialect.INTUITIONISTIC: _BAD_NAME}


_set = object.__setattr__

# A node sets its ``key`` and ``flaws`` as it is built, in slots beside its
# fields, from its children's, which are set already: a graph built by an
# edit computes them only for its new spine.


class Atom(Record):
    __slots__ = ("name", "key", "flaws")
    name: str

    def __init__(self, name: str):
        _set(self, "name", name)
        _set(self, "key", _ATOM + name + _END_NAME)
        _set(self, "flaws", 0 if ATOM_NAME.match(name) else _BAD_NAME)


class Scroll(Record):
    __slots__ = ("outer", "loops", "regions", "key", "flaws")
    outer: Graph
    loops: tuple[Graph, ...]

    def __init__(self, outer: Graph, loops: tuple[Graph, ...] = ()):
        _set(self, "outer", outer)
        _set(self, "loops", loops)
        _set(self, "regions", (outer,) + loops)
        if not loops:
            # a cut: nothing to sort, and no loop to flag
            _set(self, "key", _SCROLL + outer.key + _END_LOOPS)
            _set(self, "flaws", outer.flaws)
            return
        _set(self, "key", _SCROLL + outer.key
             + "".join(sorted([loop.key for loop in loops])) + _END_LOOPS)
        flaws = outer.flaws
        for loop in loops:
            flaws |= loop.flaws | _LOOPS
        _set(self, "flaws", flaws)

    @property
    def is_cut(self) -> bool:
        return not self.loops


Item = Union[Atom, Scroll]


class Graph(Record):
    __slots__ = ("items", "key", "flaws")
    items: tuple[Item, ...]

    def __init__(self, items: tuple[Item, ...] = ()):
        _set(self, "items", items)
        _set(self, "key", "".join(sorted([item.key for item in items])) + _END_AREA)
        flaws = 0
        for item in items:
            flaws |= item.flaws
        _set(self, "flaws", flaws)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)


BLANK = Graph()


def cut(*items: Item) -> Scroll:
    """A zero-loop scroll around the given items."""
    return Scroll(Graph(tuple(items)))


def node_count(node: Union[Item, Graph]) -> int:
    """Atoms plus scrolls: the ATOM and SCROLL codes of the node's key."""
    return key_size(node.key)


def key_size(key: str) -> int:
    """The node count of the node with this key: its ATOM and SCROLL codes."""
    return key.count(_ATOM) + key.count(_SCROLL)


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

# the region number of a scroll's outer area; loop k is region k + 1
OUTER = 0


def parse_index(digits: str) -> int:
    """A decimal index; InvalidPathError past int()'s digit limit (4,300)."""
    try:
        return int(digits)
    except ValueError:
        raise InvalidPathError(f"index of {len(digits)} digits is too long") from None


class Path(Record):
    """An address into a graph.

    ``parts`` alternates item indices and region numbers (``OUTER`` for
    a scroll's outer area, ``k + 1`` for its loop ``k``), all non-negative
    ints, starting with an index.  A path ending after an index addresses
    an item; a path ending after a region addresses an area.  The empty
    path addresses the sheet.  Text form is dot-separated (``1.outer.0``,
    ``2.loop0``), with the empty path written ``/``; ``Path.parse`` builds
    a path from it.  ``is_odd``: whether the area addressed (for an item
    path, the item's area) is odd; an outer curve counts one, a loop two.
    """

    __slots__ = ("parts", "is_odd")
    parts: tuple

    def __init__(self, parts: tuple = ()):
        for pos, part in enumerate(parts):
            if not isinstance(part, int) or part < 0:
                raise InvalidPathError(f"step {pos}: expected a non-negative int, got {part!r}")
        _fill(self, parts)

    @property
    def is_area(self) -> bool:
        return len(self.parts) % 2 == 0

    @property
    def is_item(self) -> bool:
        return len(self.parts) % 2 == 1

    def item(self, index: int) -> "Path":
        if not self.is_area:
            raise InvalidPathError("can only select an item inside an area")
        return Path(self.parts + (index,))

    def parent_area(self) -> "Path":
        if not self.is_item:
            raise InvalidPathError("only item paths have a parent area")
        return _trusted(self.parts[:-1])

    def starts_with(self, prefix: "Path") -> bool:
        return self.parts[: len(prefix.parts)] == prefix.parts

    @staticmethod
    def parse(text: str) -> "Path":
        text = text.strip()
        if text in ("", "/"):
            return Path()
        parts: list = []
        for pos, chunk in enumerate(text.split(".")):
            if pos % 2 == 0:
                if not chunk.isdecimal():
                    raise InvalidPathError(f"bad item index {chunk!r} in path {text!r}")
                parts.append(parse_index(chunk))
            elif chunk == "outer":
                parts.append(OUTER)
            elif chunk.startswith("loop") and chunk[4:].isdecimal():
                parts.append(parse_index(chunk[4:]) + 1)
            else:
                raise InvalidPathError(f"bad region {chunk!r} in path {text!r}")
        return Path(tuple(parts))

    def __str__(self) -> str:
        return ".".join(str(part) if pos % 2 == 0 else "outer" if part == OUTER
                        else f"loop{part - 1}" for pos, part in enumerate(self.parts)) or "/"


def _fill(path: Path, parts: tuple) -> Path:
    _set(path, "parts", parts)
    _set(path, "is_odd", parts[1::2].count(OUTER) % 2 == 1)
    return path


def _trusted(parts: tuple) -> Path:
    """A Path over parts taken from valid paths, built without validation:
    the walks and the rules derive many paths and validate none of them."""
    return _fill(object.__new__(Path), parts)


# ---------------------------------------------------------------------------
# Resolution and surgery
# ---------------------------------------------------------------------------

def resolve(g: Graph, path: Path) -> Union[Item, Graph]:
    """The item or area (as a Graph) addressed by ``path``."""
    parts = path.parts
    node: Union[Item, Graph] = g
    for pos, step in enumerate(parts):
        if pos % 2 == 0:
            if step >= len(node.items):
                raise InvalidPathError(
                    f"item index {step} out of range at {Path(parts[:pos + 1])}")
            node = node.items[step]
        elif not isinstance(node, Scroll):
            raise InvalidPathError(f"atom at {Path(parts[:pos])} has no regions")
        elif step < len(node.regions):
            node = node.regions[step]
        else:
            # region 0 always exists, so only a loop is out of range
            raise InvalidPathError(f"loop {step - 1} out of range at {Path(parts[:pos + 1])}")
    return node


def resolve_area(g: Graph, path: Path) -> Graph:
    if not path.is_area:
        raise InvalidPathError(f"{path} addresses an item, not an area")
    return resolve(g, path)


def resolve_item(g: Graph, path: Path) -> Item:
    if not path.is_item:
        raise InvalidPathError(f"{path} addresses an area, not an item")
    return resolve(g, path)


def polarity(g: Graph, area: Path) -> str:
    """EVEN or ODD: parity of boundary crossings from the sheet."""
    resolve_area(g, area)
    return ODD if area.is_odd else EVEN


def replace_at(g: Graph, area: Path, new_contents: Graph) -> Graph:
    """``g`` with the addressed area's contents replaced."""
    resolve_area(g, area)
    return edited(g, area.parts, lambda _: new_contents.items)


# An edit is the area parts of a path and ``contents``, a function from
# that area to its new items: every rule rewrites one area.  ``edited``
# builds the graph an edit gives; ``edited_key`` gives its key without
# building a node.  Both are unchecked: ``parts`` must address an area.

def edited(g: Graph, parts: tuple, contents: Callable[[Graph], tuple]) -> Graph:
    """``g`` with the area at ``parts`` holding ``contents(area)``.  Its new
    nodes, the spine down to the area, compute their keys and flaws as
    they are built."""
    if not parts:
        return Graph(contents(g))
    index, region = parts[0], parts[1]
    regions = g.items[index].regions
    regions = (regions[:region] + (edited(regions[region], parts[2:], contents),)
               + regions[region + 1:])
    return Graph(g.items[:index] + (Scroll(regions[0], regions[1:]),) + g.items[index + 1:])


def edited_key(g: Graph, parts: tuple, contents: Callable[[Graph], tuple]) -> str:
    """The key of ``edited(g, parts, contents)``, with no node built.  At
    the area it joins the sorted keys of the new contents; at each level up
    it takes the parent's child keys, replaces the one that changed and
    joins them again."""
    if not parts:
        return "".join(sorted([item.key for item in contents(g)])) + _END_AREA
    index, region = parts[0], parts[1]
    regions = g.items[index].regions
    areas = [area.key for area in regions]
    areas[region] = edited_key(regions[region], parts[2:], contents)
    keys = [item.key for item in g.items]
    keys[index] = _SCROLL + areas[0] + "".join(sorted(areas[1:])) + _END_LOOPS
    return "".join(sorted(keys)) + _END_AREA


# ---------------------------------------------------------------------------
# Canonical form and equality
# ---------------------------------------------------------------------------

_key = attrgetter("key")


def canonicalize(g: Graph) -> Graph:
    """Sort every area and every loop list by canonical key.  Idempotent:
    a node already in key order is returned itself, so an already
    canonical graph builds no node.  Used for printing and translation,
    never applied to stored graphs."""
    items = tuple(map(_canonical_item, sorted(g.items, key=_key)))
    return g if all(map(is_, items, g.items)) else Graph(items)


def _canonical_item(item: Item) -> Item:
    if isinstance(item, Atom):
        return item
    regions = (canonicalize(item.outer),) + tuple(map(canonicalize, sorted(item.loops, key=_key)))
    return item if all(map(is_, regions, item.regions)) else Scroll(regions[0], regions[1:])


def equals(g1: Graph, g2: Graph) -> bool:
    """Multiset equality of areas, recursively."""
    return g1.key == g2.key


# ---------------------------------------------------------------------------
# Walks and well-formedness
# ---------------------------------------------------------------------------

def walk(g: Graph) -> tuple[list[tuple[Path, Graph]], list[tuple[Path, Item]]]:
    """The (path, area) and the (path, item) pairs of ``g``, each list in
    depth-first order: an area, then each of its items, each followed by
    the walks of its regions in region order."""
    areas, items = [], []
    _walk(g, (), areas, items)
    return areas, items


def _walk(area: Graph, prefix: tuple, areas: list, items: list) -> None:
    areas.append((_trusted(prefix), area))
    for index, item in enumerate(area.items):
        parts = prefix + (index,)
        items.append((_trusted(parts), item))
        if isinstance(item, Scroll):
            for region, inner in enumerate(item.regions):
                _walk(inner, parts + (region,), areas, items)


class Violation(Record):
    path: Path
    reason: str


def well_formed(g: Graph, dialect: Dialect) -> list[Violation]:
    """Empty list iff ``g`` is valid in ``dialect``.

    The tree representation rules out intersecting boundaries by
    construction, so the checks left are atom-name syntax and, for the
    classical dialect, the absence of loops.  A graph whose ``flaws`` the
    dialect allows is valid at once; each node computes its flaws once,
    and every graph holding the node shares them.  Otherwise
    ``walk_violations`` lists the violations.
    """
    if not g.flaws & _FORBIDDEN[dialect]:
        return []
    return walk_violations(g, dialect)


def walk_violations(g: Graph, dialect: Dialect) -> list[Violation]:
    """Each violation of ``dialect`` in ``g`` with its path, in walk order.
    The walk takes one frame per level of nesting."""
    out: list[Violation] = []
    for path, item in walk(g)[1]:
        if isinstance(item, Atom):
            if not ATOM_NAME.match(item.name):
                out.append(Violation(path, f"bad atom name {item.name!r}"))
        elif item.loops and dialect is Dialect.CLASSICAL:
            out.append(Violation(path, "scroll loops are not classical signs"))
    return out
