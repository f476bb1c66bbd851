"""Benchmark-owned models of graphs, formulas, Kripke models and ordinals.

Every benchmark input is generated from these models, and every output of
the program is checked against them, so neither the inputs nor the
reference answers come from the code under measurement.  The models follow
the behaviour documented in the package: the graph and formula notations,
the rule side conditions (parity of crossings, iteration scope), where a
rule puts its result in an area, the graph/formula translations, Kripke
forcing and the Cantor-normal-form printing of ordinals.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import product
from typing import NamedTuple

# ---------------------------------------------------------------------------
# Graphs: a graph is a tuple of items, an item an atom name or a Scroll.
# ---------------------------------------------------------------------------


class Scroll(NamedTuple):
    outer: tuple
    loops: tuple = ()


def cut(*items) -> Scroll:
    return Scroll(tuple(items))


def show_graph(g: tuple) -> str:
    return " ".join(_show_item(item) for item in g)


def _show_item(item) -> str:
    if isinstance(item, str):
        return item
    if not item.loops:
        return f"({show_graph(item.outer)})"
    return "[" + " | ".join([show_graph(item.outer)] + [show_graph(l) for l in item.loops]) + "]"


_GRAPH_TOKEN = re.compile(r"\s*(?:([()\[\]|])|([A-Za-z][A-Za-z0-9_]*))")


def parse_graph(text: str) -> tuple:
    """Parse graph notation; ValueError on malformed text."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _GRAPH_TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad graph text {text!r}")
        tokens.append(m.group(1) or m.group(2))
        pos = m.end()
    tokens.append("")
    at = 0

    def area() -> tuple:
        nonlocal at
        items = []
        while tokens[at] not in ("", ")", "]", "|"):
            tok = tokens[at]
            at += 1
            if tok == "(":
                inner = area()
                expect(")")
                items.append(Scroll(inner))
            elif tok == "[":
                outer = area()
                loops = []
                while tokens[at] == "|":
                    at += 1
                    loops.append(area())
                expect("]")
                items.append(Scroll(outer, tuple(loops)))
            else:
                items.append(tok)
        return tuple(items)

    def expect(tok: str) -> None:
        nonlocal at
        if tokens[at] != tok:
            raise ValueError(f"expected {tok!r} in {text!r}")
        at += 1

    g = area()
    if tokens[at] != "":
        raise ValueError(f"trailing text in {text!r}")
    return g


def graph_key(g: tuple) -> tuple:
    """Equal keys iff the graphs are equal as nested multisets."""
    return tuple(sorted(_item_key(item) for item in g))


def _item_key(item) -> tuple:
    if isinstance(item, str):
        return (0, item)
    return (1, graph_key(item.outer), tuple(sorted(graph_key(l) for l in item.loops)))


def same_graph(text: str, g: tuple) -> bool:
    try:
        return graph_key(parse_graph(text)) == graph_key(g)
    except ValueError:
        return False


def graph_size(g: tuple) -> int:
    return sum(1 if isinstance(i, str) else
               1 + graph_size(i.outer) + sum(graph_size(l) for l in i.loops) for i in g)


def graph_atoms(g: tuple) -> list:
    out = []
    for item in g:
        if isinstance(item, str):
            out.append(item)
        else:
            out += graph_atoms(item.outer)
            for loop in item.loops:
                out += graph_atoms(loop)
    return out


def graph_curves(g: tuple) -> int:
    """Closed curves drawn for a graph: one per scroll plus one per loop."""
    return sum(0 if isinstance(i, str) else
               1 + len(i.loops) + graph_curves(i.outer) + sum(graph_curves(l) for l in i.loops)
               for i in g)


def random_graph(rng: random.Random, names: str, depth: int, width: int,
                 loops: bool) -> tuple:
    return tuple(_random_item(rng, names, depth, width, loops)
                 for _ in range(rng.randint(1, width)))


def _random_item(rng, names, depth, width, loops):
    if depth <= 1 or rng.random() < 0.45:
        return rng.choice(names)
    outer = tuple(_random_item(rng, names, depth - 1, width, loops)
                  for _ in range(rng.randint(0, width - 1)))
    if not loops:
        return Scroll(outer)
    return Scroll(outer, tuple(
        tuple(_random_item(rng, names, depth - 1, width, loops)
              for _ in range(rng.randint(0, width - 1)))
        for _ in range(rng.randint(0, 2))))


def relabel(g: tuple, rng: random.Random, names: dict) -> tuple:
    """Rename atoms by ``names`` and shuffle every area's items."""
    items = []
    for item in g:
        if isinstance(item, str):
            items.append(names[item])
        else:
            items.append(Scroll(relabel(item.outer, rng, names),
                                tuple(relabel(l, rng, names) for l in item.loops)))
    rng.shuffle(items)
    return tuple(items)


# -- paths, parity, scope and the rules the script proposer uses ------------

OUTER = "outer"


def show_path(parts: tuple) -> str:
    if not parts:
        return "/"
    return ".".join(str(p) if isinstance(p, int) else
                    (OUTER if p == OUTER else f"loop{p[1]}") for p in parts)


def walk(g: tuple, prefix: tuple = ()):
    """Yield ("area", path, area) and ("item", path, item), sheet first."""
    yield "area", prefix, g
    for index, item in enumerate(g):
        path = prefix + (index,)
        yield "item", path, item
        if not isinstance(item, str):
            yield from walk(item.outer, path + (OUTER,))
            for k, loop in enumerate(item.loops):
                yield from walk(loop, path + (("loop", k),))


def crossings(area_path: tuple) -> tuple:
    """Curves crossed from the sheet to an area: a loop lies inside its
    scroll's outer curve and its own curve."""
    out = []
    for pos in range(1, len(area_path), 2):
        owner, region = area_path[:pos], area_path[pos]
        out.append((owner, OUTER))
        if region != OUTER:
            out.append((owner, region))
    return tuple(out)


def is_even(area_path: tuple) -> bool:
    return len(crossings(area_path)) % 2 == 0


def in_scope(source: tuple, target_area: tuple) -> bool:
    src = crossings(source[:-1])
    return (crossings(target_area)[:len(src)] == src
            and target_area[:len(source)] != source)


def area_at(g: tuple, path: tuple) -> tuple:
    for pos in range(0, len(path), 2):
        item = g[path[pos]]
        region = path[pos + 1]
        g = item.outer if region == OUTER else item.loops[region[1]]
    return g


def with_area(g: tuple, path: tuple, new: tuple) -> tuple:
    if not path:
        return new
    index, region, rest = path[0], path[1], path[2:]
    item = g[index]
    if region == OUTER:
        item = Scroll(with_area(item.outer, rest, new), item.loops)
    else:
        loops = list(item.loops)
        loops[region[1]] = with_area(loops[region[1]], rest, new)
        item = Scroll(item.outer, tuple(loops))
    return g[:index] + (item,) + g[index + 1:]


def propose_step(rng: random.Random, system: str, g: tuple, names: str,
                 max_size: int):
    """One legal step chosen by the benchmark's own side conditions.

    Returns (script line, resulting graph).  Appended material goes to
    the end of its area, and a wrapper takes the place of the item it
    wraps (or the end of the area when it wraps nothing), as the package
    documents for its rules.
    """
    areas = [(p, a) for kind, p, a in walk(g) if kind == "area"]
    items = [(p, i) for kind, p, i in walk(g) if kind == "item"]
    wrap_kind = "dcadd" if system == "classical" else "wrap"
    while True:
        kind = rng.choice(("erase", "insert", "iterate", wrap_kind, wrap_kind))
        if kind == "erase":
            choices = [p for p, _ in items if is_even(p[:-1])]
            if not choices:
                continue
            p = rng.choice(choices)
            area = area_at(g, p[:-1])
            return f"erase {show_path(p)}", with_area(g, p[:-1], area[:p[-1]] + area[p[-1] + 1:])
        if kind == "insert":
            choices = [p for p, _ in areas if not is_even(p)]
            if not choices or graph_size(g) >= max_size:
                continue
            p = rng.choice(choices)
            new = random_graph(rng, names, 2, 2, system == "intuitionistic")
            return (f"insert {show_path(p)} {show_graph(new)}",
                    with_area(g, p, area_at(g, p) + new))
        if kind == "iterate":
            choices = [(s, t) for s, item in items for t, _ in areas
                       if in_scope(s, t) and graph_size((item,)) <= 4]
            if not choices or graph_size(g) >= max_size:
                continue
            s, t = rng.choice(choices)
            item = area_at(g, s[:-1])[s[-1]]
            return (f"iterate {show_path(s)} -> {show_path(t)}",
                    with_area(g, t, area_at(g, t) + (item,)))
        if graph_size(g) >= max_size:
            continue
        p, area = rng.choice(areas)
        if area and rng.random() < 0.7:
            i = rng.randrange(len(area))
            chosen, at, indices = (area[i],), i, str(i)
        else:
            chosen, at, indices = (), len(area), ""
        rest = area[:at] + area[at + len(chosen):]
        wrapper = (cut(cut(*chosen)) if kind == "dcadd"
                   else Scroll((), (chosen,)))
        line = f"{kind} {show_path(p)} items {indices}".rstrip()
        return line, with_area(g, p, rest[:at] + (wrapper,) + rest[at:])


# ---------------------------------------------------------------------------
# Formulas: ("atom", name), ("T",), ("F",), ("not", a), ("and"|"or"|"imp", a, b)
# ---------------------------------------------------------------------------

TOP, BOT = ("T",), ("F",)
_LEVEL = {"imp": 1, "or": 2, "and": 3, "not": 4}


def show_formula(f: tuple, minimum: int = 1) -> str:
    op = f[0]
    if op == "atom":
        return f[1]
    if op in ("T", "F"):
        return op
    if op == "not":
        body = "~" + show_formula(f[1], 4)
    elif op == "imp":
        body = show_formula(f[1], 2) + " -> " + show_formula(f[2], 1)
    elif op == "or":
        body = show_formula(f[1], 2) + " | " + show_formula(f[2], 3)
    else:
        body = show_formula(f[1], 3) + " & " + show_formula(f[2], 4)
    return f"({body})" if _LEVEL[op] < minimum else body


_FORMULA_TOKEN = re.compile(r"\s*(->|[~&|()]|[A-Za-z][A-Za-z0-9_]*)")


def parse_formula(text: str) -> tuple:
    """Parse formula notation (precedence ~ > & > | > ->, -> to the right)."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _FORMULA_TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad formula text {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    at = 0

    def take(tok: str) -> bool:
        nonlocal at
        if tokens[at] == tok:
            at += 1
            return True
        return False

    def imp():
        left = disj()
        return ("imp", left, imp()) if take("->") else left

    def disj():
        f = conj()
        while take("|"):
            f = ("or", f, conj())
        return f

    def conj():
        f = unary()
        while take("&"):
            f = ("and", f, unary())
        return f

    def unary():
        if take("~"):
            return ("not", unary())
        if take("("):
            f = imp()
            if not take(")"):
                raise ValueError(f"unclosed '(' in {text!r}")
            return f
        nonlocal at
        tok = tokens[at]
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", tok):
            raise ValueError(f"formula expected in {text!r}")
        at += 1
        return (tok,) if tok in ("T", "F") else ("atom", tok)

    f = imp()
    if tokens[at] != "":
        raise ValueError(f"trailing text in {text!r}")
    return f


def formula_atoms(f: tuple) -> set:
    if f[0] == "atom":
        return {f[1]}
    return set().union(*(formula_atoms(x) for x in f[1:]))


def random_formula(rng: random.Random, connectives: int, names: str) -> tuple:
    """Random formula with the given number of binary/unary connectives."""
    if connectives <= 0:
        roll = rng.random()
        if roll < 0.8:
            return ("atom", rng.choice(names))
        return TOP if roll < 0.9 else BOT
    left_budget = rng.randint(0, connectives - 1)
    kind = rng.randrange(4)
    if kind == 0:
        return ("not", random_formula(rng, connectives - 1, names))
    return (("and", "or", "imp")[kind - 1],
            random_formula(rng, left_budget, names),
            random_formula(rng, connectives - 1 - left_budget, names))


def conj(parts: list) -> tuple:
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = ("and", part, out)
    return out


def disj(parts: list) -> tuple:
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = ("or", part, out)
    return out


def normal_form(f: tuple) -> tuple:
    """Flatten & and | chains into sorted multisets (equality up to AC)."""
    op = f[0]
    if op in ("and", "or"):
        parts = []
        stack = [f]
        while stack:
            x = stack.pop()
            if x[0] == op:
                stack += [x[1], x[2]]
            else:
                parts.append(normal_form(x))
        return (op,) + tuple(sorted(parts))
    if op in ("not", "imp"):
        return (op,) + tuple(normal_form(x) for x in f[1:])
    return f


def eval_classical(f: tuple, env: dict) -> bool:
    op = f[0]
    if op == "atom":
        return env[f[1]]
    if op in ("T", "F"):
        return op == "T"
    if op == "not":
        return not eval_classical(f[1], env)
    a = eval_classical(f[1], env)
    if op == "and":
        return a and eval_classical(f[2], env)
    if op == "or":
        return a or eval_classical(f[2], env)
    return (not a) or eval_classical(f[2], env)


def tautology(f: tuple) -> bool:
    names = sorted(formula_atoms(f))
    return all(eval_classical(f, dict(zip(names, row)))
               for row in product((False, True), repeat=len(names)))


# -- translations, as documented in the package -----------------------------


def graph_formula(g: tuple) -> tuple:
    """Juxtaposition is &, blank is T, a cut is ~, [g0 | g1..gn] is
    g0 -> (g1 | .. | gn)."""
    if not g:
        return TOP
    return conj([_item_formula(item) for item in g])


def _item_formula(item) -> tuple:
    if isinstance(item, str):
        return ("atom", item)
    if not item.loops:
        return ("not", graph_formula(item.outer))
    return ("imp", graph_formula(item.outer), disj([graph_formula(l) for l in item.loops]))


def formula_graph(f: tuple, classical: bool) -> tuple:
    op = f[0]
    if op == "atom":
        return (f[1],)
    if op == "T":
        return ()
    if op == "F":
        return (cut(),)
    if op == "and":
        return formula_graph(f[1], classical) + formula_graph(f[2], classical)
    if op == "not":
        return (cut(*formula_graph(f[1], classical)),)
    a, b = formula_graph(f[1], classical), formula_graph(f[2], classical)
    if classical:
        if op == "imp":
            return (cut(*a, cut(*b)),)
        return (cut(cut(*a), cut(*b)),)
    if op == "imp":
        return (Scroll(a, (b,)),)
    return (Scroll((), (a, b)),)


# ---------------------------------------------------------------------------
# Kripke models: (worlds, set of (a, b) with a <= b, tuple of atom sets)
# ---------------------------------------------------------------------------


def forces(model: tuple, w: int, f: tuple) -> bool:
    n, leq, val = model
    op = f[0]
    if op == "atom":
        return f[1] in val[w]
    if op in ("T", "F"):
        return op == "T"
    if op == "and":
        return forces(model, w, f[1]) and forces(model, w, f[2])
    if op == "or":
        return forces(model, w, f[1]) or forces(model, w, f[2])
    later = [v for v in range(n) if (w, v) in leq]
    if op == "not":
        return not any(forces(model, v, f[1]) for v in later)
    return all(forces(model, v, f[2]) for v in later if forces(model, v, f[1]))


def is_kripke_model(model: tuple) -> bool:
    """Reflexive, transitive, antisymmetric order; persistent valuation."""
    n, leq, val = model
    return (all((w, w) in leq for w in range(n))
            and all((a, d) in leq for a, b in leq for c, d in leq if b == c)
            and all(a == b or (b, a) not in leq for a, b in leq)
            and all(val[a] <= val[b] for a, b in leq))


def refutes(model: tuple, f: tuple) -> bool:
    return is_kripke_model(model) and not all(forces(model, w, f) for w in range(model[0]))


_MODEL = re.compile(r"worlds: (\d+); order: (.*?); val: (.*)\Z")


def parse_kripke_model(text: str) -> tuple:
    """Read the program's model print: ``worlds: n; order: a<=b, ..;
    val: w:{atoms}; ..``.  The order is listed without its reflexive part."""
    m = _MODEL.match(text.strip())
    if not m:
        raise ValueError(f"bad model text {text!r}")
    n = int(m.group(1))
    leq = {(w, w) for w in range(n)}
    for pair in filter(None, (p.strip() for p in m.group(2).split(","))):
        a, b = pair.split("<=")
        leq.add((int(a), int(b)))
    val = [set() for _ in range(n)]
    for entry in m.group(3).split("; "):
        w, atoms = entry.split(":", 1)
        val[int(w)] = set(filter(None, atoms.strip("{}").split(",")))
    return n, leq, tuple(frozenset(v) for v in val)


def _rooted_orders(max_worlds: int) -> list:
    """Orders with least world 0, up to isomorphism for n <= 3."""
    orders = [(1, set())]
    if max_worlds >= 2:
        orders.append((2, {(0, 1)}))
    if max_worlds >= 3:
        orders.append((3, {(0, 1), (0, 2), (1, 2)}))
        orders.append((3, {(0, 1), (0, 2)}))
    if max_worlds > 3:
        raise ValueError("own countermodel search stops at 3 worlds")
    return [(n, rel | {(w, w) for w in range(n)}) for n, rel in orders]


def find_countermodel(f: tuple, max_worlds: int = 3):
    """A rooted countermodel with at most ``max_worlds`` (<= 3) worlds,
    by brute force over up-closed valuations, or None."""
    names = sorted(formula_atoms(f))
    for n, leq in _rooted_orders(max_worlds):
        upsets = [frozenset(w for w in range(n) if mask >> w & 1)
                  for mask in range(1 << n)]
        upsets = [s for s in upsets if all(b in s for a, b in leq if a in s)]
        for choice in product(upsets, repeat=len(names)):
            val = tuple(frozenset(x for x, s in zip(names, choice) if w in s)
                        for w in range(n))
            model = (n, leq, val)
            if not forces(model, 0, f):
                return model
    return None


# ---------------------------------------------------------------------------
# Ordinals below w^3 as triples (a, b, c) = w^2*a + w*b + c, and continuum
# elements as tuples of (length, Fraction) pieces.
# ---------------------------------------------------------------------------


def ord_add(x: tuple, y: tuple) -> tuple:
    if y[0]:
        return (x[0] + y[0], y[1], y[2])
    if y[1]:
        return (x[0], x[1] + y[1], y[2])
    return (x[0], x[1], x[2] + y[2])


def ord_sub_left(b: tuple, d: tuple) -> tuple:
    """The g with b + g = d, for b <= d."""
    if b[0] < d[0]:
        return (d[0] - b[0], d[1], d[2])
    if b[1] < d[1]:
        return (0, d[1] - b[1], d[2])
    return (0, 0, d[2] - b[2])


def show_ordinal(x: tuple) -> str:
    terms = []
    for coeff, base in zip(x, ("w^2", "w", "")):
        if coeff:
            terms.append(str(coeff) if not base else base if coeff == 1 else f"{base}*{coeff}")
    return "+".join(terms) or "0"


def random_ordinal(rng: random.Random) -> tuple:
    while True:
        x = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(3))
        if any(x):
            return x


def element(pieces) -> tuple:
    """Merge adjacent pieces of equal value."""
    out = []
    for length, value in pieces:
        if out and out[-1][1] == value:
            out[-1] = (ord_add(out[-1][0], length), value)
        else:
            out.append((length, value))
    return tuple(out)


def random_element(rng: random.Random) -> tuple:
    return element((random_ordinal(rng), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                   for _ in range(rng.randint(1, 3)))


def show_element(e: tuple) -> str:
    return "".join(f"[{show_ordinal(l)}:{v}]" for l, v in e)


def domain(e: tuple) -> tuple:
    total = (0, 0, 0)
    for length, _ in e:
        total = ord_add(total, length)
    return total


def lex_relation(x: tuple, y: tuple) -> str:
    x, y = list(x), list(y)
    while x and y:
        (lx, vx), (ly, vy) = x[0], y[0]
        if vx != vy:
            return "less" if vx < vy else "greater"
        if lx == ly:
            x.pop(0)
            y.pop(0)
        elif lx < ly:
            x.pop(0)
            y[0] = (ord_sub_left(lx, ly), vy)
        else:
            y.pop(0)
            x[0] = (ord_sub_left(ly, lx), vx)
    if x:
        return "proper_extension"
    return "proper_prefix" if y else "equal"


def tail(x: tuple, y: tuple) -> tuple:
    """The part of y beyond dom(x), for y properly extending x."""
    consume = domain(x)
    out = []
    for length, value in y:
        if consume == (0, 0, 0):
            out.append((length, value))
        elif length <= consume:
            consume = ord_sub_left(length, consume)
        else:
            out.append((ord_sub_left(consume, length), value))
            consume = (0, 0, 0)
    return element(out)
