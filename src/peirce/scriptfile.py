"""Line-oriented proof-script files.

Format (UTF-8, ``#`` comments)::

    system classical|intuitionistic
    graph <graph-text>
    erase <item>
    insert <area> <graph-text>
    iterate <item> -> <area>
    deiterate <item> witness <item>
    dcadd <area> items <i,j,...>
    dcremove <item>
    wrap <area> items <i,j,...>
    unwrap <item>
    loopadd <item> <graph-text>
    loopremove <item> <k>
    detach <item>
    expect <graph-text>

Paths are dot-separated (``1.outer.0``, ``2.loop0``); the empty path is
``/``.  ``expect`` attaches to the step before it.  An empty ``items``
list is written as the bare keyword.
"""

from __future__ import annotations

from .calculus import (
    Deiterate,
    Detach,
    DoubleCutElim,
    DoubleCutIntro,
    Erase,
    Insert,
    Iterate,
    LoopAdd,
    LoopRemove,
    ProofScript,
    RuleInstance,
    ScrollUnwrap,
    ScrollWrap,
    System,
)
from .errors import DialectError, InvalidPathError, ParseError, PeirceError, ScriptError
from .graphs import Graph, Path
from .notation import parse_graph, print_graph


def parse_script(text: str) -> ProofScript:
    system: System | None = None
    start: Graph | None = None
    steps: list[tuple[RuleInstance, Graph | None]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if keyword == "system":
                if system is not None:
                    raise ScriptError("duplicate system line", lineno)
                try:
                    system = System(rest)
                except ValueError:
                    raise ScriptError(f"unknown system {rest!r}", lineno) from None
                continue
            if system is None:
                raise ScriptError("script must begin with a system line", lineno)
            if keyword == "graph":
                if start is not None:
                    raise ScriptError("duplicate graph line", lineno)
                start = parse_graph(rest, system.dialect)
                continue
            if start is None:
                raise ScriptError("a graph line must precede the steps", lineno)
            if keyword == "expect":
                if not steps:
                    raise ScriptError("expect before any step", lineno)
                rule, old = steps[-1]
                if old is not None:
                    raise ScriptError("duplicate expect for the same step", lineno)
                steps[-1] = (rule, parse_graph(rest, system.dialect))
                continue
            steps.append((_parse_step(keyword, rest, system, lineno), None))
        except (ParseError, DialectError, InvalidPathError) as exc:
            raise ScriptError(str(exc), lineno) from exc
    if system is None:
        raise ScriptError("empty script", 1)
    if start is None:
        raise ScriptError("missing graph line", 1)
    return ProofScript(system, start, tuple(steps))


def _parse_step(keyword: str, rest: str, system: System, lineno: int) -> RuleInstance:
    if keyword == "erase":
        return Erase(Path.parse(rest))
    if keyword == "insert":
        head, _, graph_text = rest.partition(" ")
        return Insert(Path.parse(head), parse_graph(graph_text, system.dialect))
    if keyword == "iterate":
        src, sep, tgt = rest.partition("->")
        if not sep:
            raise ScriptError("iterate needs '<item> -> <area>'", lineno)
        return Iterate(Path.parse(src), Path.parse(tgt))
    if keyword == "deiterate":
        item, sep, witness = rest.partition(" witness ")
        if not sep:
            raise ScriptError("deiterate needs '<item> witness <item>'", lineno)
        return Deiterate(Path.parse(item), Path.parse(witness))
    if keyword in ("dcadd", "wrap"):
        head, sep, tail = rest.partition(" items")
        if not sep:
            raise ScriptError(f"{keyword} needs 'items <i,j,...>'", lineno)
        try:
            indices = frozenset(int(i) for i in tail.strip().split(",") if i.strip())
        except ValueError:
            raise ScriptError(f"{keyword} items must be integers", lineno) from None
        path = Path.parse(head)
        return DoubleCutIntro(path, indices) if keyword == "dcadd" else ScrollWrap(path, indices)
    if keyword == "dcremove":
        return DoubleCutElim(Path.parse(rest))
    if keyword == "unwrap":
        return ScrollUnwrap(Path.parse(rest))
    if keyword == "loopadd":
        head, _, graph_text = rest.partition(" ")
        return LoopAdd(Path.parse(head), parse_graph(graph_text, system.dialect))
    if keyword == "loopremove":
        head, _, k = rest.partition(" ")
        if not k.strip().isdecimal():
            raise ScriptError("loopremove needs '<item> <k>'", lineno)
        return LoopRemove(Path.parse(head), int(k))
    if keyword == "detach":
        return Detach(Path.parse(rest))
    raise ScriptError(f"unknown step {keyword!r}", lineno)


def format_script(script: ProofScript) -> str:
    lines = [f"system {script.system.value}", f"graph {print_graph(script.start)}"]
    for rule, expect in script.steps:
        lines.append(_format_step(rule))
        if expect is not None:
            lines.append(f"expect {print_graph(expect)}")
    return "\n".join(lines) + "\n"


def _format_step(rule: RuleInstance) -> str:
    if isinstance(rule, Erase):
        return f"erase {rule.item}"
    if isinstance(rule, Insert):
        return f"insert {rule.area} {print_graph(rule.graph)}".rstrip()
    if isinstance(rule, Iterate):
        return f"iterate {rule.source} -> {rule.target}"
    if isinstance(rule, Deiterate):
        return f"deiterate {rule.item} witness {rule.witness}"
    if isinstance(rule, DoubleCutIntro):
        return f"dcadd {rule.area} items {_indices(rule.indices)}".rstrip()
    if isinstance(rule, DoubleCutElim):
        return f"dcremove {rule.item}"
    if isinstance(rule, ScrollWrap):
        return f"wrap {rule.area} items {_indices(rule.indices)}".rstrip()
    if isinstance(rule, ScrollUnwrap):
        return f"unwrap {rule.item}"
    if isinstance(rule, LoopAdd):
        return f"loopadd {rule.item} {print_graph(rule.graph)}".rstrip()
    if isinstance(rule, LoopRemove):
        return f"loopremove {rule.item} {rule.loop}"
    if isinstance(rule, Detach):
        return f"detach {rule.item}"
    raise PeirceError(f"unknown rule {rule!r}")


def _indices(indices: frozenset[int]) -> str:
    return ",".join(str(i) for i in sorted(indices))
