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

The steps are stated once, in the table ``_STEPS``, which both the reader
and the writer read: each keyword's rule, the text between its operands,
and the usage quoted when a line lacks them.
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
from .graphs import Graph, Path, parse_index
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
                start = parse_graph(rest, system)
                continue
            if start is None:
                raise ScriptError("a graph line must precede the steps", lineno)
            if keyword == "expect":
                if not steps:
                    raise ScriptError("expect before any step", lineno)
                rule, old = steps[-1]
                if old is not None:
                    raise ScriptError("duplicate expect for the same step", lineno)
                steps[-1] = (rule, parse_graph(rest, system))
                continue
            steps.append((_parse_step(keyword, rest, system, lineno), None))
        except (ParseError, DialectError, InvalidPathError) as exc:
            raise ScriptError(str(exc), lineno) from exc
    if system is None:
        raise ScriptError("empty script", 1)
    if start is None:
        raise ScriptError("missing graph line", 1)
    return ProofScript(system, start, tuple(steps))


# keyword: (rule, text written between its operands, text the reader splits
# them at, usage quoted when that split or the index is missing, or "" where
# the split may fail).  An operand's kind is its field's annotation, read
# from the rule's class as the (name, kind) pairs of ``_FIELDS``.
_STEPS = {
    "erase": (Erase, "", "", ""),
    "insert": (Insert, " ", " ", ""),
    "iterate": (Iterate, " -> ", "->", "<item> -> <area>"),
    "deiterate": (Deiterate, " witness ", " witness ", "<item> witness <item>"),
    "dcadd": (DoubleCutIntro, " items ", " items", "items <i,j,...>"),
    "dcremove": (DoubleCutElim, "", "", ""),
    "wrap": (ScrollWrap, " items ", " items", "items <i,j,...>"),
    "unwrap": (ScrollUnwrap, "", "", ""),
    "loopadd": (LoopAdd, " ", " ", ""),
    "loopremove": (LoopRemove, " ", " ", "<item> <k>"),
    "detach": (Detach, "", "", ""),
}
_KEYWORDS = {rule: keyword for keyword, (rule, *_) in _STEPS.items()}
_FIELDS = {rule: tuple(rule.__annotations__.items()) for rule in _KEYWORDS}


def _parse_step(keyword: str, rest: str, system: System, lineno: int) -> RuleInstance:
    if keyword not in _STEPS:
        raise ScriptError(f"unknown step {keyword!r}", lineno)
    rule, _, split, usage = _STEPS[keyword]
    operands = _FIELDS[rule]  # the first operand is always a path
    if len(operands) == 1:
        return rule(Path.parse(rest))
    kind = operands[1][1]
    head, sep, tail = rest.partition(split)
    # the split, an index and an items list are checked before the path is read
    if (usage and not sep) or (kind == "int" and not tail.strip().isdecimal()):
        raise ScriptError(f"{keyword} needs '{usage}'", lineno)
    if kind == "frozenset[int]":
        items = [i.strip() for i in tail.split(",") if i.strip()]
        try:
            # parse_index names an all-digit item past int()'s digit limit
            operand = frozenset(parse_index(i) if i.isdecimal() else int(i) for i in items)
        except ValueError:
            raise ScriptError(f"{keyword} items must be integers", lineno) from None
    path = Path.parse(head)
    if kind == "Path":
        operand = Path.parse(tail)
    elif kind == "Graph":
        operand = parse_graph(tail, system)
    elif kind == "int":
        operand = parse_index(tail)
    return rule(path, operand)


def format_script(script: ProofScript) -> str:
    lines = [f"system {script.system.value}", f"graph {print_graph(script.start)}"]
    for rule, expect in script.steps:
        lines.append(_format_step(rule))
        if expect is not None:
            lines.append(f"expect {print_graph(expect)}")
    return "\n".join(lines) + "\n"


def _format_step(rule: RuleInstance) -> str:
    keyword = _KEYWORDS.get(type(rule))
    if keyword is None:
        raise PeirceError(f"unknown rule {rule!r}")
    operands = []
    for name, kind in _FIELDS[type(rule)]:
        value = getattr(rule, name)
        if kind == "Graph":
            operands.append(print_graph(value))
        elif kind == "frozenset[int]":
            operands.append(",".join(str(i) for i in sorted(value)))
        else:
            operands.append(str(value))
    return f"{keyword} {_STEPS[keyword][1].join(operands)}".rstrip()
