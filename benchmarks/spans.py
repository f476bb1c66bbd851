"""Span tracing from outside the program.

A traced run replaces the public functions of each layer, at the names
their callers bind, with wrappers that record a span (name, start, end,
parent) in memory.  Layer self time is a span's duration minus its child
spans; counts are taken at the same boundaries.  Nothing inside the
package is edited, and an untraced run pays nothing.
"""

from __future__ import annotations

import gzip
import importlib
import types
from time import perf_counter

# (owner, attribute, layer).  Owner "lib" is the benchmark's own binding
# of the entry points it calls; "peirce.cli.ct" is the continuum module as
# bound by the command line.
BINDINGS = (
    ("lib", "main", "cli.main"),
    ("lib", "parse_formula", "notation.parse"),
    ("lib", "kripke_countermodel", "kripke.countermodel"),
    ("peirce.cli", "derive", "search.derive"),
    ("peirce.cli", "check_script", "calculus.check_script"),
    ("peirce.cli", "canonicalize", "graphs.canonicalize"),
    ("peirce.cli", "kripke_countermodel", "kripke.countermodel"),
    ("peirce.cli", "parse_graph", "notation.parse"),
    ("peirce.cli", "parse_formula", "notation.parse"),
    ("peirce.cli", "print_graph", "notation.print"),
    ("peirce.cli", "print_formula", "notation.print"),
    ("peirce.cli", "parse_script", "scriptfile.parse"),
    ("peirce.cli", "format_script", "scriptfile.format"),
    ("peirce.cli", "taut_classical", "semantics.taut_classical"),
    ("peirce.cli", "taut_int", "semantics.taut_int"),
    ("peirce.cli", "graph_to_formula", "semantics.translate"),
    ("peirce.cli", "formula_to_graph", "semantics.translate"),
    ("peirce.cli.ct", "parse_element", "continuum.ops"),
    ("peirce.cli.ct", "lex_compare", "continuum.ops"),
    ("peirce.cli.ct", "extends", "continuum.ops"),
    ("peirce.cli.ct", "tail", "continuum.ops"),
    ("peirce.cli.ct", "concat", "continuum.ops"),
    ("peirce.cli.ct", "elem_domain", "continuum.ops"),
    ("peirce.cli.ct", "print_element", "continuum.ops"),
    ("peirce.cli.ct", "print_ordinal", "continuum.ops"),
    ("peirce.search", "enumerate_rule_instances", "calculus.enumerate"),
    ("peirce.search", "_apply_fast", "calculus.apply"),
    ("peirce.search", "canonicalize", "graphs.canonicalize"),
    ("peirce.search", "equals", "graphs.equals"),
    ("peirce.search", "node_count", "graphs.node_count"),
    ("peirce.search", "check_script", "calculus.check_script"),
    ("peirce.search", "print_graph", "notation.print"),
    ("peirce.calculus", "apply_rule", "calculus.apply"),
    ("peirce.calculus", "equals", "graphs.equals"),
    ("peirce.scriptfile", "parse_graph", "notation.parse"),
    ("peirce.scriptfile", "print_graph", "notation.print"),
    ("peirce.semantics", "canonicalize", "graphs.canonicalize"),
    ("peirce.render", "layout", "render.layout"),
    ("peirce.render", "emit_svg", "render.emit"),
)

LAYERS = ("cli.main", "notation.parse", "notation.print", "scriptfile.parse",
          "scriptfile.format", "graphs.canonicalize", "graphs.equals",
          "graphs.node_count", "calculus.enumerate", "calculus.apply",
          "calculus.check_script", "search.derive", "semantics.taut_classical",
          "semantics.taut_int", "semantics.translate", "kripke.countermodel",
          "render.layout", "render.emit", "continuum.ops")

SEARCH_APPLY = "peirce.search._apply_fast"


def _atom_count(f) -> int:
    names, stack = set(), [f]
    while stack:
        x = stack.pop()
        if hasattr(x, "name"):
            names.add(x.name)
        stack += [getattr(x, a) for a in ("body", "left", "right") if hasattr(x, a)]
    return len(names)


# Counts taken from a call's arguments and result, by layer.
COUNTERS = {
    "calculus.enumerate": lambda args, r: {"calculus.enumerate.instances": len(r)},
    "calculus.check_script": lambda args, r: {"calculus.check_script.rejected": int(not r.ok)},
    "semantics.taut_classical": lambda args, r: {"semantics.tt_rows": 2 ** _atom_count(args[0])},
    "kripke.countermodel": lambda args, r: {"kripke.countermodel.found": int(r is not None)},
    "render.emit": lambda args, r: {"render.svg_bytes": len(r.encode("utf-8"))},
    "notation.parse": lambda args, r: {"notation.parse.chars": len(args[0])},
}


class Tracer:
    """Installs the wrappers, records spans, and restores the bindings."""

    def __init__(self, lib):
        self.lib = lib
        self.names: list = []       # span name per binding id
        self.layers: list = []      # layer per binding id
        self.span_name: list = []   # binding id per span
        self.parent: list = []
        self.start: list = []
        self.end: list = []
        self.request: list = []     # request (command) number per span
        self.counts: list = []      # (span, {counter: amount})
        self.current = [0]          # number of the running request
        self.stack: list = []
        self.saved: list = []
        self.missing: list = []

    def _owner(self, name: str):
        if name == "lib":
            return self.lib
        if name == "peirce.cli.ct":
            cli = importlib.import_module("peirce.cli")
            proxy = getattr(cli, "ct", None)
            if proxy is None:
                return None
            if not isinstance(proxy, types.SimpleNamespace):
                self.saved.append((cli, "ct", proxy))
                proxy = types.SimpleNamespace(**vars(proxy))
                cli.ct = proxy
            return proxy
        return importlib.import_module(name)

    def install(self) -> None:
        for owner_name, attr, layer in BINDINGS:
            owner = self._owner(owner_name)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{owner_name}.{attr}")
                continue
            self.saved.append((owner, attr, fn))
            self.names.append(f"{owner_name}.{attr}")
            self.layers.append(layer)
            setattr(owner, attr, self._wrap(fn, len(self.names) - 1, COUNTERS.get(layer)))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()

    def _wrap(self, fn, binding: int, counter):
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self.stack)
        counts, request, current = self.counts, self.request, self.current

        def wrapper(*args, **kwargs):
            index = len(start)
            span_name.append(binding)
            request.append(current[0])
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            start[index] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if counter is not None:
                counts.append((index, counter(args, result)))
            return result
        return wrapper

    def mark(self) -> int:
        """Index of the next span."""
        return len(self.start)

    def next_request(self) -> int:
        """Spans recorded from now on belong to a new request; returns mark()."""
        self.current[0] += 1
        return self.mark()

    def summarize(self, lo: int, hi: int) -> dict:
        """Per-layer calls and self time, counts, and the search's
        expansions and successors, for the spans with index in [lo, hi)."""
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        child = {}
        in_derive = {}
        root_s = 0.0
        expanded = successors = 0
        derive_s = 0.0
        for i in range(lo, hi):
            b = self.span_name[i]
            layer = self.layers[b]
            duration = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= lo:
                child[p] = child.get(p, 0.0) + duration
                inside = in_derive[p]
            else:
                root_s += duration
                inside = False
            if layer == "search.derive":
                derive_s += duration if not inside else 0.0
                inside = True
            in_derive[i] = inside
            if inside and layer == "calculus.enumerate":
                expanded += 1
            if inside and self.names[b] == SEARCH_APPLY:
                successors += 1
            calls[layer] += 1
        for i in range(lo, hi):
            self_s[self.layers[self.span_name[i]]] += (
                self.end[i] - self.start[i] - child.get(i, 0.0))
        counters = dict.fromkeys(
            ("calculus.enumerate.instances", "calculus.check_script.rejected",
             "semantics.tt_rows", "kripke.countermodel.found", "render.svg_bytes",
             "notation.parse.chars"), 0)
        for index, amounts in self.counts:
            if lo <= index < hi:
                for key, value in amounts.items():
                    counters[key] += value
        return {"calls": calls, "self_s": self_s, "counters": counters,
                "expanded": expanded, "successors": successors,
                "derive_s": derive_s, "root_s": root_s}

    def write(self, path) -> None:
        """All spans, gzipped, as tab-separated id, parent, request, name,
        start, end (perf_counter seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tparent\trequest\tname\tstart_s\tend_s\n")
            for i, b in enumerate(self.span_name):
                out.write(f"{i}\t{self.parent[i]}\t{self.request[i]}\t{self.names[b]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
