"""The ``eg`` batch command-line surface.

Exit codes: 0 success/valid/theorem; 1 checked-and-negative (invalid
script, non-theorem, no derivation); 2 usage or input error, input nested
too deeply included.  Diagnostics go to stderr, machine-consumable
results to stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path as FsPath

from . import continuum as ct
from .calculus import System, check_script
from .errors import PeirceError
from .graphs import Dialect, canonicalize
from .kripke import MAX_WORLDS, kripke_countermodel
from .notation import parse_formula, parse_graph, print_formula, print_graph
from .render import render_svg
from .scriptfile import format_script, parse_script
from .search import SearchBounds, derive
from .semantics import formula_to_graph, graph_to_formula, taut_classical, taut_int


def _dialect(name: str) -> Dialect:
    return Dialect(name)


def _text_argument(args: argparse.Namespace) -> str:
    if args.file is not None:
        return FsPath(args.file).read_text(encoding="utf-8").strip()
    if args.text is None:
        raise PeirceError("missing text argument (give it inline or with --file)")
    return args.text


def _add_text(parser: argparse.ArgumentParser, name: str):
    parser.add_argument("text", nargs="?", metavar=name, help=f"{name} text")
    parser.add_argument("--file", help=f"read the {name} from a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a graph and print its canonical form")
    p.add_argument("--dialect", choices=["classical", "intuitionistic"], required=True)
    _add_text(p, "graph")

    p = sub.add_parser("check", help="check a proof-script file")
    p.add_argument("script", help="path to the script file")

    p = sub.add_parser("prove", help="search for a derivation")
    p.add_argument("--system", choices=["classical", "intuitionistic"], required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--from", dest="start", default="")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--max-visited", type=int, default=500_000)

    p = sub.add_parser("taut", help="decide tautology / theoremhood")
    p.add_argument("--logic", choices=["classical", "intuitionistic"], required=True)
    p.add_argument("--countermodel", action="store_true",
                   help="search a Kripke countermodel when not a theorem")
    p.add_argument("--max-worlds", type=int, choices=range(1, MAX_WORLDS + 1), default=3)
    _add_text(p, "formula")

    p = sub.add_parser("translate", help="translate between graphs and formulas")
    p.add_argument("--to", choices=["formula", "graph"], required=True)
    p.add_argument("--dialect", choices=["classical", "intuitionistic"], required=True)
    _add_text(p, "text")

    p = sub.add_parser("render", help="render a graph to SVG")
    p.add_argument("-o", "--output", required=True)
    _add_text(p, "graph")

    p = sub.add_parser("continuum", help="operations on continuum elements")
    p.add_argument("operation", choices=["cmp", "extends", "tail", "concat", "domain"])
    p.add_argument("elements", nargs="*", metavar="elem")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except (PeirceError, OSError, UnicodeDecodeError) as exc:
        print(f"eg: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the parsers, translations, oracles and layout recurse once per
        # level of nesting, so input deeper than the stack allows ends here
        print("eg: input nested too deeply", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "parse":
        g = parse_graph(_text_argument(args), _dialect(args.dialect))
        print(print_graph(canonicalize(g)))
        return 0

    if args.command == "check":
        script = parse_script(FsPath(args.script).read_text(encoding="utf-8"))
        report = check_script(script)
        for step in report.results:
            if step.error is None:
                print(f"step {step.index}: ok -> {print_graph(step.graph)}")
            else:
                print(f"step {step.index}: FAILED ({step.error})")
        if report.ok:
            print(f"valid; final graph: {print_graph(report.final)}")
            return 0
        print(f"invalid at step {report.failed_step}: {report.reason}")
        return 1

    if args.command == "prove":
        if args.depth < 0:
            raise PeirceError(f"--depth must be at least 0, not {args.depth}")
        system = System(args.system)
        goal = parse_graph(args.goal, system.dialect)
        start = parse_graph(args.start, system.dialect)
        bounds = SearchBounds(max_depth=args.depth, max_visited=args.max_visited)
        script = derive(system, start, goal, bounds)
        if script is None:
            print(f"no derivation within depth {args.depth}")
            return 1
        sys.stdout.write(format_script(script))
        return 0

    if args.command == "taut":
        f = parse_formula(_text_argument(args))
        if args.logic == "classical":
            verdict = taut_classical(f)
        else:
            verdict = taut_int(f)
        if verdict:
            print("tautology" if args.logic == "classical" else "theorem")
            return 0
        print("not a theorem" if args.logic == "intuitionistic" else "not a tautology")
        if args.logic == "intuitionistic" and args.countermodel:
            model = kripke_countermodel(f, args.max_worlds)
            if model is None:
                print(f"no countermodel with <= {args.max_worlds} worlds")
            else:
                print(model)
        return 1

    if args.command == "translate":
        text = _text_argument(args)
        dialect = _dialect(args.dialect)
        if args.to == "formula":
            print(print_formula(graph_to_formula(parse_graph(text, dialect))))
        else:
            print(print_graph(formula_to_graph(parse_formula(text), dialect)))
        return 0

    if args.command == "render":
        g = parse_graph(_text_argument(args), Dialect.INTUITIONISTIC)
        FsPath(args.output).write_text(render_svg(g), encoding="utf-8")
        return 0

    if args.command == "continuum":
        return _continuum(args)

    raise PeirceError(f"unknown command {args.command!r}")


def _continuum(args: argparse.Namespace) -> int:
    need = {"cmp": 2, "extends": 2, "tail": 2, "concat": 2, "domain": 1}[args.operation]
    if len(args.elements) != need:
        raise PeirceError(f"continuum {args.operation} takes {need} element(s)")
    elems = [ct.parse_element(e) for e in args.elements]
    if args.operation == "cmp":
        print(ct.lex_compare(elems[0], elems[1]).value)
        return 0
    if args.operation == "extends":
        verdict = ct.extends(elems[0], elems[1])
        print("true" if verdict else "false")
        return 0 if verdict else 1
    if args.operation == "tail":
        print(ct.print_element(ct.tail(elems[0], elems[1])))
        return 0
    if args.operation == "concat":
        print(ct.print_element(ct.concat(elems[0], elems[1])))
        return 0
    print(ct.print_ordinal(ct.elem_domain(elems[0])))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
