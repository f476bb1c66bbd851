"""The ``eg`` batch command-line surface.

Exit codes: 0 success/valid/theorem; 1 checked-and-negative (invalid
script, non-theorem, no derivation); 2 usage or input error, input nested
too deeply included, or running out of memory.  Diagnostics go to
stderr, machine-consumable results to stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path as FsPath

from .errors import PeirceError
from .graphs import Dialect, canonicalize
from .kripke import MAX_WORLDS, kripke_countermodel
from .notation import parse_formula, parse_graph, print_formula, print_graph
from .semantics import formula_to_graph, graph_to_formula, taut_classical, taut_int

# names read from the package on first use; ``ct`` is the continuum module
_DEFERRED = {"check_script", "parse_script", "format_script", "SearchBounds",
             "derive", "render_svg", "ct"}


def __getattr__(name: str):
    """Loading rule: this module imports at load only the modules that
    ``parse``, ``taut`` and ``translate`` run; the graph calculus, search,
    script files, rendering and the continuum load when a command first
    needs them.  The formula modules (``semantics``, ``notation``,
    ``kripke``) stay eager although only some commands run them: a caller
    running many commands in one process would otherwise pay their import
    inside its first ``taut``.

    A deferred name's first read through the module binds it as a module
    global, and each handler reads it through the module, ``_cli``, so a
    wrapper set on this module's name from outside, as the benchmark's
    tracer sets one, sees every call."""
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the package's __getattr__ finds the defining module and imports it
    # with __import__, so -X importtime shows it
    value = getattr(sys.modules[__package__], "continuum" if name == "ct" else name)
    globals()[name] = value
    return value


# this module, through which the handlers read the deferred names
_cli = sys.modules[__name__]


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a PeirceError, so that it leaves ``main``
    as one ``eg:`` line with exit 2; subparsers share the class."""

    def error(self, message: str):
        raise PeirceError(message)


def _text_argument(args: argparse.Namespace) -> str:
    if args.file is not None:
        if args.text is not None:
            raise PeirceError("give the text inline or with --file, not both")
        return FsPath(args.file).read_text(encoding="utf-8").strip()
    if args.text is None:
        raise PeirceError("missing text argument (give it inline or with --file)")
    return args.text


def _add_text(parser: argparse.ArgumentParser, name: str):
    parser.add_argument("text", nargs="?", metavar=name, help=f"{name} text")
    parser.add_argument("--file", help=f"read the {name} from a file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand's parser by its name, which main calls directly
    parser.commands = sub.choices
    dialects = [dialect.value for dialect in Dialect]

    p = sub.add_parser("parse", help="parse a graph and print its canonical form")
    p.set_defaults(run=_parse)
    p.add_argument("--dialect", choices=dialects, required=True)
    _add_text(p, "graph")

    p = sub.add_parser("check", help="check a proof-script file")
    p.set_defaults(run=_check)
    p.add_argument("script", help="path to the script file")

    p = sub.add_parser("prove", help="search for a derivation")
    p.set_defaults(run=_prove)
    p.add_argument("--system", choices=dialects, required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--from", dest="start", default="")
    # no default here: _prove takes SearchBounds' when the flag is absent
    p.add_argument("--depth", type=int)
    p.add_argument("--max-visited", type=int)

    p = sub.add_parser("taut", help="decide tautology / theoremhood")
    p.set_defaults(run=_taut)
    p.add_argument("--logic", choices=dialects, required=True)
    p.add_argument("--countermodel", action="store_true",
                   help="search a Kripke countermodel when not a theorem")
    p.add_argument("--max-worlds", type=int, choices=range(1, MAX_WORLDS + 1), default=3)
    _add_text(p, "formula")

    p = sub.add_parser("translate", help="translate between graphs and formulas")
    p.set_defaults(run=_translate)
    p.add_argument("--to", choices=["formula", "graph"], required=True)
    p.add_argument("--dialect", choices=dialects, required=True)
    _add_text(p, "text")

    p = sub.add_parser("render", help="render a graph to SVG")
    p.set_defaults(run=_render)
    p.add_argument("-o", "--output", required=True)
    _add_text(p, "graph")

    p = sub.add_parser("continuum", help="operations on continuum elements")
    p.set_defaults(run=_continuum)
    p.add_argument("operation", choices=_OPERATIONS)
    p.add_argument("elements", nargs="*", metavar="elem")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top parser hands all of an argv that starts with a subcommand's
    # name to that subcommand's parser, so such an argv goes there at once
    # and is scanned once; the namespace lacks only the unread "command"
    command = _COMMANDS.get(argv[0]) if argv else None
    # while the command runs, stderr is None, so that the interpreter's
    # reports of errors it ignores go nowhere: as memory runs out, closing
    # the search's suspended generators fails, and each failure would print
    stderr, sys.stderr = sys.stderr, None
    try:
        args = _PARSER.parse_args(argv) if command is None else command.parse_args(argv[1:])
        return args.run(args)
    except SystemExit:
        # only --help exits, after printing the help
        return 0
    except (PeirceError, OSError, UnicodeDecodeError) as exc:
        message = str(exc)
    except RecursionError:
        # the token readers take two frames per bracket, and the
        # translations, printers, oracles and layout recurse per level of
        # nesting too, so input deeper than the stack allows ends here
        message = "input nested too deeply"
    except MemoryError:
        message = "out of memory"
    finally:
        sys.stderr = stderr
    # printed past the handlers, whose end frees the traceback and with it
    # all that the failed command held
    print(f"eg: {message}", file=sys.stderr)
    return 2


def _parse(args: argparse.Namespace) -> int:
    g = parse_graph(_text_argument(args), Dialect(args.dialect))
    print(print_graph(canonicalize(g)))
    return 0


def _check(args: argparse.Namespace) -> int:
    script = _cli.parse_script(FsPath(args.script).read_text(encoding="utf-8"))
    report = _cli.check_script(script)
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


def _prove(args: argparse.Namespace) -> int:
    bounds = _cli.SearchBounds
    depth = bounds.max_depth if args.depth is None else args.depth
    visited = bounds.max_visited if args.max_visited is None else args.max_visited
    for flag, value in (("--depth", depth), ("--max-visited", visited)):
        if value < 0:
            raise PeirceError(f"{flag} must be at least 0, not {value}")
    system = Dialect(args.system)
    goal = parse_graph(args.goal, system)
    start = parse_graph(args.start, system)
    script = _cli.derive(system, start, goal, bounds(max_depth=depth, max_visited=visited))
    if script is None:
        print(f"no derivation within depth {depth}")
        return 1
    sys.stdout.write(_cli.format_script(script))
    return 0


# logic: the verdict on a formula that fails, and on one that holds
_VERDICTS = {Dialect.CLASSICAL: ("not a tautology", "tautology"),
             Dialect.INTUITIONISTIC: ("not a theorem", "theorem")}


def _taut(args: argparse.Namespace) -> int:
    f = parse_formula(_text_argument(args))
    logic = Dialect(args.logic)
    holds = taut_int(f) if logic is Dialect.INTUITIONISTIC else taut_classical(f)
    print(_VERDICTS[logic][holds])
    if holds:
        return 0
    if logic is Dialect.INTUITIONISTIC and args.countermodel:
        model = kripke_countermodel(f, args.max_worlds)
        print(f"no countermodel with <= {args.max_worlds} worlds" if model is None else model)
    return 1


def _translate(args: argparse.Namespace) -> int:
    text = _text_argument(args)
    dialect = Dialect(args.dialect)
    if args.to == "formula":
        print(print_formula(graph_to_formula(parse_graph(text, dialect))))
    else:
        print(print_graph(formula_to_graph(parse_formula(text), dialect)))
    return 0


def _render(args: argparse.Namespace) -> int:
    g = parse_graph(_text_argument(args), Dialect.INTUITIONISTIC)
    FsPath(args.output).write_text(_cli.render_svg(g), encoding="utf-8")
    return 0


# operation: (elements it takes, its stdout line and exit code from the
# continuum module ``ct`` and the elements); the handler passes ``ct`` as
# read when it runs, so that a wrapper set on a name of ``ct`` from
# outside, as the benchmark's tracer sets one, sees each call
_OPERATIONS = {
    "cmp": (2, lambda ct, x, y: (ct.lex_compare(x, y).value, 0)),
    "extends": (2, lambda ct, x, y: ("true", 0) if ct.extends(x, y) else ("false", 1)),
    "tail": (2, lambda ct, x, y: (ct.print_element(ct.tail(x, y)), 0)),
    "concat": (2, lambda ct, x, y: (ct.print_element(ct.concat(x, y)), 0)),
    "domain": (1, lambda ct, x: (ct.print_ordinal(ct.elem_domain(x)), 0)),
}


def _continuum(args: argparse.Namespace) -> int:
    need, run = _OPERATIONS[args.operation]
    if len(args.elements) != need:
        raise PeirceError(f"continuum {args.operation} takes {need} element(s)")
    ct = _cli.ct
    line, code = run(ct, *[ct.parse_element(e) for e in args.elements])
    print(line)
    return code


# built once: parse_args leaves a parser as it was, so calls share them
_PARSER = build_parser()
_COMMANDS = _PARSER.commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
