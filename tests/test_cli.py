import argparse
import hashlib
import io
import random
import re
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from peirce import cli
from peirce.cli import main
from peirce.search import SearchBounds

from genutil import ROOT, fresh


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_canonical_print(self, capsys):
        code, out, err = run(capsys, "parse", "--dialect", "classical", "q p")
        assert (code, out, err) == (0, "p q\n", "")

    def test_dialect_error_exit_2(self, capsys):
        code, out, err = run(capsys, "parse", "--dialect", "classical", "[p | q]")
        assert code == 2 and out == "" and err

    def test_syntax_error_exit_2(self, capsys):
        code, _, err = run(capsys, "parse", "--dialect", "classical", "(p")
        assert code == 2 and "position" in err

    def test_file_input(self, capsys, tmp_path):
        src = tmp_path / "g.txt"
        src.write_text("q p\n")
        code, out, _ = run(capsys, "parse", "--dialect", "classical", "--file", str(src))
        assert (code, out) == (0, "p q\n")


class TestGraphSyntaxErrors:
    @pytest.mark.parametrize("text,error", [
        ("p $", "unexpected '$' (at position 2)"),
        ("(p -)", "unexpected '-' (at position 3)"),
        ("p 9q", "bad atom name '9q' (at position 2)"),
    ])
    def test_message_names_the_character(self, capsys, text, error):
        # a character that is neither a sign nor part of a name is named
        assert run(capsys, "parse", "--dialect", "classical", text) == (2, "", f"eg: {error}\n")


FLAT_CHAIN = " & ".join(f"a{i}" for i in range(1_000))
CYCLING_CHAIN = " & ".join(f"a{i % 5}" for i in range(1_000))
IMPLICATIONS = " -> ".join(f"a{i % 5}" for i in range(1_000))
CONJUNCTS = " & ".join(["p"] * 3000)


class TestTaut:
    def test_classical_tautology(self, capsys):
        code, out, _ = run(capsys, "taut", "--logic", "classical", "p | ~p")
        assert code == 0 and out == "tautology\n"

    def test_intuitionistic_rejects_lem(self, capsys):
        code, out, _ = run(capsys, "taut", "--logic", "intuitionistic", "p | ~p")
        assert code == 1 and out.startswith("not a theorem")

    def test_countermodel_flag(self, capsys):
        code, out, _ = run(capsys, "taut", "--logic", "intuitionistic",
                           "--countermodel", "--max-worlds", "2", "~~p -> p")
        assert code == 1
        assert "worlds: 2" in out

    def test_intuitionistic_theorem(self, capsys):
        code, out, _ = run(capsys, "taut", "--logic", "intuitionistic", "p -> ~~p")
        assert code == 0 and out == "theorem\n"

    @pytest.mark.parametrize("from_file", [False, True], ids=["inline", "file"])
    def test_wide_conjunction_is_decided(self, capsys, tmp_path, from_file):
        # a balanced conjunction of 1,000 atoms implying q is ten parentheses
        # deep, and G4ip takes it apart in a loop, with no recursion per &
        parts = [f"a{i}" for i in range(1_000)]
        while len(parts) > 1:
            parts = [f"({parts[i]} & {parts[i + 1]})" if i + 1 < len(parts) else parts[i]
                     for i in range(0, len(parts), 2)]
        text = f"{parts[0]} -> q"
        source = tmp_path / "wide.txt"
        source.write_text(text, encoding="utf-8")
        argv = ["--file", str(source)] if from_file else [text]
        assert run(capsys, "taut", "--logic", "intuitionistic", *argv) == (1, "not a theorem\n", "")

    @pytest.mark.parametrize("argv,expected", [
        (("intuitionistic", f"{FLAT_CHAIN} -> q"), (1, "not a theorem\n", "")),
        (("intuitionistic", f"{FLAT_CHAIN} -> a7"), (0, "theorem\n", "")),
        (("classical", f"{FLAT_CHAIN} -> q"),
         (2, "", "eg: 1001 atoms exceed the truth-table guard\n")),
        (("intuitionistic", f"{FLAT_CHAIN} -> {FLAT_CHAIN}"), (0, "theorem\n", "")),
        (("classical", CONJUNCTS), (1, "not a tautology\n", "")),
        (("classical", f"{CYCLING_CHAIN} -> a0"), (0, "tautology\n", "")),
        (("intuitionistic", "--countermodel", CONJUNCTS),
         (1, "not a theorem\nworlds: 1; order: ; val: 0:{}\n", "")),
    ], ids=["not-a-theorem", "theorem", "classical-guard", "chain-implies-itself",
            "classical-not-a-tautology", "classical-five-atoms", "countermodel"])
    def test_flat_conjunction_is_decided(self, capsys, argv, expected):
        # a chain of & without parentheses reads left-nested, 1,000 or 3,000
        # levels deep, though its text nests nothing: the walks over it keep
        # their own stacks, as G4ip does with an & goal's conjuncts, and the
        # truth table, the Kripke search and its forcing re-check evaluate
        # it with no recursion per &, so the verdict is given, with its
        # model, or the atom guard's error
        assert run(capsys, "taut", "--logic", *argv) == expected

    @pytest.mark.parametrize("logic,verdict", [
        ("classical", "tautology"), ("intuitionistic", "theorem")])
    def test_flat_implication_chain_is_decided(self, capsys, logic, verdict):
        # a chain of -> without parentheses reads right-nested, 999 levels
        # deep: the reader takes its operands in one loop and joins them
        # from the end, and a999 is a4, one of the premises
        assert run(capsys, "taut", "--logic", logic, IMPLICATIONS) == (0, f"{verdict}\n", "")

    @pytest.mark.parametrize("worlds", ["9", "0", "-1"])
    def test_max_worlds_out_of_range(self, capsys, worlds):
        code, out, err = run(capsys, "taut", "--logic", "intuitionistic",
                             "--countermodel", "--max-worlds", worlds, "p | ~p")
        assert (code, out) == (2, "")
        assert "--max-worlds: invalid choice" in err and "Traceback" not in err


class TestCheck:
    def test_valid_script(self, capsys, tmp_path):
        script = tmp_path / "s.eg"
        script.write_text(
            "system classical\ngraph p (q)\niterate 0 -> 1.outer\nexpect p (p q)\n")
        code, out, _ = run(capsys, "check", str(script))
        assert code == 0
        assert "valid" in out and "step 0: ok" in out

    def test_invalid_script(self, capsys, tmp_path):
        script = tmp_path / "s.eg"
        script.write_text("system classical\ngraph (p)\nerase 0.outer.0\n")
        code, out, _ = run(capsys, "check", str(script))
        assert code == 1 and "invalid at step 0" in out

    def test_loop_index_out_of_range(self, capsys, tmp_path):
        script = tmp_path / "s.eg"
        script.write_text("system intuitionistic\ngraph ([p | q])\nloopremove 0.outer.0 5\n")
        code, out, _ = run(capsys, "check", str(script))
        assert code == 1 and "step 0: FAILED (loop index out of range)" in out.splitlines()

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent.eg")
        assert code == 2 and err

    def test_malformed_script(self, capsys, tmp_path):
        script = tmp_path / "s.eg"
        script.write_text("system classical\ngraph p\nbogus 0\n")
        code, _, err = run(capsys, "check", str(script))
        assert code == 2 and "line 3" in err

    def test_duplicate_system_line(self, capsys, tmp_path):
        script = tmp_path / "s.eg"
        script.write_text("system classical\nsystem classical\ngraph p\n")
        code, out, err = run(capsys, "check", str(script))
        assert (code, out, err) == (2, "", "eg: line 2: duplicate system line\n")


class TestProve:
    def test_prove_emits_checkable_script(self, capsys, tmp_path):
        code, out, _ = run(capsys, "prove", "--system", "classical",
                           "--goal", "(p (p))", "--depth", "4")
        assert code == 0
        script = tmp_path / "out.eg"
        script.write_text(out)
        code2, out2, _ = run(capsys, "check", str(script))
        assert code2 == 0

    def test_no_derivation(self, capsys):
        code, out, _ = run(capsys, "prove", "--system", "intuitionistic",
                           "--goal", "[ | p | (p)]", "--depth", "4")
        assert code == 1 and out == "no derivation within depth 4\n"

    def test_negative_depth(self, capsys):
        code, out, err = run(capsys, "prove", "--system", "classical",
                             "--goal", "p", "--depth", "-1")
        assert (code, out) == (2, "")
        assert "--depth must be at least 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("--goal", "(p (p))", "--max-visited", "-1"),
        ("--from", "p", "--goal", "p", "--max-visited", "-3"),
    ], ids=["budget-never-spent", "start-is-goal"])
    def test_negative_max_visited(self, capsys, argv):
        # checked before any parsing, like --depth
        code, out, err = run(capsys, "prove", "--system", "classical", *argv)
        message = f"eg: --max-visited must be at least 0, not {argv[-1]}\n"
        assert (code, out, err) == (2, "", message)

    def test_default_bounds_are_search_bounds(self, capsys, monkeypatch):
        bounds, derive = [], cli.derive
        monkeypatch.setattr(cli, "derive", lambda *args: bounds.append(args[-1]) or derive(*args))
        code, out, _ = run(capsys, "prove", "--system", "classical", "--goal", "q")
        assert (code, out) == (1, f"no derivation within depth {SearchBounds.max_depth}\n")
        assert bounds == [SearchBounds()]

    def test_from_start(self, capsys):
        code, out, _ = run(capsys, "prove", "--system", "classical",
                           "--goal", "p", "--from", "((p))", "--depth", "2")
        assert code == 0 and "dcremove" in out

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        # a search that runs out of memory claims no derivation: it is one
        # eg: line and exit 2, as input nested too deeply is
        def derive(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "derive", derive)
        code, out, err = run(capsys, "prove", "--system", "intuitionistic",
                             "--from", "p", "--goal", "[p q | r s]")
        assert (code, out, err) == (2, "", "eg: out of memory\n")

    def test_out_of_memory_prints_only_its_line(self):
        # as memory runs out, the generators a search leaves suspended fail
        # to close as its frames unwind, and the interpreter reports each
        # failure on stderr unless main has set it aside; run in a fresh
        # interpreter, whose report would go to the default hook
        code = """
import contextlib, io
from peirce import cli
def suspended():
    try:
        yield
    finally:
        raise MemoryError
def derive(*args):
    for _ in suspended():
        raise MemoryError
cli.derive = derive
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = cli.main(["prove", "--system", "intuitionistic", "--goal", "p"])
print(code, repr(err.getvalue()))
"""
        assert fresh(code) == "2 'eg: out of memory\\n'\n"


class TestTranslate:
    def test_graph_to_formula(self, capsys):
        code, out, _ = run(capsys, "translate", "--to", "formula",
                           "--dialect", "intuitionistic", "[p | q]")
        assert (code, out) == (0, "p -> q\n")

    def test_formula_to_graph(self, capsys):
        code, out, _ = run(capsys, "translate", "--to", "graph",
                           "--dialect", "classical", "p -> q")
        assert (code, out) == (0, "(p (q))\n")

    @pytest.mark.parametrize("dialect", ["classical", "intuitionistic"])
    def test_a_flat_conjunction_to_graph(self, capsys, dialect):
        # the chain reads 1,000 levels deep, and its conjuncts are encoded
        # from a stack, so it is not too deep
        assert run(capsys, "translate", "--to", "graph", "--dialect", dialect, FLAT_CHAIN) == (
            0, " ".join(f"a{i}" for i in range(1000)) + "\n", "")


# what every command imports of the package besides itself: the command
# line and the formula modules
FORMULA_MODULES = "cli errors formulas graphs kripke notation semantics"


class TestStartup:
    def test_import_loads_no_network_module(self):
        code = ("import sys, peirce.cli\n"
                "print(sorted({'socket', 'ssl', 'http.client', 'urllib.request', 'email',"
                " 'xml.sax'} & sys.modules.keys()))\n")
        assert fresh(code) == "[]\n"

    def test_importing_the_package_loads_no_module(self):
        code = "import sys, peirce\nprint(*sorted(m for m in sys.modules if 'peirce' in m))\n"
        assert fresh(code) == "peirce\n"

    @pytest.mark.parametrize("argv, more", [
        (["parse", "--dialect", "classical", "q p"], ""),
        (["taut", "--logic", "classical", "p -> p"], ""),
        (["translate", "--to", "graph", "--dialect", "intuitionistic", "p -> q"], ""),
        (["check", "proof.eg"], "calculus scriptfile"),
        (["prove", "--system", "classical", "--goal", "(p (p))"], "calculus scriptfile search"),
        (["render", "-o", "out.svg", "[p | q]"], "render"),
        (["continuum", "cmp", "[1:3]", "[1:3][w:7]"], "continuum"),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_a_subcommand_loads_only_the_modules_it_runs(self, tmp_path, argv, more):
        (tmp_path / "proof.eg").write_text("system classical\ngraph p (q)\n"
                                           "iterate 0 -> 1.outer\nexpect p (p q)\n")
        code = ("import contextlib, io, sys\n"
                "from peirce.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = main({argv!r})\n"
                "print(code, *sorted(m for m in sys.modules if m.startswith('peirce.')))\n")
        loaded = sorted(f"peirce.{m}" for m in f"{FORMULA_MODULES} {more}".split())
        assert fresh(code, cwd=tmp_path).split() == ["0", *loaded]

    @pytest.mark.parametrize("argv", [
        ["taut", "--logic", "classical", "p -> p"],
        ["prove", "--system", "classical", "--goal", "(p (p))"],
    ], ids=["taut", "prove"])
    def test_a_command_loads_neither_dataclasses_nor_inspect(self, argv):
        # the value classes are records with no generated code: generating
        # it, and inspect, which dataclasses imports, took about 40% of
        # the program's own start-up
        code = ("import contextlib, io, sys\n"
                "from peirce.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = main({argv!r})\n"
                "print(code, sorted({'dataclasses', 'inspect'} & sys.modules.keys()))\n")
        assert fresh(code) == "0 []\n"

    def test_the_tracers_bindings_stay_wrappable(self, tmp_path):
        # the benchmark's tracer wraps names of peirce.cli and of a proxy it
        # sets for peirce.cli.ct; each must resolve before any command runs,
        # and each handler must call the wrapper set in its place
        (tmp_path / "proof.eg").write_text("system classical\ngraph p\n")
        code = f"""
import contextlib, io, sys, types
sys.path.insert(0, {str(ROOT / "benchmarks")!r})
from spans import BINDINGS
from peirce import cli
names = [attr for owner, attr, _ in BINDINGS if owner == "peirce.cli"]
ct_names = [attr for owner, attr, _ in BINDINGS if owner == "peirce.cli.ct"]
print([n for n in names if getattr(cli, n, None) is None],
      [n for n in ct_names if getattr(cli.ct, n, None) is None])
called = set()
def recording(owner, name):
    fn = getattr(owner, name)
    def wrapper(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)
    setattr(owner, name, wrapper)
for name in ("derive", "check_script", "parse_script", "render_svg"):
    recording(cli, name)
cli.ct = types.SimpleNamespace(**vars(cli.ct))
for name in ct_names:
    recording(cli.ct, name)
argvs = [["check", "proof.eg"], ["prove", "--system", "classical", "--goal", "(p (p))"],
         ["render", "-o", "out.svg", "p"], ["continuum", "cmp", "[1:3]", "[1:3][w:7]"],
         ["continuum", "extends", "[1:3][w:7]", "[1:3]"], ["continuum", "tail", "[1:3]", "[1:3][w:7]"],
         ["continuum", "concat", "[1:3]", "[w:7]"], ["continuum", "domain", "[1:3]"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
print(codes, sorted(set(["derive", "check_script", "parse_script", "render_svg", *ct_names]) - called))
"""
        assert fresh(code, cwd=tmp_path) == "[] []\n[0, 0, 0, 0, 0, 0, 0, 0] []\n"

    def test_the_deferred_names_are_the_packages(self):
        # each deferred name of peirce.cli is the package's object, and ct
        # its continuum module; other names are not found on peirce.cli
        code = """
import peirce, peirce.cli as cli
names = ["check_script", "parse_script", "format_script", "SearchBounds", "derive",
         "render_svg"]
print([n for n in names if getattr(cli, n) is not getattr(peirce, n)], cli.ct is peirce.continuum)
try:
    cli.no_such_name
except AttributeError as error:
    print(error)
"""
        assert fresh(code) == ("[] True\n"
                               "module 'peirce.cli' has no attribute 'no_such_name'\n")


def loop_ladder(levels):
    """[p | [p | ... [p | p]]]"""
    return "[p | " * levels + "p" + "]" * levels


class TestRender:
    def test_writes_svg(self, capsys, tmp_path):
        out_file = tmp_path / "g.svg"
        code, _, _ = run(capsys, "render", "-o", str(out_file), "[p | q]")
        assert code == 0
        ET.fromstring(out_file.read_text())

    def test_radius_past_the_limit_exits_2(self, capsys, tmp_path):
        # the 33rd level of the loop ladder takes the radius past 2**53
        out_file = tmp_path / "g.svg"
        assert run(capsys, "render", "-o", str(out_file), loop_ladder(32))[0] == 0
        code, out, err = run(capsys, "render", "-o", str(out_file), loop_ladder(33))
        assert (code, out) == (2, "")
        assert re.fullmatch(r"eg: graph too large to render: .*\n", err)

    def test_nested_cuts_past_the_limit_exit_2(self, capsys, tmp_path):
        # 95 nested cuts render; the 96th takes the radius past 2**53, long
        # before the readers' nesting limit
        out_file = tmp_path / "g.svg"
        assert run(capsys, "render", "-o", str(out_file), "(" * 95 + ")" * 95) == (0, "", "")
        code, out, err = run(capsys, "render", "-o", str(out_file), "(" * 96 + ")" * 96)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"eg: graph too large to render: .*\n", err)


class TestContinuum:
    def test_tail(self, capsys):
        code, out, _ = run(capsys, "continuum", "tail", "[1:3]", "[1:3][w:7]")
        assert (code, out) == (0, "[w:7]\n")

    def test_cmp(self, capsys):
        code, out, _ = run(capsys, "continuum", "cmp", "[1:3]", "[1:3][1:5]")
        assert (code, out) == (0, "proper_prefix\n")

    def test_extends_negative_exit(self, capsys):
        code, out, _ = run(capsys, "continuum", "extends", "[1:3]", "[1:3][w:7]")
        assert (code, out) == (1, "false\n")

    def test_domain(self, capsys):
        code, out, _ = run(capsys, "continuum", "domain", "[w:0][1:1]")
        assert (code, out) == (0, "w+1\n")

    def test_tail_not_in_monad(self, capsys):
        code, _, err = run(capsys, "continuum", "tail", "[1:3]", "[1:4]")
        assert code == 2 and err

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "continuum", "cmp", "[1:3]")
        assert code == 2 and err

    def test_seeded_corpus(self, capsys):
        # stdout, stderr and exit code of 2,000 seeded runs, all five
        # operations, errors included, as the command printed them before
        # elements became canonical by construction
        rng = random.Random(2020)
        digest = hashlib.sha256()
        for _ in range(2000):
            argv = continuum_argv(rng)
            digest.update(repr((argv, *run(capsys, *argv))).encode() + b"\n")
        assert digest.hexdigest() == CONTINUUM_DIGEST


CONTINUUM_DIGEST = "6ec0dd199df78a2d96f6f00e602196c27302dfe038fc5733b71de15d7a1e0afd"
ORDINAL_TEXTS = ("1", "2", "3", "w", "w+1", "w+2", "w*2", "w^2", "w^2+w", "w^w", "w^(w+1)*2")
VALUE_TEXTS = ("0", "1", "-1", "1/2", "3")
MALFORMED = ("", "[1:3", "[0:1]", "[w:x]", "1:3]", "[²:1]", "[w^:1]", "[1:1/0]")


def element_text(rng: random.Random) -> str:
    if rng.random() < 0.04:
        return rng.choice(MALFORMED)
    return "".join(f"[{rng.choice(ORDINAL_TEXTS)}:{rng.choice(VALUE_TEXTS)}]"
                   for _ in range(rng.randint(1, 3)))


def continuum_argv(rng: random.Random) -> list[str]:
    """An ``eg continuum`` command line: mostly well formed, sometimes of
    the wrong arity, and often with one element a prefix of the other, so
    that extensions and members of a monad come up as well as non-members."""
    operation = rng.choice(("cmp", "extends", "tail", "concat", "domain"))
    arity = 1 if operation == "domain" else 2
    if rng.random() < 0.05:
        arity = rng.choice((0, 1, 2, 3))
    elements = [element_text(rng) for _ in range(arity)]
    if arity == 2 and rng.random() < 0.5:
        i = rng.randrange(2)
        elements[1 - i] = elements[i] + (element_text(rng) if rng.random() < 0.9 else "")
    return ["continuum", operation, *elements]


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_text(self, capsys):
        code, _, err = run(capsys, "parse", "--dialect", "classical")
        assert code == 2 and err

    @pytest.mark.parametrize("argv,error", [
        (("parse", "p"), "the following arguments are required: --dialect"),
        (("taut", "--logic", "modal", "p"),
         "argument --logic: invalid choice: 'modal' (choose from 'classical', 'intuitionistic')"),
    ], ids=["missing-option", "invalid-choice"])
    def test_usage_error_is_one_line(self, capsys, argv, error):
        # a subcommand's usage error leaves as one ``eg:`` line, no usage dump
        assert run(capsys, *argv) == (2, "", f"eg: {error}\n")

    @pytest.mark.parametrize("argv", [
        ("parse", "--dialect", "classical"),
        ("taut", "--logic", "classical"),
        ("translate", "--to", "formula", "--dialect", "classical"),
        ("render", "-o", "out.svg"),
    ], ids=["parse", "taut", "translate", "render"])
    def test_inline_text_with_file_is_refused(self, capsys, tmp_path, monkeypatch, argv):
        # the inline text is not dropped in favour of the file's
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.txt").write_text("q\n")
        code, out, err = run(capsys, *argv, "p", "--file", "g.txt")
        assert (code, out, err) == (2, "", "eg: give the text inline or with --file, not both\n")
        assert not (tmp_path / "out.svg").exists()

    def test_help_exits_0(self, capsys):
        code, out, err = run(capsys, "--help")
        assert (code, err) == (0, "") and out.startswith("usage: eg ")

    def test_parser_is_built_once(self, capsys, monkeypatch):
        def build_parser():
            raise AssertionError("the parser is built again")
        monkeypatch.setattr(cli, "build_parser", build_parser)
        code, out, _ = run(capsys, "continuum", "cmp", "[1:3]", "[1:3][1:5]")
        assert (code, out) == (0, "proper_prefix\n")


NESTED = "(" * 3000 + "p" + ")" * 3000
NEGATED = "~" * 3000 + "p"
JUXTAPOSED = " ".join(["p"] * 3000)


class TestDeepNesting:
    @pytest.mark.parametrize("argv", [
        ("parse", "--dialect", "classical", NESTED),
        ("translate", "--to", "formula", "--dialect", "classical", NESTED),
        ("translate", "--to", "formula", "--dialect", "classical", JUXTAPOSED),
        ("translate", "--to", "graph", "--dialect", "classical", NEGATED),
        ("translate", "--to", "graph", "--dialect", "intuitionistic", NEGATED),
        ("taut", "--logic", "classical", NEGATED),
        ("taut", "--logic", "classical", NESTED),
        ("taut", "--logic", "intuitionistic", NEGATED),
        ("taut", "--logic", "intuitionistic", "--countermodel", NEGATED),
        ("prove", "--system", "classical", "--goal", NESTED),
        ("prove", "--system", "intuitionistic", "--goal", "p", "--from", NESTED),
        ("continuum", "domain", "[" + "w^(" * 3000 + "1" + ")" * 3000 + ":1]"),
    ])
    def test_exit_2_without_traceback(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (2, "eg: input nested too deeply\n")

    def test_render(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "-o", str(tmp_path / "g.svg"), NESTED)
        assert (code, err) == (2, "eg: input nested too deeply\n")

    def test_check(self, capsys, tmp_path):
        src = tmp_path / "deep.txt"
        src.write_text(f"system classical\ngraph {NESTED}\n")
        code, _, err = run(capsys, "check", str(src))
        assert (code, err) == (2, "eg: input nested too deeply\n")


FLOOR = 150
PARENTHESISED = "(" * FLOOR + "p -> p" + ")" * FLOOR


class TestNestingFloor:
    # every reading subcommand still works 150 levels deep, so a change to
    # a reader that adds frames per level shows here
    @pytest.mark.parametrize("argv", [
        ("parse", "--dialect", "classical", "(" * FLOOR + ")" * FLOOR),
        ("taut", "--logic", "classical", PARENTHESISED),
        ("taut", "--logic", "classical", "~" * 500 + "T"),
        ("translate", "--to", "graph", "--dialect", "classical", PARENTHESISED),
        ("continuum", "domain", "[" + "w^(" * FLOOR + "1" + ")" * FLOOR + ":1]"),
    ], ids=["parse", "taut-parentheses", "taut-negations", "translate", "continuum-domain"])
    def test_exit_0(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")

    # the formula reader takes two frames per parenthesis, so formulas are
    # read 400 parentheses deep
    @pytest.mark.parametrize("argv", [
        ("taut", "--logic", "classical"),
        ("taut", "--logic", "intuitionistic"),
        ("translate", "--to", "graph", "--dialect", "classical"),
    ], ids=["taut-classical", "taut-intuitionistic", "translate"])
    def test_formula_400_parentheses_deep(self, capsys, argv):
        code, _, err = run(capsys, *argv, "(" * 400 + "p -> p" + ")" * 400)
        assert (code, err) == (0, "")

    def test_check(self, capsys, tmp_path):
        script = tmp_path / "s.eg"
        script.write_text(f"system classical\ngraph {'(' * FLOOR + ')' * FLOOR}\n"
                          "dcadd / items 0\n", encoding="utf-8")
        code, _, err = run(capsys, "check", str(script))
        assert (code, err) == (0, "")

    def test_classical_loop_diagnosed_400_cuts_deep(self, capsys):
        # the reader takes two frames per bracket and the diagnostic's walk
        # one per level, so a loop 400 cuts deep is still named by its path
        text = "(" * 400 + "[p | q]" + ")" * 400
        assert run(capsys, "parse", "--dialect", "classical", text) == (
            2, "", "eg: scroll loops are not classical signs at " + "0.outer." * 400 + "0\n")


class TestNonIntegerInput:
    """Digits that ``int`` rejects, such as the superscript two, and items
    lists that are not integers, are input errors: exit 2, one diagnostic."""

    @pytest.mark.parametrize("step", [
        "erase ²",
        "loopremove 0 ²",
        "erase 0.loop²",
        "dcadd / items x",
        "wrap / items 1,a",
    ])
    def test_script_step(self, capsys, tmp_path, step):
        script = tmp_path / "s.eg"
        script.write_text(f"system intuitionistic\ngraph [p | q]\n{step}\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(script))
        assert (code, out) == (2, "")
        assert err.startswith("eg: line 3: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("element", ["[²:1]", "[w*²:1]", "[w^²:1]"])
    def test_continuum_element(self, capsys, element):
        code, out, err = run(capsys, "continuum", "domain", element)
        assert (code, out) == (2, "")
        assert err.startswith("eg: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("element,error", [
        ("[1:3][w*²:1]", "coefficient expected after '*' (at position 8)"),
        ("[1:3][ w + x :1]", "unexpected 'x' in ordinal (at position 11)"),
        ("[1:3][ :1]", "ordinal expected (at position 7)"),
        ("[1:3][w:x]", "bad rational 'x' (at position 5)"),
    ])
    def test_continuum_error_position_is_in_the_element(self, capsys, element, error):
        # an ordinal's error gives its position in the whole element text
        assert run(capsys, "continuum", "domain", element) == (2, "", f"eg: {error}\n")


class TestUndecodableInput:
    """A file that is not UTF-8 text is an input error: exit 2, one line."""

    @pytest.mark.parametrize("argv", [
        ("parse", "--dialect", "classical", "--file"),
        ("taut", "--logic", "classical", "--file"),
        ("check",),
    ])
    def test_exit_2_without_traceback(self, capsys, tmp_path, argv):
        binary = tmp_path / "binary"
        binary.write_bytes(b"\x7fELF\x02\x01\x01\x00\xd0\xff\xfe")
        code, out, err = run(capsys, *argv, str(binary))
        assert (code, out) == (2, "")
        assert err.startswith("eg: ") and "decode" in err and err.count("\n") == 1


LONG = "9" * 5000
LONGEST = "9" * 4000


class TestOversizedLiterals:
    """Integers past the digit limit, and rationals whose exponent or
    digits run past it, are input errors at the literal: exit 2, one line."""

    @pytest.mark.parametrize("step,error", [
        (f"erase {LONG}", "index of 5000 digits is too long"),
        (f"erase 0.loop{LONG}.0", "index of 5000 digits is too long"),
        (f"loopremove 0 {LONG}", "index of 5000 digits is too long"),
        (f"wrap / items {LONG}", "index of 5000 digits is too long"),
        (f"dcadd / items 0,{LONG}", "index of 5000 digits is too long"),
    ], ids=["item", "loop", "loopremove", "wrap", "dcadd"])
    def test_script_step(self, capsys, tmp_path, step, error):
        script = tmp_path / "s.eg"
        script.write_text(f"system intuitionistic\ngraph [p | q]\n{step}\n", encoding="utf-8")
        assert run(capsys, "check", str(script)) == (2, "", f"eg: line 3: {error}\n")

    @pytest.mark.parametrize("argv,error", [
        (("domain", f"[{LONG}:1]"), "integer of more than 4000 digits (at position 1)"),
        (("domain", f"[1:2][w*{LONG}:1]"), "integer of more than 4000 digits (at position 8)"),
        (("domain", f"[w^{LONG}:1]"), "integer of more than 4000 digits (at position 3)"),
        (("concat", "[1:1e5000]", "[1:2]"), "rational with more than 4000 digits (at position 0)"),
        (("tail", "[1:2]", "[1:2][1:1e-5000]"),
         "rational with more than 4000 digits (at position 5)"),
        (("domain", f"[1:{LONG}/7]"), f"bad rational '{LONG}/7' (at position 0)"),
        (("domain", "[1:1e10000000]"),
         "rational exponent longer than five characters (at position 0)"),
    ], ids=["integer", "coefficient", "exponent", "numerator", "denominator",
            "digits", "rational-exponent"])
    def test_continuum(self, capsys, argv, error):
        assert run(capsys, "continuum", *argv) == (2, "", f"eg: {error}\n")

    def test_continuum_at_the_limit_prints(self, capsys):
        # a sum of literals at the limit still prints, as do rationals at it
        code, out, _ = run(capsys, "continuum", "concat", f"[w*{LONGEST}+{LONGEST}:1/{LONGEST}]",
                           f"[{LONGEST}:1/{LONGEST}][1:1e-3999]")
        assert code == 0
        assert out == (f"[w*{LONGEST}+{int(LONGEST) * 2}:1/{LONGEST}]"
                       f"[1:1/1{'0' * 3999}]\n")


FRAGMENTS = ("p", "q", "r", "~", "&", "|", "->", "(", ")", "[", "]", "T", "F", " ", "$", "9")
LITERALS = ("[1:3]", "[w:7]", "[w^2*3+1:1/2]", "[1:3][w:-1]", "[1:3][1:5]", "[0:1]", "[w:x]", "[",
            "[1:1e3]", "")
SCRIPT_LINES = ("system classical", "system intuitionistic", "erase 0", "iterate 0 -> 1.outer",
                "dcadd / items 0", "dcremove 0", "wrap / items", "unwrap 0", "loopremove 0 1",
                "detach 0", "insert / p", "bogus 0")
JUNK = ("--bogus", "-x", "", "--depth", "--file", "classical", "9", "--help")

WELL_FORMED = ("p", "p | ~p", "~~p -> p", "p -> q -> p", "(p (q))", "[p | q]", "p q", "((p)) r")

texts = st.one_of(st.sampled_from(WELL_FORMED),
                  st.lists(st.sampled_from(FRAGMENTS), max_size=8).map("".join))
systems = st.sampled_from(("classical", "intuitionistic", "intuitionistic", "modal"))
flags = st.one_of(st.integers(-1, 3).map(str), st.sampled_from(("x", "0", "9")))


@st.composite
def command_lines(draw, folder):
    """A small argv for one subcommand, sometimes mangled, and the text of
    the script and input files it may name."""
    command = draw(st.sampled_from(("parse", "taut", "translate", "prove", "render",
                                    "check", "continuum")))
    text = draw(texts)
    source = ["--file", str(folder / "input.txt")] if draw(st.booleans()) else [text]
    if command == "parse":
        argv = ["parse", "--dialect", draw(systems), *source]
    elif command == "taut":
        argv = ["taut", "--logic", draw(systems), *source]
        if draw(st.booleans()):
            argv += ["--countermodel", "--max-worlds", draw(flags)]
    elif command == "translate":
        to = draw(st.sampled_from(("formula", "graph")))
        argv = ["translate", "--to", to, "--dialect", draw(systems), *source]
    elif command == "prove":
        argv = ["prove", "--system", draw(systems), "--goal", text, "--depth", draw(flags)]
        if draw(st.booleans()):
            argv += ["--from", draw(texts)]
        if draw(st.booleans()):
            argv += ["--max-visited", draw(flags)]
    elif command == "render":
        argv = ["render", "-o", str(folder / "out.svg"), *source]
    elif command == "check":
        argv = ["check", str(folder / "script.eg")]
    else:
        operation = draw(st.sampled_from(("cmp", "extends", "tail", "concat", "domain")))
        arity = draw(st.sampled_from((1 if operation == "domain" else 2,) * 3 + (0, 3)))
        argv = ["continuum", operation, *(draw(st.sampled_from(LITERALS)) for _ in range(arity))]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
        del argv[draw(st.integers(0, len(argv) - 1))]
    lines = draw(st.lists(st.one_of(st.sampled_from(SCRIPT_LINES),
                                    texts.map("graph {}".format),
                                    texts.map("expect {}".format)), max_size=4))
    if draw(st.booleans()):
        lines[:0] = ["system intuitionistic", "graph p (q)"]
    return argv, text, "\n".join(lines)


class TestFuzzedCommandLines:
    """The exit-code contract on random small command lines: every run
    ends in 0, 1 or 2 without raising, and exit 2 comes with one ``eg:``
    line on stderr, usage errors included."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_contract(self, tmp_path, monkeypatch, data):
        # a mangled argv can name a relative output file (render -o q)
        monkeypatch.chdir(tmp_path)
        argv, text, script = data.draw(command_lines(tmp_path))
        (tmp_path / "input.txt").write_text(text, encoding="utf-8")
        (tmp_path / "script.eg").write_text(script, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert re.fullmatch(r"eg: .*\n", err.getvalue()), argv


def both_ways(monkeypatch, argv):
    """``main(argv)`` as it runs, then with ``_COMMANDS`` emptied, so that
    every argv goes to the top parser: each run's exit code, stdout, stderr,
    and the namespace that parse_args returned, less the ``command`` that
    only the top parser sets."""
    outcomes, parse = [], argparse.ArgumentParser.parse_args
    for commands in (cli._COMMANDS, {}):
        monkeypatch.setattr(cli, "_COMMANDS", commands)
        spaces = []

        def recorded(parser, args=None, namespace=None, spaces=spaces):
            space = parse(parser, args, namespace)
            spaces.append({k: v for k, v in vars(space).items() if k != "command"})
            return space

        monkeypatch.setattr(cli._Parser, "parse_args", recorded)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        outcomes.append((code, out.getvalue(), err.getvalue(), spaces))
    return outcomes


EDGES = [
    [], ["-h"], ["--he"], ["taut", "-h"], ["frobnicate"], ["frobnicate", "p"],
    ["taut", "--lo", "classical", "p | ~p"], ["taut", "--logic=classical", "p | ~p"],
    ["taut", "p | ~p", "--logic", "intuitionistic"],
    ["prove", "--system", "classical", "--goal", "(p (p))", "--depth", "-1"],
    ["--"], ["--", "taut", "--logic", "classical", "p"], ["taut", "--logic", "classical", "--", "p"],
    ["taut", "--logic", "classical", "p", "--bogus"], ["--bogus", "taut"],
    ["continuum", "domain", "[w:1]"], ["check"], ["parse", "--dialect"],
] + [[command, "--help"] for command in ("parse", "check", "prove", "taut", "translate",
                                         "render", "continuum")]


class TestDispatch:
    """An argv that starts with a subcommand's name is read by that
    subcommand's parser alone, with the top parser's outcome: the same
    namespace, the same usage error, or the same help bytes and exit."""

    @pytest.mark.parametrize("argv", EDGES, ids=" ".join)
    def test_edge_cases(self, monkeypatch, argv):
        dispatched, top = both_ways(monkeypatch, argv)
        assert dispatched == top

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_command_lines(self, tmp_path, monkeypatch, data):
        monkeypatch.chdir(tmp_path)
        argv, text, script = data.draw(command_lines(tmp_path))
        (tmp_path / "input.txt").write_text(text, encoding="utf-8")
        (tmp_path / "script.eg").write_text(script, encoding="utf-8")
        dispatched, top = both_ways(monkeypatch, argv)
        assert dispatched == top, argv

    @pytest.mark.parametrize("argv", [["eg"], ["eg", "taut", "--logic", "classical", "p | ~p"],
                                      ["eg", "taut", "--help"]], ids=" ".join)
    def test_argv_from_sys(self, monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", argv)
        dispatched, top = both_ways(monkeypatch, None)
        assert dispatched == top
        assert dispatched == both_ways(monkeypatch, argv[1:])[0]

    def test_a_subcommand_skips_the_top_parser(self, capsys, monkeypatch):
        def parse_args(args=None, namespace=None):
            raise AssertionError("the top parser read a subcommand's argv")
        monkeypatch.setattr(cli._PARSER, "parse_args", parse_args)
        assert run(capsys, "taut", "--logic", "classical", "p | ~p") == (0, "tautology\n", "")
