import xml.etree.ElementTree as ET

import pytest

from peirce.cli import main


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

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent.eg")
        assert code == 2 and err

    def test_malformed_script(self, capsys, tmp_path):
        script = tmp_path / "s.eg"
        script.write_text("system classical\ngraph p\nbogus 0\n")
        code, _, err = run(capsys, "check", str(script))
        assert code == 2 and "line 3" in err


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

    def test_from_start(self, capsys):
        code, out, _ = run(capsys, "prove", "--system", "classical",
                           "--goal", "p", "--from", "((p))", "--depth", "2")
        assert code == 0 and "dcremove" in out


class TestTranslate:
    def test_graph_to_formula(self, capsys):
        code, out, _ = run(capsys, "translate", "--to", "formula",
                           "--dialect", "intuitionistic", "[p | q]")
        assert (code, out) == (0, "p -> q\n")

    def test_formula_to_graph(self, capsys):
        code, out, _ = run(capsys, "translate", "--to", "graph",
                           "--dialect", "classical", "p -> q")
        assert (code, out) == (0, "(p (q))\n")


class TestRender:
    def test_writes_svg(self, capsys, tmp_path):
        out_file = tmp_path / "g.svg"
        code, _, _ = run(capsys, "render", "-o", str(out_file), "[p | q]")
        assert code == 0
        ET.fromstring(out_file.read_text())


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


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_text(self, capsys):
        code, _, err = run(capsys, "parse", "--dialect", "classical")
        assert code == 2 and err


NESTED = "(" * 3000 + "p" + ")" * 3000
NEGATED = "~" * 3000 + "p"
CONJUNCTS = " & ".join(["p"] * 3000)
JUXTAPOSED = " ".join(["p"] * 3000)


class TestDeepNesting:
    @pytest.mark.parametrize("argv", [
        ("parse", "--dialect", "classical", NESTED),
        ("translate", "--to", "formula", "--dialect", "classical", NESTED),
        ("translate", "--to", "formula", "--dialect", "classical", JUXTAPOSED),
        ("translate", "--to", "graph", "--dialect", "classical", NEGATED),
        ("translate", "--to", "graph", "--dialect", "intuitionistic", CONJUNCTS),
        ("taut", "--logic", "classical", NEGATED),
        ("taut", "--logic", "classical", CONJUNCTS),
        ("taut", "--logic", "intuitionistic", NEGATED),
        ("taut", "--logic", "intuitionistic", "--countermodel", CONJUNCTS),
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
