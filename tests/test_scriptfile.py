import hashlib
import random

import pytest

from peirce.calculus import (
    Deiterate,
    DoubleCutIntro,
    Erase,
    Insert,
    Iterate,
    ProofScript,
    ScrollWrap,
    System,
    check_script,
)
from peirce.errors import PeirceError, ScriptError
from peirce.graphs import Graph, Path, equals
from peirce.notation import parse_graph
from peirce.scriptfile import format_script, parse_script

EXAMPLE = """\
# iterate p into the cut
system classical
graph p (q)
iterate 0 -> 1.outer
expect p (p q)
"""


class TestParse:
    def test_example(self):
        script = parse_script(EXAMPLE)
        assert script.system is System.CLASSICAL
        assert script.steps == (
            (Iterate(Path.parse("0"), Path.parse("1.outer")),
             parse_graph("p (p q)", System.CLASSICAL.dialect)),
        )
        assert check_script(script).ok

    def test_all_step_kinds(self):
        text = "\n".join([
            "system intuitionistic",
            "graph p q [r | s]",
            "erase 0",
            "wrap / items 0",
            "unwrap 0",
            "loopadd 1 p",
            "loopremove 1 1  # needs odd area, checker will complain, parsing is fine",
            "detach 1",
            "iterate 0 -> 1.outer",
            "deiterate 1.outer.2 witness 0",
            "insert 1.outer p q",
        ])
        script = parse_script(text)
        assert len(script.steps) == 9

    def test_empty_items_list(self):
        script = parse_script("system classical\ngraph \ndcadd / items\n")
        assert script.steps[0][0] == DoubleCutIntro(Path(), frozenset())

    def test_comments_and_blank_lines(self):
        script = parse_script("# hi\n\nsystem classical\ngraph p\n\n# step\nerase 0\n")
        assert script.steps == ((Erase(Path.parse("0")), None),)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ScriptError) as err:
            parse_script("system classical\ngraph p\nfrobnicate 0\n")
        assert err.value.line == 3

    def test_system_must_come_first(self):
        with pytest.raises(ScriptError):
            parse_script("graph p\nsystem classical\n")

    def test_dialect_checked(self):
        with pytest.raises(ScriptError):
            parse_script("system classical\ngraph [p | q]\n")

    def test_expect_requires_step(self):
        with pytest.raises(ScriptError):
            parse_script("system classical\ngraph p\nexpect p\n")


class TestRoundTrip:
    def test_format_then_parse(self):
        script = ProofScript(System.INTUITIONISTIC, parse_graph("p (q)", System.INTUITIONISTIC.dialect), (
            (ScrollWrap(Path(), frozenset({0})), None),
            (Insert(Path.parse("1.outer"), parse_graph("r", System.INTUITIONISTIC.dialect)),
             parse_graph("[ | p] (q r)", System.INTUITIONISTIC.dialect)),
            (Deiterate(Path.parse("1.outer.0"), Path.parse("0")), None),
        ))
        text = format_script(script)
        assert parse_script(text) == script

    def test_insert_blank_graph(self):
        script = ProofScript(System.CLASSICAL, parse_graph("(p)", System.CLASSICAL.dialect), (
            (Insert(Path.parse("0.outer"), Graph()), None),
        ))
        assert parse_script(format_script(script)) == script


PATHS = ("0", "1", "2", "/", "1.outer", "2.loop0", "1.outer.0", "0.x", "x", "")
GRAPHS = ("p", "", "(p q)", "[p | q]", "[ | p]", "(", "p)", "9")
ITEMS = ("", "0", "0,1", "1, 0", "a", "0,,2")
# keyword: (texts between the operands, the right one first; second operands)
STEP_SHAPES = {
    "erase": ((), ()), "dcremove": ((), ()), "unwrap": ((), ()), "detach": ((), ()),
    "insert": ((" ", ""), GRAPHS), "loopadd": ((" ", ""), GRAPHS),
    "iterate": ((" -> ", "->", " - "), PATHS),
    "deiterate": ((" witness ", " witnes "), PATHS),
    "dcadd": ((" items ", " items", " item "), ITEMS),
    "wrap": ((" items ", " items", "items "), ITEMS),
    "loopremove": ((" ", ""), ("0", "1", "01", "", "x")),
    "unknown": ((), ()),
}


def _step_lines():
    """Parse-or-error and format_script output for seeded step lines of
    every keyword, after a start graph both systems accept."""
    rng = random.Random(71)
    lines = []
    for n in range(6000):
        keyword = list(STEP_SHAPES)[n % len(STEP_SHAPES)]
        gaps, operands = STEP_SHAPES[keyword]
        step = f"{keyword} {rng.choice(PATHS)}"
        if gaps:
            gap = gaps[0] if rng.random() < 0.8 else rng.choice(gaps)
            step += gap + rng.choice(operands)
        system = rng.choice(("classical", "intuitionistic"))
        try:
            script = parse_script(f"system {system}\ngraph p q (r s)\n{step}\n")
            lines.append(format_script(script))
        except PeirceError as exc:
            lines.append(f"error: {exc}\n")
    return lines


def test_parse_and_format_bytes_are_pinned():
    # the digest of this output before the steps moved into one table
    lines = _step_lines()
    errors = sum(line.startswith("error: ") for line in lines)
    assert 1500 < errors < 5500
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "e89e3735b16fe59c54c8b52f63c8c0d3d5b9b2fd0cbb096af553a29ab2a1f1e8"
