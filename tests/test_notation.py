import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peirce import formulas as fm
from peirce.cli import main
from peirce.errors import DialectError, ParseError
from peirce.graphs import Atom, Dialect, Graph, Scroll
from peirce.notation import parse_formula, parse_graph, print_formula, print_graph

from genutil import random_formula, random_graph

C = Dialect.CLASSICAL
I = Dialect.INTUITIONISTIC


class TestGraphParsing:
    def test_atom_and_cut(self):
        g = parse_graph("p (q)", C)
        assert g == Graph((Atom("p"), Scroll(Graph((Atom("q"),)))))

    def test_scroll(self):
        g = parse_graph("[p | q]", I)
        assert g == Graph((Scroll(Graph((Atom("p"),)), (Graph((Atom("q"),)),)),))

    def test_scroll_rejected_classically(self):
        with pytest.raises(DialectError):
            parse_graph("[p | q]", C)

    def test_square_brackets_without_pipe_are_a_cut(self):
        assert parse_graph("[p]", I) == parse_graph("(p)", I)

    def test_empty_text_is_blank_sheet(self):
        assert parse_graph("", C) == Graph()
        assert parse_graph("   ", C) == Graph()

    def test_unbalanced_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_graph("p (q", C)
        assert err.value.position == 4

    def test_stray_pipe_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("p | q", I)
        with pytest.raises(ParseError):
            parse_graph("(p | q)", I)

    def test_unmatched_close(self):
        with pytest.raises(ParseError):
            parse_graph("p)", C)

    def test_bad_atom(self):
        with pytest.raises(ParseError):
            parse_graph("p 9q", C)


class TestGraphPrinting:
    def test_empty_cut(self):
        assert print_graph(Graph((Scroll(Graph()),))) == "()"

    def test_two_loop_scroll(self):
        g = parse_graph("[p | q | r]", I)
        assert print_graph(g) == "[p | q | r]"

    def test_blank_sheet(self):
        assert print_graph(Graph()) == ""

    def test_empty_outer(self):
        assert print_graph(parse_graph("[ | p]", I)) == "[ | p]"

    def test_empty_loop(self):
        assert print_graph(parse_graph("[p | ]", I)) == "[p | ]"

    def test_multi_item_areas_in_scroll(self):
        assert print_graph(parse_graph("[p q | r s]", I)) == "[p q | r s]"

    def test_nested_scrolls(self):
        assert print_graph(parse_graph("[[p | q] | r]", I)) == "[[p | q] | r]"

    def test_round_trip_exact_random(self):
        rng = random.Random(23)
        for _ in range(500):
            dialect = rng.choice([C, I])
            g = random_graph(rng, dialect=dialect)
            assert parse_graph(print_graph(g), dialect) == g

    def test_reparse_stability(self):
        texts = ["p  q", "( p )", "[ p |q ]", "p(q)  (r)"]
        for text in texts:
            g = parse_graph(text, I)
            assert parse_graph(print_graph(g), I) == g


class TestFormulaParsing:
    def test_right_associative_implication(self):
        f = parse_formula("p -> q -> r")
        assert f == fm.Imp(fm.Atom("p"), fm.Imp(fm.Atom("q"), fm.Atom("r")))

    def test_precedence(self):
        assert parse_formula("~p & q") == fm.And(fm.Not(fm.Atom("p")), fm.Atom("q"))

    def test_excluded_middle_shape(self):
        assert parse_formula("p | ~p") == fm.Or(fm.Atom("p"), fm.Not(fm.Atom("p")))

    def test_top_bottom(self):
        assert parse_formula("T -> F") == fm.Imp(fm.TOP, fm.BOT)

    def test_and_or_left_associative(self):
        assert parse_formula("p & q & r") == fm.And(fm.And(fm.Atom("p"), fm.Atom("q")), fm.Atom("r"))
        assert parse_formula("p | q | r") == fm.Or(fm.Or(fm.Atom("p"), fm.Atom("q")), fm.Atom("r"))

    def test_errors(self):
        for bad in ["", "p ->", "(p", "p &", "& p", "p q"]:
            with pytest.raises(ParseError):
                parse_formula(bad)


class TestFormulaPrinting:
    @pytest.mark.parametrize("text", [
        "p -> q -> r",
        "(p -> q) -> r",
        "~p & q",
        "~(p & q)",
        "p & (q | r)",
        "p & q | r",
        "p | ~p",
        "T",
        "F -> q",
        "p & (q & r)",
    ])
    def test_minimal_parentheses(self, text):
        f = parse_formula(text)
        assert print_formula(f) == text

    def test_round_trip_random(self):
        rng = random.Random(29)
        for _ in range(500):
            f = random_formula(rng)
            assert parse_formula(print_formula(f)) == f


@st.composite
def formula_strategy(draw, depth=4):
    if depth == 0:
        return draw(st.sampled_from([fm.Atom("p"), fm.Atom("q"), fm.Atom("r"), fm.TOP, fm.BOT]))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(st.sampled_from([fm.Atom("p"), fm.Atom("q"), fm.TOP, fm.BOT]))
    if kind == 1:
        return fm.Not(draw(formula_strategy(depth=depth - 1)))
    left = draw(formula_strategy(depth=depth - 1))
    right = draw(formula_strategy(depth=depth - 1))
    return (fm.And, fm.Or, fm.Imp)[kind - 2](left, right)


@given(formula_strategy())
@settings(max_examples=200, deadline=None)
def test_formula_round_trip_property(f):
    assert parse_formula(print_formula(f)) == f


def _formula_text(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(["p", "q", "r_2", "T", "F"])
    if roll < 0.45:
        return "~" + _formula_text(rng, depth - 1)
    if roll < 0.6:
        return "(" + _formula_text(rng, depth - 1) + ")"
    gap = rng.choice(["", " ", "  "])
    sign = rng.choice(["&", "|", "->"])
    return _formula_text(rng, depth - 1) + gap + sign + gap + _formula_text(rng, depth - 1)


def _print_or_error_lines():
    """Print-or-error output on seeded formula texts, a third of them
    corrupted by one inserted or deleted character."""
    rng = random.Random(67)
    lines = []
    for _ in range(4000):
        text = _formula_text(rng, rng.randint(0, 5))
        if rng.random() < 0.35:
            at = rng.randint(0, len(text))
            if rng.random() < 0.5:
                text = text[:at] + text[at + 1:]
            else:
                text = text[:at] + rng.choice("pT~&|->()$9 ") + text[at:]
        try:
            lines.append(print_formula(parse_formula(text)))
        except ParseError as exc:
            lines.append(f"error: {exc}")
    return lines


def test_print_or_error_bytes_are_pinned():
    # the digest of this output before the connectives moved into one table
    lines = _print_or_error_lines()
    errors = sum(line.startswith("error: ") for line in lines)
    assert 500 < errors < 3500
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ddd16addad06366b6b936fc42685fc5aee99c7bd995a09ff4d52071d4938f702"


def _graph_text(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        return rng.choice(["p", "q", "r_2", "p1"])
    gap = rng.choice(["", " ", "  "])
    areas = [" ".join(_graph_text(rng, depth - 1) for _ in range(rng.randint(0, 3)))
             for _ in range(rng.randint(1, 3))]
    if roll < 0.6:
        return "(" + gap + areas[0] + gap + ")"
    return "[" + gap + (gap + "|" + gap).join(areas) + gap + "]"


def _graph_print_or_error_lines():
    """Print-or-error output on seeded graph texts in both dialects, a
    third of them corrupted by one inserted or deleted character."""
    rng = random.Random(71)
    lines = []
    for _ in range(4000):
        text = " ".join(_graph_text(rng, rng.randint(0, 4)) for _ in range(rng.randint(0, 3)))
        if rng.random() < 0.35:
            at = rng.randint(0, len(text))
            if rng.random() < 0.5:
                text = text[:at] + text[at + 1:]
            else:
                text = text[:at] + rng.choice("pq()[]|$9_ ") + text[at:]
        for dialect in (C, I):
            try:
                lines.append(print_graph(parse_graph(text, dialect)))
            except (ParseError, DialectError) as exc:
                lines.append(f"error: {exc}")
    return lines


def test_graph_print_or_error_bytes_are_pinned():
    # the digest of this output while the item parser read a cut and a
    # scroll in two branches and had branches for '|', ')' and ']', which
    # the area parser never passes to it
    lines = _graph_print_or_error_lines()
    errors = [line for line in lines if line.startswith("error: ")]
    assert 1000 < len(errors) < 5000
    assert any("'|' is only valid" in line for line in errors)
    assert any("unclosed '['" in line for line in errors)
    assert any("unexpected ')'" in line for line in errors)
    assert any("unexpected ']'" in line for line in errors)
    assert not any("unmatched" in line for line in errors)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "8c49a34d9580c0f0e55f409eb2075f57951853cc2f40279d59576332995873f5"


class TestUnicodeClasses:
    # the readers split a text with a pattern whose \s and \w stand for
    # str.isspace and for str.isalnum or '_', which the readers before it
    # tested one character at a time
    def test_pattern_classes_are_the_string_tests(self):
        every = "".join(map(chr, range(0x110000)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
        assert re.findall(r"\w", every) == [c for c in every if c.isalnum() or c == "_"]

    @pytest.mark.parametrize("argv,expected", [
        (("parse", "--dialect", "classical", "p\u3000q"), (0, "p q\n", "")),
        (("parse", "--dialect", "classical", "(p\xa0q)"), (0, "(p q)\n", "")),
        (("parse", "--dialect", "classical", "p \xe9"),
         (2, "", "eg: bad atom name '\xe9' (at position 2)\n")),
        (("parse", "--dialect", "classical", "p\u0663"),
         (2, "", "eg: bad atom name 'p\u0663' (at position 0)\n")),
        (("parse", "--dialect", "classical", "p -> q"),
         (2, "", "eg: unexpected '-' (at position 2)\n")),
        (("taut", "--logic", "classical", "\xe9 & p"),
         (2, "", "eg: bad token '\xe9' (at position 0)\n")),
        (("taut", "--logic", "classical", "p\u0663 -> q"),
         (2, "", "eg: bad token 'p' (at position 0)\n")),
        (("taut", "--logic", "classical", "p\u3000->\u3000q"), (1, "not a tautology\n", "")),
    ])
    def test_outputs_are_pinned(self, capsys, argv, expected):
        # ideographic and no-break spaces separate; an accented letter and
        # an Arabic-Indic digit join a name, which no atom may hold
        code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected
