"""The package namespace: the same public names as when the package bound
them all at import, each read from its defining module on first use."""

import importlib

import pytest

import peirce

from genutil import fresh

ALL = [
    "Atom", "BLANK", "ContinuumElement", "Deiterate", "Detach", "Dialect", "DoubleCutElim",
    "DoubleCutIntro", "EVEN", "Erase", "Graph", "Insert", "Item", "Iterate", "KripkeModel",
    "LexRelation", "LoopAdd", "LoopRemove", "ODD", "Ordinal", "Path", "ProofScript", "Report",
    "RuleInstance", "Scroll", "ScrollUnwrap", "ScrollWrap", "SearchBounds", "System",
    "apply_rule", "calculus", "canonicalize", "check_script", "concat", "continuum", "cut",
    "derive", "elem_canonicalize", "elem_domain", "element", "emit_svg", "entails",
    "enumerate_rule_instances", "equals", "errors", "eval_classical", "extends", "forces",
    "format_script", "formula_to_graph", "formulas", "graph_to_formula", "graphs", "kripke",
    "kripke_countermodel", "layout", "lex_compare", "notation", "ord_add", "ord_cmp",
    "ord_sub_left", "parse_element", "parse_formula", "parse_graph", "parse_ordinal",
    "parse_script", "polarity", "print_element", "print_formula", "print_graph",
    "print_ordinal", "render", "render_svg", "replace_at", "resolve", "scriptfile", "search",
    "semantics", "tail", "taut_classical", "taut_int", "well_formed",
]

# each name that is not a module's, by the module that defines it
DEFINED_IN = {
    "calculus": ["Deiterate", "Detach", "DoubleCutElim", "DoubleCutIntro", "Erase", "Insert",
                 "Iterate", "LoopAdd", "LoopRemove", "ProofScript", "Report", "RuleInstance",
                 "ScrollUnwrap", "ScrollWrap", "System", "apply_rule", "check_script",
                 "enumerate_rule_instances"],
    "continuum": ["ContinuumElement", "LexRelation", "Ordinal", "concat", "elem_canonicalize",
                  "elem_domain", "element", "extends", "lex_compare", "ord_add", "ord_cmp",
                  "ord_sub_left", "parse_element", "parse_ordinal", "print_element",
                  "print_ordinal", "tail"],
    "graphs": ["BLANK", "EVEN", "ODD", "Atom", "Dialect", "Graph", "Item", "Path", "Scroll",
               "canonicalize", "cut", "equals", "polarity", "replace_at", "resolve",
               "well_formed"],
    "kripke": ["KripkeModel", "forces", "kripke_countermodel"],
    "notation": ["parse_formula", "parse_graph", "print_formula", "print_graph"],
    "render": ["emit_svg", "layout", "render_svg"],
    "scriptfile": ["format_script", "parse_script"],
    "search": ["SearchBounds", "derive"],
    "semantics": ["entails", "eval_classical", "formula_to_graph", "graph_to_formula",
                  "taut_classical", "taut_int"],
}
MODULES = ["calculus", "continuum", "errors", "formulas", "graphs", "kripke", "notation",
           "render", "scriptfile", "search", "semantics"]


def test_all_is_the_pinned_list():
    assert peirce.__all__ == ALL
    assert sorted(MODULES + [n for names in DEFINED_IN.values() for n in names]) == ALL


def test_each_name_is_its_modules_object():
    # a module's own name is the module
    wrong = [m for m in MODULES if getattr(peirce, m) is not importlib.import_module(f"peirce.{m}")]
    wrong += [n for m, names in DEFINED_IN.items() for n in names
              if getattr(peirce, n) is not getattr(importlib.import_module(f"peirce.{m}"), n)]
    assert wrong == []


def test_system_is_dialect():
    assert peirce.System is peirce.Dialect


def test_an_unknown_name_raises_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        peirce.no_such_name


def test_dir_and_star_import_in_a_fresh_interpreter():
    # fresh, so that no name has been read before dir() lists them
    code = ("import peirce\n"
            "listed = set(peirce.__all__) <= set(dir(peirce))\n"
            "from peirce import *\n"
            "names = [n for n in peirce.__all__ if globals()[n] is getattr(peirce, n)]\n"
            "print(listed, len(names), names == peirce.__all__)\n")
    assert fresh(code) == "True 82 True\n"
