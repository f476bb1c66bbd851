"""Existential graphs with a rewriting calculus, semantic oracles, proof
search, SVG rendering, and an ordinal-indexed continuum model.

Importing the package runs none of its modules.  Each public name is
looked up in the module that defines it when first read (PEP 562), and
a submodule's own name is the submodule, so a caller pays the import of
only the modules it uses.  The ``eg`` command line imports the formula
modules when it loads and the rest when a command first needs them (see
``peirce.cli.__getattr__``).
"""

import sys

# public names by the module that defines them
_NAMES = {
    "calculus": "Deiterate Detach DoubleCutElim DoubleCutIntro Erase Insert Iterate "
                "LoopAdd LoopRemove ProofScript Report RuleInstance ScrollUnwrap "
                "ScrollWrap System apply_rule check_script enumerate_rule_instances",
    "continuum": "ContinuumElement LexRelation Ordinal concat elem_canonicalize "
                 "elem_domain element extends lex_compare ord_add ord_cmp ord_sub_left "
                 "parse_element parse_ordinal print_element print_ordinal tail",
    "errors": "",
    "formulas": "",
    "graphs": "BLANK EVEN ODD Atom Dialect Graph Item Path Scroll canonicalize cut "
              "equals polarity replace_at resolve well_formed",
    "kripke": "KripkeModel forces kripke_countermodel",
    "notation": "parse_formula parse_graph print_formula print_graph",
    "render": "emit_svg layout render_svg",
    "scriptfile": "format_script parse_script",
    "search": "SearchBounds derive",
    "semantics": "entails eval_classical formula_to_graph graph_to_formula "
                 "taut_classical taut_int",
}
_MODULE_OF = {name: module for module, names in _NAMES.items()
              for name in (module, *names.split())}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ goes through the import statement's path, which
    # -X importtime times; importlib.import_module does not
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
