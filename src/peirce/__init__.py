"""Existential graphs with a rewriting calculus, semantic oracles, proof
search, SVG rendering, and an ordinal-indexed continuum model."""

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
    Report,
    RuleInstance,
    ScrollUnwrap,
    ScrollWrap,
    System,
    apply_rule,
    check_script,
    enumerate_rule_instances,
)
from .continuum import (
    ContinuumElement,
    LexRelation,
    Ordinal,
    concat,
    elem_canonicalize,
    elem_domain,
    element,
    extends,
    lex_compare,
    ord_add,
    ord_cmp,
    ord_sub_left,
    parse_element,
    parse_ordinal,
    print_element,
    print_ordinal,
    tail,
)
from .graphs import (
    BLANK,
    EVEN,
    ODD,
    Atom,
    Dialect,
    Graph,
    Item,
    Path,
    Scroll,
    canonicalize,
    cut,
    equals,
    polarity,
    replace_at,
    resolve,
    well_formed,
)
from .kripke import KripkeModel, forces, kripke_countermodel
from .notation import parse_formula, parse_graph, print_formula, print_graph
from .render import emit_svg, layout, render_svg
from .scriptfile import format_script, parse_script
from .search import SearchBounds, derive
from .semantics import (
    entails,
    eval_classical,
    formula_to_graph,
    graph_to_formula,
    taut_classical,
    taut_int,
)

__all__ = [name for name in dir() if not name.startswith("_")]
