"""Bounded derivation search: machine-found proofs from the blank sheet,
certified by the script checker."""

from peirce import (
    Dialect,
    Graph,
    SearchBounds,
    System,
    check_script,
    derive,
    format_script,
    formula_to_graph,
    parse_formula,
    print_graph,
)

GOALS = [
    (System.CLASSICAL, "p -> p"),
    (System.CLASSICAL, "~~p -> p"),
    (System.INTUITIONISTIC, "p -> p"),
    (System.INTUITIONISTIC, "F -> q"),
]


def main():
    for system, text in GOALS:
        goal = formula_to_graph(parse_formula(text), system)
        script = derive(system, Graph(), goal, SearchBounds(max_depth=8))
        print(f"== {system.value}: {text}   (graph {print_graph(goal)!r})")
        if script is None:
            print("   no derivation within bounds\n")
            continue
        assert check_script(script).ok
        print("\n".join("   " + line for line in format_script(script).splitlines()))
        print()

    goal = formula_to_graph(parse_formula("p | ~p"), Dialect.INTUITIONISTIC)
    script = derive(System.INTUITIONISTIC, Graph(), goal, SearchBounds(max_depth=8))
    print("== intuitionistic: p | ~p")
    print("   derivation found?" , script is not None,
          "  (excluded middle is not an intuitionistic theorem)")


if __name__ == "__main__":
    main()
