"""The three seeded workloads and the checks on their outputs.

A workload is a batch of commands.  Each command runs ``eg`` in-process
(``lib.main``) or a public library function, and returns a result that a
check compares with the benchmark's own reference (``refmodel``).  Inputs
depend only on the seed, never on the program, so every version of the
program receives byte-identical inputs.
"""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import refmodel as rm


@dataclass
class Command:
    label: str
    run: Callable[[], tuple]            # -> (exit code, stdout, artifact or None)
    check: Callable[[tuple], Optional[str]]   # -> None, or why the result is wrong


@dataclass
class Batch:
    commands: list        # in a seeded random order, so that each kind of
                          # command is sampled across the whole batch
    warm_up: str          # Python source run once before timing, and in set-up
    notes: dict           # counts reported with the run


def eg_command(lib, label: str, argv: list, check) -> Command:
    return Command(label, lambda: lib.eg(argv), check)


def expect_exact(code: int, out: str) -> Callable[[tuple], Optional[str]]:
    def check(result):
        if result[:2] != (code, out):
            return f"expected exit {code} and {out!r}, got exit {result[0]} and {result[1]!r}"
        return None
    return check


# ---------------------------------------------------------------------------
# prove
# ---------------------------------------------------------------------------

# The eight provable C6 goals, written in graph notation, with how many
# seeded variants of each a batch runs.  Sorted by time, the goals form
# clusters (about 2, 4, 6, 12 and 20 ms, then 0.5 s, 1 s and 4 s).  The
# counts put the batch's median in the middle of the F -> q cluster and
# its eleventh-slowest sample in the middle of the 1 s cluster, so that
# neither falls on the edge between two kinds of command.
PROVE_GOALS = (
    ("classical", "(p (p))", 5),                    # p -> p
    ("classical", "(((p (q)) (p)) (p))", 1),        # ((p -> q) -> p) -> p
    ("classical", "(((p)) (p))", 4),                # ~~p -> p
    ("classical", "(p q (p))", 6),                  # p & q -> p
    ("intuitionistic", "[p | p]", 5),               # p -> p
    ("intuitionistic", "[p | [q | p]]", 3),         # p -> (q -> p)
    ("intuitionistic", "[p | ((p))]", 3),           # p -> ~~p
    ("intuitionistic", "[() | q]", 6),              # F -> q
)
EXCLUDED_MIDDLE = "[ | p | (p)]"                    # p | ~p, not an intuitionistic theorem
EXHAUSTION_DEPTH = 5


def _renaming(rng: random.Random) -> dict:
    """Atoms p < q go to single letters in the same order.  The search
    sorts by atom name, so an order-preserving renaming keeps its work
    the same for every seed."""
    a, b = sorted(rng.sample("abcdefghijklmnopqrstuvwxyz", 2))
    return {"p": a, "q": b}


def exhaustion_goal(seed: int) -> str:
    rng = random.Random(seed)
    return rm.show_graph(rm.relabel(rm.parse_graph(EXCLUDED_MIDDLE), rng, _renaming(rng)))


def exhaustion_command(lib, seed: int) -> Command:
    argv = ["prove", "--system", "intuitionistic", "--goal", exhaustion_goal(seed),
            "--depth", str(EXHAUSTION_DEPTH)]
    return eg_command(lib, "prove-exhaust", argv,
                      expect_exact(1, f"no derivation within depth {EXHAUSTION_DEPTH}\n"))


def prove_batch(lib, seed: int, tmp: Path) -> Batch:
    rng = random.Random(seed)
    commands = []
    for system, text, variants in PROVE_GOALS:
        for _ in range(variants):
            goal = rm.relabel(rm.parse_graph(text), rng, _renaming(rng))
            argv = ["prove", "--system", system, "--goal", rm.show_graph(goal),
                    "--depth", "12", "--max-visited", "10000"]
            commands.append(eg_command(lib, "prove", argv, _derivation_check(lib, system, goal)))
    commands.append(exhaustion_command(lib, seed))
    rng.shuffle(commands)
    warm = 'main(["prove", "--system", "classical", "--goal", "(a (a))"])'
    return Batch(commands, warm, {})


def _derivation_check(lib, system: str, goal: tuple):
    def check(result):
        code, out, _ = result
        if code != 0:
            return f"expected a derivation, got exit {code}: {out!r}"
        script = lib.checker.parse_script(out)
        report = lib.checker.check_script(script)
        if script.system.value != system or script.start.items:
            return "derivation does not start from the blank sheet of the right system"
        if not report.ok:
            return f"derivation rejected by check_script: {report.reason}"
        if not rm.same_graph(lib.checker.print_graph(report.final), goal):
            return "derivation does not end at the goal"
        return None
    return check


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

# Random formulas per batch, by the benchmark's own classification:
# theorem candidates (tautologies without a countermodel of <= 3 worlds)
# with 3 atoms and with fewer, refuted tautologies, and non-tautologies.
# Fixed shares keep the work of a batch the same for every seed; the
# share of theorems (13 of 60) is the C7 sample's ~21%.
ORACLE_QUOTA = {"theorem3": 7, "theorem": 6, "refuted": 3, "falsifiable": 44}
SWEEP_WORLDS = 4


def _classify(f: tuple) -> str:
    if not rm.tautology(f):
        return "falsifiable"
    if rm.find_countermodel(f, 3) is not None:
        return "refuted"
    return "theorem3" if len(rm.formula_atoms(f)) == 3 else "theorem"


def oracle_batch(lib, seed: int, tmp: Path) -> Batch:
    rng = random.Random(seed)
    left = dict(ORACLE_QUOTA)
    formulas = []
    while any(left.values()):
        f = rm.random_formula(rng, 8, "pqr")
        kind = _classify(f)
        if left[kind]:
            left[kind] -= 1
            formulas.append((kind, f))
    notes = {"missed": 0}
    commands = []
    for kind, f in formulas:
        text = rm.show_formula(f)
        record: dict = {}   # what the two intuitionistic oracles said
        commands.append(eg_command(
            lib, "taut-int", ["taut", "--logic", "intuitionistic", "--countermodel",
                              "--max-worlds", str(SWEEP_WORLDS), text],
            _int_check(f, kind, notes, record)))
        tautology = kind != "falsifiable"
        commands.append(eg_command(
            lib, "taut-classical", ["taut", "--logic", "classical", text],
            expect_exact(0 if tautology else 1,
                         "tautology\n" if tautology else "not a tautology\n")))
        if kind.startswith("theorem"):
            commands.append(Command("kripke-sweep", lambda text=text: _sweep(lib, text),
                                    _sweep_check(f, record)))
    for text, theorem, classical_too in _families():
        commands.append(eg_command(
            lib, "taut-int", ["taut", "--logic", "intuitionistic", text],
            expect_exact(*((0, "theorem\n") if theorem else (1, "not a theorem\n")))))
        if classical_too:
            commands.append(eg_command(
                lib, "taut-classical", ["taut", "--logic", "classical", text],
                expect_exact(0, "tautology\n")))
    rng.shuffle(commands)
    warm = ("from peirce import kripke_countermodel, parse_formula\n"
            f"kripke_countermodel(parse_formula('a -> a'), {SWEEP_WORLDS})")
    return Batch(commands, warm, notes)


def _sweep(lib, text: str) -> tuple:
    model = lib.kripke_countermodel(lib.parse_formula(text), SWEEP_WORLDS)
    return 0, "" if model is None else str(model), None


def _disagreement(record: dict) -> Optional[str]:
    if record.get("theorem") and record.get("refuted"):
        return "G4ip calls a theorem what the Kripke sweep refutes"
    return None


def _int_check(f: tuple, kind: str, notes: dict, record: dict):
    def check(result):
        code, out, _ = result
        lines = out.splitlines()
        if code == 0 and lines == ["theorem"]:
            if not kind.startswith("theorem"):
                return "called a theorem, but the benchmark refutes it"
            record["theorem"] = True
            return _disagreement(record)
        if code != 1 or not lines or lines[0] != "not a theorem" or len(lines) != 2:
            return f"unexpected output {out!r} (exit {code})"
        if lines[1].startswith("no countermodel"):
            if not kind.startswith("theorem"):
                return "missed a countermodel of at most 3 worlds"
            # a non-theorem whose countermodels all have more worlds: a count, not a failure
            notes["missed"] += 1
            return None
        try:
            model = rm.parse_kripke_model(lines[1])
        except ValueError as exc:
            return str(exc)
        if model[0] > SWEEP_WORLDS or not rm.refutes(model, f):
            return f"returned model does not refute the formula: {lines[1]}"
        return None
    return check


def _sweep_check(f: tuple, record: dict):
    def check(result):
        out = result[1]
        if not out:
            return None
        try:
            model = rm.parse_kripke_model(out)
        except ValueError as exc:
            return str(exc)
        if not rm.refutes(model, f):
            return f"returned model does not refute the formula: {out}"
        record["refuted"] = True
        return _disagreement(record)
    return check


def _families() -> list:
    """Scaled formulas whose verdicts hold by construction, as (text,
    intuitionistic theorem, decide classically too).  All are classical
    tautologies.  They are the same for every seed: G4ip's search order
    follows the hashes of subformulas, so renaming or reordering them
    changes its work (0.07-0.26 s on the 4-hole pigeonhole formula)."""
    out = []
    for n in (2, 3, 4):
        # pigeonhole: n+1 pigeons do not fit in n holes.  A negated formula
        # is an intuitionistic theorem iff it is a classical one (Glivenko).
        p = [[f"p{i}_{j}" for j in range(n)] for i in range(n + 1)]
        parts = ["(" + " | ".join(row) + ")" for row in p]
        parts += [f"~({p[i][j]} & {p[k][j]})"
                  for j in range(n) for i in range(n + 1) for k in range(i + 1, n + 1)]
        # 20 atoms at n = 4 is past a quick truth table
        out.append(("~(" + " & ".join(parts) + ")", True, n < 4))
    # chains of implications, theorems of both logics.  The 15-atom chain
    # comes twice: a run of ten repetitions then has twenty samples of its
    # slowest command, and the tail falls among them.
    for prefix, n in (("a", 12), ("a", 13), ("a", 14), ("a", 15), ("b", 15)):
        a = [f"{prefix}{i}" for i in range(n)]
        links = " & ".join(f"({a[i]} -> {a[i + 1]})" for i in range(n - 1))
        out.append((f"({links}) -> ({a[0]} -> {a[-1]})", True, True))
    # excluded middle on 12 atoms: classical, not intuitionistic
    out.append((" & ".join(f"(c{i} | ~c{i})" for i in range(12)), False, True))
    return out


# ---------------------------------------------------------------------------
# check_render
# ---------------------------------------------------------------------------

SCRIPTS, SCRIPT_STEPS, CORRUPTED = 32, 8, 8
RENDERS, LADDER = 10, (3, 5, 7, 9)
TRANSLATIONS, CONTINUUM_OPS = 12, 10
# Scripts and graphs take their shapes from this fixed seed; the run's
# seed picks the atom names, shuffles the items of every graph given to
# render and translate, and draws the continuum elements.  Checking and
# layout cost follow the shapes, so every seed does the same work.
SHAPE_SEED = 20260817


def check_render_batch(lib, seed: int, tmp: Path) -> Batch:
    shapes, rng = random.Random(SHAPE_SEED), random.Random(seed)
    names = "".join(rng.sample("abcdefghijklmnopqrstuvwxyz", 4))
    same = {x: x for x in names}
    commands = []
    corrupted = set(shapes.sample(range(SCRIPTS), CORRUPTED))
    for index in range(SCRIPTS):
        system = ("classical", "intuitionistic")[index % 2]
        commands.append(_script_command(lib, shapes, system, names,
                                        tmp / f"script{index}.eg", index in corrupted))
    graphs = [rm.relabel(rm.random_graph(shapes, names, 4, 3, True), rng, same)
              for _ in range(RENDERS)]
    atom = names[0]
    for n in LADDER:
        right = left = (atom,)
        for _ in range(n):
            right = (rm.Scroll((atom,), (right,)),)
            left = (rm.Scroll(left, ((atom,),)),)
        graphs += [right, left]
    for index, g in enumerate(graphs):
        out = tmp / f"render{index}.svg"
        argv = ["render", "-o", str(out), rm.show_graph(g)]
        commands.append(Command("render", lambda argv=argv, out=out: _render(lib, argv, out),
                                _svg_check(g)))
    for index in range(TRANSLATIONS):
        classical = index % 2 == 0
        dialect = "classical" if classical else "intuitionistic"
        g = rm.relabel(rm.random_graph(shapes, names, 3, 3, not classical), rng, same)
        f = rm.graph_formula(g)
        to_formula = ["translate", "--to", "formula", "--dialect", dialect, rm.show_graph(g)]
        to_graph = ["translate", "--to", "graph", "--dialect", dialect, rm.show_formula(f)]
        commands.append(eg_command(lib, "translate", to_formula, _formula_check(f)))
        commands.append(eg_command(lib, "translate", to_graph,
                                   _graph_check(rm.formula_graph(f, classical))))
    commands += _continuum_commands(lib, rng)
    rng.shuffle(commands)
    warm = 'main(["translate", "--to", "formula", "--dialect", "intuitionistic", "[a | a]"])'
    return Batch(commands, warm, {"corrupted": CORRUPTED})


def _script_command(lib, rng, system, names, path: Path, corrupt: bool) -> Command:
    g = rm.random_graph(rng, names, 3, 3, system == "intuitionistic")
    lines = [f"system {system}", f"graph {rm.show_graph(g)}"]
    graphs = []
    bad_step = rng.randrange(SCRIPT_STEPS) if corrupt else None
    for step in range(SCRIPT_STEPS):
        line, g = rm.propose_step(rng, system, g, names, 24)
        graphs.append(g)
        # a wrong expectation: one atom too many on the sheet
        shown = g + (names[0],) if step == bad_step else g
        lines += [line, f"expect {rm.show_graph(shown)}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["check", str(path)]

    def check(result):
        code, out, _ = result
        rows = out.splitlines()
        steps = SCRIPT_STEPS if bad_step is None else bad_step
        if len(rows) != steps + (2 if bad_step is not None else 1):
            return f"unexpected report {out!r}"
        for index in range(steps):
            prefix = f"step {index}: ok -> "
            if not rows[index].startswith(prefix) or not rm.same_graph(
                    rows[index][len(prefix):], graphs[index]):
                return f"step {index} reported {rows[index]!r}"
        if bad_step is None:
            final = "valid; final graph: "
            if code != 0 or not rows[-1].startswith(final) or not rm.same_graph(
                    rows[-1][len(final):], graphs[-1]):
                return f"valid script reported {rows[-1]!r} (exit {code})"
            return None
        wanted = [f"step {bad_step}: FAILED (expectation mismatch)",
                  f"invalid at step {bad_step}: expectation mismatch"]
        if code != 1 or rows[-2:] != wanted:
            return f"corrupted step {bad_step} reported {rows[-2:]!r} (exit {code})"
        return None

    return eg_command(lib, "check", argv, check)


def _render(lib, argv: list, out: Path) -> tuple:
    code, text, _ = lib.eg(argv)
    return code, text, out.read_bytes() if code == 0 else None


def _svg_check(g: tuple):
    def check(result):
        code, out, svg = result
        if code != 0 or out or svg is None:
            return f"render failed (exit {code})"
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        ellipses = root.findall(f"{ns}ellipse")
        texts = [t.text for t in root.findall(f"{ns}text")]
        if len(ellipses) != rm.graph_curves(g):
            return f"{len(ellipses)} curves drawn for {rm.graph_curves(g)}"
        if Counter(texts) != Counter(rm.graph_atoms(g)):
            return "atom labels differ from the graph's atoms"
        for e in ellipses:
            if e.get("rx") != e.get("ry") or float(e.get("rx")) <= 0:
                return "a boundary is not a circle"
        return None
    return check


def _formula_check(f: tuple):
    want = rm.normal_form(f)

    def check(result):
        code, out, _ = result
        try:
            ok = code == 0 and rm.normal_form(rm.parse_formula(out)) == want
        except ValueError:
            ok = False
        if not ok:
            return f"translation {out!r} (exit {code}) differs from {rm.show_formula(f)!r}"
        return None
    return check


def _graph_check(g: tuple):
    def check(result):
        code, out, _ = result
        if code != 0 or not rm.same_graph(out, g):
            return f"translation {out!r} (exit {code}) differs from {rm.show_graph(g)!r}"
        return None
    return check


def _continuum_commands(lib, rng: random.Random) -> list:
    out = []

    def add(argv, code, text):
        out.append(eg_command(lib, "continuum", ["continuum"] + argv,
                              expect_exact(code, text + "\n")))

    for _ in range(CONTINUUM_OPS):
        x, y, z = rm.random_element(rng), rm.random_element(rng), rm.random_element(rng)
        xz = rm.element(x + z)
        pair = rng.choice(((x, y), (x, xz), (xz, x), (x, x)))
        add(["cmp"] + [rm.show_element(e) for e in pair], 0, rm.lex_relation(*pair))
        extends = rm.lex_relation(*pair) == "proper_extension"
        add(["extends"] + [rm.show_element(e) for e in pair],
            0 if extends else 1, "true" if extends else "false")
        add(["tail", rm.show_element(x), rm.show_element(xz)], 0,
            rm.show_element(rm.tail(x, xz)))
        add(["concat", rm.show_element(x), rm.show_element(z)], 0, rm.show_element(xz))
        add(["domain", rm.show_element(xz)], 0, rm.show_ordinal(rm.domain(xz)))
    return out


WORKLOADS = {
    "prove": prove_batch,
    "oracle": oracle_batch,
    "check_render": check_render_batch,
}
