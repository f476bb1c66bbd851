"""The value classes' contract, one instance of each: its repr, equality
and hash against a twin built from the same fields, and inequality
against another class given the same values; then the ordinals' order."""

import random
from fractions import Fraction

import pytest

from peirce import calculus as ca
from peirce import formulas as fm
from peirce import graphs as gr
from peirce.continuum import OMEGA, ContinuumElement, Ordinal
from peirce.kripke import KripkeModel
from peirce.render import GeometryNode
from peirce.search import SearchBounds

from genutil import random_ordinal

p, q = fm.Atom("p"), fm.Atom("q")
G = gr.Graph((gr.Atom("p"),))
P0, P1, SHEET = gr.Path((0,)), gr.Path((1,)), gr.Path()
STEP = ca.StepResult(0, ca.Erase(P0), gr.Graph(), None)
ONE = Ordinal(((Ordinal(), 1),))

# (class, its fields by name, the repr, a class taking the same values, or
# None, and whether it hashes, as the tuple of its values if True: the step
# results and the layout nodes were mutable, and a report holds a list)
TABLE = [
    # a formula atom hashes as the tuple of its name's bytes read as an integer
    (fm.Atom, dict(name="p"), "Atom(name='p')", gr.Atom, (ord("p"),)),
    (fm.Top, dict(), "Top()", fm.Bot, True),
    (fm.Bot, dict(), "Bot()", fm.Top, True),
    (fm.Not, dict(body=p), "Not(body=Atom(name='p'))", None, True),
    (fm.And, dict(left=p, right=q), "And(left=Atom(name='p'), right=Atom(name='q'))",
     fm.Or, True),
    (fm.Or, dict(left=p, right=q), "Or(left=Atom(name='p'), right=Atom(name='q'))",
     fm.Imp, True),
    (fm.Imp, dict(left=p, right=q), "Imp(left=Atom(name='p'), right=Atom(name='q'))",
     fm.And, True),
    (gr.Atom, dict(name="p"), "Atom(name='p')", fm.Atom, True),
    (gr.Scroll, dict(outer=G, loops=(gr.Graph(),)),
     "Scroll(outer=Graph(items=(Atom(name='p'),)), loops=(Graph(items=()),))", None, True),
    (gr.Graph, dict(items=(gr.Atom("p"),)), "Graph(items=(Atom(name='p'),))", None, True),
    (gr.Path, dict(parts=(0, 1)), "Path(parts=(0, 1))", None, True),
    (gr.Violation, dict(path=P0, reason="bad"),
     "Violation(path=Path(parts=(0,)), reason='bad')", None, True),
    (ca.Erase, dict(item=P0), "Erase(item=Path(parts=(0,)))", ca.DoubleCutElim, True),
    (ca.Insert, dict(area=SHEET, graph=G),
     "Insert(area=Path(parts=()), graph=Graph(items=(Atom(name='p'),)))", ca.LoopAdd, True),
    (ca.Iterate, dict(source=P0, target=gr.Path((1, 0))),
     "Iterate(source=Path(parts=(0,)), target=Path(parts=(1, 0)))", ca.Deiterate, True),
    (ca.Deiterate, dict(item=P1, witness=P0),
     "Deiterate(item=Path(parts=(1,)), witness=Path(parts=(0,)))", ca.Iterate, True),
    (ca.DoubleCutIntro, dict(area=SHEET, indices=frozenset({0})),
     "DoubleCutIntro(area=Path(parts=()), indices=frozenset({0}))", ca.ScrollWrap, True),
    (ca.DoubleCutElim, dict(item=P0), "DoubleCutElim(item=Path(parts=(0,)))", ca.Erase, True),
    (ca.ScrollWrap, dict(area=SHEET, indices=frozenset({1})),
     "ScrollWrap(area=Path(parts=()), indices=frozenset({1}))", ca.DoubleCutIntro, True),
    (ca.ScrollUnwrap, dict(item=P0), "ScrollUnwrap(item=Path(parts=(0,)))", ca.Detach, True),
    (ca.LoopAdd, dict(item=P0, graph=G),
     "LoopAdd(item=Path(parts=(0,)), graph=Graph(items=(Atom(name='p'),)))", ca.Insert, True),
    (ca.LoopRemove, dict(item=P0, loop=0), "LoopRemove(item=Path(parts=(0,)), loop=0)",
     None, True),
    (ca.Detach, dict(item=P0), "Detach(item=Path(parts=(0,)))", ca.ScrollUnwrap, True),
    (ca.Rule, dict(name="r", site="items", edit=len, more=None, growth=None, condition=None,
                   polarity=None, drawn=None, at="", undo=None, keep=None),
     "Rule(name='r', site='items', edit=<built-in function len>, more=None, growth=None, "
     "condition=None, polarity=None, drawn=None, at='', undo=None, keep=None)", None, True),
    (ca.ProofScript, dict(system=ca.System.CLASSICAL, start=G, steps=((ca.Erase(P0), None),)),
     "ProofScript(system=<Dialect.CLASSICAL: 'classical'>, start=Graph(items=(Atom(name='p'),)),"
     " steps=((Erase(item=Path(parts=(0,))), None),))", None, True),
    (ca.StepResult, dict(index=0, rule=ca.Erase(P0), graph=gr.Graph(), error=None),
     "StepResult(index=0, rule=Erase(item=Path(parts=(0,))), graph=Graph(items=()), error=None)",
     None, False),
    (ca.Report, dict(ok=True, results=[STEP], failed_step=None, reason=None, final=gr.Graph()),
     "Report(ok=True, results=[StepResult(index=0, rule=Erase(item=Path(parts=(0,))), "
     "graph=Graph(items=()), error=None)], failed_step=None, reason=None, final=Graph(items=()))",
     None, False),
    (SearchBounds, dict(max_depth=12, max_visited=500_000),
     "SearchBounds(max_depth=12, max_visited=500000)", None, True),
    (KripkeModel, dict(worlds=2, up=(3, 2), valuation=(frozenset(), frozenset({"p"}))),
     "KripkeModel(worlds=2, up=(3, 2), valuation=(frozenset(), frozenset({'p'})))", None, True),
    (Ordinal, dict(terms=((ONE, 1),)),
     "Ordinal(terms=((Ordinal(terms=((Ordinal(terms=()), 1),)), 1),))", None, True),
    (ContinuumElement, dict(pieces=((OMEGA, Fraction(1)), (ONE, Fraction(1, 2)))),
     "ContinuumElement(pieces=((Ordinal(terms=((Ordinal(terms=((Ordinal(terms=()), 1),)), 1),)),"
     " Fraction(1, 1)), (Ordinal(terms=((Ordinal(terms=()), 1),)), Fraction(1, 2))))",
     None, True),
    (GeometryNode, dict(kind="text", cx=0.0, cy=0.0, rx=5.0, ry=0.0, text="p", children=[]),
     "GeometryNode(kind='text', cx=0.0, cy=0.0, rx=5.0, ry=0.0, text='p', children=[])",
     None, False),
]


def test_the_table_holds_each_class_once():
    assert len({row[0] for row in TABLE}) == len(TABLE) == 32


@pytest.mark.parametrize("cls, fields, text, other, hashes", TABLE,
                         ids=[f"{row[0].__module__[7:]}.{row[0].__name__}" for row in TABLE])
def test_contract(cls, fields, text, other, hashes):
    node = cls(**fields)
    twin = cls(*fields.values())
    assert repr(node) == repr(twin) == text
    assert node == twin and not node != twin and node is not twin
    assert [getattr(node, name) for name in fields] == list(fields.values())
    if hashes:
        hashed = tuple(fields.values()) if hashes is True else hashes
        assert hash(node) == hash(twin) == hash(hashed)
    # equality is per class: another class given the same values, and the
    # tuple of the values, are not equal
    assert node != tuple(fields.values())
    if other is not None:
        assert node != other(*fields.values()) and not node == other(*fields.values())


def _order_key(o: Ordinal) -> tuple:
    """The ordinal order: the lexicographic order of the term tuples."""
    return tuple((_order_key(exponent), coeff) for exponent, coeff in o.terms)


def test_ordinal_order_is_lexicographic_on_terms():
    rng = random.Random(97)
    ordinals = [random_ordinal(rng, depth=3) for _ in range(150)]
    below = 0
    for a in ordinals:
        for b in ordinals:
            ka, kb = _order_key(a), _order_key(b)
            assert ((a < b, a <= b, a > b, a >= b, a == b)
                    == (ka < kb, ka <= kb, ka > kb, ka >= kb, ka == kb))
            below += a < b
    assert below > 5_000
    assert sorted(ordinals) == sorted(ordinals, key=_order_key)
