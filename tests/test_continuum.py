import hashlib
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import product

import pytest

from peirce.continuum import (
    ONE,
    OMEGA,
    ZERO,
    ContinuumElement,
    LexRelation,
    Ordinal,
    concat,
    elem_canonicalize,
    elem_domain,
    element,
    extends,
    from_int,
    lex_compare,
    ord_add,
    ord_cmp,
    ord_sub_left,
    parse_element,
    parse_ordinal,
    print_element,
    print_ordinal,
    tail,
    w_pow,
)
from peirce.errors import EmptyElementError, NotInMonadError, OrdinalUnderflowError, ParseError

from genutil import random_element, random_ordinal

# ---------------------------------------------------------------------------
# Independent brute-force model of ordinals below w^3: triples (a, b, c)
# meaning w^2*a + w*b + c, with hand-coded absorption addition.
# ---------------------------------------------------------------------------


def triple_add(x, y):
    if y[0] > 0:
        return (x[0] + y[0], y[1], y[2])
    if y[1] > 0:
        return (x[0], x[1] + y[1], y[2])
    return (x[0], x[1], x[2] + y[2])


def triple_to_ordinal(x):
    total = ZERO
    if x[0]:
        total = ord_add(total, w_pow(from_int(2), x[0]))
    if x[1]:
        total = ord_add(total, w_pow(ONE, x[1]))
    if x[2]:
        total = ord_add(total, from_int(x[2]))
    return total


TRIPLES = list(product(range(5), repeat=3))


def _walk_cmp(a, b):
    """-1, 0 or 1: the ordinal order as a walk of the two CNF term lists,
    exponents compared by the same walk."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = _walk_cmp(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


class TestOrdinalsAgainstBruteForce:
    def test_addition_agrees_on_all_pairs(self):
        for x in TRIPLES:
            ox = triple_to_ordinal(x)
            for y in TRIPLES:
                expected = triple_to_ordinal(triple_add(x, y))
                assert ord_add(ox, triple_to_ordinal(y)) == expected

    def test_comparison_agrees_on_all_pairs(self):
        for x in TRIPLES:
            ox = triple_to_ordinal(x)
            for y in TRIPLES:
                want = (x > y) - (x < y)
                assert ord_cmp(ox, triple_to_ordinal(y)) == want

    def test_comparison_agrees_with_the_term_walk_on_nested_exponents(self):
        # the triples stay below w^3; depth 3 nests exponents, as w^(w^2+1)
        rng = random.Random(113)
        for _ in range(3000):
            a, b = random_ordinal(rng, depth=3), random_ordinal(rng, depth=3)
            want = _walk_cmp(a, b)
            assert ord_cmp(a, b) == want
            assert ((a < b), (a == b), (a > b)) == (want < 0, want == 0, want > 0)
        ordinals = [random_ordinal(rng, depth=3) for _ in range(200)]
        assert sorted(ordinals) == sorted(ordinals, key=cmp_to_key(_walk_cmp))

    def test_left_subtraction_agrees(self):
        for x in TRIPLES:
            ox = triple_to_ordinal(x)
            for y in TRIPLES:
                oy = triple_to_ordinal(y)
                if x <= y:
                    gamma = ord_sub_left(ox, oy)
                    assert ord_add(ox, gamma) == oy
                else:
                    with pytest.raises(OrdinalUnderflowError):
                        ord_sub_left(ox, oy)


class TestOrdinalOps:
    def test_absorption(self):
        assert ord_add(parse_ordinal("w*2+3"), OMEGA) == parse_ordinal("w*3")
        assert ord_add(ONE, OMEGA) == OMEGA
        assert ord_add(OMEGA, ONE) == parse_ordinal("w+1")

    def test_cmp(self):
        assert ord_cmp(OMEGA, parse_ordinal("w+1")) == -1
        assert ord_cmp(parse_ordinal("w^2"), parse_ordinal("w*9+5")) == 1
        assert ord_cmp(ZERO, ZERO) == 0

    def test_sub_left(self):
        assert ord_sub_left(OMEGA, parse_ordinal("w+2")) == from_int(2)
        assert ord_sub_left(from_int(2), OMEGA) == OMEGA
        with pytest.raises(OrdinalUnderflowError):
            ord_sub_left(parse_ordinal("w+1"), OMEGA)

    def test_add_associative_random(self):
        rng = random.Random(83)
        for _ in range(400):
            a, b, c = (random_ordinal(rng) for _ in range(3))
            assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))

    def test_cmp_total_order_random(self):
        rng = random.Random(89)
        ordinals = [random_ordinal(rng) for _ in range(60)]
        for a in ordinals:
            assert ord_cmp(a, a) == 0
            for b in ordinals:
                assert ord_cmp(a, b) == -ord_cmp(b, a)

    def test_sub_then_add_roundtrip_random(self):
        rng = random.Random(97)
        for _ in range(400):
            a, b = random_ordinal(rng), random_ordinal(rng)
            lo, hi = (a, b) if ord_cmp(a, b) <= 0 else (b, a)
            assert ord_add(lo, ord_sub_left(lo, hi)) == hi

    def test_literals_round_trip(self):
        rng = random.Random(101)
        for _ in range(300):
            o = random_ordinal(rng, depth=3)
            assert parse_ordinal(print_ordinal(o)) == o

    def test_invalid_cnf_rejected(self):
        with pytest.raises(ValueError):
            Ordinal(((ZERO, 1), (ONE, 1)))
        with pytest.raises(ValueError):
            Ordinal(((ZERO, 0),))


class TestElements:
    def test_canonicalize_absorbs(self):
        assert print_element(parse_element("[2:5][w:5]")) == "[w:5]"

    def test_canonicalize_merges(self):
        assert print_element(parse_element("[1:3][1:3][1:4]")) == "[2:3][1:4]"

    def test_domain(self):
        assert elem_domain(parse_element("[w:0][1:1]")) == parse_ordinal("w+1")

    def test_empty_rejected(self):
        with pytest.raises(EmptyElementError):
            elem_canonicalize(ContinuumElement(()))

    @pytest.mark.parametrize("pieces", [(), ((ZERO, 1),), ((ONE, 1), (ZERO, 2))])
    def test_empty_rejected_at_construction(self, pieces):
        with pytest.raises(EmptyElementError):
            ContinuumElement(pieces)

    def test_canonical_by_construction(self):
        assert ContinuumElement(((ONE, 1), (ONE, 1))) == element((2, 1))
        assert ContinuumElement(((ONE, 1), (OMEGA, 1), (ONE, 2))).pieces == ((OMEGA, 1), (ONE, 2))

    def test_canonicalize_idempotent_random(self):
        rng = random.Random(103)
        for _ in range(300):
            e = random_element(rng)
            assert elem_canonicalize(e) == e

    def test_literals_round_trip(self):
        rng = random.Random(107)
        for _ in range(300):
            e = random_element(rng)
            assert parse_element(print_element(e)) == e

    def test_negative_and_fraction_values(self):
        e = parse_element("[1:-3/4][w:2]")
        assert e.pieces[0][1] == Fraction(-3, 4)


class TestLexCompare:
    def test_first_position(self):
        assert lex_compare(parse_element("[1:1][1:99/10]"), parse_element("[1:2]")) is LexRelation.LESS

    def test_difference_at_omega(self):
        assert lex_compare(parse_element("[w:0][1:1]"), parse_element("[w:0][1:2]")) is LexRelation.LESS

    def test_proper_prefix(self):
        assert lex_compare(parse_element("[1:3]"), parse_element("[1:3][1:5]")) is LexRelation.PROPER_PREFIX

    def test_equal_canonical(self):
        assert lex_compare(parse_element("[2:5][w:5]"), parse_element("[w:5]")) is LexRelation.EQUAL

    def test_exactly_one_relation_holds(self):
        rng = random.Random(109)
        for _ in range(500):
            x, y = random_element(rng), random_element(rng)
            rel = lex_compare(x, y)
            mirror = lex_compare(y, x)
            expected = {
                LexRelation.LESS: LexRelation.GREATER,
                LexRelation.GREATER: LexRelation.LESS,
                LexRelation.EQUAL: LexRelation.EQUAL,
                LexRelation.PROPER_PREFIX: LexRelation.PROPER_EXTENSION,
                LexRelation.PROPER_EXTENSION: LexRelation.PROPER_PREFIX,
            }[rel]
            assert mirror is expected

    def test_total_on_equal_domains(self):
        rng = random.Random(113)
        done = 0
        while done < 200:
            x = random_element(rng)
            y = random_element(rng)
            if ord_cmp(elem_domain(x), elem_domain(y)) != 0:
                continue
            assert lex_compare(x, y) in (LexRelation.LESS, LexRelation.GREATER, LexRelation.EQUAL)
            done += 1

    def test_equal_iff_identical_canonical(self):
        rng = random.Random(127)
        for _ in range(300):
            x, y = random_element(rng), random_element(rng)
            assert (lex_compare(x, y) is LexRelation.EQUAL) == (x == y)


class TestExtendsAndMonad:
    def test_extends_examples(self):
        assert extends(parse_element("[1:3][1:5]"), parse_element("[1:3]"))
        assert not extends(parse_element("[1:3]"), parse_element("[1:3][1:5]"))
        assert not extends(parse_element("[1:4]"), parse_element("[1:3]"))

    def test_tail_examples(self):
        assert tail(parse_element("[1:3]"), parse_element("[1:3][w:7]")) == parse_element("[w:7]")
        assert tail(parse_element("[1:3]"), parse_element("[1:3][1:3]")) == parse_element("[1:3]")
        assert tail(parse_element("[w:0]"), parse_element("[w:0][1:1][1:2]")) == parse_element("[1:1][1:2]")

    def test_tail_requires_monad_membership(self):
        with pytest.raises(NotInMonadError):
            tail(parse_element("[1:3]"), parse_element("[1:4][1:5]"))

    def test_concat_examples(self):
        assert print_element(concat(parse_element("[1:3]"), parse_element("[w:7]"))) == "[1:3][w:7]"
        assert print_element(concat(parse_element("[1:5]"), parse_element("[1:5]"))) == "[2:5]"

    def test_concat_always_extends(self):
        rng = random.Random(131)
        for _ in range(300):
            x, z = random_element(rng), random_element(rng)
            assert extends(concat(x, z), x)

    def test_tail_concat_roundtrip(self):
        rng = random.Random(137)
        for _ in range(300):
            x, z = random_element(rng), random_element(rng)
            assert tail(x, concat(x, z)) == z

    def test_concat_tail_roundtrip(self):
        rng = random.Random(139)
        for _ in range(300):
            x, z = random_element(rng), random_element(rng)
            y = concat(x, z)
            assert concat(x, tail(x, y)) == y

    def test_strict_partial_order(self):
        rng = random.Random(149)
        elems = [random_element(rng) for _ in range(25)]
        for a in elems:
            assert not extends(a, a)
        for a in elems:
            for b in elems:
                if extends(a, b):
                    assert not extends(b, a)
                for c in elems:
                    if extends(a, b) and extends(b, c):
                        assert extends(a, c)

    def test_monad_map_preserves_extends_and_lex(self):
        rng = random.Random(151)
        for _ in range(200):
            x = random_element(rng)
            y = concat(x, random_element(rng))
            z = concat(x, random_element(rng))
            assert extends(y, z) == extends(tail(x, y), tail(x, z))
            assert lex_compare(y, z) is lex_compare(tail(x, y), tail(x, z))

    def test_density_shadow(self):
        rng = random.Random(157)
        x = random_element(rng)
        rationals = [Fraction(n, d) for n in range(-3, 4) for d in range(1, 4)]
        images = {concat(x, element((ONE, q))) for q in set(rationals)}
        assert len(images) == len(set(rationals))
        for image in images:
            assert extends(image, x)


def _ordinal_text(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(["0", "1", "2", "17", "w"])
    gap = rng.choice(["", " "])
    if roll < 0.6:
        exponent = _ordinal_text(rng, depth - 1)
        text = "w^" + (f"({gap}{exponent}{gap})" if rng.random() < 0.6 else exponent)
    else:
        text = _ordinal_text(rng, depth - 1) + gap + "+" + gap + _ordinal_text(rng, depth - 1)
    if text[0] == "w" and rng.random() < 0.3:
        text += gap + "*" + gap + rng.choice(["0", "1", "3"])
    return text


def _element_print_or_error_lines():
    """Print-or-error output on seeded element texts with ordinals up to
    depth 3, a third of them corrupted by one inserted or deleted
    character."""
    rng = random.Random(79)
    lines = []
    for _ in range(4000):
        text = rng.choice(["", " "]).join(
            f"[{_ordinal_text(rng, rng.randint(0, 3))}:"
            f"{rng.choice(['0', '1', '-1', '1/2', '-3/4', '0.25', '2e3'])}]"
            for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.35:
            at = rng.randint(0, len(text))
            if rng.random() < 0.5:
                text = text[:at] + text[at + 1:]
            else:
                text = text[:at] + rng.choice("w^*+()[]:09/x ") + text[at:]
        try:
            lines.append(print_element(parse_element(text)))
        except ParseError as exc:
            lines.append(f"error: {exc}")
    return lines


def test_element_print_or_error_bytes_are_pinned():
    # the digest of this output while the ordinal reader checked the end
    # of its text itself, through the graph reader's private whitespace skip
    lines = _element_print_or_error_lines()
    errors = [line for line in lines if line.startswith("error: ")]
    assert 500 < len(errors) < 3500
    assert any("in ordinal" in line for line in errors)
    assert any("unclosed '('" in line for line in errors)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "7fd9630144b58176ae19ccb81207895472d156690a1cd98c6f127076043dc8fe"
