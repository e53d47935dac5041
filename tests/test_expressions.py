import re
import time
from fractions import Fraction

import pytest

from conftest import (
    TupleExpr as TreeTuple,
    random_nonzero_poly,
    random_ratfunc,
    reference_elaborate,
    reference_names,
    reference_parse,
    seeded,
)
from ratmaps.errors import ParseError, UnknownVariable
from ratmaps.expressions import (
    MAX_NESTING,
    TupleExpr,
    elaborate,
    elaborate_map,
    elaborate_poly,
    parse,
    print_canonical,
    x_ring_for,
)
from ratmaps.fields import PrimeField, QQ
from ratmaps.polyring import Poly, PolyRing, RatFunc, RatMap

R2 = PolyRing(QQ, ("x1", "x2"))
X1, X2 = R2.var(0), R2.var(1)


def test_parse_polynomial():
    v = elaborate(parse("x1^2 - 1"), R2)
    assert v == RatFunc.from_poly(X1**2 - R2.one())


def test_parse_tuple():
    m = elaborate_map(parse("(x1^2, x1*x2, x2^2)"), R2)
    assert m == RatMap.from_polys([X1**2, X1 * X2, X2**2])


def test_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse("x1^-1")


def test_more_grammar_errors():
    with pytest.raises(ParseError):
        parse("x1 +")
    with pytest.raises(ParseError):
        parse("(x1, x2")
    with pytest.raises(ParseError):
        parse("x1 $ x2")
    with pytest.raises(UnknownVariable):
        elaborate(parse("z9 + 1"), R2)


def test_whitespace_insensitive():
    a = elaborate(parse("x1^2-1"), R2)
    b = elaborate(parse("  x1 ^ 2 -   1 "), R2)
    assert a == b


def test_fraction_scalars():
    v = elaborate(parse("1/2*x1"), R2)
    assert v == RatFunc.from_poly(X1.scale(Fraction(1, 2)))
    v5 = elaborate(parse("2/3"), PolyRing(PrimeField(5), ("x1",)))
    assert str(v5.constant_value()) == "4"  # 2 * inv(3) = 2 * 2 = 4 mod 5


def test_print_canonical_examples():
    assert print_canonical(X2 + X1) == "x1 + x2"
    assert print_canonical(RatFunc(X2, X1)) == "(x2)/(x1)"
    assert print_canonical(RatMap.from_polys([X1, X2])) == "(x1, x2)"


def test_round_trip_polys():
    rng = seeded(33)
    for _ in range(300):
        p = random_nonzero_poly(rng, R2, 4, 4)
        assert elaborate_poly(parse(print_canonical(p)), R2) == p


def test_round_trip_ratfuncs():
    rng = seeded(34)
    for _ in range(200):
        r = random_ratfunc(rng, R2, 3, 3)
        assert elaborate(parse(print_canonical(r)), R2) == r


def test_round_trip_fp():
    rng = seeded(35)
    ring = PolyRing(PrimeField(5), ("x1", "x2"))
    for _ in range(150):
        p = random_nonzero_poly(rng, ring, 4, 4)
        assert elaborate_poly(parse(print_canonical(p)), ring) == p


def test_x_ring_inference():
    ring = x_ring_for([parse("x3 + x1")], QQ)
    assert ring.names == ("x1", "x2", "x3")
    ring = x_ring_for([parse("5")], QQ)
    assert ring.names == ("x1",)
    with pytest.raises(UnknownVariable):
        x_ring_for([parse("y1")], QQ)


# -- int dicts until the first division, against reduced RatFunc at every node


def _random_expr(rng, names, depth, big):
    """A random expression; big holds literals at or above the characteristic."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(names + [str(rng.randint(0, 5)), str(rng.choice(big))])
    kind = rng.randrange(8)
    sub = _random_expr(rng, names, depth - 1, big)
    if kind == 0:
        return f"({sub})^{rng.randint(0, 3)}"
    if kind == 1:
        return f"-({sub})"
    if kind == 6:  # a sum that cancels
        return f"({sub}) - ({sub})"
    if kind == 7:  # a cancelling sum to a power, 1 at the exponent 0
        return f"(({sub}) - ({sub}))^{rng.randint(0, 2)} * ({sub})"
    op = "+-*/"[kind - 2]
    return f"({sub}) {op} ({_random_expr(rng, names, depth - 1, big)})"


def _caught(fn, *args):
    try:
        return "ok", fn(*args)
    except ParseError as exc:  # UnknownVariable is one
        return type(exc), str(exc), exc.offset


FIXED_CASES = ["4001*x1", "x1 - x1", "(x1 - x1)^0", "(x1 - x1)^0 * x2 - 1", "(4001*x1 + 1)^3"]


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(32003)])
def test_elaborate_matches_ratfunc_at_every_node_random(field):
    rng = seeded(93)
    p = field.characteristic or 4001
    big = [p, p + 1, 2 * p - 1, 3 * p]
    kinds = set()
    for n in (2, 3):
        ring = PolyRing(field, tuple(f"x{i + 1}" for i in range(n)))
        texts = [f.replace("4001", str(p)) for f in FIXED_CASES]
        texts += [_random_expr(rng, list(ring.names), 4, big) for _ in range(160)]
        for text in texts:
            tree = parse(text)
            expected = _caught(reference_elaborate, reference_parse(text), ring)
            assert _caught(elaborate, tree, ring) == expected, text
            if expected[0] != "ok":
                kinds.add("division by zero")
                continue
            expected = expected[1]
            if expected.is_polynomial():
                assert elaborate_poly(tree, ring) == expected.num
                kinds.add("zero" if expected.is_zero() else "polynomial")
            else:
                with pytest.raises(ParseError, match="proper fraction"):
                    elaborate_poly(tree, ring)
                kinds.add("fraction")
    assert kinds == {"division by zero", "zero", "polynomial", "fraction"}


def test_division_free_tree_multiplies_no_poly(spy):
    """A tree without division lowers on int dicts: no Poly product or power."""
    products, powers = spy("__mul__", Poly), spy("__pow__", Poly)
    text = "-(x1 + 2*x2)^3 * (x1 - 1) + 7*x1^2*x2 - (x2 - x2)^0 + (x1*x2)^4"
    for field in (QQ, PrimeField(3), PrimeField(32003)):
        ring = PolyRing(field, ("x1", "x2"))
        products.clear()
        powers.clear()
        value = elaborate(parse(text), ring)
        assert not products and not powers, field
        assert value == reference_elaborate(reference_parse(text), ring)
    products.clear()
    powers.clear()
    elaborate(parse("(x1 + 1)^2/(x1 - 1)*x2"), R2)
    assert products or powers  # the count sees the RatFunc arithmetic from a division on


def test_quotient_of_polynomials_multiplies_no_poly(spy):
    """A division of two int dicts builds one fraction: no product by 1."""
    calls = spy("__mul__", Poly)
    for field in (QQ, PrimeField(7)):
        ring = PolyRing(field, ("x1",))
        calls.clear()
        value = elaborate(parse("(x1 + 1)/(x1 - 1)"), ring)
        assert not calls, field
        assert value == reference_elaborate(reference_parse("(x1 + 1)/(x1 - 1)"), ring)


# -- postfix parse and elaborate against the tree parser, on texts and mutants


def _reference_poly(tree, ring):
    value = reference_elaborate(tree, ring)
    if not value.is_polynomial():
        raise ParseError("expected a polynomial, got a proper fraction", tree.offset)
    return value.num


def _mutants(rng, text):
    """text with one character deleted, and with one inserted."""
    j, k = rng.randrange(len(text)), rng.randrange(len(text) + 1)
    return [text[:j] + text[j + 1 :], text[:k] + rng.choice("()+-*/^,x1 7$") + text[k:]]


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)])
def test_parse_and_elaborate_match_the_tree_parser(field):
    """Same value, or the same exception type, message and offset, for
    parse and for elaborate and elaborate_poly of the root and every item."""
    rng = seeded(94)
    p = field.characteristic or 4001
    big = [p, p + 1, 2 * p - 1]
    ring = PolyRing(field, ("x1", "x2"))
    names = list(ring.names)
    texts = [_random_expr(rng, names, 3, big) for _ in range(80)]
    texts += [f"({a}, {b})" for a, b in zip(texts[:20], texts[20:40])]
    texts += [m for text in texts for m in _mutants(rng, text)]
    kinds = set()
    for text in texts:
        got, want = _caught(parse, text), _caught(reference_parse, text)
        if want[0] != "ok":
            assert got == want, text
            kinds.add("parse error")
            continue
        expr, tree = got[1], want[1]
        is_tuple = isinstance(tree, TreeTuple)
        assert isinstance(expr, TupleExpr) == is_tuple, text
        pairs = [(expr, tree)] + (list(zip(expr.items, tree.items)) if is_tuple else [])
        assert not is_tuple or len(expr.items) == len(tree.items), text
        for e, t in pairs:
            assert (e.offset, e.names) == (t.offset, reference_names(t)), text
            value = _caught(reference_elaborate, t, ring)
            assert _caught(elaborate, e, ring) == value, text
            assert _caught(elaborate_poly, e, ring) == _caught(_reference_poly, t, ring), text
            kinds.add(value[1].split(" (at")[0] if value[0] != "ok" else "value")
    assert {"parse error", "value", "division by zero"} <= kinds, kinds
    assert "tuple not allowed inside a scalar expression" in kinds, kinds
    assert any(k.startswith("unknown variable") for k in kinds), kinds


def test_parse_error_offsets():
    cases = [
        ("x1 $ x2", 3, "unexpected character '$'"),
        ("x1 +", 4, "unexpected end of input"),
        ("x1^-1", 3, "exponent must be"),
        ("x1)", 2, "unexpected trailing ')'"),
        (")", 0, "unexpected ')'"),
        ("(x1, x2", 7, "expected ',' or ')'"),
        ("  ", 2, "unexpected end of input"),
    ]
    for text, offset, message in cases:
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse(text)
        assert exc.value.offset == offset, text


@pytest.mark.parametrize("template", ["(", "x1*(", "(x2 - ", "-("])
def test_nesting_cap(template):
    """Nesting up to MAX_NESTING parses and lowers; one more level is a
    ParseError at the offending parenthesis, not a RecursionError."""
    def nested(depth):
        return template * depth + "x1" + ")" * depth

    ring = PolyRing(QQ, ("x1", "x2"))
    tree = parse(nested(MAX_NESTING))
    assert x_ring_for([tree], QQ, minimum=2) == ring
    assert elaborate(tree, ring) == reference_elaborate(reference_parse(nested(MAX_NESTING)), ring)
    for parser in (parse, reference_parse):
        with pytest.raises(ParseError, match="nested deeper") as exc:
            parser(nested(MAX_NESTING + 1))
        assert exc.value.offset == len(template) * MAX_NESTING + template.index("(")


def test_long_sum_lowers_without_recursion():
    # the parser reads the terms by a loop, and the sum accumulates in
    # place instead of copying itself per term
    text = " + ".join(f"{k + 1}*x1^{k % 71}*x3^{k // 71}" for k in range(5000))
    start = time.perf_counter()
    tree = parse(text)
    ring = x_ring_for([tree], QQ)
    value = elaborate_poly(tree, ring)
    assert time.perf_counter() - start < 4.0
    assert ring.names == ("x1", "x2", "x3") and len(value.terms) == 5000
    assert value.terms[(29, 0, 70)] == 5000


def test_cancelling_product_reduces_as_it_goes():
    # 80 factors (x1 + k)/(x1 + k + 1): each division reduces, so the
    # product never grows past one factor; reducing only at the end would
    # multiply out degree-80 numerator and denominator first
    text = "*".join(f"((x1 + {k})/(x1 + {k + 1}))" for k in range(1, 81))
    ring = PolyRing(QQ, ("x1",))
    start = time.perf_counter()
    value = elaborate(parse(text), ring)
    assert time.perf_counter() - start < 2.0
    assert str(value) == "(x1 + 1)/(x1 + 81)"
