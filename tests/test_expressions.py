from fractions import Fraction

import pytest

import time

from conftest import random_nonzero_poly, random_ratfunc, reference_elaborate, seeded
from ratmaps.errors import ParseError, UnknownVariable
from ratmaps.expressions import (
    elaborate,
    elaborate_map,
    elaborate_poly,
    parse,
    print_canonical,
    x_ring_for,
)
from ratmaps.fields import PrimeField, QQ
from ratmaps.polyring import PolyRing, RatFunc, RatMap

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


# -- Poly until the first division, against reduced RatFunc at every node ----


def _random_expr(rng, names, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(names + [str(rng.randint(0, 5))])
    kind = rng.randrange(6)
    if kind == 0:
        return f"({_random_expr(rng, names, depth - 1)})^{rng.randint(0, 3)}"
    if kind == 1:
        return f"-({_random_expr(rng, names, depth - 1)})"
    op = "+-*/"[kind - 2]
    left = _random_expr(rng, names, depth - 1)
    right = _random_expr(rng, names, depth - 1)
    return f"({left}) {op} ({right})"


def _outcome(fn, tree, ring):
    try:
        return fn(tree, ring)
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(32003)])
def test_elaborate_matches_ratfunc_at_every_node_random(field):
    rng = seeded(93)
    kinds = set()
    for n in (2, 3):
        ring = PolyRing(field, tuple(f"x{i + 1}" for i in range(n)))
        for _ in range(120):
            tree = parse(_random_expr(rng, list(ring.names), 4))
            expected = _outcome(reference_elaborate, tree, ring)
            assert _outcome(elaborate, tree, ring) == expected, tree
            if isinstance(expected, str):
                kinds.add("division by zero")
                continue
            if expected.is_polynomial():
                assert elaborate_poly(tree, ring) == expected.num
                kinds.add("polynomial")
            else:
                with pytest.raises(ParseError, match="proper fraction"):
                    elaborate_poly(tree, ring)
                kinds.add("fraction")
    assert kinds == {"division by zero", "polynomial", "fraction"}


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
