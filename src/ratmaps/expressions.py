"""Expression parsing and elaboration for the command line and witness files.

Grammar (whitespace-insensitive, no implicit multiplication):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' uint)?
    base   := number | ident | '(' expr (',' expr)* ')'

A leading unary minus is accepted so that every canonically printed value
parses back; exponents must be non-negative integer literals.  Parenthesized
comma lists are tuples and are only meaningful at the top level of an
argument.  Subtrees without division lower to polynomials; from the first
division on, values are reduced rational functions.
"""

from __future__ import annotations

import re

from .errors import ParseError, UnknownVariable
from .polyring import Poly, PolyRing, RatFunc, RatMap, _as_ratfunc, print_canonical
from .records import FrozenRecord

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^(),]))")


class Num(FrozenRecord):
    value: int
    offset: int


class Var(FrozenRecord):
    name: str
    offset: int


class BinOp(FrozenRecord):
    op: str
    left: object
    right: object
    offset: int


class Neg(FrozenRecord):
    child: object
    offset: int


class Pow(FrozenRecord):
    base: object
    exponent: int
    offset: int


class TupleExpr(FrozenRecord):
    items: tuple
    offset: int


class _Tokens:
    def __init__(self, src: str):
        self.src = src
        self.items = []
        pos = 0
        while pos < len(src):
            m = _TOKEN.match(src, pos)
            if m is None:
                stripped = src[pos:].lstrip()
                if not stripped:
                    break
                bad = len(src) - len(stripped)
                raise ParseError(f"unexpected character {src[bad]!r}", bad)
            pos = m.end()
            kind = m.lastgroup
            self.items.append((kind, m.group(kind), m.start(kind)))
        self.i = 0

    def peek(self):
        if self.i < len(self.items):
            return self.items[self.i]
        return ("end", "", len(self.src))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


def parse(src: str):
    """Parse source text into an expression tree; errors carry byte offsets."""
    toks = _Tokens(src)
    tree = _parse_expr(toks)
    kind, value, offset = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing {value!r}", offset)
    return tree


def _parse_expr(toks):
    kind, value, offset = toks.peek()
    if kind == "op" and value == "-":
        toks.next()
        node = Neg(_parse_term(toks), offset)
    else:
        node = _parse_term(toks)
    while True:
        kind, value, offset = toks.peek()
        if kind == "op" and value in "+-":
            toks.next()
            node = BinOp(value, node, _parse_term(toks), offset)
        else:
            return node


def _parse_term(toks):
    node = _parse_factor(toks)
    while True:
        kind, value, offset = toks.peek()
        if kind == "op" and value in "*/":
            toks.next()
            node = BinOp(value, node, _parse_factor(toks), offset)
        else:
            return node


def _parse_factor(toks):
    node = _parse_base(toks)
    kind, value, offset = toks.peek()
    if kind == "op" and value == "^":
        toks.next()
        kind, value, off2 = toks.next()
        if kind != "num":
            raise ParseError("exponent must be a non-negative integer literal", off2)
        return Pow(node, int(value), offset)
    return node


def _parse_base(toks):
    kind, value, offset = toks.next()
    if kind == "num":
        return Num(int(value), offset)
    if kind == "ident":
        return Var(value, offset)
    if kind == "op" and value == "(":
        items = [_parse_expr(toks)]
        while True:
            kind, value, off2 = toks.next()
            if kind == "op" and value == ")":
                break
            if kind == "op" and value == ",":
                items.append(_parse_expr(toks))
                continue
            raise ParseError("expected ',' or ')'", off2)
        if len(items) == 1:
            return items[0]
        return TupleExpr(tuple(items), offset)
    raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", offset)


def idents(tree) -> set:
    if isinstance(tree, Var):
        return {tree.name}
    if isinstance(tree, Num):
        return set()
    if isinstance(tree, Neg):
        return idents(tree.child)
    if isinstance(tree, Pow):
        return idents(tree.base)
    if isinstance(tree, BinOp):
        return idents(tree.left) | idents(tree.right)
    if isinstance(tree, TupleExpr):
        out = set()
        for item in tree.items:
            out |= idents(item)
        return out
    raise TypeError(f"not an expression node: {tree!r}")


def elaborate(tree, ring: PolyRing) -> RatFunc:
    """Lower an expression tree to a rational function over the given ring."""
    return _as_ratfunc(_lower(tree, ring), ring)


def _lower(tree, ring: PolyRing):
    """A Poly for a subtree without division, else a reduced RatFunc."""
    if isinstance(tree, TupleExpr):
        raise ParseError("tuple not allowed inside a scalar expression", tree.offset)
    if isinstance(tree, Num):
        return ring.const(tree.value)
    if isinstance(tree, Var):
        if tree.name not in ring.names:
            raise UnknownVariable(f"unknown variable {tree.name!r}", tree.offset)
        return ring.var(ring.names.index(tree.name))
    if isinstance(tree, Neg):
        return -_lower(tree.child, ring)
    if isinstance(tree, Pow):
        return _lower(tree.base, ring) ** tree.exponent
    if isinstance(tree, BinOp):
        left = _lower(tree.left, ring)
        right = _lower(tree.right, ring)
        if tree.op == "/":
            if right.is_zero():
                raise ParseError("division by zero", tree.offset)
            return _as_ratfunc(left, ring) / right
        if isinstance(right, RatFunc):
            left = _as_ratfunc(left, ring)
        if tree.op == "+":
            return left + right
        if tree.op == "-":
            return left - right
        return left * right
    raise TypeError(f"not an expression node: {tree!r}")


def elaborate_poly(tree, ring: PolyRing) -> Poly:
    value = elaborate(tree, ring)
    if not value.is_polynomial():
        raise ParseError("expected a polynomial, got a proper fraction", _offset(tree))
    return value.num


def elaborate_map(tree, ring: PolyRing) -> RatMap:
    if isinstance(tree, TupleExpr):
        return RatMap(tuple(elaborate(item, ring) for item in tree.items))
    return RatMap((elaborate(tree, ring),))


def elaborate_poly_tuple(tree, ring: PolyRing) -> tuple:
    if isinstance(tree, TupleExpr):
        return tuple(elaborate_poly(item, ring) for item in tree.items)
    return (elaborate_poly(tree, ring),)


def _offset(tree) -> int:
    return getattr(tree, "offset", 0)


_X_NAME = re.compile(r"^x([1-9][0-9]*)$")


def x_ring_for(trees, field, minimum: int = 1) -> PolyRing:
    """The ring K[x1..xn] with n inferred from the highest index used."""
    n = minimum
    for tree in trees:
        for name in idents(tree):
            m = _X_NAME.match(name)
            if m is None:
                raise UnknownVariable(
                    f"variable {name!r} is not of the form x<k>", _offset(tree)
                )
            n = max(n, int(m.group(1)))
    return PolyRing(field, tuple(f"x{i + 1}" for i in range(n)))


def parse_scalar(text: str, field):
    """A field element from text like '3', '-1/2'."""
    tree = parse(text)
    ring = PolyRing(field, ("x1",))
    value = elaborate(tree, ring)
    if not value.is_constant():
        raise ParseError("expected a scalar", 0)
    return value.constant_value()


__all__ = [
    "parse",
    "elaborate",
    "elaborate_poly",
    "elaborate_map",
    "elaborate_poly_tuple",
    "idents",
    "x_ring_for",
    "parse_scalar",
    "print_canonical",
]
