"""Expression parsing and elaboration for the command line and witness files.

Grammar (whitespace-insensitive, no implicit multiplication):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' uint)?
    base   := number | ident | '(' expr (',' expr)* ')'

A leading unary minus is accepted so that every canonically printed value
parses back; exponents must be non-negative integer literals.  Parenthesized
comma lists are tuples and are only meaningful at the top level of an
argument.  Parentheses nest at most MAX_NESTING deep; a deeper '(' is a
parse error at its offset.  An x ring has at most MAX_VARIABLES variables;
a name or a square tuple that needs more is a parse error at its tree.

Elaboration keeps a subtree without division as a dict from exponent
tuples to plain ints (residues over GF(p)): its literals are non-negative
integers, so it lies in Z[x], or GF(p)[x].  A division turns both sides
into reduced rational functions, and every value from there on stays one.
"""

from __future__ import annotations

import re
from operator import add, attrgetter, mul, sub

from .errors import ParseError, UnknownVariable
from .polyring import Poly, PolyRing, RatFunc, RatMap, _k_poly, _k_reduce, print_canonical
from .records import FrozenRecord

# whitespace matches no group, so finditer steps over it
_TOKEN = re.compile(r"(?P<num>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^(),])|(?P<bad>\S)")

# the deepest parenthesis nesting parse accepts: a level costs the parser
# four stack frames and the lowering up to two, so the cap keeps both well
# inside Python's default recursion limit of 1,000
MAX_NESTING = 100
# the most variables a typed x<k> or a square tuple may ask of x_ring_for:
# a ring's cost grows with its index, so a short name cannot make it huge
MAX_VARIABLES = 1000


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
    """The tokens of one finditer pass, then an end sentinel: a next() that
    returns it is always followed by a ParseError, so none reads past it."""

    def __init__(self, src: str):
        self.items = []
        for m in _TOKEN.finditer(src):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", m.start())
            self.items.append((kind, m.group(), m.start()))
        self.items.append(("end", "", len(src)))
        self.i = self.depth = 0

    def peek(self):
        return self.items[self.i]

    def next(self):
        self.i += 1
        return self.items[self.i - 1]


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
        if toks.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", offset)
        toks.depth += 1
        items = [_parse_expr(toks)]
        while True:
            kind, value, off2 = toks.next()
            if kind == "op" and value == ")":
                break
            if kind == "op" and value == ",":
                items.append(_parse_expr(toks))
                continue
            raise ParseError("expected ',' or ')'", off2)
        toks.depth -= 1
        if len(items) == 1:
            return items[0]
        return TupleExpr(tuple(items), offset)
    raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", offset)


def idents(tree) -> set:
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Var:
            out.add(node.name)
        elif kind is BinOp:
            stack += node.left, node.right
        elif kind in _DOWN:
            stack.append(_DOWN[kind](node))
        elif kind is TupleExpr:
            stack += node.items
        elif kind is not Num:
            raise TypeError(f"not an expression node: {node!r}")
    return out


def elaborate(tree, ring: PolyRing) -> RatFunc:
    """Lower an expression tree to a rational function over the given ring."""
    lowering = _Lowering(ring)
    return lowering.rf(lowering.lower(tree))


class _Lowering:
    """Values are tuple-keyed dicts of ints (reduced mod p over GF(p)) up to
    the first division, reduced RatFuncs from there on.  The left spine of
    a tree (left operands, negated and powered bases) is walked by a loop;
    only right operands recurse."""

    def __init__(self, ring: PolyRing):
        self.ring, self.mod = ring, ring.field.characteristic
        self.zero = (0,) * ring.nvars

    def lower(self, tree):
        spine = []
        while (down := _DOWN.get(type(tree))) is not None:
            spine.append(tree)
            tree = down(tree)
        leaf = _LEAF.get(type(tree))
        if leaf is None:
            raise TypeError(f"not an expression node: {tree!r}")
        value = leaf(self, tree)
        for node in reversed(spine):
            value = _STEP[type(node)](self, value, node)
        return value

    def num(self, node):
        return _k_reduce({self.zero: node.value}, self.mod)

    def var(self, node):
        names = self.ring.names
        if node.name not in names:
            raise UnknownVariable(f"unknown variable {node.name!r}", node.offset)
        e = [0] * len(names)
        e[names.index(node.name)] = 1
        return {tuple(e): 1}

    def tup(self, node):
        raise ParseError("tuple not allowed inside a scalar expression", node.offset)

    def rf(self, v) -> RatFunc:
        return v if type(v) is RatFunc else RatFunc.from_poly(_k_poly(self.ring, v))

    def neg(self, v, node):
        return -v if type(v) is RatFunc else _k_reduce({e: -c for e, c in v.items()}, self.mod)

    def power(self, v, node):
        n = node.exponent
        if type(v) is RatFunc:
            return v**n
        if len(v) == 1:
            ((e, c),) = v.items()
            return {tuple([k * n for k in e]): pow(c, n, self.mod or None)}
        out = {self.zero: 1}
        while n:
            if n & 1:
                out = self.mul(out, v)
            v = self.mul(v, v) if n > 1 else v
            n >>= 1
        return out

    def mul(self, a: dict, b: dict) -> dict:
        out = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return _k_reduce(out, self.mod)

    def binop(self, v, node):
        w = self.lower(node.right)
        op = node.op
        if op == "/":
            if not w or (type(w) is RatFunc and w.is_zero()):
                raise ParseError("division by zero", node.offset)
            return self.rf(v) / self.rf(w)
        if type(v) is RatFunc or type(w) is RatFunc:
            return _RF_OPS[op](self.rf(v), self.rf(w))
        if op == "*":
            return self.mul(v, w)
        # v is this lowering's own dict: the sum accumulates in place
        sign, mod = 1 if op == "+" else -1, self.mod
        for e, c in w.items():
            c = v.get(e, 0) + sign * c
            if mod:
                c %= mod
            if c:
                v[e] = c
            else:
                del v[e]
        return v


_DOWN = {BinOp: attrgetter("left"), Neg: attrgetter("child"), Pow: attrgetter("base")}
_LEAF = {Num: _Lowering.num, Var: _Lowering.var, TupleExpr: _Lowering.tup}
_STEP = {BinOp: _Lowering.binop, Neg: _Lowering.neg, Pow: _Lowering.power}
_RF_OPS = {"+": add, "-": sub, "*": mul}


def elaborate_poly(tree, ring: PolyRing) -> Poly:
    value = elaborate(tree, ring)
    if not value.is_polynomial():
        raise ParseError("expected a polynomial, got a proper fraction", tree.offset)
    return value.num


def elaborate_map(tree, ring: PolyRing) -> RatMap:
    if isinstance(tree, TupleExpr):
        return RatMap(tuple(elaborate(item, ring) for item in tree.items))
    return RatMap((elaborate(tree, ring),))


def elaborate_poly_tuple(tree, ring: PolyRing) -> tuple:
    if isinstance(tree, TupleExpr):
        return tuple(elaborate_poly(item, ring) for item in tree.items)
    return (elaborate_poly(tree, ring),)


_X_NAME = re.compile(r"^x([1-9][0-9]*)$")


def x_ring_for(trees, field, minimum: int = 1) -> PolyRing:
    """The ring K[x1..xn] with n inferred from the highest index used, at
    least minimum (a square tuple's padding) and at most MAX_VARIABLES."""
    n = minimum
    for tree in trees:
        for name in idents(tree):
            m = _X_NAME.match(name)
            if m is None:
                raise UnknownVariable(
                    f"variable {name!r} is not of the form x<k>", tree.offset
                )
            # five digits already pass the cap, and int() reads no more
            n = max(n, int(m.group(1)[:5]))
        if n > MAX_VARIABLES:
            raise ParseError(f"more than {MAX_VARIABLES} variables", tree.offset)
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
