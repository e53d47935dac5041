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
parse error at its offset, and so is a number or exponent literal longer
than int() converts, at its own, and a power that may have more than
MAX_POWER_TERMS terms (C(n + t - 1, n) for t terms to the n), or over QQ
coefficients of more than MAX_POWER_BITS bits, at its '^'; so is, at its
operator, a product or an operation on a quotient (built from products of
the parts) that may have such coefficients.
An x ring has at most MAX_VARIABLES variables: a name x<k> past the cap is
a parse error at its first offset, a square tuple padded past it one at its
'(', and a name not of the form x<k> is one at the name's first offset.

parse compiles text once, by recursive descent, to postfix code: a list of
(code, arg, offset) ops, where code is 'n' (arg the integer), 'v' (arg the
name), 'u' (unary minus), '^' (arg the exponent), '+', '-', '*' or '/'
(an operator is its own token), or 't', a tuple inside an expression, which
elaborates to an error at its '('.  A top-level tuple is a TupleExpr whose
items are compiled separately.

elaborate runs the ops on one stack, in the order a tree would be walked
bottom-up, so values and errors arrive as they would there.  A value without
division is a dict from exponent tuples to plain ints (residues over GF(p)):
its literals are non-negative integers, so it lies in Z[x], or GF(p)[x].  A
division makes one reduced rational function of both sides, and every value
from there on stays one.
"""

from __future__ import annotations

import re
import sys
from math import comb, lcm, log2

from .errors import ParseError, UnknownVariable
from .polyring import Poly, PolyRing, RatFunc, RatMap, print_canonical
from .polyring import _k_poly, _k_reduce, _k_tuple_mul, _k_tuple_pow

# whitespace matches no group, so finditer steps over it
_TOKEN = re.compile(r"(?P<num>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^(),])|(?P<bad>\S)")
# a token's kind by its group: an operator is its own kind, and 'e' ends the list
_KINDS = (None, "n", "v", None, None)

# the deepest parenthesis nesting parse accepts: a level costs the parser
# four stack frames, so the cap keeps it well inside Python's default
# recursion limit of 1,000
MAX_NESTING = 100
# the most variables a typed x<k> or a square tuple may ask of x_ring_for:
# a ring's cost grows with its index, so a short name cannot make it huge
MAX_VARIABLES = 1000
# the most terms a power may ask for: v^n, v of t terms, has at most
# C(n + t - 1, n), and every product computing it multiplies powers v^k,
# k <= n, each of at most as many; (x1 + x2 + 1)^3000 asks for 4.5 million.
# C(t + n - 1, n) passes the cap if n does, so n is cut to it first
MAX_POWER_TERMS = 1000
# the most bits a coefficient of a power or a product may ask for over QQ,
# below the 4,300 decimal digits (14,284 bits) that str() of an int
# converts: v^n asks for n * _bits(v), exactly n log2 |c| for one term c x^e
# with c an integer, and v * w for _bits(v) + _bits(w); a quotient counts
# the larger of its numerator and denominator
MAX_POWER_BITS = 14000


class Expr:
    """Postfix ops, the offset of the root (its last op's), and each name
    used with its first offset."""

    __slots__ = ("ops", "offset", "names")

    def __init__(self, ops: list, offset: int, names: dict):
        self.ops, self.offset, self.names = ops, offset, names

    def __repr__(self):
        return f"{type(self).__name__}({self.ops!r})"


class TupleExpr(Expr):
    """A top-level tuple: one 't' op at its '(' and an Expr per item."""

    __slots__ = ("items",)

    def __init__(self, ops: list, offset: int, names: dict, items: tuple):
        super().__init__(ops, offset, names)
        self.items = items


def parse(src: str) -> Expr:
    """Compile source text to postfix; errors carry byte offsets."""
    toks = []
    for m in _TOKEN.finditer(src):
        group, text, offset = m.lastindex, m[0], m.start()
        if group == 4:
            raise ParseError(f"unexpected character {text!r}", offset)
        toks.append((_KINDS[group] or text, text, offset))
    toks.append(("e", "", len(src)))
    p = _Parser(toks)
    kind, text, offset = toks[p.expr(0)]
    if kind != "e":
        raise ParseError(f"unexpected trailing {text!r}", offset)
    ops = p.ops
    if len(ops) == 1 and ops[0][0] == "t":
        return p.tuple
    return Expr(ops, ops[-1][2], _names(toks))


class _Parser:
    """Recursive descent over the token list; each method takes the index
    of its first token, appends the ops of what it read and returns the
    index after it."""

    def __init__(self, toks: list):
        self.toks, self.ops, self.depth = toks, [], 0
        # the last tuple closed: the root, if the root is a tuple
        self.tuple = None

    def expr(self, i: int) -> int:
        toks, ops = self.toks, self.ops
        if toks[i][0] == "-":
            offset = toks[i][2]
            i = self.term(i + 1)
            ops.append(("u", None, offset))
        else:
            i = self.term(i)
        while (tok := toks[i])[0] in "+-":
            i = self.term(i + 1)
            ops.append(tok)
        return i

    def term(self, i: int) -> int:
        toks, ops = self.toks, self.ops
        i = self.factor(i)
        while (tok := toks[i])[0] in "*/":
            i = self.factor(i + 1)
            ops.append(tok)
        return i

    def factor(self, i: int) -> int:
        i = self.base(i)
        toks = self.toks
        if toks[i][0] != "^":
            return i
        kind, text, offset = toks[i + 1]
        if kind != "n":
            raise ParseError("exponent must be a non-negative integer literal", offset)
        self.ops.append(("^", _int(text, offset), toks[i][2]))
        return i + 2

    def base(self, i: int) -> int:
        kind, text, offset = tok = self.toks[i]
        if kind == "v":
            self.ops.append(tok)
            return i + 1
        if kind == "n":
            self.ops.append(("n", _int(text, offset), offset))
            return i + 1
        if kind != "(":
            raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", offset)
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", offset)
        self.depth += 1
        toks, ops = self.toks, self.ops
        start, spans = len(ops), []
        while True:
            begin, first = len(ops), i + 1
            i = self.expr(first)
            spans.append((begin, len(ops), first, i))
            kind, _, at = toks[i]
            if kind == ")":
                break
            if kind != ",":
                raise ParseError("expected ',' or ')'", at)
        self.depth -= 1
        if len(spans) > 1:
            # item k's ops are ops[a:b] and its tokens toks[f:e]
            items = tuple(Expr(ops[a:b], ops[b - 1][2], _names(toks[f:e])) for a, b, f, e in spans)
            del ops[start:]
            ops.append(("t", None, offset))
            self.tuple = TupleExpr(ops[-1:], offset, _names(toks[spans[0][2] : i]), items)
        return i + 1


def _int(text: str, offset: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"number of more than {sys.get_int_max_str_digits()} digits", offset) from None


def _names(toks) -> dict:
    names = {}
    for kind, text, offset in toks:
        if kind == "v":
            names.setdefault(text, offset)
    return names


def elaborate(tree: Expr, ring: PolyRing) -> RatFunc:
    """Run an expression's ops to a rational function over the given ring.

    Every dict on the stack is its own, so a sum accumulates into its left
    operand in place."""
    names, nvars, mod = ring.names, ring.nvars, ring.field.characteristic
    zero = (0,) * nvars
    stack = []
    push = stack.append
    for code, arg, offset in tree.ops:
        if code == "v":
            if arg not in names:
                raise UnknownVariable(f"unknown variable {arg!r}", offset)
            e = [0] * nvars
            e[names.index(arg)] = 1
            push({tuple(e): 1})
        elif code == "n":
            c = arg % mod if mod else arg
            push({zero: c} if c else {})
        elif code == "^":
            v = stack[-1]
            n = min(arg, MAX_POWER_TERMS)
            parts = (v.num.terms, v.den.terms) if type(v) is RatFunc else (v,)
            for t in map(len, parts):
                if min(t, n) > 1 and comb(t + n - 1, n) > MAX_POWER_TERMS:
                    raise ParseError(f"power of more than {MAX_POWER_TERMS} terms", offset)
            if not mod:
                _cap_bits(arg * _size(v), "power", offset)
            stack[-1] = v**arg if type(v) is RatFunc else _k_tuple_pow(v, arg, zero, mod)
        elif code == "u":
            v = stack[-1]
            stack[-1] = -v if type(v) is RatFunc else _k_reduce({e: -c for e, c in v.items()}, mod)
        elif code == "t":
            raise ParseError("tuple not allowed inside a scalar expression", offset)
        else:
            w = stack.pop()
            v = stack[-1]
            if not mod and (code == "*" or RatFunc in (type(v), type(w))):
                _cap_bits(_size(v) + _size(w), repr(code), offset)
            if code == "/":
                if not w or (type(w) is RatFunc and w.is_zero()):
                    raise ParseError("division by zero", offset)
                if type(v) is dict and type(w) is dict:
                    stack[-1] = RatFunc(_k_poly(ring, v), _k_poly(ring, w))
                else:
                    stack[-1] = _rf(v, ring) / _rf(w, ring)
            elif type(v) is RatFunc or type(w) is RatFunc:
                v, w = _rf(v, ring), _rf(w, ring)
                stack[-1] = v * w if code == "*" else v + w if code == "+" else v - w
            elif code == "*":
                stack[-1] = _k_tuple_mul(v, w, mod)
            else:
                sign = 1 if code == "+" else -1
                for e, c in w.items():
                    c = v.get(e, 0) + sign * c
                    if mod:
                        c %= mod
                    if c:
                        v[e] = c
                    else:
                        del v[e]
    return _rf(stack[0], ring)


def _rf(v, ring: PolyRing) -> RatFunc:
    return v if type(v) is RatFunc else RatFunc.from_poly(_k_poly(ring, v))


def _bits(terms: dict) -> float:
    """log2 max(L, sum |L c|) over the coefficients c of terms, ints or
    Fractions with lcm L of their denominators: v = w / L with w integral,
    so every coefficient of v^n has a numerator of at most |w|_1^n and a
    denominator dividing L^n."""
    total = sum(map(abs, terms.values()))  # an int when every c is one
    den = 1 if type(total) is int else lcm(*(c.denominator for c in terms.values()))
    return log2(max(den, int(total * den)))


def _cap_bits(bits: float, what: str, offset: int):
    if bits > MAX_POWER_BITS:
        raise ParseError(f"{what} with coefficients of more than {MAX_POWER_BITS} bits", offset)


def _size(v) -> float:
    """_bits of a dict, or the larger _bits of a quotient's two parts."""
    return max(_bits(v.num.terms), _bits(v.den.terms)) if type(v) is RatFunc else _bits(v)


def elaborate_poly(tree: Expr, ring: PolyRing) -> Poly:
    value = elaborate(tree, ring)
    if not value.is_polynomial():
        raise ParseError("expected a polynomial, got a proper fraction", tree.offset)
    return value.num


def elaborate_map(tree: Expr, ring: PolyRing) -> RatMap:
    if isinstance(tree, TupleExpr):
        return RatMap(tuple(elaborate(item, ring) for item in tree.items))
    return RatMap((elaborate(tree, ring),))


def elaborate_poly_tuple(tree: Expr, ring: PolyRing) -> tuple:
    if isinstance(tree, TupleExpr):
        return tuple(elaborate_poly(item, ring) for item in tree.items)
    return (elaborate_poly(tree, ring),)


_X_NAME = re.compile(r"^x([1-9][0-9]*)$")


def x_ring_for(trees, field, minimum: int = 1) -> PolyRing:
    """The ring K[x1..xn] with n inferred from the highest index used, at
    least minimum (a square tuple's padding) and at most MAX_VARIABLES."""
    n = minimum
    for tree in trees:
        for name, offset in tree.names.items():
            m = _X_NAME.match(name)
            if m is None:
                raise UnknownVariable(f"variable {name!r} is not of the form x<k>", offset)
            # five digits already pass the cap, and int() reads no more
            if (k := int(m.group(1)[:5])) > MAX_VARIABLES:
                raise ParseError(f"more than {MAX_VARIABLES} variables", offset)
            n = max(n, k)
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
    "x_ring_for",
    "parse_scalar",
    "print_canonical",
]
