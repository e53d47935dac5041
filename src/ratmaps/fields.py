"""Exact coefficient fields: the rationals and prime fields GF(p).

Rational elements are plain ``fractions.Fraction`` values (always stored
in lowest terms with positive denominator), prime-field elements are
``Fp`` instances carrying their modulus.  Every element therefore knows
its own field, and mixing fields raises ``FieldMismatch``.  ``roots_in_K``
takes roots modulo a prime in both fields, over QQ lifted by Newton's iteration.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate

from .errors import DivisionByZero, FieldMismatch, NotPrime, ZeroPolynomial

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit integers."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """An element of GF(p), kept in the canonical range 0..p-1."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatch(f"GF({self.p}) vs GF({other.p})")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.v == 0:
            raise DivisionByZero(f"division by zero in GF({self.p})")
        return Fp(self.v * pow(o.v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, n: int):
        if n < 0 and self.v == 0:
            raise DivisionByZero("zero to a negative power")
        return Fp(pow(self.v, n, self.p), self.p)

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"Fp({self.v}, {self.p})"

    def __str__(self):
        return str(self.v)


class Field:
    """Common interface of the two supported coefficient fields."""

    characteristic: int

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def element(self, c):
        """c as an element of this field: an int (not a bool) is converted,
        and anything else but this field's own elements raises FieldMismatch.
        Plain type tests: isinstance against Fraction, an ABC, is slow."""
        if isinstance(c, int) and not isinstance(c, bool):
            return self.from_int(c)
        if type(c) in (Fraction, Fp) and getattr(c, "p", 0) == self.characteristic:
            return c
        raise FieldMismatch(f"{c!r} is not an element of {self!r}")


class Rationals(Field):
    characteristic = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """GF(p) for a prime p fitting in a machine word."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrime(f"modulus {p!r} is not prime")
        if p >= 1 << 63:
            raise NotPrime(f"modulus {p} exceeds the machine-word limit")
        self.p = p
        self.characteristic = p

    def zero(self):
        return Fp(0, self.p)

    def one(self):
        return Fp(1, self.p)

    def from_int(self, n: int):
        return Fp(n, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


def field_of(value) -> Field:
    if isinstance(value, Fp):
        return PrimeField(value.p)
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        return QQ
    raise FieldMismatch(f"not a field element: {value!r}")


def field_arith(a, b, op: str):
    """Exact field arithmetic on two elements of the same field.

    ``op`` is one of ``add``, ``sub``, ``mul``, ``div``.
    """
    fa, fb = field_of(a), field_of(b)
    if fa != fb:
        raise FieldMismatch(f"{fa} vs {fb}")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if not b:
            raise DivisionByZero("division by zero")
        return a / b
    raise ValueError(f"unknown op {op!r}")


def roots_in_K(f) -> list:
    """All roots of a univariate polynomial lying in its own field.

    Returns ``[(root, multiplicity), ...]``, ascending (by residue over
    GF(p)).  Both fields find roots with ``_fp_roots``: over GF(p) directly,
    over the rationals modulo a small prime, lifted by Newton's iteration
    (``_rational_roots``).  Multiplicities come from repeated synthetic
    division, so each reported pair satisfies (y - root)^mult | f exactly.
    """
    from .polyring import Poly  # local import to avoid a cycle

    if not isinstance(f, Poly):
        raise TypeError("roots_in_K expects a univariate Poly")
    if f.ring.nvars != 1:
        raise ValueError("roots_in_K expects a univariate polynomial")
    if f.is_zero():
        raise ZeroPolynomial("cannot enumerate roots of the zero polynomial")

    field = f.ring.field
    if isinstance(field, PrimeField):
        roots = [Fp(t, field.p) for t in _fp_roots([c.v for c in _dense(f)], field.p)]
    else:
        roots = _rational_roots(f)
    return [(theta, _multiplicity(f, theta)) for theta in roots]


def _fp_roots(dense: list, p: int) -> list:
    """The distinct roots in GF(p), ascending, of f given by its dense ascending
    residues, the last nonzero: those of gcd(f, y^p - y), with y^p mod f by
    repeated squaring, split by seeded Cantor-Zassenhaus (both residues tried
    for p = 2)."""
    from .polyring import _CERT_SEED, _uni_divmod, _uni_eval, _uni_gcd, _uni_powmod, _uni_trim

    # y^p - y mod f
    h = _uni_powmod([0, 1], p, dense, p) + [0, 0]
    h[1] -= 1
    r = _uni_gcd(dense, _uni_trim([c % p for c in h]), p)
    if p == 2:
        return [t for t in (0, 1) if not _uni_eval(r, t, p)]
    # r is a product of distinct linear factors: (y + a)^((p-1)/2) - 1
    # vanishes at the roots t with t + a a nonzero square, about half
    rng, roots, todo = random.Random(_CERT_SEED), [], [r]
    while todo:
        g = todo.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        elif len(g) > 2:
            while True:
                h = _uni_powmod([rng.randrange(p), 1], (p - 1) // 2, g, p) or [0]
                h[0] = (h[0] - 1) % p
                d = _uni_gcd(g, _uni_trim(h), p)
                if 1 < len(d) < len(g):
                    todo += [d, _uni_divmod(g, d, p)[0]]
                    break
    return sorted(roots)


def _rational_roots(f) -> list:
    """The distinct rational roots of f, ascending.

    With a the lcm of the denominators of sf, the monic squarefree part of
    f, every root theta makes a*theta an integer root of g = a^d sf(y/a),
    below B = 1 + max|g_i| (Cauchy).  Newton's iteration lifts the simple
    roots of g modulo the first odd prime P that keeps g squarefree until
    P^(2^k) passes 2B; a symmetric lift r that is a root of g gives r/a.
    """
    from .polyring import _uni_eval, _uni_gcd, gcd_many

    sf = _dense(f.divexact(gcd_many([f, f.derivative(0)])).monic())
    a, d = math.lcm(*(v.denominator for v in sf)), len(sf) - 1
    g = [int(v * a ** (d - i)) for i, v in enumerate(sf)]
    dg = [i * v for i, v in enumerate(g)][1:]
    bound, P = 1 + max(map(abs, g)), 3
    while not is_prime(P) or len(_uni_gcd([v % P for v in g], [v % P for v in dg], P)) > 1:
        P += 2
    roots = []
    for r in _fp_roots([v % P for v in g], P):
        m = P
        while m <= 2 * bound:
            m *= m
            r = (r - _uni_eval(g, r, m) * pow(_uni_eval(dg, r, m), -1, m)) % m
        r = r - m if 2 * r > m else r
        if not sum(v * r**i for i, v in enumerate(g)):
            roots.append(Fraction(r, a))
    return sorted(roots)


def _dense(f) -> list:
    """The coefficients of the nonzero univariate f, ascending, as field elements."""
    zero = f.ring.field.zero()
    return [f.terms.get((e,), zero) for e in range(f.total_degree() + 1)]


def _multiplicity(f, theta) -> int:
    """Multiplicity of theta as a root of the nonzero univariate f: how often
    synthetic division by y - theta (Horner's rule) leaves no remainder."""
    a, mult = _dense(f)[::-1], 0
    while len(a) > 1:
        # a is descending: q holds the quotient, then the remainder a(theta)
        q = list(accumulate(a, lambda v, c: v * theta + c))
        if q.pop():
            break
        a, mult = q, mult + 1
    return mult
