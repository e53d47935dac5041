"""Sparse multivariate polynomials and rational functions over an exact field.

Polynomials are dictionaries from exponent tuples to nonzero coefficients,
ordered canonically by graded lexicographic order for printing and leading
term queries.  Greatest common divisors use a primitive polynomial remainder
sequence with recursive content extraction, variable by variable, which is
exact over both the rationals and GF(p).  Most gcds the library asks for are
1, so over the rationals a modular coprimality certificate runs first: it
evaluates all variables but one at a point, modulo a prime, and compares
univariate gcd degrees (Brown's degree-bound argument).  It either proves
the gcd constant or answers "unknown", and the remainder sequence then
decides; an unlucky prime or point costs only that fallback, never a wrong
gcd.  Rational functions are kept reduced with a monic denominator, so
equality is plain structural equality.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AllZero,
    DivisionByZero,
    IndeterminateForm,
    NotDivisible,
    RingMismatch,
    ZeroMap,
    ZeroPolynomial,
)
from .fields import Field, QQ

NEG_INF = -math.inf
POS_INF = math.inf


def _grlex(e):
    return (sum(e), e)


class PolyRing:
    """K[names]: a polynomial ring with a fixed variable tuple."""

    __slots__ = ("field", "names")

    def __init__(self, field: Field, names):
        self.field = field
        self.names = tuple(names)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return f"PolyRing({self.field!r}, {self.names})"

    def zero(self) -> Poly:
        return Poly(self, {})

    def one(self) -> Poly:
        return Poly(self, {(0,) * self.nvars: self.field.one()})

    def const(self, c) -> Poly:
        if isinstance(c, int):
            c = self.field.from_int(c)
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, i: int) -> Poly:
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): self.field.one()})

    def monomial(self, e, c=None) -> Poly:
        return Poly(self, {tuple(e): self.field.one() if c is None else c})

    def poly(self, terms: dict) -> Poly:
        """Public constructor: validates exponents, coerces int coefficients."""
        clean = {}
        for e, c in terms.items():
            e = tuple(e)
            if len(e) != self.nvars or any(k < 0 or not isinstance(k, int) for k in e):
                raise ValueError(f"bad exponent vector {e}")
            if isinstance(c, int):
                c = self.field.from_int(c)
            if c:
                clean[e] = c
        return Poly(self, clean)


class Poly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def is_one(self) -> bool:
        z = (0,) * self.ring.nvars
        return len(self.terms) == 1 and self.terms.get(z) == self.ring.field.one()

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        z = (0,) * self.ring.nvars
        return self.terms.get(z, self.ring.field.zero())

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=NEG_INF)

    def low_degree(self):
        return min((sum(e) for e in self.terms), default=POS_INF)

    def degree_in(self, j: int) -> int:
        return max((e[j] for e in self.terms), default=0)

    def lead_term(self):
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    def lc(self):
        return self.lead_term()[1]

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        c = self.lc()
        if c == self.ring.field.one():
            return self
        return Poly(self.ring, {e: v / c for e, v in self.terms.items()})

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- arithmetic ------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            v = c if acc is None else acc + c
            if v:
                out[e] = v
            elif acc is not None:
                del out[e]
        return Poly(self.ring, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            v = -c if acc is None else acc - c
            if v:
                out[e] = v
            elif acc is not None:
                del out[e]
        return Poly(self.ring, out)

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                acc = out.get(e)
                out[e] = c if acc is None else acc + c
        return Poly(self.ring, out)

    def scale(self, c) -> Poly:
        if not c:
            return self.ring.zero()
        return Poly(self.ring, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative exponent")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def divexact(self, b: Poly) -> Poly:
        """The unique quotient self/b; raises NotDivisible otherwise."""
        self._check(b)
        if b.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        if self.is_zero():
            return self
        eb, cb = b.lead_term()
        rem = dict(self.terms)
        quot = {}
        while rem:
            er = max(rem, key=_grlex)
            cr = rem[er]
            e = tuple(a - bb for a, bb in zip(er, eb))
            if any(k < 0 for k in e):
                raise NotDivisible("leading monomial does not divide")
            c = cr / cb
            quot[e] = c
            for e2, c2 in b.terms.items():
                key = tuple(a + bb for a, bb in zip(e, e2))
                acc = rem.get(key)
                v = -(c * c2) if acc is None else acc - c * c2
                if v:
                    rem[key] = v
                elif acc is not None:
                    del rem[key]
        return Poly(self.ring, quot)

    def divides(self, other: Poly) -> bool:
        try:
            other.divexact(self)
            return True
        except NotDivisible:
            return False

    # -- calculus and evaluation ------------------------------------------

    def derivative(self, j: int) -> Poly:
        field = self.ring.field
        out = {}
        for e, c in self.terms.items():
            k = e[j]
            if k == 0:
                continue
            v = c * field.from_int(k)
            if not v:
                continue
            e2 = e[:j] + (k - 1,) + e[j + 1 :]
            acc = out.get(e2)
            out[e2] = v if acc is None else acc + v
        return Poly(self.ring, out)

    def evaluate(self, values):
        """Evaluate at a point given as one field element per variable."""
        field = self.ring.field
        total = field.zero()
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = v * values[i] ** k
            total = total + v
        return total

    def coeffs_wrt(self, j: int) -> dict:
        """View as univariate in variable j: degree -> coefficient Poly."""
        out = {}
        for e, c in self.terms.items():
            k = e[j]
            stripped = e[:j] + (0,) + e[j + 1 :]
            out.setdefault(k, {})[stripped] = c
        return {k: Poly(self.ring, t) for k, t in out.items()}

    def coeff_wrt(self, j: int, k: int) -> Poly:
        out = {}
        for e, c in self.terms.items():
            if e[j] == k:
                out[e[:j] + (0,) + e[j + 1 :]] = c
        return Poly(self.ring, out)

    # -- graded structure --------------------------------------------------

    def homogeneous_parts(self):
        """Exact graded decomposition: [(degree, part), ...] ascending."""
        buckets = {}
        for e, c in self.terms.items():
            buckets.setdefault(sum(e), {})[e] = c
        return [(d, Poly(self.ring, t)) for d, t in sorted(buckets.items())]

    def leading_part(self) -> Poly:
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading part")
        return self.homogeneous_parts()[-1][1]

    def trailing_part(self) -> Poly:
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no trailing part")
        return self.homogeneous_parts()[0][1]

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"<Poly {poly_str(self)}>"


@dataclass(frozen=True)
class DegreePair:
    """Top and bottom total degree, with deg 0 = -inf and low deg 0 = +inf."""

    deg: object
    lowdeg: object


def degrees(a: Poly) -> DegreePair:
    return DegreePair(a.total_degree(), a.low_degree())


def tuple_degrees(polys) -> DegreePair:
    """deg/low deg of a tuple: extremes over the nonzero components."""
    nz = [p for p in polys if not p.is_zero()]
    if not nz:
        return DegreePair(NEG_INF, POS_INF)
    return DegreePair(
        max(p.total_degree() for p in nz), min(p.low_degree() for p in nz)
    )


def poly_arith(a: Poly, b: Poly, op: str) -> Poly:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "divexact":
        return a.divexact(b)
    raise ValueError(f"unknown op {op!r}")


# -- gcd machinery --------------------------------------------------------
#
# Over the rationals the PRS runs on cleared integer coefficients: integer
# content extraction keeps the numbers small and integer arithmetic is far
# cheaper than Fraction arithmetic.  Over GF(p) the generic field path is
# used directly.
#
# The rational path is entered through a coprimality certificate on the
# cleared integers read modulo _CERT_PRIME.  It takes plain ints modulo any
# prime and is tested on GF(p) residues too, but the GF(p) path does not
# call it yet (ROADMAP item 4).  The certificate is exact.  Let
# g = gcd(a, b), taken primitive in Z[x] over QQ, so that g divides a and b
# over Z (Gauss).  Map to GF(p) and fix every variable but x_j at a point: g's
# image divides the images of a and b, and when a's (or b's) x_j-leading
# coefficient survives, so does g's, because it divides it; then g's image
# keeps deg_j g.  So a univariate gcd of degree 0 at such a point proves
# deg_j g = 0, and proving it for every variable shared by a and b proves g
# constant.  Nothing else is ever concluded: a prime or point at which the
# leading coefficients vanish, or the images share a factor that a and b do
# not, only sends the pair to the PRS, which is also the path for every
# non-constant gcd.

# the Mersenne prime 2^61 - 1: rational inputs are certified modulo it
_CERT_PRIME = (1 << 61) - 1
# points drawn per variable while both leading coefficients vanish there
_CERT_TRIES = 3
_CERT_SEED = 0x5EED


def _uni_image(t: dict, j: int, d: int, point, p: int) -> list:
    """Dense ascending coefficients mod p of t in variable j, the others at point."""
    out = [0] * (d + 1)
    for e, c in t.items():
        c %= p
        for i, k in enumerate(e):
            if k and i != j:
                c = c * pow(point[i], k, p)
        out[e[j]] += c
    return [c % p for c in out]


def _uni_gcd_degree(a: list, b: list, p: int) -> int:
    """Degree of gcd(a, b) in GF(p)[y] for dense ascending lists; -1 if both vanish."""
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        while len(a) > db:
            f = a[-1] * inv % p
            shift = len(a) - 1 - db
            for k in range(db):
                a[shift + k] = (a[shift + k] - f * b[k]) % p
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _coprime_certified(ta: dict, tb: dict, p: int) -> bool:
    """True if gcd(a, b) is provably constant; False means unknown.

    ta and tb are the nonconstant a and b with int coefficients, to be read
    modulo the prime p: cleared integers over QQ, residues over GF(p).
    """
    nvars = len(next(iter(ta)))
    rng = random.Random(_CERT_SEED)
    for j in range(nvars):
        da = max(e[j] for e in ta)
        db = max(e[j] for e in tb)
        if not (da and db):
            continue
        for _ in range(_CERT_TRIES):
            point = [rng.randrange(p) for _ in range(nvars)]
            ia = _uni_image(ta, j, da, point, p)
            ib = _uni_image(tb, j, db, point, p)
            if ia[-1] or ib[-1]:
                if _uni_gcd_degree(ia, ib, p) != 0:
                    return False
                break
        else:
            return False
    return True


def _qq_int_terms(p: Poly) -> dict:
    """Integer-coefficient form of a rational-coefficient polynomial.

    Clears denominators and strips the integer content; the result differs
    from p by a nonzero rational factor, which is irrelevant for gcds.
    """
    den_lcm = 1
    for c in p.terms.values():
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    out = {}
    content = 0
    for e, c in p.terms.items():
        v = c.numerator * (den_lcm // c.denominator)
        out[e] = v
        content = math.gcd(content, v)
    if content > 1:
        out = {e: v // content for e, v in out.items()}
    return out


def _iz_strip_content(t: dict) -> dict:
    g = 0
    for v in t.values():
        g = math.gcd(g, v)
        if g == 1:
            return t
    return {e: v // g for e, v in t.items()} if g > 1 else t


def _iz_mul(t1: dict, t2: dict) -> dict:
    out = {}
    get = out.get
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc = get(e)
            out[e] = c1 * c2 if acc is None else acc + c1 * c2
    return {e: c for e, c in out.items() if c}


def _iz_combine(t1: dict, c1: dict, t2: dict, c2: dict) -> dict:
    """c1*t1 - c2*t2 for coefficient dicts c1, c2 (polynomial multipliers)."""
    out = _iz_mul(c1, t1)
    for e, v in _iz_mul(c2, t2).items():
        acc = out.get(e)
        w = -v if acc is None else acc - v
        if w:
            out[e] = w
        elif acc is not None:
            del out[e]
    return out


def _iz_deg_in(t: dict, j: int) -> int:
    return max((e[j] for e in t), default=0)


def _iz_coeff_wrt(t: dict, j: int, k: int) -> dict:
    return {e[:j] + (0,) + e[j + 1 :]: c for e, c in t.items() if e[j] == k}


def _iz_coeffs_wrt(t: dict, j: int) -> dict:
    out = {}
    for e, c in t.items():
        out.setdefault(e[j], {})[e[:j] + (0,) + e[j + 1 :]] = c
    return out


def _iz_divexact(a: dict, b: dict) -> dict:
    """Exact division in Z[x]; the caller guarantees divisibility."""
    if not a:
        return {}
    eb = max(b, key=_grlex)
    cb = b[eb]
    rem = dict(a)
    quot = {}
    while rem:
        er = max(rem, key=_grlex)
        cr = rem[er]
        e = tuple(x - y for x, y in zip(er, eb))
        c, leftover = divmod(cr, cb)
        if leftover or any(k < 0 for k in e):
            raise NotDivisible("integer-polynomial division is not exact")
        quot[e] = c
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e, e2))
            acc = rem.get(key)
            v = -(c * c2) if acc is None else acc - c * c2
            if v:
                rem[key] = v
            elif acc is not None:
                del rem[key]
    return quot


def _iz_prem(a: dict, b: dict, j: int, nvars: int) -> dict:
    db = _iz_deg_in(b, j)
    if db == 0:
        return {}
    lb = _iz_coeff_wrt(b, j, db)
    r = a
    while r:
        dr = _iz_deg_in(r, j)
        if dr < db:
            break
        lr = _iz_coeff_wrt(r, j, dr)
        shift = [0] * nvars
        shift[j] = dr - db
        shifted_b = _iz_mul({tuple(shift): 1}, b)
        r = _iz_combine(r, lb, shifted_b, lr)
    return r


def _iz_content_wrt(t: dict, j: int, nvars: int) -> dict:
    coeffs = list(_iz_coeffs_wrt(t, j).values())
    return _iz_gcd_many(coeffs, nvars)


def _iz_primitive_wrt(t: dict, j: int, nvars: int) -> dict:
    c = _iz_content_wrt(t, j, nvars)
    if c == {(0,) * nvars: 1}:
        return _iz_strip_content(t)
    return _iz_strip_content(_iz_divexact(t, c))


def _iz_gcd2(a: dict, b: dict, nvars: int) -> dict:
    a = _iz_strip_content(a)
    b = _iz_strip_content(b)
    if a == b:
        return a
    one = {(0,) * nvars: 1}
    if all(not any(e) for e in a) or all(not any(e) for e in b):
        return one
    active = {i for e in a for i, k in enumerate(e) if k}
    active |= {i for e in b for i, k in enumerate(e) if k}
    j = max(active)
    da, db = _iz_deg_in(a, j), _iz_deg_in(b, j)
    if da == 0:
        return _iz_gcd2(a, _iz_content_wrt(b, j, nvars), nvars)
    if db == 0:
        return _iz_gcd2(_iz_content_wrt(a, j, nvars), b, nvars)
    ca = _iz_content_wrt(a, j, nvars)
    cb = _iz_content_wrt(b, j, nvars)
    pa, pb = _iz_divexact(a, ca), _iz_divexact(b, cb)
    cont_gcd = _iz_gcd2(ca, cb, nvars)
    big, small = (pa, pb) if da >= db else (pb, pa)
    while True:
        r = _iz_prem(big, small, j, nvars)
        if not r:
            g = _iz_primitive_wrt(small, j, nvars)
            break
        if _iz_deg_in(r, j) == 0:
            g = one
            break
        big, small = small, _iz_primitive_wrt(r, j, nvars)
    return _iz_strip_content(_iz_mul(cont_gcd, g))


def _iz_gcd_many(ts, nvars: int) -> dict:
    nz = [t for t in ts if t]
    g = _iz_strip_content(nz[0])
    one = {(0,) * nvars: 1}
    for t in nz[1:]:
        if g == one:
            return g
        g = _iz_gcd2(g, t, nvars)
    return g


def _prem(a: Poly, b: Poly, j: int) -> Poly:
    """Pseudo-remainder of a by b with respect to variable j.

    Each reduction step scales the running remainder by b's leading
    coefficient, which is harmless here because callers take primitive
    parts afterwards.
    """
    db = b.degree_in(j)
    if db == 0:
        return a.ring.zero()
    lb = b.coeff_wrt(j, db)
    r = a
    while not r.is_zero():
        dr = r.degree_in(j)
        if dr < db:
            break
        lr = r.coeff_wrt(j, dr)
        e = [0] * a.ring.nvars
        e[j] = dr - db
        shift = a.ring.monomial(tuple(e))
        r = lb * r - lr * shift * b
    return r


def _content_wrt(a: Poly, j: int) -> Poly:
    coeffs = list(a.coeffs_wrt(j).values())
    return gcd_many(coeffs)


def _primitive_wrt(a: Poly, j: int) -> Poly:
    c = _content_wrt(a, j)
    return a.divexact(c).monic()


def _gcd2(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two nonzero polynomials.

    Over QQ a modular certificate answers most coprime pairs; the rest, and
    every pair over GF(p), go to the primitive PRS with recursive content
    extraction.
    """
    ring = a.ring
    if a == b:
        return a.monic()
    if a.is_constant() or b.is_constant():
        return ring.one()
    if ring.field == QQ:
        ta, tb = _qq_int_terms(a), _qq_int_terms(b)
        if _coprime_certified(ta, tb, _CERT_PRIME):
            return ring.one()
        g = _iz_gcd2(ta, tb, ring.nvars)
        return Poly(ring, {e: Fraction(v) for e, v in g.items()}).monic()
    active = set()
    for e in list(a.terms) + list(b.terms):
        for i, k in enumerate(e):
            if k:
                active.add(i)
    j = max(active)
    da, db = a.degree_in(j), b.degree_in(j)
    if da == 0:
        return _gcd2(a, _content_wrt(b, j))
    if db == 0:
        return _gcd2(_content_wrt(a, j), b)
    ca, cb = _content_wrt(a, j), _content_wrt(b, j)
    pa, pb = a.divexact(ca), b.divexact(cb)
    cont_gcd = _gcd2(ca, cb) if not (ca.is_one() and cb.is_one()) else ring.one()
    big, small = (pa, pb) if da >= db else (pb, pa)
    while True:
        r = _prem(big, small, j)
        if r.is_zero():
            g = _primitive_wrt(small, j)
            break
        if r.degree_in(j) == 0:
            g = ring.one()
            break
        big, small = small, _primitive_wrt(r, j)
    return (cont_gcd * g).monic()


def gcd_many(polys) -> Poly:
    """Monic gcd of a tuple of polynomials; needs one nonzero component."""
    nz = [p for p in polys if not p.is_zero()]
    if not nz:
        raise AllZero("gcd of the all-zero tuple does not exist")
    g = nz[0].monic()
    for p in nz[1:]:
        if g.is_one():
            return g
        g = _gcd2(g, p)
    return g.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        raise AllZero("lcm with a zero polynomial")
    return (a * b).divexact(_gcd2(a, b)).monic()


def is_primitive(polys) -> bool:
    """True iff the gcd of the components is a unit.

    In K[x], a GCD-domain and hence a PSP-domain, this certifies
    superprimitivity as well.  The all-zero tuple is not primitive.
    """
    nz = [p for p in polys if not p.is_zero()]
    if not nz:
        return False
    return gcd_many(nz).is_one()


# -- rational functions ----------------------------------------------------


class RatFunc:
    """A reduced fraction of polynomials with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, _reduced=False):
        if num.ring != den.ring:
            raise RingMismatch("numerator and denominator in different rings")
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            den = den.ring.one()
        elif not _reduced:
            if den.is_constant():
                c = den.constant_value()
                num, den = num.scale(num.ring.field.one() / c), den.ring.one()
            else:
                g = _gcd2(num, den)
                if not g.is_one():
                    num, den = num.divexact(g), den.divexact(g)
                c = den.lc()
                if c != den.ring.field.one():
                    inv = den.ring.field.one() / c
                    num, den = num.scale(inv), den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: Poly) -> RatFunc:
        return cls(p, p.ring.one(), _reduced=True)

    @property
    def ring(self) -> PolyRing:
        return self.num.ring

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.num.constant_value()

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        other = _as_ratfunc(other, self.ring)
        self._check(other)
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        other = _as_ratfunc(other, self.ring)
        self._check(other)
        return RatFunc(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return RatFunc(-self.num, self.den, _reduced=True)

    def __mul__(self, other):
        other = _as_ratfunc(other, self.ring)
        self._check(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = _as_ratfunc(other, self.ring)
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int):
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("zero to a negative power")
            num, den = self.den ** (-n), self.num ** (-n)
            one = self.ring.field.one()
            c = den.lc()
            if c != one:
                inv = one / c
                num, den = num.scale(inv), den.scale(inv)
            return RatFunc(num, den, _reduced=True)
        return RatFunc(self.num**n, self.den**n, _reduced=True)

    def __eq__(self, other):
        if isinstance(other, Poly):
            other = RatFunc.from_poly(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def derivative(self, j: int) -> RatFunc:
        n, d = self.num, self.den
        return RatFunc(n.derivative(j) * d - n * d.derivative(j), d * d)

    def __str__(self):
        if self.den.is_one():
            return poly_str(self.num)
        return f"({poly_str(self.num)})/({poly_str(self.den)})"

    def __repr__(self):
        return f"<RatFunc {self}>"


def _as_ratfunc(v, ring: PolyRing) -> RatFunc:
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, Poly):
        return RatFunc.from_poly(v)
    if isinstance(v, int):
        return RatFunc.from_poly(ring.const(v))
    raise TypeError(f"cannot coerce {v!r} to a rational function")


class RatMap:
    """A tuple of rational functions over a common ring."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        comps = tuple(comps)
        if not comps:
            raise ValueError("empty map")
        ring = None
        for c in comps:
            if isinstance(c, (Poly, RatFunc)):
                ring = c.ring
                break
        if ring is None:
            raise ValueError("a map needs at least one Poly or RatFunc component")
        comps = tuple(_as_ratfunc(c, ring) for c in comps)
        for c in comps:
            if c.ring != ring:
                raise RingMismatch("map components live in different rings")
        self.comps = comps

    @classmethod
    def from_polys(cls, polys) -> RatMap:
        return cls(tuple(RatFunc.from_poly(p) for p in polys))

    @property
    def ring(self) -> PolyRing:
        return self.comps[0].ring

    @property
    def m(self) -> int:
        return len(self.comps)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def scale(self, g: RatFunc) -> RatMap:
        return RatMap(tuple(g * c for c in self.comps))

    def __eq__(self, other):
        if not isinstance(other, RatMap):
            return NotImplemented
        return self.comps == other.comps

    def __hash__(self):
        return hash(self.comps)

    def __iter__(self):
        return iter(self.comps)

    def __getitem__(self, i):
        return self.comps[i]

    def __len__(self):
        return len(self.comps)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.comps) + ")"

    def __repr__(self):
        return f"<RatMap {self}>"


def jacobian(h: RatMap):
    """The m x n matrix of partial derivatives of h."""
    n = h.ring.nvars
    return [[h[i].derivative(j) for j in range(n)] for i in range(h.m)]


def poly_jacobian(polys, ring: PolyRing):
    return [[p.derivative(j) for j in range(ring.nvars)] for p in polys]


def primitive_part(h: RatMap):
    """Decompose h = g * core with core a primitive polynomial tuple.

    Clears denominators by their lcm, then divides out the gcd of the
    resulting numerator tuple; g collects both factors.
    """
    if h.is_zero():
        raise ZeroMap("the zero map has no primitive part")
    ring = h.ring
    d = ring.one()
    for c in h.comps:
        if not c.den.is_one():
            d = poly_lcm(d, c.den) if not d.is_one() else c.den
    nums = [c.num * d.divexact(c.den) for c in h.comps]
    g = gcd_many(nums)
    core = tuple(n.divexact(g) if not n.is_zero() else n for n in nums)
    return RatFunc(g, d), core


# -- substitution ----------------------------------------------------------


def relabel(a: Poly, target: PolyRing, var_map) -> Poly:
    """Rename variables: source variable i becomes target variable var_map[i]."""
    if target.field != a.ring.field:
        raise RingMismatch("relabel cannot change the coefficient field")
    used = list(var_map)
    if len(set(used)) != len(used):
        raise ValueError("variable map is not injective")
    out = {}
    for e, c in a.terms.items():
        e2 = [0] * target.nvars
        for i, k in enumerate(e):
            if k:
                e2[used[i]] = k
        out[tuple(e2)] = c
    return Poly(target, out)


def _power_table(base, max_exp: int, one):
    table = [one]
    for _ in range(max_exp):
        table.append(table[-1] * base)
    return table


def compose_poly(a: Poly, images, target: PolyRing) -> Poly:
    """a with variable i replaced by the polynomial images[i]."""
    if target.field != a.ring.field:
        raise RingMismatch("composition cannot change the coefficient field")
    maxes = [a.degree_in(j) for j in range(a.ring.nvars)]
    tables = [
        _power_table(img, mx, target.one()) if mx else None
        for img, mx in zip(images, maxes)
    ]
    total = target.zero()
    for e, c in a.terms.items():
        term = target.const(c)
        for i, k in enumerate(e):
            if k:
                term = term * tables[i][k]
        total = total + term
    return total


def compose_poly_ratfunc(a: Poly, images, target: PolyRing) -> RatFunc:
    """a with variable i replaced by the rational function images[i].

    Runs over a common denominator so that only one final reduction is
    needed: with images n_i/d_i and M_i the highest power of variable i
    in a, the result is (sum_e c_e prod n_i^{e_i} d_i^{M_i-e_i}) / prod d_i^{M_i}.
    """
    if target.field != a.ring.field:
        raise RingMismatch("composition cannot change the coefficient field")
    images = [_as_ratfunc(img, target) for img in images]
    maxes = [a.degree_in(j) for j in range(a.ring.nvars)]
    num_tabs = [
        _power_table(img.num, mx, target.one()) if mx else None
        for img, mx in zip(images, maxes)
    ]
    den_tabs = [
        _power_table(img.den, mx, target.one()) if mx else None
        for img, mx in zip(images, maxes)
    ]
    num_total = target.zero()
    for e, c in a.terms.items():
        term = target.const(c)
        for i, k in enumerate(e):
            if maxes[i]:
                term = term * num_tabs[i][k] * den_tabs[i][maxes[i] - k]
        num_total = num_total + term
    den_total = target.one()
    for i, mx in enumerate(maxes):
        if mx:
            den_total = den_total * den_tabs[i][mx]
    return RatFunc(num_total, den_total)


def subst(a, images, target: PolyRing) -> RatFunc:
    """Substitute one rational function per variable into a Poly or RatFunc.

    Raises IndeterminateForm when the composed denominator vanishes
    identically.
    """
    if isinstance(a, Poly):
        return compose_poly_ratfunc(a, images, target)
    num = compose_poly_ratfunc(a.num, images, target)
    den = compose_poly_ratfunc(a.den, images, target)
    if den.is_zero():
        raise IndeterminateForm("denominator vanishes identically after substitution")
    return num / den


def eval_univar_at_ratio(f: Poly, p: Poly, q: Poly, s: int) -> Poly:
    """q^s * f(p/q) for univariate f with deg f <= s: sum c_j p^j q^(s-j)."""
    if f.ring.nvars != 1:
        raise ValueError("expected a univariate polynomial")
    ring = p.ring
    if f.is_zero():
        return ring.zero()
    d = f.total_degree()
    if d > s:
        raise ValueError("clearing exponent smaller than the degree")
    p_tab = _power_table(p, d, ring.one())
    q_tab = _power_table(q, s, ring.one())
    total = ring.zero()
    for e, c in f.terms.items():
        j = e[0]
        total = total + (p_tab[j] * q_tab[s - j]).scale(c)
    return total


# -- canonical text --------------------------------------------------------


def _monomial_str(names, e) -> str:
    parts = []
    for name, k in zip(names, e):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


def poly_str(a: Poly) -> str:
    if a.is_zero():
        return "0"
    rational = a.ring.field == QQ
    items = sorted(a.terms.items(), key=lambda t: _grlex(t[0]), reverse=True)
    chunks = []
    for e, c in items:
        mono = _monomial_str(a.ring.names, e)
        if rational:
            negative = c < 0
            mag = -c if negative else c
        else:
            negative = False
            mag = c
        if not mono:
            body = str(mag)
        elif mag == a.ring.field.one():
            body = mono
        else:
            body = f"{mag}*{mono}"
        chunks.append(("-" if negative else "+", body))
    sign, body = chunks[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


def print_canonical(v) -> str:
    """Canonical text form of a Poly, RatFunc or RatMap."""
    if isinstance(v, (Poly, RatFunc, RatMap)):
        return str(v)
    raise TypeError(f"cannot print {v!r}")
