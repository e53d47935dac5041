"""Sparse multivariate polynomials and rational functions over an exact field.

Polynomials are dictionaries from exponent tuples to nonzero coefficients,
ordered canonically by graded lexicographic order for printing and leading
term queries.  Greatest common divisors run on monomials packed into ints
and int coefficients, by Brown's dense evaluation-interpolation algorithm:
over GF(p) directly, over the rationals on the cleared integers modulo a
few 61-bit primes, combined by the Chinese remainder theorem.  Either way a
gcd is accepted only after exact trial division.  Most gcds the library
asks for are 1, so over the rationals a modular coprimality certificate
runs first: it evaluates all variables but one at a point, modulo a prime,
and compares univariate gcd degrees (Brown's degree-bound argument).  It
either proves the gcd constant or answers "unknown".  When the primes run
out, or GF(p) has too few usable evaluation points, one primitive
polynomial remainder sequence with recursive content extraction decides;
an unlucky prime or point costs a retry or that fallback, never a wrong
gcd.  Rational functions are kept reduced with a monic denominator, so
equality is plain structural equality.  Substitution and exact division
run on the same integer kernel, each in one routine.
"""

from __future__ import annotations

import heapq
import math
import random
import sys
from fractions import Fraction
from operator import add

from .errors import (
    AllZero,
    ConstantRatio,
    DivisionByZero,
    IndeterminateForm,
    InternalCheckError,
    NotDivisible,
    RingMismatch,
    ZeroMap,
    ZeroPolynomial,
)
from .fields import Field, QQ
from .records import FrozenRecord

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
        return Poly(self, {(0,) * self.nvars: self.field.element(c)})

    def var(self, i: int) -> Poly:
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): self.field.one()})

    def poly(self, terms: dict) -> Poly:
        """Public constructor: validates exponents, coerces int coefficients
        and rejects a coefficient from another field (FieldMismatch)."""
        element, from_int = self.field.element, self.field.from_int
        clean = {}
        for e, c in terms.items():
            e = tuple(e)
            if len(e) != self.nvars or any(k < 0 or not isinstance(k, int) for k in e):
                raise ValueError(f"bad exponent vector {e}")
            c = from_int(c) if type(c) is int else element(c)
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
            out[e] = c if acc is None else acc + c
        return Poly(self.ring, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            out[e] = -c if acc is None else acc - c
        return Poly(self.ring, out)

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        (s, (a,)), (t, (b,)) = _k_ints([self]), _k_ints([other])
        return _k_poly(self.ring, _k_tuple_mul(a, b, self.ring.field.characteristic), s * t)

    def scale(self, c) -> Poly:
        if not c:
            return self.ring.zero()
        return Poly(self.ring, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative exponent")
        ring, (s, (t,)) = self.ring, _k_ints([self])
        return _k_poly(ring, _k_tuple_pow(t, n, (0,) * ring.nvars, ring.field.characteristic), s**n)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def divexact(self, b: Poly) -> Poly:
        """The unique quotient self/b; raises NotDivisible otherwise.

        Runs on the kernel: A = s*self and B = t*b are the int forms, and
        over QQ B is divided by its integer content c.  By Gauss's lemma in
        Z[x], A/(B/c) is integral whenever b divides self, and self/b is
        that quotient times t/(s*c).  Over GF(p), s = t = c = 1.
        """
        self._check(b)
        if b.is_zero():
            raise DivisionByZero("division by the zero polynomial")
        if self.is_zero():
            return self
        ring, mod = self.ring, self.ring.field.characteristic
        (s, (ta,)), (t, (tb,)) = _k_ints([self]), _k_ints([b])
        c = 1 if mod else math.gcd(*tb.values())
        if c != 1:
            tb = {e: v // c for e, v in tb.items()}
        quot = _on_packing(
            ring.nvars, mod, [[ta, tb]], lambda K, ab: K.unpack(_k_divexact(*ab[0], K))
        )
        return _k_poly(ring, {e: v * t for e, v in quot.items()}, s * c)

    def divides(self, other: Poly) -> bool:
        try:
            other.divexact(self)
            return True
        except NotDivisible:
            return False

    # -- calculus and evaluation ------------------------------------------

    def derivative(self, j: int) -> Poly:
        from_int = self.ring.field.from_int
        out = {}
        for e, c in self.terms.items():
            if k := e[j]:
                # lowering e_j maps distinct monomials to distinct monomials
                out[e[:j] + (k - 1,) + e[j + 1 :]] = c * from_int(k)
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

    # -- graded structure --------------------------------------------------

    def homogeneous_parts(self):
        """Exact graded decomposition: [(degree, part), ...] ascending."""
        buckets = {}
        for e, c in self.terms.items():
            buckets.setdefault(sum(e), {})[e] = c
        return [(d, Poly(self.ring, t)) for d, t in sorted(buckets.items())]

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"<Poly {poly_str(self)}>"


class DegreePair(FrozenRecord):
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


# -- the packed-int kernel: gcds and polynomial identities ---------------
#
# Kronecker-packed monomials (_Packing) with plain int coefficients, cleared
# integers over QQ and residues over GF(p), with no Fraction or Fp object
# per operation.  It runs the gcds of both fields, the bulk identities of
# the classifier (trace identity, Bareiss rank, witness check), every
# Jacobian row (_k_jacobian_rows), every substitution (_k_substitute, under
# _substitute, which reads its clearing powers from the polys it
# substitutes into) and every exact division (Poly.divexact on
# _k_divexact).  _k_ints converts from Poly and returns its clearing
# integer with the int forms, _on_packing packs and _k_poly converts back,
# so Poly keeps its tuple keys; Poly's * and ** take the int forms unpacked
# (_k_tuple_mul, _k_tuple_pow).  The slot width has one rule, in
# _on_packing alone: the first width is read from the inputs' total
# degree (_first_width), and any product that outgrows it reruns the whole
# call at double the width, so no caller bounds the degrees it will form.
# Univariate polynomials over GF(p) are dense ascending residue lists
# (_uni_*), shared by both gcd paths and by fields.roots_in_K.
#
# _gcd2 runs Brown's modular gcd (_brown) over both fields: over GF(p)
# directly, over QQ on the cleared integers modulo _PRIMES, with CRT and
# trial division over Z (_crt_gcd).  It falls back on the primitive PRS
# only when the primes run out or GF(p) has too few usable evaluation
# points.  Over QQ a coprimality certificate on the cleared integers read
# modulo _CERT_PRIME runs first: it answers most unit gcds more cheaply
# than a degree-0 image of _brown.  The certificate takes plain ints
# modulo any prime and is tested on GF(p) residues too.
# The certificate is exact.  Let
# g = gcd(a, b), taken primitive in Z[x] over QQ, so that g divides a and b
# over Z (Gauss).  Map to GF(p) and fix every variable but x_j at a point: g's
# image divides the images of a and b, and when a's (or b's) x_j-leading
# coefficient survives, so does g's, because it divides it; then g's image
# keeps deg_j g.  So a univariate gcd of degree 0 at such a point proves
# deg_j g = 0, and proving it for every variable shared by a and b proves g
# constant.  Nothing else is ever concluded: a prime or point at which the
# leading coefficients vanish, or the images share a factor that a and b do
# not, only sends the pair on to the modular gcd, which is also the path
# for every non-constant gcd.

# the Mersenne prime 2^61 - 1: rational inputs are certified modulo it
_CERT_PRIME = (1 << 61) - 1
# points drawn per variable while both leading coefficients vanish there
_CERT_TRIES = 3
_CERT_SEED = 0x5EED
# the primes of the rational modular gcd (_crt_gcd)
_PRIMES = (_CERT_PRIME, (1 << 61) - 31, (1 << 61) - 45, (1 << 61) - 229)
# Brown's evaluation points: an arithmetic progression through GF(p)
_POINT_START, _POINT_STEP = 0x2F6B_93A1_C4D5_E807, 0x1D3C_5A7F_9E2B_4C61


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


def _uni_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _uni_eval(a: list, x: int, p: int) -> int:
    v = 0
    for c in reversed(a):
        v = (v * x + c) % p
    return v


def _uni_mul(a: list, b: list, p: int) -> list:
    """Product of trimmed dense lists in GF(p)[y]."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for k, d in enumerate(b, i):
                out[k] += c * d
    return [c % p for c in out]


def _uni_divmod(a: list, b: list, p: int):
    """(quotient, remainder) of dense a by the trimmed nonzero b in GF(p)[y]."""
    a, db = a[:], len(b) - 1
    inv = pow(b[-1], -1, p)
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1 - db, -1, -1):
        if f := a[i + db] * inv % p:
            quot[i] = f
            a[i : i + db] = [(x - f * y) % p for x, y in zip(a[i : i + db], b)]
    return quot, _uni_trim(a[:db])


def _uni_rem(a: list, b: list, p: int) -> list:
    """The trimmed a reduced in place modulo the trimmed nonzero b in GF(p)[y]."""
    inv, db = pow(b[-1], -1, p), len(b) - 1
    while len(a) > db:
        f, shift = a[-1] * inv % p, len(a) - 1 - db
        for k in range(db):
            a[shift + k] = (a[shift + k] - f * b[k]) % p
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def _uni_gcd(a: list, b: list, p: int) -> list:
    """Monic gcd in GF(p)[y] of dense ascending lists; [] if both vanish."""
    a, b = _uni_trim(a[:]), _uni_trim(b[:])
    while b:
        a, b = b, _uni_rem(a, b, p)
    if len(a) == 1:
        return [1]
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _uni_powmod(a: list, n: int, f: list, p: int) -> list:
    """a^n mod the trimmed f in GF(p)[y], by repeated squaring."""
    result, base = [1], _uni_rem(_uni_trim(a[:]), f, p)
    while n:
        if n & 1:
            result = _uni_rem(_uni_mul(result, base, p), f, p)
        n >>= 1
        if n:
            base = _uni_rem(_uni_mul(base, base, p), f, p)
    return result


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
                if len(_uni_gcd(ia, ib, p)) != 1:
                    return False
                break
        else:
            return False
    return True


def _k_ints(polys):
    """(s, ints): ints the int-coefficient dicts of the polys, all times the
    one positive integer s, over QQ the lcm of their denominators; over
    GF(p) s = 1 and ints are the residues."""
    if polys and polys[0].ring.field == QQ:
        s = math.lcm(*{c.denominator for p in polys for c in p.terms.values()})
        return s, [
            {e: c.numerator * (s // c.denominator) for e, c in p.terms.items()}
            for p in polys
        ]
    return 1, [{e: c.v for e, c in p.terms.items()} for p in polys]


def _k_poly(ring: PolyRing, t: dict, scale: int = 1) -> Poly:
    """The Poly of tuple-keyed ints t over scale (1 over GF(p)): the way back."""
    if scale == 1:
        from_int = ring.field.from_int
        return Poly(ring, {e: from_int(c) for e, c in t.items()})
    return Poly(ring, {e: Fraction(c, scale) for e, c in t.items()})


class _Packing:
    """Kronecker packing of the exponent tuples of n variables into ints.

    A key is total<<(n*w) | e0<<((n-1)*w) | ... | e_{n-1} with w bits per
    slot, so integer order on keys is grlex order, a monomial product is a
    key sum and a quotient a key difference.  Every slot holds at most
    limit = 2^(w-1) - 1, so the sum of two keys never carries, and a
    difference that borrows sets the top (guard) bit of a variable slot.
    The total slot bounds every other slot, so a product is checked by
    its total alone.  mod is the coefficient ring: 0 for Z, p for GF(p).
    """

    __slots__ = ("n", "w", "mod", "tshift", "limit", "guard", "mask")

    def __init__(self, n: int, w: int, mod: int):
        self.n, self.w, self.mod = n, w, mod
        self.tshift = n * w
        self.limit = (1 << (w - 1)) - 1
        self.guard = sum(1 << (i * w + w - 1) for i in range(n))
        self.mask = (1 << w) - 1

    def unit(self, j: int) -> int:
        """The key of x_j: a 1 in slot j and in the total slot."""
        return (1 << self.tshift) | (1 << ((self.n - 1 - j) * self.w))

    def pack(self, t: dict) -> dict:
        out = {}
        for e, c in t.items():
            key = sum(e)
            for k in e:
                key = (key << self.w) | k
            out[key] = c
        return out

    def unpack(self, t: dict) -> dict:
        shifts, mask = range((self.n - 1) * self.w, -1, -self.w), self.mask
        return {tuple([key >> sh & mask for sh in shifts]): c for key, c in t.items()}


def _first_width(nvars: int, deg: int) -> int:
    """Slot bits for inputs of total degree deg: room for the product of
    two (2 * deg) plus a guard bit, and at least an equal share of one
    CPython digit among the nvars + 1 slots, since a key that fits in one
    digit costs no more with wider slots."""
    floor = sys.int_info.bits_per_digit // (nvars + 1)
    return max(max(2 * deg, 1).bit_length() + 1, floor)


def _on_packing(nvars: int, mod: int, groups, fn):
    """fn(K, packed), packed mirroring groups (lists of tuple-keyed int
    dicts) on one packing K.  This is the only place a slot width is
    chosen: the first from the inputs' total degree alone (_first_width);
    a product that outgrows it (an OverflowError) reruns fn at double the
    width."""
    deg = max((sum(e) for g in groups for t in g for e in t), default=0)
    w = _first_width(nvars, deg)
    while True:
        K = _Packing(nvars, w, mod)
        try:
            return fn(K, [[K.pack(t) for t in g] for g in groups])
        except OverflowError:
            w *= 2


def on_kernel(groups, fn):
    """fn(K, packed), packed mirroring groups (lists of Poly) on one packing.

    Over QQ each group is multiplied by its own positive integer (_k_ints):
    fn must ask only what such scaling leaves alone.  The slot width comes
    from the degrees of the packed polys (_on_packing).
    """
    ring = next(p.ring for g in groups for p in g)
    ints = [_k_ints(g)[1] for g in groups]
    return _on_packing(ring.nvars, ring.field.characteristic, ints, fn)


def _k_reduce(t: dict, mod: int) -> dict:
    if mod:
        return {e: v for e, c in t.items() if (v := c % mod)}
    return {e: c for e, c in t.items() if c}


def _k_tuple_mul(a: dict, b: dict, mod: int) -> dict:
    """a * b on tuple keys, unpacked: Poly's product and the front end's."""
    out = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return _k_reduce(out, mod)


def _k_tuple_pow(v: dict, n: int, zero: tuple, mod: int) -> dict:
    if len(v) == 1:
        ((e, c),) = v.items()
        return {tuple([k * n for k in e]): pow(c, n, mod or None)}
    out = {zero: 1}
    while n:
        if n & 1:
            out = _k_tuple_mul(out, v, mod)
        v = _k_tuple_mul(v, v, mod) if n > 1 else v
        n >>= 1
    return out


def _k_normal(t: dict, mod: int) -> dict:
    """t without its content: integer gcd over Z, leading coefficient over GF(p)."""
    if mod:
        lc = t[max(t)]
        inv = pow(lc, -1, mod)
        return t if lc == 1 else {e: c * inv % mod for e, c in t.items()}
    g = math.gcd(*t.values())
    return t if g == 1 else {e: v // g for e, v in t.items()}


def _k_addmul(out: dict, t1: dict, t2: dict, K: _Packing) -> dict:
    """out += t1*t2, coefficients left unreduced; t1 should be the shorter.

    Raises OverflowError when the product's total degree exceeds the limit.
    """
    if not t1 or not t2:
        return out
    # the product's leading key is the sum of the leading keys
    if (max(t1) + max(t2)) >> K.tshift > K.limit:
        raise OverflowError("exponent slot overflow")
    get = out.get
    items2 = list(t2.items())
    for e1, c1 in t1.items():
        for e2, c2 in items2:
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    return out


def _k_mul(a: dict, b: dict, K: _Packing) -> dict:
    if len(a) > len(b):
        a, b = b, a
    return _k_reduce(_k_addmul({}, a, b, K), K.mod)


def _k_sub(a: dict, b: dict, K: _Packing) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) - c
    return _k_reduce(out, K.mod)


def _k_dot(us, vs, K: _Packing) -> dict:
    """sum_i us[i] * vs[i]; a pair with an empty operand adds nothing."""
    out = {}
    for a, b in zip(us, vs):
        if a and b:
            _k_addmul(out, *((a, b) if len(a) <= len(b) else (b, a)), K)
    return _k_reduce(out, K.mod)


def _k_derivative(t: dict, j: int, K: _Packing) -> dict:
    sh, mask, unit = (K.n - 1 - j) * K.w, K.mask, K.unit(j)
    out = {}
    for e, c in t.items():
        if k := (e >> sh) & mask:
            out[e - unit] = c * k
    return _k_reduce(out, K.mod) if K.mod else out


def _k_gradients(ts, K: _Packing) -> list:
    return [[_k_derivative(t, j, K) for j in range(K.n)] for t in ts]


def _k_jacobian_rows(d: dict, grad_d, nums, grads, K: _Packing) -> list:
    """Row k is d grad N_k - N_k grad d for packed d and N = nums, given
    grad_d and grads = [grad N_k] (_k_gradients): with H = N / d, JH =
    rows / d^2 for every d, constant or not.  A zero N_k gives a zero row."""
    minus = [{e: -c for e, c in b.items()} for b in grad_d]
    return [
        [_k_dot((a, nk), (d, m), K) for a, m in zip(grad, minus)] if nk else grad
        for nk, grad in zip(nums, grads)
    ]


def _k_divexact(a: dict, b: dict, K: _Packing) -> dict:
    """Exact quotient a/b; NotDivisible when a slot borrows or a remainder is left."""
    if b == {0: 1}:
        return a
    mod = K.mod
    eb = max(b)
    cb = b[eb]
    rest = [(e2, c2) for e2, c2 in b.items() if e2 != eb]
    inv = pow(cb, -1, mod) if mod else None
    rem = dict(a)
    quot = {}
    # the keys of rem on a heap, negated so that the top is the leading one
    # (int order is grlex order); a key cancelled from rem stays on the heap
    # and is skipped when it surfaces
    heap = [-e for e in rem]
    heapq.heapify(heap)
    while heap:
        er = -heapq.heappop(heap)
        cr = rem.pop(er, None)
        if cr is None:
            continue
        e = er - eb
        if e < 0 or e & K.guard:
            raise NotDivisible("leading monomial does not divide")
        if mod:
            c = cr * inv % mod
        else:
            c, leftover = divmod(cr, cb)
            if leftover:
                raise NotDivisible("integer-polynomial division is not exact")
        quot[e] = c
        # the product with b's leading term cancels er, popped above
        for e2, c2 in rest:
            key = e + e2
            acc = rem.get(key)
            if acc is None:
                acc = 0
                heapq.heappush(heap, -key)
            v = acc - c * c2
            if mod:
                v %= mod
            if v:
                rem[key] = v
            else:
                rem.pop(key, None)
    return quot


def _k_deg_in(t: dict, j: int, K: _Packing) -> int:
    sh, mask = (K.n - 1 - j) * K.w, K.mask
    return max((e >> sh) & mask for e in t)


def _k_prem(a: dict, b: dict, j: int, K: _Packing) -> dict:
    """Pseudo-remainder of a by b in x_j, scaled by powers of b's leading
    coefficient, which the callers' primitive parts remove again."""
    db = _k_deg_in(b, j, K)
    if db == 0:
        return {}
    sh, mask, drop = (K.n - 1 - j) * K.w, K.mask, db * K.unit(j)
    lb = {e - drop: c for e, c in b.items() if (e >> sh) & mask == db}
    r = a
    # each step cancels r's x_j^dr coefficient, so dr only goes down
    for dr in range(_k_deg_in(a, j, K), db - 1, -1):
        # minus r's x_j^dr coefficient times x_j^(dr - db)
        lr = {e - drop: -c for e, c in r.items() if (e >> sh) & mask == dr}
        if lr:
            r = _k_reduce(_k_addmul(_k_addmul({}, lb, r, K), lr, b, K), K.mod)
            if not r:
                break
    return r


def _k_content_wrt(t: dict, j: int, K: _Packing) -> dict:
    """gcd of the coefficients of t as a polynomial in x_j."""
    sh, mask, unit = (K.n - 1 - j) * K.w, K.mask, K.unit(j)
    coeffs = {}
    for e, c in t.items():
        k = (e >> sh) & mask
        coeffs.setdefault(k, {})[e - k * unit] = c
    g = None
    for coeff in coeffs.values():
        g = _k_normal(coeff, K.mod) if g is None else _k_gcd(g, coeff, K)
        if g == {0: 1}:
            break
    return g


def _k_primitive_wrt(t: dict, j: int, K: _Packing) -> dict:
    return _k_normal(_k_divexact(t, _k_content_wrt(t, j, K), K), K.mod)


def _k_gcd(a: dict, b: dict, K: _Packing) -> dict:
    """gcd up to a unit, by the primitive PRS with recursive content extraction."""
    a, b = _k_normal(a, K.mod), _k_normal(b, K.mod)
    if a == b:
        return a
    if not max(a) or not max(b):
        return {0: 1}
    # x_j is the variable of the lowest nonzero slot of any key
    used = 0
    for e in (*a, *b):
        used |= e
    used &= (1 << K.tshift) - 1
    j = K.n - 1 - ((used & -used).bit_length() - 1) // K.w
    da, db = _k_deg_in(a, j, K), _k_deg_in(b, j, K)
    if da == 0:
        return _k_gcd(a, _k_content_wrt(b, j, K), K)
    if db == 0:
        return _k_gcd(_k_content_wrt(a, j, K), b, K)
    ca, cb = _k_content_wrt(a, j, K), _k_content_wrt(b, j, K)
    pa, pb = _k_divexact(a, ca, K), _k_divexact(b, cb, K)
    cont_gcd = _k_gcd(ca, cb, K)
    big, small = (pa, pb) if da >= db else (pb, pa)
    ds = min(da, db)
    while True:
        r = _k_prem(big, small, j, K)
        if not r:
            g = _k_primitive_wrt(small, j, K)
            break
        dr = _k_deg_in(r, j, K)
        if dr == 0:
            g = {0: 1}
            break
        # the degree in x_j must fall every round, or the loop never ends
        if dr >= ds:
            raise InternalCheckError("pseudo-remainder did not lower the degree")
        big, small, ds = small, _k_primitive_wrt(r, j, K), dr
    return _k_normal(_k_reduce(_k_addmul({}, cont_gcd, g, K), K.mod), K.mod)


def _prs_gcd(ta: dict, tb: dict, nvars: int, mod: int) -> dict:
    """gcd up to a unit of two tuple-keyed int-coefficient polynomials.

    Coefficients are read in Z (mod 0) or in GF(mod).  A pseudo-remainder
    that outgrows the first slot width (_on_packing) reruns the whole gcd
    at double the width.
    """
    return _on_packing(nvars, mod, [[ta, tb]], lambda K, t: K.unpack(_k_gcd(*t[0], K)))


# -- GF(p) gcds by evaluation and interpolation -----------------------------
#
# Brown, "On Euclid's algorithm and the computation of polynomial greatest
# common divisors", JACM 18 (1971).  _brown views a residue dict in the
# first m variables as a polynomial in x_0..x_{m-2} (the main variables)
# with coefficients in GF(p)[x_{m-1}], takes contents there, and evaluates
# x_{m-1} at points where both leading coefficients survive.  At such a
# point the image of the primitive gcd G keeps its leading main monomial,
# because lc(G) divides both leading coefficients, and divides the gcd of
# the images.  So an image gcd of degree 0 proves G = 1 at once; an image
# whose leading monomial is higher than another's is unlucky and skipped;
# a lower one restarts.  Images scaled by gamma = gcd of the leading
# coefficients are Newton-interpolated in x_{m-1}.  A candidate is tried
# when the interpolant stops changing or has as many points as its degree
# bound needs, and it is returned only if it divides both inputs exactly
# (_k_divexact): a common divisor with the images' leading monomial is the
# gcd, whatever points were drawn.


def _eval_points(p: int):
    """Every residue of GF(p) once: from a fixed start by a fixed step mod p."""
    start, step = _POINT_START % p, _POINT_STEP % p or 1
    return ((start + k * step) % p for k in range(p))


def _uni_content(rows, p: int) -> list:
    """Monic gcd of nonzero dense lists, shortest first, stopping at 1."""
    g = []
    for r in sorted(rows, key=len):
        g = _uni_gcd(r, g, p)
        if len(g) == 1:
            break
    return g


def _k_split(t: dict, m: int, K: _Packing) -> dict:
    """t as {main key: dense ascending coefficients in x_{m-1}}."""
    sh, mask, u = (K.n - m) * K.w, K.mask, K.unit(m - 1)
    rows = {}
    for e, c in t.items():
        k = (e >> sh) & mask
        row = rows.setdefault(e - k * u, [])
        if len(row) <= k:
            row.extend([0] * (k + 1 - len(row)))
        row[k] = c
    return rows


def _k_join(rows: dict, u: int) -> dict:
    """The inverse of _k_split, u the key of x_{m-1}."""
    return {k + i * u: c for k, r in rows.items() for i, c in enumerate(r) if c}


def _k_divides(g: dict, t: dict, K: _Packing) -> bool:
    try:
        _k_divexact(t, g, K)
    except NotDivisible:
        return False
    return True


def _newton(H: dict, img: dict, q: list, alpha: int, p: int) -> bool:
    """Extend the interpolant H, which fits at the roots of q, to take the
    values img at alpha; True if that changed it."""
    inv = pow(_uni_eval(q, alpha, p), -1, p)
    w = [c * inv % p for c in q]
    changed = False
    for k in H.keys() | img.keys():
        r = H.get(k, [])
        if d := (img.get(k, 0) - _uni_eval(r, alpha, p)) % p:
            changed = True
            r = r + [0] * (len(w) - len(r))
            H[k] = [(x + d * y) % p for x, y in zip(r, w)]
    return changed


def _brown(a: dict, b: dict, m: int, K: _Packing):
    """Monic gcd over GF(K.mod) of nonzero residue dicts in the first m
    variables of K, or None when the field runs out of usable points."""
    p, u = K.mod, K.unit(m - 1)
    if not max(a) or not max(b):
        return {0: 1}
    A, B = _k_split(a, m, K), _k_split(b, m, K)
    if m == 1:
        return _k_join({0: _uni_gcd(A[0], B[0], p)}, u)
    if all(len(r) == 1 for r in (*A.values(), *B.values())):
        return _brown(a, b, m - 1, K)
    ca, cb = _uni_content(A.values(), p), _uni_content(B.values(), p)
    if len(ca) > 1:
        A = {k: _uni_divmod(r, ca, p)[0] for k, r in A.items()}
    if len(cb) > 1:
        B = {k: _uni_divmod(r, cb, p)[0] for k, r in B.items()}
    cont = _uni_gcd(ca, cb, p)
    lead_a, lead_b = A[max(A)], B[max(B)]
    gamma = _uni_gcd(lead_a, lead_b, p)
    # deg in x_{m-1} of gamma / lc(G) * G
    bound = len(gamma) + min(max(map(len, A.values())), max(map(len, B.values()))) - 2
    # a divisor has no larger total degree than either input
    dmax = min(max(a), max(b)) >> K.tshift
    best = H = q = None
    for alpha in _eval_points(p):
        if not (_uni_eval(lead_a, alpha, p) and _uni_eval(lead_b, alpha, p)):
            continue
        images = [{k: v for k, r in X.items() if (v := _uni_eval(r, alpha, p))} for X in (A, B)]
        img = _brown(*images, m - 1, K)
        if img is None:
            return None
        top = max(img)
        if not top:
            return _k_join({0: cont}, u)
        if best is not None and top > best:
            continue
        scale = _uni_eval(gamma, alpha, p)
        img = {k: v * scale % p for k, v in img.items()}
        if best is None or top < best:
            best, H, q, changed = top, {k: [v] for k, v in img.items()}, [1], True
        else:
            changed = _newton(H, img, q, alpha, p)
        q = _uni_mul(q, [-alpha % p, 1], p)
        if changed and len(q) <= bound + 1:
            continue
        hc = _uni_content(H.values(), p)
        rows = {k: _uni_mul(_uni_divmod(r, hc, p)[0], cont, p) for k, r in H.items()}
        if any((k >> K.tshift) + len(r) - 1 > dmax for k, r in rows.items()):
            continue
        g = _k_normal(_k_join(rows, u), p)
        if _k_divides(g, a, K) and _k_divides(g, b, K):
            return g
    return None


# Over Z the same argument runs over the primes instead of the points.  A
# prime that divides neither grlex leading coefficient keeps lm(G) for the
# primitive gcd G, whose image divides the image gcd; so an image with a
# higher leading monomial than another prime's is unlucky and a lower one
# restarts, and a degree-0 image gives the candidate 1 at once.  Images
# scaled by gamma = gcd(lc(a), lc(b)), a multiple of lc(G), are
# CRT-combined; the primitive part of the symmetric lift is returned only
# if it divides a and b exactly over Z.  Such a common divisor with the
# leading monomial of an image gcd is G up to sign.


def _crt_gcd(a: dict, b: dict, K: _Packing):
    """Primitive gcd, up to sign, of integer-primitive packed dicts over Z,
    from _brown's images modulo _PRIMES; None when the primes run out."""
    la, lb = a[max(a)], b[max(b)]
    gamma = math.gcd(la, lb)
    best = None
    for p in _PRIMES:
        if not (la % p and lb % p):
            continue
        # at a 61-bit prime _brown never runs out of evaluation points
        img = _brown(_k_reduce(a, p), _k_reduce(b, p), K.n, _Packing(K.n, K.w, p))
        top = max(img)
        if best is not None and top > best:
            continue
        img = {k: v * gamma % p for k, v in img.items()}
        if best is None or top < best:
            best, H, M = top, img, p
        else:
            inv = pow(M, -1, p)
            for k in H.keys() | img.keys():
                h = H.get(k, 0)
                H[k] = h + M * ((img.get(k, 0) - h) * inv % p)
            M *= p
        g = _k_normal({k: v - M if 2 * v > M else v for k, v in H.items() if v}, 0)
        if _k_divides(g, a, K) and _k_divides(g, b, K):
            return g
    return None


def _modular_gcd(ta: dict, tb: dict, nvars: int, mod: int):
    """gcd of two nonconstant tuple-keyed int dicts by _brown, or None: over
    GF(mod) the monic gcd, over Z (mod 0, inputs integer-primitive) _crt_gcd."""

    def run(K, ab):
        g = _brown(*ab[0], nvars, K) if mod else _crt_gcd(*ab[0], K)
        return None if g is None else K.unpack(g)

    return _on_packing(nvars, mod, [[ta, tb]], run)


def _gcd2(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two nonzero polynomials.

    Over QQ a modular certificate answers most coprime pairs first.  Then
    Brown's modular gcd runs: over GF(p) by evaluation, interpolation and
    exact trial division (_brown), over QQ on the cleared integers by
    _brown modulo a few 61-bit primes, CRT and exact trial division over Z
    (_crt_gcd).  The pairs it leaves, when the primes run out or the field
    has too few usable points, go to the packed-monomial PRS.
    """
    ring = a.ring
    if a == b:
        return a.monic()
    if a.is_constant() or b.is_constant():
        return ring.one()
    mod = ring.field.characteristic
    ta, tb = _k_ints([a, b])[1]
    if not mod:
        ta, tb = _k_normal(ta, 0), _k_normal(tb, 0)
        if _coprime_certified(ta, tb, _CERT_PRIME):
            return ring.one()
    g = _modular_gcd(ta, tb, ring.nvars, mod)
    if g is None:
        g = _prs_gcd(ta, tb, ring.nvars, mod)
    return _k_poly(ring, g).monic()


def gcd_many(polys) -> Poly:
    """Monic gcd of a tuple of polynomials of one ring; needs one nonzero
    component."""
    nz = [p for p in polys if not p.is_zero()]
    if not nz:
        raise AllZero("gcd of the all-zero tuple does not exist")
    ring = nz[0].ring
    if any(p.ring is not ring and p.ring != ring for p in polys):
        raise RingMismatch("gcd of polynomials from different rings")
    g = nz[0].monic()
    for p in nz[1:]:
        if g.is_one():
            return g
        g = _gcd2(g, p)
    return g


def poly_lcm(a: Poly, b: Poly) -> Poly:
    a._check(b)
    if a.is_zero() or b.is_zero():
        raise AllZero("lcm with a zero polynomial")
    return (a.divexact(_gcd2(a, b)) * b).monic()


def clear_denominators(fracs):
    """(d, nums): d the monic lcm of the denominators, nums[i] = fracs[i] * d."""
    d = fracs[0].ring.one()
    for c in fracs:
        if not c.den.is_one():
            d = c.den if d.is_one() else poly_lcm(d, c.den)
    return d, [
        c.num if c.den == d or c.num.is_zero()
        else c.num * (d if c.den.is_one() else d.divexact(c.den))
        for c in fracs
    ]


def _k_first_mismatch(gn, gd, den, nums, hs, K: _Packing):
    """The first k with gn * nums[k] * b != a * gd * den for (a, b) = hs[k],
    all packed, or None; a product with an empty factor is empty."""
    rhs = _k_mul(gd, den, K)
    for k, (a, b) in enumerate(hs):
        left = _k_mul(_k_mul(gn, nums[k], K), b, K) if nums[k] else {}
        if left != (_k_mul(a, rhs, K) if a else {}):
            return k
    return None


def first_mismatch(h, g, nums, den: Poly):
    """The first k with h[k] != g * nums[k] / den (den nonzero), or None.

    Decided on the kernel (_k_first_mismatch) as g.num * nums[k] * h[k].den
    = h[k].num * g.den * den; over QQ both sides pick up the cube of the
    one clearing integer.
    """
    m = len(nums)
    group = [g.num, g.den, den, *nums, *(c.num for c in h), *(c.den for c in h)]

    def first(K, packed):
        gn, gd, dk, *rest = packed[0]
        hs = zip(rest[m : 2 * m], rest[2 * m :])
        return _k_first_mismatch(gn, gd, dk, rest[:m], hs, K)

    return on_kernel([group], first)


def cross_equal(a: Poly, b: Poly, c: Poly, d: Poly) -> bool:
    """Whether a*b == c*d, decided on the kernel; over QQ the one clearing
    integer of the four scales both sides alike."""
    group = [a, b, c, d]
    if any(t.ring != a.ring for t in group):
        raise RingMismatch("cross-multiplied polynomials live in different rings")

    def equal(K, packed):
        ka, kb, kc, kd = packed[0]
        return _k_mul(ka, kb, K) == _k_mul(kc, kd, K)

    return on_kernel([group], equal)


def require_transcendental(p: Poly, q: Poly):
    """ConstantRatio unless q != 0 and p/q is not in K: p = 0 or p lc(q) = q lc(p)."""
    if q.is_zero() or p.is_zero() or p.scale(q.lc()) == q.scale(p.lc()):
        raise ConstantRatio("p/q lies in K")


def is_primitive(polys) -> bool:
    """True iff the gcd of the components is a unit.

    In K[x], a GCD-domain and hence a PSP-domain, this certifies
    superprimitivity as well.  The all-zero tuple is not primitive.
    """
    return any(p.terms for p in polys) and gcd_many(polys).is_one()


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
            if not den.is_constant():
                g = _gcd2(num, den)
                if not g.is_one():
                    num, den = num.divexact(g), den.divexact(g)
            num, den = _monic_den(num, den)
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
            return RatFunc(*_monic_den(self.den ** -n, self.num ** -n), _reduced=True)
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


def _monic_den(num: Poly, den: Poly):
    """(num, den) both over lc(den), so that den is monic."""
    one = den.ring.field.one()
    c = den.lc()
    if c == one:
        return num, den
    inv = one / c
    return num.scale(inv), den.scale(inv)


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


def primitive_part(h: RatMap):
    """Decompose h = g * core with core a primitive polynomial tuple.

    Clears denominators by their lcm, then divides out the gcd of the
    resulting numerator tuple; g collects both factors.
    """
    if h.is_zero():
        raise ZeroMap("the zero map has no primitive part")
    d, nums = clear_denominators(h.comps)
    g, core = _split_content(nums)
    return RatFunc(g, d), core


def _split_content(nums, with_g=True):
    """(g, nums / g) for g the monic gcd of nums, which has a nonzero entry.

    A lone nonzero entry N needs no gcd and no division: nums / monic(N) is
    the constant lc(N).  There g is monic(N), a division of its own, which
    with_g=False skips (g is then None) for callers that keep only the core.
    """
    nz = [n for n in nums if n.terms]
    if len(nz) != 1:
        g = gcd_many(nz)
        return g, tuple(n.divexact(g) if n.terms else n for n in nums)
    g = nz[0].monic() if with_g else None
    return g, tuple(n.ring.const(n.lc()) if n.terms else n for n in nums)


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


def _k_powers(t: dict, m: int, K: _Packing) -> list:
    table = [{0: 1}, t][: m + 1]
    while len(table) <= m:
        table.append(_k_mul(table[-1], t, K))
    return table


def _k_maxes(ints, n: int) -> list:
    """M_i, the highest exponent of y_i in the tuple-keyed dicts ints, for i < n."""
    exps = [e for c in ints for e in c]
    return [max((e[i] for e in exps), default=0) for i in range(n)]


def _k_substitute(ints, maxes, nums: dict, dens: dict, s: int, K: _Packing) -> list:
    """Packed sum_e c_e prod_i n_i^e_i d_i^(M_i - e_i) for each tuple-keyed
    int dict sum_e c_e y^e of ints, reduced.  M_i = maxes[i] bounds every
    e_i.  nums maps every i that occurs (others may be there too) to its
    packed n_i, and dens likewise to d_i, on one scale s (1 over GF(p));
    an i missing from dens has d_i = 1, which becomes the integer top-up
    s^(M_i - e_i), so every term carries s^(sum M)."""
    ntab = {i: _k_powers(n, maxes[i], K) for i, n in nums.items()}
    dtab = {i: _k_powers(d, maxes[i], K) for i, d in dens.items()}
    out = []
    for c in ints:
        total = {}
        for e, coeff in c.items():
            top, factors = 0, []
            for i in ntab:
                k, m = e[i], maxes[i]
                if k:
                    factors.append(ntab[i][k])
                if i not in dtab:
                    top += m - k
                elif k < m:
                    factors.append(dtab[i][m - k])
            head = {0: coeff * s**top}
            for f in factors[:-1]:
                head = _k_mul(head, f, K)
            _k_addmul(total, head, factors[-1] if factors else {0: 1}, K)
        out.append(_k_reduce(total, K.mod))
    return out


def _substitute(polys, nums, dens, target: PolyRing) -> list:
    """sum_e c_e prod_i n_i^e_i d_i^(M_i - e_i) for each poly sum_e c_e y^e.

    The images n_i, d_i are Polys in target, d_i None for 1, and M_i is the
    highest e_i over all the polys, so all results share each power of d_i.
    A term has degree M_i in (n_i, d_i), so over QQ the one integer s
    clearing all images scales every term by s^(sum M); a d_i of 1 becomes
    s, an integer top-up by s^(M_i - e_i).  The polys are cleared by one
    integer t; the results are divided by t*s^(sum M).  The term loop is
    _k_substitute, on one packing.
    """
    if target.field != polys[0].ring.field:
        raise RingMismatch("composition cannot change the coefficient field")
    t, ints = _k_ints(polys)
    maxes = _k_maxes(ints, len(nums))
    used = [i for i, m in enumerate(maxes) if m]
    with_den = [i for i in used if dens[i] is not None]
    group = [*(nums[i] for i in used), *(dens[i] for i in with_den)]
    if any(p.ring != target for p in group):
        raise RingMismatch("substitution images must lie in the target ring")
    s, image_ints = _k_ints(group)
    scale = t * s ** sum(maxes)

    def run(K, packed):
        images = iter(packed[0])
        knums = {i: next(images) for i in used}
        kdens = {i: next(images) for i in with_den}
        return [
            _k_poly(target, K.unpack(r), scale)
            for r in _k_substitute(ints, maxes, knums, kdens, s, K)
        ]

    return _on_packing(target.nvars, target.field.characteristic, [image_ints], run)


def compose_poly(a: Poly, images, target: PolyRing) -> Poly:
    """a with variable i replaced by the polynomial images[i]."""
    return _substitute([a], images, [None] * len(images), target)[0]


def compose_poly_ratfunc(a: Poly, images, target: PolyRing) -> RatFunc:
    """a with variable i replaced by the rational function images[i].

    Runs over a common denominator so that only one final reduction is
    needed: with images n_i/d_i and M_i the highest power of variable i
    in a, which _substitute reads from a, the result is
    (sum_e c_e prod n_i^{e_i} d_i^{M_i-e_i}) / prod d_i^{M_i}.
    """
    images = [_as_ratfunc(img, target) for img in images]
    nums = [img.num for img in images]
    dens = [None if img.den.is_one() else img.den for img in images]
    # the constant 1 substitutes to the denominator prod d_i^M_i
    return RatFunc(*_substitute([a, a.ring.one()], nums, dens, target))


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
    if f.is_zero():
        return p.ring.zero()
    if (d := f.total_degree()) > s:
        raise ValueError("clearing exponent smaller than the degree")
    return _substitute([f], [p], [q], p.ring)[0] * q ** (s - d)


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
