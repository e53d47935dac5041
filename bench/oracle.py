"""Independent reference arithmetic for building and checking benchmark inputs.

Nothing here imports ratmaps.  Polynomials are plain dicts from exponent
tuples to nonzero coefficients.  ``mod`` selects the coefficient field:
``None`` means the rationals (ints or Fractions), a prime means GF(mod) with
residues kept in 0..mod-1.  The gcd certificate is one-sided: it proves that
a tuple of bivariate polynomials has a constant gcd, and a failure to prove
it is reported as such, never as "not coprime".
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# the Mersenne prime 2^61 - 1: integer certificates are reduced modulo it
CERT_PRIME = (1 << 61) - 1


def norm(c, mod):
    return c % mod if mod else c


def clean(terms: dict, mod) -> dict:
    out = {}
    for e, c in terms.items():
        c = norm(c, mod)
        if c:
            out[e] = c
    return out


def add(a: dict, b: dict, mod, sign=1) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + sign * c
        v = norm(v, mod)
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def mul(a: dict, b: dict, mod) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return clean(out, mod)


def power(a: dict, n: int, nvars: int, mod) -> dict:
    out = {(0,) * nvars: 1}
    for _ in range(n):
        out = mul(out, a, mod)
    return out


def compose_bivariate(c: dict, p: dict, q: dict, nvars: int, mod) -> dict:
    """c(p, q) for a polynomial c in two variables."""
    out = {}
    for (i, j), coeff in c.items():
        term = mul(power(p, i, nvars, mod), power(q, j, nvars, mod), mod)
        out = add(out, {e: coeff * v for e, v in term.items()}, mod)
    return out


def compose_univariate_at_ratio(f: dict, p: dict, q: dict, s: int, nvars: int, mod):
    """q^s f(p/q) = sum c_j p^j q^(s-j) for univariate f with deg f <= s."""
    out = {}
    for (j,), coeff in f.items():
        term = mul(power(p, j, nvars, mod), power(q, s - j, nvars, mod), mod)
        out = add(out, {e: coeff * v for e, v in term.items()}, mod)
    return out


def grlex(e):
    """Graded lexicographic sort key, the order ratmaps prints and normalises by."""
    return (sum(e), e)


def leading(a: dict):
    e = max(a, key=grlex)
    return e, a[e]


def _inverse(c, mod):
    return pow(c, -1, mod) if mod else 1 / Fraction(c)


def integral(a: dict) -> dict:
    """A rational polynomial scaled by a nonzero constant to integer coefficients."""
    den = 1
    for c in a.values():
        d = Fraction(c).denominator
        den = den * d // gcd(den, d)
    return {e: int(c * den) for e, c in a.items()}


def divide_exact(a: dict, b: dict, mod):
    """The quotient a / b when b divides a exactly, else None."""
    if not b:
        return None
    eb, cb = leading(b)
    inv = _inverse(cb, mod)
    rem = dict(a)
    quot = {}
    while rem:
        er, cr = leading(rem)
        e = tuple(x - y for x, y in zip(er, eb))
        if any(k < 0 for k in e):
            return None
        c = norm(cr * inv, mod)
        quot[e] = c
        rem = add(rem, mul({e: c}, b, mod), mod, sign=-1)
    return quot


def degree_in(a: dict, v: int) -> int:
    return max((e[v] for e in a), default=0)


def _specialize(a: dict, v: int, point, mod) -> list:
    """Dense ascending coefficients in variable v, the other variable at point."""
    coeffs = [0] * (degree_in(a, v) + 1)
    w = 1 - v
    for e, c in a.items():
        coeffs[e[v]] += c * point ** e[w]
    return [norm(c, mod) for c in coeffs]


def _uni_gcd_degree(a: list, b: list, p: int) -> int:
    """Degree of gcd(a, b) over GF(p) for dense ascending coefficient lists."""

    def trim(x):
        x = [c % p for c in x]
        while x and x[-1] == 0:
            x.pop()
        return x

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            f = a[-1] * inv % p
            shift = len(a) - len(b)
            for k, c in enumerate(b):
                a[shift + k] = (a[shift + k] - f * c) % p
            a = trim(a)
            if not a:
                break
        a, b = b, a
    return len(a) - 1


def _pair_coprime(a: dict, b: dict, rng, mod, attempts: int) -> bool:
    """Certify that bivariate a, b (both nonzero) share no nonconstant factor.

    A common factor of positive degree in variable v survives specializing
    the other variable at any point that keeps both leading coefficients in
    v nonzero.  So a constant gcd of the specializations in each variable
    proves a constant gcd.  Over the rationals the integer specializations
    are compared modulo CERT_PRIME: a constant gcd there means a nonzero
    resultant modulo CERT_PRIME, hence a nonzero resultant over the integers.
    """
    field_p = mod or CERT_PRIME
    for v in (0, 1):
        if degree_in(a, v) == 0 or degree_in(b, v) == 0:
            continue
        for _ in range(attempts):
            point = rng.randrange(1, mod) if mod else rng.randrange(1, 1 << 30)
            sa = _specialize(a, v, point, mod)
            sb = _specialize(b, v, point, mod)
            # leading coefficients must survive exactly, and modulo the
            # certificate prime so that degrees are kept there as well
            if sa[-1] % field_p == 0 or sb[-1] % field_p == 0:
                continue
            if _uni_gcd_degree(sa, sb, field_p) == 0:
                break
        else:
            return False
    return True


def certify_constant_gcd(polys, rng, mod, attempts: int = 6) -> bool:
    """True only if the gcd of the bivariate tuple is provably a nonzero constant.

    A tuple with more than two nonzero entries is reduced to a pair: its
    first entry against a random combination of the rest, which has the
    same gcd with the first entry unless the multipliers are unlucky (then
    the certificate fails and the next attempt redraws them).
    """
    nz = [c if mod else integral(c) for c in polys if c]
    if not nz:
        return False
    if any(all(k == 0 for e in c for k in e) for c in nz):
        return True
    if len(nz) == 1:
        return False
    first, rest = nz[0], nz[1:]
    for _ in range(attempts):
        combo = {}
        for c in rest:
            r = rng.randrange(1, mod) if mod else rng.randrange(1, 1 << 20)
            combo = add(combo, {e: r * v for e, v in c.items()}, mod)
        if combo and _pair_coprime(first, combo, rng, mod, attempts):
            return True
    return False
