"""Shared random generators and independent oracles for the test suite.

Random instances use explicitly seeded random.Random objects so every run
is reproducible.  The oracles here (numeric resultants via Sylvester
determinants, interpolation derivatives) deliberately avoid the library
code paths they are used to check.
"""

import random
from fractions import Fraction

from ratmaps.polyring import Poly, RatFunc, is_primitive


def random_poly(rng, ring, max_deg=3, n_terms=4, nonzero=False):
    n = ring.nvars
    while True:
        terms = {}
        for _ in range(n_terms):
            e = [0] * n
            for _ in range(rng.randint(0, max_deg)):
                e[rng.randrange(n)] += 1
            c = rng.randint(-4, 4)
            key = tuple(e)
            if c:
                acc = terms.get(key, ring.field.zero())
                terms[key] = acc + ring.field.from_int(c)
        p = Poly(ring, {e: c for e, c in terms.items() if c})
        if not nonzero or not p.is_zero():
            return p


def random_nonzero_poly(rng, ring, max_deg=3, n_terms=4):
    return random_poly(rng, ring, max_deg, n_terms, nonzero=True)


def random_coprime_pair(rng, ring, max_deg=3, n_terms=3):
    """A pair with unit gcd, not both constant.

    Each accepted pair is confirmed by the resultant oracle, whose points
    come from their own generator so that rng's stream is unchanged.
    """
    while True:
        p = random_poly(rng, ring, max_deg, n_terms)
        q = random_poly(rng, ring, max_deg, n_terms)
        if p.is_zero() and q.is_zero():
            continue
        if p.is_constant() and q.is_constant():
            continue
        if is_primitive([p, q]):
            assert certify_coprime_by_resultant(p, q, seeded(-1)), (p, q)
            return p, q


def random_ratfunc(rng, ring, max_deg=3, n_terms=3):
    num = random_poly(rng, ring, max_deg, n_terms)
    den = random_poly(rng, ring, max_deg, n_terms, nonzero=True)
    return RatFunc(num, den)


def random_homog_poly(rng, ring, s, n_terms=3, nonzero=False):
    """A homogeneous bivariate polynomial of degree s (possibly zero)."""
    while True:
        terms = {}
        for _ in range(n_terms):
            a = rng.randint(0, s)
            c = rng.randint(-3, 3)
            if c:
                key = (a, s - a)
                acc = terms.get(key, ring.field.zero())
                terms[key] = acc + ring.field.from_int(c)
        p = Poly(ring, {e: c for e, c in terms.items() if c})
        if not nonzero or not p.is_zero():
            return p


# -- independent oracles -------------------------------------------------


def fraction_det(rows):
    """Determinant over the rationals by plain Gaussian elimination."""
    n = len(rows)
    m = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if m[r][c]:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def uni_coeffs(p, var=0):
    """Dense coefficient list (ascending) of a polynomial univariate in var."""
    d = p.degree_in(var)
    out = [Fraction(0)] * (d + 1)
    for e, c in p.terms.items():
        out[e[var]] += c
    return out


def sylvester_resultant_qq(a_coeffs, b_coeffs):
    """Resultant of two univariate rational polynomials via the Sylvester matrix."""
    while a_coeffs and a_coeffs[-1] == 0:
        a_coeffs = a_coeffs[:-1]
    while b_coeffs and b_coeffs[-1] == 0:
        b_coeffs = b_coeffs[:-1]
    da, db = len(a_coeffs) - 1, len(b_coeffs) - 1
    if da < 0 or db < 0:
        return Fraction(0)
    if da == 0:
        return a_coeffs[0] ** db
    if db == 0:
        return b_coeffs[0] ** da
    size = da + db
    rows = []
    rev_a = a_coeffs[::-1]
    rev_b = b_coeffs[::-1]
    for i in range(db):
        rows.append([Fraction(0)] * i + rev_a + [Fraction(0)] * (size - i - da - 1))
    for i in range(da):
        rows.append([Fraction(0)] * i + rev_b + [Fraction(0)] * (size - i - db - 1))
    return fraction_det(rows)


def certify_coprime_by_resultant(a, b, rng, attempts=8):
    """Certify gcd(a, b) constant: nonzero evaluated resultants suffice.

    For every variable v in which both inputs have positive degree, all
    other variables are evaluated at random rational points that keep both
    v-leading coefficients alive, and the univariate resultant in v is
    computed over the rationals.  A nonzero value proves that the gcd has
    degree 0 in v: its v-leading coefficient divides theirs, so its image
    keeps its degree and divides both images.  The gcd is constant when
    this holds for every such v.
    """
    ring = a.ring
    if a.is_zero() or b.is_zero():
        return False

    def evaluated(p, v, point):
        coeffs = [Fraction(0)] * (p.degree_in(v) + 1)
        for e, c in p.terms.items():
            t = Fraction(c)
            for i, k in enumerate(e):
                if i != v:
                    t *= point[i] ** k
            coeffs[e[v]] += t
        return coeffs

    for v in range(ring.nvars):
        if a.degree_in(v) == 0 or b.degree_in(v) == 0:
            continue
        for _ in range(attempts):
            point = [Fraction(rng.randint(1, 19), rng.randint(1, 7)) for _ in range(ring.nvars)]
            ac, bc = evaluated(a, v, point), evaluated(b, v, point)
            if ac[-1] and bc[-1] and sylvester_resultant_qq(ac, bc) != 0:
                break
        else:
            return False
    return True


def lagrange_derivative_at_zero(values, nodes):
    """g'(0) from exact samples g(nodes[k]) of a polynomial of matching degree."""
    total = Fraction(0)
    for k, (sk, gk) in enumerate(zip(nodes, values)):
        prod = Fraction(1)
        dsum = Fraction(0)
        for i, si in enumerate(nodes):
            if i == k:
                continue
            prod *= Fraction(0 - si) / (sk - si)
            dsum += Fraction(1) / (0 - si)
        total += gk * prod * dsum
    return total


def seeded(n=0):
    return random.Random(20240 + n)
