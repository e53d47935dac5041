"""Shared random generators and independent references for the test suite.

Random instances use explicitly seeded random.Random objects so every run
is reproducible.  Each reference reaches a library routine's answer by
another path, so a fault in that routine does not show on both sides of
its differential test:

- the classification's rules (the trace identity, nilpotency, the witness
  identities, Jacobian ranks) and the substitutions, memberships and
  dependences under them are written from their definitions on
  tests/refalg.py, which imports nothing from ratmaps; library values cross
  as plain dicts (plain);
- gcd, exact division, elimination over a field, root finding and parsing
  are the simpler algorithms the library replaced: a primitive PRS on Poly
  arithmetic, rescanning division, Gauss-Jordan on field elements, residue
  scans and the rational-root theorem, and a parser that builds a tree on
  the library's token pattern;
- numeric resultants via Sylvester determinants certify coprimality, and
  interpolation derivatives check derivatives.

Two fixtures probe how much work the kernel does: packings records the slot
width of every packing, and spy the arguments of every call of a routine.
"""

import itertools
import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

import refalg
from ratmaps import polyring
from ratmaps.errors import NotDivisible, ParseError, UnknownVariable
from ratmaps.expressions import _TOKEN, MAX_NESTING
from ratmaps.fields import Fp, QQ
from ratmaps.homog import HomogTuple, bi_ring, uni_ring
from ratmaps.polyring import (
    Poly,
    PolyRing,
    RatFunc,
    RatMap,
    eval_univar_at_ratio,
    is_primitive,
    relabel,
)
from ratmaps.records import FrozenRecord
from ratmaps.subfield import DependenceSearch


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


def random_square_map(rng, ring):
    """n components in n variables over ring's field, in the shapes the
    trace identity must handle: zero maps, maps (0, ..., 0, H_n) (always
    quasi-translations), maps whose components only involve variables
    where H vanishes (JH.H = 0), and mixtures of zero, constant, polynomial
    and rational components with shared or distinct denominators."""
    n = ring.nvars
    zero = RatFunc.from_poly(ring.zero())
    shape = rng.randrange(8)
    if shape == 0:
        return RatMap([zero] * n)
    if shape == 1:
        return RatMap([zero] * (n - 1) + [random_ratfunc(rng, ring)])
    if shape == 2:
        dead = [i for i in range(n) if rng.random() < 0.5] or [n - 1]

        def in_dead(p):
            """The terms of p in the dead variables only."""
            live = [i for i in range(n) if i not in dead]
            return Poly(ring, {e: c for e, c in p.terms.items() if not any(e[i] for i in live)})

        comps = []
        for k in range(n):
            if k in dead:
                comps.append(zero)
                continue
            num = in_dead(random_poly(rng, ring, 3, 3))
            den = in_dead(random_nonzero_poly(rng, ring, 2, 2))
            comps.append(RatFunc(num, ring.one() if den.is_zero() else den))
        return RatMap(comps)
    shared = random_nonzero_poly(rng, ring, 2, 2)
    comps = []
    for _ in range(n):
        kind = rng.randrange(6)
        if kind == 0:
            comps.append(zero)
        elif kind == 1:
            comps.append(RatFunc.from_poly(ring.const(rng.randint(-3, 3))))
        elif kind == 2:
            comps.append(RatFunc.from_poly(random_poly(rng, ring, 3, 3)))
        elif kind == 3:
            comps.append(random_ratfunc(rng, ring, 2, 3))
        else:
            comps.append(RatFunc(random_poly(rng, ring, 2, 3), shared))
        if ring.field == QQ and rng.random() < 0.3:
            c = Fraction(rng.randint(1, 5), rng.randint(2, 7))
            comps[-1] = RatFunc(comps[-1].num.scale(c), comps[-1].den)
    return RatMap(comps)


def random_cond45_case(rng, ring):
    """(H, g, p, q, fs, s) for the witness identity H = g * f(p/q): half of
    the maps are built from the witness (some with a component planted
    wrong), half are unrelated random maps."""
    n = ring.nvars
    yring = uni_ring(ring.field)
    fs = [random_poly(rng, yring, 2, 3) if rng.random() < 0.7 else yring.zero()
          for _ in range(n)]
    p = random_poly(rng, ring, 2, 2)
    q = random_nonzero_poly(rng, ring, 1, 2)
    g = random_ratfunc(rng, ring, 1, 2)
    if ring.field == QQ and rng.random() < 0.5:
        fs = [f.scale(Fraction(1, rng.randint(2, 5))) for f in fs]
    degs = [f.total_degree() for f in fs if not f.is_zero()]
    s = int(max(degs)) if degs else 0
    if rng.random() < 0.5:
        qs = RatFunc.from_poly(q**s)
        comps = [g * (RatFunc.from_poly(eval_univar_at_ratio(f, p, q, s)) / qs) for f in fs]
        if rng.random() < 0.3:
            k = rng.randrange(n)
            comps[k] = comps[k] + RatFunc.from_poly(ring.one())
        h = RatMap(comps)
    else:
        h = RatMap([random_ratfunc(rng, ring, 2, 2) for _ in range(n)])
    return h, g, p, q, tuple(fs), s


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


# -- reference gcd: the generic primitive PRS on Poly arithmetic ---------
#
# Field-agnostic (only +, -, *, reference_divexact and monic), so it checks
# the library's gcd kernels over QQ and GF(p) alike.  It is the path the
# library ran over GF(p) before those kernels, kept here as the oracle.


def reference_divexact(a: Poly, b: Poly) -> Poly:
    """Exact division that rescans the remainder for its grlex-leading term
    at every step; raises NotDivisible as Poly.divexact does."""
    eb = max(b.terms, key=lambda e: (sum(e), e))
    cb = b.terms[eb]
    rem, quot = dict(a.terms), {}
    while rem:
        er = max(rem, key=lambda e: (sum(e), e))
        e = tuple(x - y for x, y in zip(er, eb))
        if any(k < 0 for k in e):
            raise NotDivisible("leading monomial does not divide")
        quot[e] = c = rem[er] / cb
        for e2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(e, e2))
            v = rem.get(key, a.ring.field.zero()) - c * c2
            if v:
                rem[key] = v
            else:
                rem.pop(key, None)
    return Poly(a.ring, quot)


def reference_k_divexact(a: dict, b: dict, K) -> dict:
    """Exact division of packed int dicts that rescans the remainder for its
    leading key (max) at every step; raises NotDivisible as
    polyring._k_divexact does, on a slot borrow, a remainder left over or
    an inexact integer step over Z."""
    if b == {0: 1}:
        return a
    mod = K.mod
    eb = max(b)
    cb = b[eb]
    inv = pow(cb, -1, mod) if mod else None
    rem = dict(a)
    quot = {}
    while rem:
        er = max(rem)
        e = er - eb
        if e < 0 or e & K.guard:
            raise NotDivisible("leading monomial does not divide")
        if mod:
            c = rem[er] * inv % mod
        else:
            c, leftover = divmod(rem[er], cb)
            if leftover:
                raise NotDivisible("integer-polynomial division is not exact")
        quot[e] = c
        for e2, c2 in b.items():
            key = e + e2
            v = rem.get(key, 0) - c * c2
            if mod:
                v %= mod
            if v:
                rem[key] = v
            else:
                rem.pop(key, None)
    return quot


def reference_prem(a, b, j):
    """Pseudo-remainder of a by b in variable j, scaled by b's leading
    coefficient at every step; the callers take primitive parts afterwards."""
    db = b.degree_in(j)
    if db == 0:
        return a.ring.zero()
    lb = b.coeffs_wrt(j)[db]
    r = a
    while not r.is_zero():
        dr = r.degree_in(j)
        if dr < db:
            break
        lr = r.coeffs_wrt(j)[dr]
        r = lb * r - lr * a.ring.var(j) ** (dr - db) * b
    return r


def _reference_content_wrt(a, j):
    return reference_gcd_many(list(a.coeffs_wrt(j).values()))


def _reference_primitive_wrt(a, j):
    return reference_divexact(a, _reference_content_wrt(a, j)).monic()


def reference_gcd2(a, b):
    """Monic gcd of two nonzero polynomials by the primitive PRS with
    recursive content extraction, variable by variable."""
    ring = a.ring
    if a == b:
        return a.monic()
    if a.is_constant() or b.is_constant():
        return ring.one()
    j = max(i for p in (a, b) for e in p.terms for i, k in enumerate(e) if k)
    da, db = a.degree_in(j), b.degree_in(j)
    if da == 0:
        return reference_gcd2(a, _reference_content_wrt(b, j))
    if db == 0:
        return reference_gcd2(_reference_content_wrt(a, j), b)
    ca, cb = _reference_content_wrt(a, j), _reference_content_wrt(b, j)
    pa, pb = reference_divexact(a, ca), reference_divexact(b, cb)
    cont_gcd = reference_gcd2(ca, cb)
    big, small = (pa, pb) if da >= db else (pb, pa)
    while True:
        r = reference_prem(big, small, j)
        if r.is_zero():
            g = _reference_primitive_wrt(small, j)
            break
        if r.degree_in(j) == 0:
            g = ring.one()
            break
        big, small = small, _reference_primitive_wrt(r, j)
    return (cont_gcd * g).monic()


def reference_gcd_many(polys):
    """Monic gcd of a tuple with at least one nonzero component."""
    nz = [p for p in polys if not p.is_zero()]
    g = nz[0].monic()
    for p in nz[1:]:
        if g.is_one():
            break
        g = reference_gcd2(g, p)
    return g


def _reference_primitive(polys) -> bool:
    nz = [f for f in polys if not f.is_zero()]
    return bool(nz) and reference_gcd_many(nz).is_one()


# -- reference elimination: Gauss-Jordan on field elements ------------------
#
# The library eliminates fraction free on cleared ints; these are the
# Fraction and Fp routines it replaced, unchanged.


def reference_echelonize(rows, field):
    """In-place row reduction; returns the list of pivot column indices."""
    if not rows:
        return []
    ncols = len(rows[0])
    zero = field.zero()
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.one() / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def reference_field_rank(rows, field) -> int:
    work = [list(r) for r in rows]
    return len(reference_echelonize(work, field))


def reference_field_solve(rows, rhs, field):
    """One solution of A x = b over the field, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    work = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = reference_echelonize(work, field)
    zero = field.zero()
    if ncols in pivots:  # pivot in the augmented column: inconsistent
        return None
    sol = [zero] * ncols
    for r, c in enumerate(pivots):
        sol[c] = work[r][ncols]
    return sol


def reference_field_nullspace(rows, ncols, field):
    """A basis of the nullspace of A, as a list of length-ncols vectors."""
    work = [list(r) for r in rows]
    pivots = reference_echelonize(work, field)
    zero, one = field.zero(), field.one()
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, c in enumerate(pivots):
            vec[c] = -work[r][fc]
        basis.append(vec)
    return basis


def reference_independent_subset(vectors, field):
    """Greedy scan: keep each vector that raises the rank of those kept."""
    kept, chosen = [], []
    for idx, v in enumerate(vectors):
        if reference_field_rank(kept + [v], field) > len(kept):
            kept.append(v)
            chosen.append(idx)
    return chosen


# -- references on tests/refalg.py -------------------------------------------
#
# One reference per rule, each written from the rule's definition on the
# plain dict polynomials of tests/refalg.py, which imports nothing from
# ratmaps.  Library values cross as plain(p); results come back through
# ring.poly.  Primitivity preconditions take reference_gcd_many.


def plain(p) -> dict:
    """The terms of a Poly as a refalg polynomial: Fractions over QQ,
    residues over GF(p)."""
    return {e: getattr(c, "v", c) for e, c in p.terms.items()}


def _mod(ring) -> int:
    return ring.field.characteristic


def _maxes(ts, k) -> list:
    """The highest exponent of each of k variables over the dicts ts."""
    return [max((e[i] for t in ts for e in t), default=0) for i in range(k)]


def reference_substitute(polys, nums, dens, maxes, target) -> list:
    """Each poly at y_i = nums[i] / dens[i] (None for 1), times
    prod_i dens[i]^maxes[i], as Polys of target (refalg.substitute); maxes
    None reads M_i as the highest exponent of y_i over the polys."""
    ts = [plain(a) for a in polys]
    ns = [plain(t) for t in nums]
    ds = [None if d is None else plain(d) for d in dens]
    maxes = _maxes(ts, len(nums)) if maxes is None else maxes
    mod, n = _mod(target), target.nvars
    return [target.poly(refalg.substitute(t, ns, ds, maxes, n, mod)) for t in ts]


def same_ratio(rf, num, den) -> bool:
    """Whether the RatFunc rf equals num / den: rf.num den = rf.den num."""
    mod = _mod(rf.ring)
    return refalg.mul(plain(rf.num), plain(den), mod) == refalg.mul(plain(rf.den), plain(num), mod)


def _cleared_map(h):
    """(D, N) for the RatMap h as refalg dicts: D the product of its
    distinct denominators, N_k = H_k D."""
    mod, d, dens = _mod(h.ring), refalg.one(h.ring.nvars), []
    for c in h.comps:
        if plain(c.den) not in dens:
            dens.append(plain(c.den))
            d = refalg.mul(d, dens[-1], mod)
    nums = [refalg.mul(plain(c.num), refalg.divexact(d, plain(c.den), mod), mod) for c in h.comps]
    return d, nums


def reference_trace_sides(cleared, rank=False):
    """(JH . H = tr JH . H, JH . H = 0) for H = N / D, cleared = (D, N) as
    Polys (refalg.trace_sides).  With rank, also trdeg K(tH) over QQ (None
    over GF(p)) as the rank of [m | N] for the quotient-rule rows m: D^2
    times row k of J(tH) over (x, t) is [t m_k, D N_k], and scaling
    columns by t and by D keeps the rank."""
    mod = _mod(cleared[0].ring)
    d, nums = plain(cleared[0]), [plain(t) for t in cleared[1]]
    sides = refalg.trace_sides(d, nums, mod)
    if not rank:
        return sides
    m = refalg.jacobian_rows(d, nums, len(nums), mod)
    return (*sides, None if mod else refalg.rank([[*r, nk] for r, nk in zip(m, nums)], 0))


def reference_trace_conditions(h):
    """reference_trace_sides of the RatMap h, cleared by _cleared_map."""
    return refalg.trace_sides(*_cleared_map(h), _mod(h.ring))


def reference_nilpotent(h) -> bool:
    """Whether (JH)^n = 0 for the RatMap h = N / D (_cleared_map): JH is
    m / D^2 for the quotient-rule rows m."""
    mod, (d, nums) = _mod(h.ring), _cleared_map(h)
    return refalg.nilpotent(refalg.jacobian_rows(d, nums, len(nums), mod), mod)


def reference_rank(rows) -> int:
    """The rank of a Poly matrix, the size of its largest nonzero minor."""
    if not rows or not rows[0]:
        return 0
    return refalg.rank([[plain(t) for t in row] for row in rows], _mod(rows[0][0].ring))


def reference_trdeg_rank(h, with_t) -> int:
    """trdeg K(H), or K(tH), as the rank of the Jacobian over x, or (x, t)
    (characteristic zero): row k is D_k^2 times the gradient of
    H_k = N_k / D_k, and for tH the x columns divided by t and N_k D_k in
    the t column."""
    rows = []
    for c in h.comps:
        num, den = plain(c.num), plain(c.den)
        row = refalg.jacobian_rows(den, [num], h.ring.nvars, 0)[0]
        rows.append([*row, refalg.mul(num, den, 0)] if with_t else row)
    return refalg.rank(rows, 0)


def reference_first_mismatch(h, g, F, F1):
    """The first k with H_k != g F_k / F1, or None: cross-multiplied with
    the reduced H_k, g.num F_k H_k.den = H_k.num g.den F1."""
    mod = _mod(h.ring)

    def prod(*ts):
        out = refalg.one(h.ring.nvars)
        for t in ts:
            out = refalg.mul(out, plain(t), mod)
        return out

    return next(
        (k for k, c in enumerate(h.comps) if prod(g.num, F[k], c.den) != prod(c.num, g.den, F1)),
        None,
    )


def reference_annihilates(fs, p, q) -> bool:
    """Jp . f = Jq . f = 0: sum_j (d p / d x_j) c_j = 0 for every
    coefficient vector c of f, and the same for q."""
    mod, n = _mod(p.ring), p.ring.nvars
    coeffs = [plain(f) for f in fs]
    for t in (plain(p), plain(q)):
        grad = [refalg.derivative(t, j, mod) for j in range(n)]
        for e in {e for f in coeffs for e in f}:
            if refalg.total((refalg.scale(g, f.get(e, 0), mod) for g, f in zip(grad, coeffs)), mod):
                return False
    return True


def reference_verify_witness(h_map, w):
    """(verified, reason) for a cond3, cond4 or cond5 witness: the
    preconditions in gn_classify's order, then F and F(1) by one
    substitution of the blocks and 1 (h(p, q) and 1, or q^s f(p/q) and
    q^s), H = g F / F(1) (reference_first_mismatch), and J(F) . F = 0 for
    cond3 or Jp . f = Jq . f = 0 for cond4 and cond5."""
    m, ring = h_map.m, h_map.ring
    c = ring.field.characteristic
    if w.kind == "cond3":
        if not _reference_primitive([w.p, w.q]):
            return False, "gcd(p, q) is not a unit"
        if w.h is not None and not isinstance(w.h, HomogTuple):
            return False, "h must be a HomogTuple or None"
        blocks = [bi_ring(ring.field).zero()] * m if w.h is None else w.h.polys
        if len(blocks) != m:
            return False, "h has the wrong number of components"
        if w.h is not None and w.h.degree > 0 and c > 0 and w.h.degree % c == 0:
            return False, "characteristic divides deg h"
        images, dens, shape = [w.p, w.q], [None, None], "h(p,q)"
    elif w.kind in ("cond4", "cond5"):
        blocks = tuple(w.f) if w.f is not None else ()
        if len(blocks) != m:
            return False, "f is missing or has the wrong number of components"
        if w.q.is_zero():
            return False, "q is zero, f(p/q) undefined"
        if w.kind == "cond5" and not _reference_primitive(blocks):
            return False, "gcd of the components of f is not a unit"
        if w.kind == "cond5" and not _reference_primitive([w.p, w.q]):
            return False, "gcd(p, q) is not a unit"
        images, dens, shape = [w.p], [w.q], "f(p/q)"
    else:
        return False, f"unknown witness kind {w.kind!r}"
    *F, F1 = reference_substitute([*blocks, blocks[0].ring.one()], images, dens, None, ring)
    k = reference_first_mismatch(h_map, w.g, F, F1)
    if k is not None:
        return False, f"H = g*{shape} fails at component {k}"
    if w.kind == "cond3":
        if not reference_trace_sides((ring.one(), F))[1]:
            return False, "J(h(p,q)) . h(p,q) is nonzero"
    elif not reference_annihilates(blocks, w.p, w.q):
        return False, "Jp . f = Jq . f = 0 fails"
    return True, ""


def reference_flem_conclude(fs, p, q, mode: str):
    """(hypothesis, values): flem_conclude's hypothesis for valid inputs,
    and the substituted values it is read from.  With J(p/q) = G / q^2,
    G = q grad p - p grad q, and f(p/q) = F / q^s, mode i asks G . F = 0
    and G . F' = 0 (F' from f'), mode ii G . F = 0 and grad q . F = 0;
    values is F, then F' in mode i, as refalg dicts."""
    mod, n = _mod(p.ring), p.ring.nvars
    pt, qt, ts = plain(p), plain(q), [plain(f) for f in fs]
    s = _maxes(ts, 1)
    ders = [refalg.derivative(t, 0, mod) for t in ts] if mode == "i" else []
    values = [refalg.substitute(t, [pt], [qt], s, n, mod) for t in ts + ders]
    G, F = refalg.jacobian_rows(qt, [pt], n, mod)[0], values[: len(ts)]
    if mode == "i":
        second = refalg.dot(G, values[len(ts) :], mod)
    else:
        second = refalg.dot([refalg.derivative(qt, j, mod) for j in range(n)], F, mod)
    return not refalg.dot(G, F, mod) and not second, values


def reference_translation_invariance(h):
    """(verdict, composed) for H(x + tH) = H in K(x)(t): in K[x, t],
    x_i + t H_i = (x_i D_i + t N_i) / D_i for H_i = N_i / D_i, H_k
    composes to A / B over one power of the D_i, and the identity is
    A D_k = B N_k.  composed lists (A, B) of each component up to the
    first that fails, as refalg dicts."""
    mod, n = _mod(h.ring), h.ring.nvars
    nums = [{e + (0,): c for e, c in plain(f.num).items()} for f in h.comps]
    dens = [{e + (0,): c for e, c in plain(f.den).items()} for f in h.comps]
    images = [
        refalg.add(refalg.mul({(0,) * i + (1,) + (0,) * (n - i): 1}, dens[i], mod),
                   refalg.mul({(0,) * n + (1,): 1}, nums[i], mod), mod)
        for i in range(n)
    ]
    composed = []
    for k, f in enumerate(h.comps):
        num, den = plain(f.num), plain(f.den)
        maxes = _maxes([num, den], n)
        a, b = (refalg.substitute(t, images, dens, maxes, n + 1, mod) for t in (num, den))
        composed.append([a, b])
        if refalg.mul(a, dens[k], mod) != refalg.mul(b, nums[k], mod):
            return False, composed
    return True, composed


def reference_relation_vanishes(relation, p, q, pair) -> bool:
    """relation(p/q, g) = 0 for g = f1(p/q) / f2(p/q) = a / b, with
    (a, b) = q^s (f1, f2)(p/q): the relation at Y = p/q, g = a / b
    over powers of q and b."""
    mod, n = _mod(p.ring), p.ring.nvars
    pt, qt, fs, rel = plain(p), plain(q), [plain(pair.f1), plain(pair.f2)], plain(relation)
    a, b = (refalg.substitute(t, [pt], [qt], _maxes(fs, 1), n, mod) for t in fs)
    return not refalg.substitute(rel, [pt, a], [qt, b], _maxes([rel], 2), n, mod)


def reference_member_Kp(r, p):
    """F with r = F(p) for nonconstant p, or None, by subduction: the
    leading term of F(p) is that of lc(F) p^deg F, so while r != 0 its
    grlex leading term must be c lt(p)^k; c y^k goes into F and c p^k
    comes off r."""
    mod, n = _mod(p.ring), p.ring.nvars
    rest, pt, f = plain(r), plain(p), {}
    ep = max(pt, key=lambda e: (sum(e), e))
    while rest:
        er = max(rest, key=lambda e: (sum(e), e))
        k = sum(er) // sum(ep)
        if er != tuple(k * x for x in ep):
            return None
        f[(k,)] = c = refalg.norm(rest[er] * refalg.inverse(pt[ep] ** k, mod), mod)
        rest = refalg.sub(rest, refalg.scale(refalg.power(pt, k, n, mod), c, mod), mod)
    return uni_ring(p.ring.field).poly(f)


def reference_member_Kpq(r, p, q, bound):
    """(f1, f2) with r = f1(p/q) / f2(p/q), f1 and f2 coprime, f2 monic and
    max(deg f1, deg f2) <= bound, or None.  A constant r gives (r, 1); for
    p/q in K no other r is a member.  Otherwise p/q is transcendental, the
    coprime pair is unique, and it solves r.den F1 = r.num F2, Fi =
    q^d fi(p/q), at the least degree d with a nonzero solution."""
    yring, mod, n = uni_ring(p.ring.field), _mod(p.ring), p.ring.nvars
    if r.is_constant():
        return yring.const(r.constant_value()), yring.one()
    pt, qt = plain(p), plain(q)
    e = max(qt)
    if refalg.scale(qt, pt.get(e, 0) * refalg.inverse(qt[e], mod), mod) == pt:
        return None
    num, minus_den = plain(r.num), refalg.scale(plain(r.den), -1, mod)
    for d in range(bound + 1):
        # column j is q^d (p/q)^j = p^j q^(d - j), times r.num for f2 and -r.den for f1
        powers = [refalg.substitute({(j,): 1}, [pt], [qt], [d], n, mod) for j in range(d + 1)]
        cols = [refalg.mul(c, t, mod) for c in (minus_den, num) for t in powers]
        basis = refalg.nullspace(refalg.coefficient_rows(cols), 2 * (d + 1), mod)
        if basis:
            v = basis[0]
            inv = refalg.inverse(next(c for c in reversed(v[d + 1 :]) if c), mod)
            f1, f2 = ({(j,): v[k * (d + 1) + j] for j in range(d + 1)} for k in (0, 1))
            return yring.poly(refalg.scale(f1, inv, mod)), yring.poly(refalg.scale(f2, inv, mod))
    return None


def reference_trdeg_bounded_dependence(h, with_t=False, degree_bound=2):
    """The bounded dependence search from its definition: component i is
    dependent when a nonzero relation of degree <= the bound that involves
    h_i links h_1..h_i.  Column e (grlex order) is h^e times
    prod_j D_j^bound, one refalg.substitute of y^e; a relation is the first
    nullspace vector with a nonzero entry at some e with e_i > 0.  The
    value is the uncounted components, at most the searched ring's n
    variables (n + 1 with t)."""
    mod, n, m = _mod(h.ring), h.ring.nvars + with_t, h.m
    t = (1,) if with_t else ()
    nums = [{e + t: c for e, c in plain(f.num).items()} for f in h.comps]
    dens = [{e + (0,) * with_t: c for e, c in plain(f.den).items()} for f in h.comps]
    rel_ring = PolyRing(h.ring.field, tuple(f"h{i + 1}" for i in range(m)))
    independent, relations = 0, []
    for i in range(m):
        exps = itertools.product(range(degree_bound + 1), repeat=i + 1)
        exps = sorted((e for e in exps if sum(e) <= degree_bound), key=lambda e: (sum(e), e))
        maxes = [degree_bound] * (i + 1)
        cols = [refalg.substitute({e: 1}, nums, dens, maxes, n, mod) for e in exps]
        basis = refalg.nullspace(refalg.coefficient_rows(cols), len(cols), mod)
        found = next((v for v in basis if any(c for e, c in zip(exps, v) if e[i])), None)
        if found is None:
            independent += 1
        else:
            pad = (0,) * (m - i - 1)
            relations.append(rel_ring.poly({e + pad: c for e, c in zip(exps, found) if c}))
    note = (
        "no dependence found within the bound"
        if not relations
        else f"{len(relations)} dependence(s) found"
    )
    return DependenceSearch(min(independent, n), False, relations, note)


# -- the doubled-ring core check: Poly arithmetic ---------------------------


def poly_jacobian(polys, ring):
    """The Jacobian of a polynomial tuple, one Poly derivative per entry."""
    return [[p.derivative(j) for j in range(ring.nvars)] for p in polys]


def reference_bivariate_core_check(core) -> bool:
    """J(core) . core(y) = 0 and tr J(core) . core(y) = 0 in a doubled ring."""
    core = tuple(core)
    ring = core[0].ring
    n = ring.nvars
    big = PolyRing(ring.field, ring.names + tuple(f"y{i + 1}" for i in range(n)))
    x_map = list(range(n))
    y_map = list(range(n, 2 * n))
    jac = poly_jacobian(core, ring)
    jac_big = [[relabel(e, big, x_map) for e in row] for row in jac]
    core_y = [relabel(c, big, y_map) for c in core]
    zero = big.zero()
    for k in range(n):
        prod = zero
        for i in range(n):
            prod = prod + jac_big[k][i] * core_y[i]
        if not prod.is_zero():
            return False
    trace = zero
    for i in range(n):
        trace = trace + jac_big[i][i]
    return all((trace * cy).is_zero() for cy in core_y)


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


def reference_parse(src: str):
    """Parse source text into a tree of the node records above, by the
    grammar of ratmaps.expressions; errors carry byte offsets."""
    toks = _Tokens(src)
    tree = _reference_expr(toks)
    kind, value, offset = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing {value!r}", offset)
    return tree


def _reference_expr(toks):
    kind, value, offset = toks.peek()
    if kind == "op" and value == "-":
        toks.next()
        node = Neg(_reference_term(toks), offset)
    else:
        node = _reference_term(toks)
    while True:
        kind, value, offset = toks.peek()
        if kind == "op" and value in "+-":
            toks.next()
            node = BinOp(value, node, _reference_term(toks), offset)
        else:
            return node


def _reference_term(toks):
    node = _reference_factor(toks)
    while True:
        kind, value, offset = toks.peek()
        if kind == "op" and value in "*/":
            toks.next()
            node = BinOp(value, node, _reference_factor(toks), offset)
        else:
            return node


def _reference_factor(toks):
    node = _reference_base(toks)
    kind, value, offset = toks.peek()
    if kind == "op" and value == "^":
        toks.next()
        kind, value, off2 = toks.next()
        if kind != "num":
            raise ParseError("exponent must be a non-negative integer literal", off2)
        return Pow(node, int(value), offset)
    return node


def _reference_base(toks):
    kind, value, offset = toks.next()
    if kind == "num":
        return Num(int(value), offset)
    if kind == "ident":
        return Var(value, offset)
    if kind == "op" and value == "(":
        if toks.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", offset)
        toks.depth += 1
        items = [_reference_expr(toks)]
        while True:
            kind, value, off2 = toks.next()
            if kind == "op" and value == ")":
                break
            if kind == "op" and value == ",":
                items.append(_reference_expr(toks))
                continue
            raise ParseError("expected ',' or ')'", off2)
        toks.depth -= 1
        if len(items) == 1:
            return items[0]
        return TupleExpr(tuple(items), offset)
    raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input", offset)


def reference_names(tree) -> dict:
    """Each variable name of a reference tree with its first offset."""
    found, stack = {}, [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            found[node.name] = min(found.get(node.name, node.offset), node.offset)
        elif isinstance(node, BinOp):
            stack += node.left, node.right
        elif isinstance(node, (Neg, Pow)):
            stack.append(node.child if isinstance(node, Neg) else node.base)
        elif isinstance(node, TupleExpr):
            stack += node.items
    return found


def reference_elaborate(tree, ring: PolyRing) -> RatFunc:
    """Lower an expression tree with every node a reduced rational function."""
    if isinstance(tree, TupleExpr):
        raise ParseError("tuple not allowed inside a scalar expression", tree.offset)
    if isinstance(tree, Num):
        return RatFunc.from_poly(ring.const(tree.value))
    if isinstance(tree, Var):
        if tree.name not in ring.names:
            raise UnknownVariable(f"unknown variable {tree.name!r}", tree.offset)
        return RatFunc.from_poly(ring.var(ring.names.index(tree.name)))
    if isinstance(tree, Neg):
        return -reference_elaborate(tree.child, ring)
    if isinstance(tree, Pow):
        return reference_elaborate(tree.base, ring) ** tree.exponent
    if isinstance(tree, BinOp):
        left = reference_elaborate(tree.left, ring)
        right = reference_elaborate(tree.right, ring)
        if tree.op == "+":
            return left + right
        if tree.op == "-":
            return left - right
        if tree.op == "*":
            return left * right
        if right.is_zero():
            raise ParseError("division by zero", tree.offset)
        return left / right
    raise TypeError(f"not an expression node: {tree!r}")


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


def reference_multiplicity(f, theta) -> int:
    """Multiplicity of theta as a root of f by repeated exact division by
    y - theta (reference_divexact), while f still vanishes at theta."""
    ring = f.ring
    linear = Poly(ring, {(1,): ring.field.one(), (0,): -theta})
    mult = 0
    while not f.is_zero() and f.evaluate([theta]) == ring.field.zero():
        f = reference_divexact(f, linear)
        mult += 1
    return mult


def reference_fp_roots(f):
    """roots_in_K over GF(p) by testing every residue: Horner's rule on plain
    ints, 2^16 residues at a time, then deflation of the zeros found."""
    p, top, candidates = f.ring.field.p, f.total_degree(), []
    dense = [f.terms[(e,)].v if (e,) in f.terms else 0 for e in range(top, -1, -1)]
    for lo in range(0, p, 1 << 16):
        ts = range(lo, min(p, lo + (1 << 16)))
        values = [0] * len(ts)
        for c in dense:
            values = [(v * t + c) % p for t, v in zip(ts, values)]
        candidates += [Fp(t, p) for t, v in zip(ts, values) if not v]
    return [(theta, reference_multiplicity(f, theta)) for theta in candidates]


def _reference_divisors(n: int) -> list:
    """The positive divisors of n != 0 by trial division up to sqrt(|n|)."""
    n, small, large = abs(n), [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def reference_rational_roots(f):
    """roots_in_K over QQ by the rational-root theorem: every r/s with r | a0
    and s | ad for the coprime integer coefficients a0..ad of f without its
    factor y^lo, and 0 when lo > 0, kept where reference_multiplicity > 0."""
    coeffs = {e: c for (e,), c in f.terms.items()}
    s = math.lcm(*(c.denominator for c in coeffs.values()))
    ints = {e: c.numerator * (s // c.denominator) for e, c in coeffs.items()}
    content = math.gcd(*ints.values())
    lo, hi = min(ints), max(ints)
    cands = {Fraction(0)} if lo > 0 else set()
    for r in _reference_divisors(ints[lo] // content):
        for t in _reference_divisors(ints[hi] // content):
            cands.update((Fraction(r, t), Fraction(-r, t)))
    found = [(theta, reference_multiplicity(f, theta)) for theta in sorted(cands)]
    return [(theta, mult) for theta, mult in found if mult]


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after the given wall time (POSIX)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def seeded(n=0):
    return random.Random(20240 + n)


# -- probes of kernel work: packings and calls ---------------------------------


class Packings(list):
    """The slot width of every polyring._Packing made so far, in order."""

    def __init__(self, monkeypatch):
        super().__init__()
        self._monkeypatch, self._paused = monkeypatch, 0

    def leave_out(self, owner, name):
        """Record nothing while owner.name runs (the gcds and Poly.divexact,
        which pack on their own)."""
        real = getattr(owner, name)

        def paused(*args):
            self._paused += 1
            try:
                return real(*args)
            finally:
                self._paused -= 1

        self._monkeypatch.setattr(owner, name, paused)


@pytest.fixture
def packings(monkeypatch):
    """The Packings of the test, from its first line on."""
    widths = Packings(monkeypatch)

    class Recorded(polyring._Packing):
        __slots__ = ()

        def __init__(self, n, w, mod):
            if not widths._paused:
                widths.append(w)
            super().__init__(n, w, mod)

    monkeypatch.setattr(polyring, "_Packing", Recorded)
    return widths


@pytest.fixture
def spy(monkeypatch):
    """spy(name, *owners) wraps name in each owner (a module or a class) and
    returns one list of the argument tuples of its calls; the real routine
    still runs."""

    def wrap(name, *owners):
        calls = []
        for owner in owners:

            def recorded(*args, real=getattr(owner, name)):
                calls.append(args)
                return real(*args)

            monkeypatch.setattr(owner, name, recorded)
        return calls

    return wrap
