"""Shared random generators and independent oracles for the test suite.

Random instances use explicitly seeded random.Random objects so every run
is reproducible.  The oracles here (numeric resultants via Sylvester
determinants, interpolation derivatives) deliberately avoid the library
code paths they are used to check.
"""

import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

from ratmaps.linalg import coefficient_rows, field_nullspace, field_solve
from ratmaps.errors import (
    AssertionFailure,
    DegreeOrder,
    IndeterminateComposition,
    IndeterminateForm,
    NotCoprime,
    NotDivisible,
    NotSquare,
    ParseError,
    RingMismatch,
    UnknownVariable,
)
from ratmaps.expressions import BinOp, Neg, Num, Pow, TupleExpr, Var
from ratmaps.polyring import (
    Poly,
    PolyRing,
    RatFunc,
    RatMap,
    _as_ratfunc,
    _k_addmul,
    _k_derivative,
    _k_gradients,
    _k_ints,
    _k_mul,
    _k_poly,
    _k_powers,
    _k_reduce,
    _k_sub,
    _substitute,
    clear_denominators,
    cross_equal,
    eval_univar_at_ratio,
    first_mismatch,
    gcd_many,
    is_primitive,
    jacobian,
    on_kernel,
    relabel,
    subst,
)
from ratmaps.fields import Fp, QQ
from ratmaps.gordan_noether import (
    _annihilates,
    _trace_sides,
    classical_gn_condition,
)
from ratmaps.homog import HomogTuple, bi_ring, compose_homog_at, uni_ring
from ratmaps.subfield import DependenceSearch, _exponents_upto, adjoin_t


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
# Field-agnostic (only +, -, *, divexact and monic), so it checks the
# library's packed-int PRS kernel over QQ and GF(p) alike.  It is the path
# the library ran over GF(p) before that kernel, kept here as the oracle.


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
    return a.divexact(_reference_content_wrt(a, j)).monic()


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
    pa, pb = a.divexact(ca), b.divexact(cb)
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


# -- references for the packed-int identities: the Fraction Poly paths ----
#
# The library runs these identities on packed monomials with int
# coefficients; the references below are the Poly-arithmetic code they
# replaced, kept as oracles over QQ and GF(p) alike.


def reference_cleared_sides(h):
    """Numerators (lhs, rhs) of JH.H and tr JH.H over the common D^3.

    With H_i = N_i / D, the entry dH_k/dx_i is (d_iN_k D - N_k d_iD)/D^2.
    """
    n = h.ring.nvars
    ring = h.ring
    d, nums = clear_denominators(h.comps)
    d_nums = [[nk.derivative(j) for j in range(n)] for nk in nums]
    d_d = [d.derivative(j) for j in range(n)]
    trace = ring.zero()
    for i in range(n):
        trace = trace + d_nums[i][i] * d - nums[i] * d_d[i]
    lhs = []
    for k in range(n):
        acc = ring.zero()
        for i in range(n):
            acc = acc + nums[i] * (d_nums[k][i] * d - nums[k] * d_d[i])
        lhs.append(acc)
    rhs = [nums[k] * trace for k in range(n)]
    return lhs, rhs


def reference_poly_matrix_rank(rows):
    """Rank by Bareiss elimination on Poly entries: every division is an
    exact polynomial division by the previous pivot."""
    work = [list(r) for r in rows]
    if not work or not work[0]:
        return 0
    nrows, ncols = len(work), len(work[0])
    ring = work[0][0].ring
    prev = ring.one()
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if not work[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot = work[r][c]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                cross = pivot * work[i][j] - work[i][c] * work[r][j]
                work[i][j] = cross.divexact(prev)
            work[i][c] = ring.zero()
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r


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


def reference_member_Kpq(r, p, q, bound):
    """member_Kpq by trying every degree d <= bound, one linear system each."""
    field = p.ring.field
    yring = uni_ring(field)
    num, den = r.num, r.den
    for d in range(bound + 1):
        basis_polys = [p**j * q ** (d - j) for j in range(d + 1)]
        cols = [-(den * b) for b in basis_polys] + [num * b for b in basis_polys]
        rows = coefficient_rows(cols, field)
        for vec in reference_field_nullspace(rows, 2 * (d + 1), field):
            f2 = Poly(yring, {(j,): vec[d + 1 + j] for j in range(d + 1)})
            if eval_univar_at_ratio(f2, p, q, d).is_zero():
                continue
            f1 = Poly(yring, {(j,): vec[j] for j in range(d + 1)})
            if not f1.is_zero():
                g = gcd_many([f1, f2])
                f1, f2 = f1.divexact(g), f2.divexact(g)
            inv = field.one() / f2.lc()
            f1, f2 = f1.scale(inv), f2.scale(inv)
            f1_at = eval_univar_at_ratio(f1, p, q, d)
            f2_at = eval_univar_at_ratio(f2, p, q, d)
            if cross_equal(num, f2_at, den, f1_at):
                return f1, f2
    return None


def reference_trdeg_rank(h, with_t):
    """The rank trdeg_rank took before it built its polynomial matrix
    directly: the Jacobian of tH over (x, t) with every entry a reduced
    fraction, each row cleared by the lcm of its denominators."""
    jac = jacobian(adjoin_t(h) if with_t else h)
    return reference_poly_matrix_rank([clear_denominators(r)[1] for r in jac])


def _reference_primitive(polys) -> bool:
    nz = [f for f in polys if not f.is_zero()]
    return bool(nz) and reference_gcd_many(nz).is_one()


def reference_verify_cond45(h, w):
    """(verified, reason) for a cond4 or cond5 witness, on normalised
    rational functions and Poly gradients."""
    fs = tuple(w.f) if w.f is not None else None
    if fs is None or len(fs) != h.m:
        return False, "f is missing or has the wrong number of components"
    if w.q.is_zero():
        return False, "q is zero, f(p/q) undefined"
    if w.kind == "cond5":
        if not _reference_primitive(fs):
            return False, "gcd of the components of f is not a unit"
        if not _reference_primitive([w.p, w.q]):
            return False, "gcd(p, q) is not a unit"
    k = reference_cond45_failure(h, w.g, w.p, w.q, fs)
    if k is not None:
        return False, f"H = g*f(p/q) fails at component {k}"
    if not _reference_gradients_annihilate(fs, w.p, w.q):
        return False, "Jp . f = Jq . f = 0 fails"
    return True, ""


def reference_verify_cond3(h_map, w):
    """(verified, reason) for a cond3 witness as the classifier checked it
    before its one verifier: h(p, q) composed one component at a time, the
    identity on first_mismatch and J(h(p,q)) . h(p,q) = 0 by the classical
    condition of the composed map."""
    if not is_primitive([w.p, w.q]):
        return False, "gcd(p, q) is not a unit"
    if w.h is None:
        hp = [h_map.ring.zero()] * h_map.m
    else:
        if not isinstance(w.h, HomogTuple):
            return False, "h must be a HomogTuple or None"
        if len(w.h.polys) != h_map.m:
            return False, "h has the wrong number of components"
        c = h_map.ring.field.characteristic
        if w.h.degree > 0 and c > 0 and w.h.degree % c == 0:
            return False, "characteristic divides deg h"
        hp = [compose_homog_at(comp, w.p, w.q) for comp in w.h.polys]
    k = first_mismatch(h_map, w.g, hp, h_map.ring.one())
    if k is not None:
        return False, f"H = g*h(p,q) fails at component {k}"
    if not classical_gn_condition(RatMap.from_polys(hp)):
        return False, "J(h(p,q)) . h(p,q) is nonzero"
    return True, ""


def _k_quotient_rule(num: dict, den: dict, K) -> list:
    """[d_i num * den - num * d_i den for i < K.n]: den^2 times grad(num/den),
    one row on its own, as the kernel built it before _k_jacobian_rows."""
    return [
        _k_sub(
            _k_mul(_k_derivative(num, i, K), den, K),
            _k_mul(num, _k_derivative(den, i, K), K),
            K,
        )
        for i in range(K.n)
    ]


def reference_on_cleared_jacobian(cleared, fn):
    """fn(K, N, m) for cleared = (D, N) with m built one _k_quotient_rule
    call per row, as the classifier did before its one row builder: grad D
    taken again in every row."""
    d, nums = cleared

    def run(K, packed):
        d, *nums = packed[0]
        return fn(K, nums, [_k_quotient_rule(nk, d, K) for nk in nums])

    return on_kernel([[d, *nums]], run)


def reference_verify_witness(h_map, w):
    """(verified, reason) as the classifier decided it on three kernel
    entries: one _substitute of the blocks and 1 for F and F(1), the
    identity H = g F / F(1) on first_mismatch, then J(F) . F = 0 on the
    per-row quotient rule (cond3) or Jp . f = Jq . f = 0 on a third
    packing of p and q."""
    m, c = h_map.m, h_map.ring.field.characteristic
    if w.kind == "cond3":
        if not is_primitive([w.p, w.q]):
            return False, "gcd(p, q) is not a unit"
        if w.h is not None and not isinstance(w.h, HomogTuple):
            return False, "h must be a HomogTuple or None"
        blocks = [bi_ring(h_map.ring.field).zero()] * m if w.h is None else w.h.polys
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
        if w.kind == "cond5" and not is_primitive(blocks):
            return False, "gcd of the components of f is not a unit"
        if w.kind == "cond5" and not is_primitive([w.p, w.q]):
            return False, "gcd(p, q) is not a unit"
        images, dens, shape = [w.p], [w.q], "f(p/q)"
    else:
        return False, f"unknown witness kind {w.kind!r}"
    *F, F1 = _substitute([*blocks, blocks[0].ring.one()], images, dens, w.p.ring)
    k = first_mismatch(h_map, w.g, F, F1)
    if k is not None:
        return False, f"H = g*{shape} fails at component {k}"
    if w.kind == "cond3":
        if not reference_on_cleared_jacobian((F1, F), _trace_sides)[1]:
            return False, "J(h(p,q)) . h(p,q) is nonzero"
        return True, ""
    ints = _k_ints(blocks)[1]
    if not on_kernel(
        [[w.p, w.q]], lambda K, pq: _annihilates(K, _k_gradients(pq[0], K), ints)
    ):
        return False, "Jp . f = Jq . f = 0 fails"
    return True, ""


def reference_cond45_failure(h, g, p, q, fs):
    """The first component k with H_k != g * f_k(p/q), in normalised
    rational functions, or None."""
    degs = [f.total_degree() for f in fs if not f.is_zero()]
    s = int(max(degs)) if degs else 0
    qs = RatFunc.from_poly(q**s)
    for k, f in enumerate(fs):
        if g * (RatFunc.from_poly(eval_univar_at_ratio(f, p, q, s)) / qs) != h[k]:
            return k
    return None


# -- references for substitution: the Fraction and Fp Poly paths ---------
#
# The library substitutes on the packed-int kernel in one routine; these
# are the three Poly-arithmetic routines it replaced, unchanged.


def _reference_power_table(base, max_exp: int, one):
    table = [one]
    for _ in range(max_exp):
        table.append(table[-1] * base)
    return table


def reference_compose_poly(a: Poly, images, target: PolyRing) -> Poly:
    """a with variable i replaced by the polynomial images[i]."""
    if target.field != a.ring.field:
        raise RingMismatch("composition cannot change the coefficient field")
    maxes = [a.degree_in(j) for j in range(a.ring.nvars)]
    tables = [
        _reference_power_table(img, mx, target.one()) if mx else None
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


def reference_compose_poly_ratfunc(a: Poly, images, target: PolyRing) -> RatFunc:
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
        _reference_power_table(img.num, mx, target.one()) if mx else None
        for img, mx in zip(images, maxes)
    ]
    den_tabs = [
        _reference_power_table(img.den, mx, target.one()) if mx else None
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


def reference_eval_univar_at_ratio(f: Poly, p: Poly, q: Poly, s: int) -> Poly:
    """q^s * f(p/q) for univariate f with deg f <= s: sum c_j p^j q^(s-j)."""
    if f.ring.nvars != 1:
        raise ValueError("expected a univariate polynomial")
    ring = p.ring
    if f.is_zero():
        return ring.zero()
    d = f.total_degree()
    if d > s:
        raise ValueError("clearing exponent smaller than the degree")
    p_tab = _reference_power_table(p, d, ring.one())
    q_tab = _reference_power_table(q, s, ring.one())
    total = ring.zero()
    for e, c in f.terms.items():
        j = e[0]
        total = total + (p_tab[j] * q_tab[s - j]).scale(c)
    return total


# The packed-int substitution with explicit clearing powers maxes[i].  The
# library reads M_i as the highest exponent of y_i over the whole tuple;
# with maxes set to those, the two agree exactly.


def reference_substitute(polys, nums, dens, maxes, target: PolyRing) -> list:
    """sum_e c_e prod_i n_i^e_i d_i^(M_i - e_i) for each poly sum_e c_e y^e.

    The images n_i, d_i are Polys in target, d_i None for 1, and M_i =
    maxes[i] bounds every e_i.  A term has degree M_i in (n_i, d_i), so over
    QQ the one integer s clearing all images scales every term by s^(sum M);
    a d_i of 1 becomes s, an integer top-up by s^(M_i - e_i).  The polys
    are cleared by one integer t; the results are divided by t*s^(sum M).
    """
    if target.field != polys[0].ring.field:
        raise RingMismatch("composition cannot change the coefficient field")
    used = [i for i, m in enumerate(maxes) if m]
    with_den = [i for i in used if dens[i] is not None]
    # a constant 1 rides along in each group: its image {0: s} reads the scale
    group = [target.one(), *(nums[i] for i in used), *(dens[i] for i in with_den)]
    if any(p.ring != target for p in group):
        raise RingMismatch("substitution images must lie in the target ring")
    *ints, one = _k_ints([*polys, polys[0].ring.one()])[1]
    t, exps = one[(0,) * len(maxes)], [e for c in ints for e in c]

    def run(K, packed):
        s, images = packed[0][0][0], iter(packed[0][1:])
        ntab = {i: _k_powers(next(images), max(e[i] for e in exps), K) for i in used}
        dtab = {i: _k_powers(next(images), maxes[i], K) for i in with_den}
        out = []
        for c in ints:
            total = {}
            for e, coeff in c.items():
                top, factors = 0, []
                for i in used:
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
            total = K.unpack(_k_reduce(total, K.mod))
            out.append(_k_poly(target, total, t * s ** sum(maxes)))
        return out

    return on_kernel([group], run)


# -- references for the power tables: the Poly-product paths ---------------
#
# The dependence search, K[p] membership and the pqtrans representations
# take their powers from one substitution on the packed-int kernel; these
# are the reduced-RatFunc and Poly-product constructions they replaced.


def reference_trdeg_bounded_dependence(h: RatMap, with_t=False, degree_bound=2):
    """The dependence search on reduced RatFunc products h^e, each step's
    columns cleared by the lcm of their denominators."""
    target = adjoin_t(h) if with_t else h
    comps = list(target.comps)
    field = target.ring.field
    rel_ring = PolyRing(field, tuple(f"h{i + 1}" for i in range(len(comps))))
    independent = 0
    relations = []
    prods = {(): RatFunc.from_poly(target.ring.one())}
    for i in range(len(comps)):
        exps = _exponents_upto(i + 1, degree_bound)
        cols = []
        for e in exps:
            if e not in prods:
                base = prods[e[:-1] + (e[-1] - 1,)] if e[-1] else prods[e[:-1]]
                prods[e] = base * comps[i] if e[-1] else base
            cols.append(prods[e])
        _, cleared = clear_denominators(cols)
        basis = field_nullspace(coefficient_rows(cleared, field), len(cols), field)
        found = next((v for v in basis if any(c for e, c in zip(exps, v) if e[-1])), None)
        if found is None:
            independent += 1
        else:
            terms = {}
            for e, c in zip(exps, found):
                if c:
                    terms[e + (0,) * (len(comps) - len(e))] = c
            relations.append(Poly(rel_ring, terms))
    note = (
        "no dependence found within the bound"
        if not relations
        else f"{len(relations)} dependence(s) found"
    )
    return DependenceSearch(independent, False, relations, note)


def reference_member_Kp(r: Poly, p: Poly):
    """member_Kp for nonconstant r, with p^0 .. p^d as Poly products."""
    deg_r, deg_p = r.total_degree(), p.total_degree()
    if deg_r % deg_p:
        return None
    field = p.ring.field
    powers = [p.ring.one()]
    for _ in range(deg_r // deg_p):
        powers.append(powers[-1] * p)
    matrix = coefficient_rows(powers + [r], field)
    sol = field_solve([row[:-1] for row in matrix], [row[-1] for row in matrix], field)
    if sol is None:
        return None
    return Poly(uni_ring(field), {(i,): c for i, c in enumerate(sol)})


def reference_pqtrans_rep(f1: Poly, f2: Poly, mode: str, eps, theta):
    """(f1*, f2*) of pqtrans: f(y - eps) by Poly powers, or
    (y - eps)^s f(1/(y - eps) + theta) as q^s f(p/q) by Poly powers."""
    yring = f2.ring
    y_eps = yring.var(0) - yring.const(eps)
    if mode == "shift":
        return tuple(reference_compose_poly(f, [y_eps], yring) for f in (f1, f2))
    s = int(max(f1.total_degree(), f2.total_degree()))
    num = yring.one() + y_eps.scale(theta)
    return tuple(reference_eval_univar_at_ratio(f, num, y_eps, s) for f in (f1, f2))


def reference_cleared_at(f1: Poly, f2: Poly, p: Poly, q: Poly):
    """(q^s f1(p/q), q^s f2(p/q)) for s = max(deg f1, deg f2), by Poly powers."""
    s = int(max(f1.total_degree(), f2.total_degree(), 0))
    return tuple(reference_eval_univar_at_ratio(f, p, q, s) for f in (f1, f2))


# -- references for the cleared identities: the RatFunc paths -------------
#
# The library decides these checks as polynomial identities on cleared
# denominators and lowers division-free input to Poly; the references are
# the reduced-RatFunc code they replaced, unchanged.


def _reference_rf_zero(ring) -> RatFunc:
    return RatFunc.from_poly(ring.zero())


def _reference_mat_mul(a, b, ring):
    n = len(a)
    zero = _reference_rf_zero(ring)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), zero) for j in range(n)]
        for i in range(n)
    ]


def reference_nilpotent_jacobian(h: RatMap) -> bool:
    """Whether (JH)^n = 0 over K(x), by exact matrix powers.

    Reduces every entry of every power: it does not finish on generic
    3-variable rational maps."""
    n = h.ring.nvars
    jac = jacobian(h)
    power = jac
    for _ in range(n - 1):
        if all(entry.is_zero() for row in power for entry in row):
            return True
        power = _reference_mat_mul(power, jac, h.ring)
    return all(entry.is_zero() for row in power for entry in row)


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


def _reference_gradients_annihilate(fs, p: Poly, q: Poly) -> bool:
    """Jp . f = Jq . f = 0, tested on every coefficient vector of f."""
    ring = p.ring
    n = ring.nvars
    grad_p = [p.derivative(j) for j in range(n)]
    grad_q = [q.derivative(j) for j in range(n)]
    for vec in coefficient_rows(fs, ring.field):
        for grad in (grad_p, grad_q):
            dot = ring.zero()
            for j in range(n):
                dot = dot + grad[j].scale(vec[j])
            if not dot.is_zero():
                return False
    return True


def reference_flem_conclude(fs, p: Poly, q: Poly, mode: str) -> bool:
    """flem_conclude on reduced rational functions p/q, f(p/q) and J(p/q)."""
    fs = tuple(fs)
    ring = p.ring
    n = ring.nvars
    if len(fs) != n:
        raise NotSquare(f"{len(fs)} components in {n} variables")
    if not is_primitive([p, q]):
        raise NotCoprime("gcd(p, q) is not a unit")
    if p.total_degree() > q.total_degree():
        raise DegreeOrder("deg p exceeds deg q")
    if all(f.is_zero() for f in fs):
        return True
    ratio = RatFunc(p, q)
    grad_ratio = [ratio.derivative(j) for j in range(n)]
    f_at = [subst(f, [ratio], ring) for f in fs]
    zero = _reference_rf_zero(ring)
    dot1 = sum((grad_ratio[j] * f_at[j] for j in range(n)), zero)
    if mode == "i":
        fp_at = [subst(f.derivative(0), [ratio], ring) for f in fs]
        dot2 = sum((grad_ratio[j] * fp_at[j] for j in range(n)), zero)
    elif mode == "ii":
        grad_q = [RatFunc.from_poly(q.derivative(j)) for j in range(n)]
        dot2 = sum((grad_q[j] * f_at[j] for j in range(n)), zero)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    hypothesis = dot1.is_zero() and dot2.is_zero()
    if hypothesis and not _reference_gradients_annihilate(fs, p, q):
        raise AssertionFailure("hypothesis held but Jp . f = Jq . f = 0 failed")
    return hypothesis


def reference_translation_invariance(h: RatMap) -> bool:
    """H(x + tH) = H in K(x)(t), on reduced rational functions."""
    n = h.ring.nvars
    ring = h.ring
    ext = PolyRing(ring.field, ring.names + ("t",))
    vm = list(range(n))
    t = RatFunc.from_poly(ext.var(n))
    embedded = [
        RatFunc(relabel(c.num, ext, vm), relabel(c.den, ext, vm), _reduced=True)
        for c in h.comps
    ]
    images = [RatFunc.from_poly(ext.var(i)) + t * embedded[i] for i in range(n)]
    for k in range(n):
        try:
            composed = subst(h[k], images, ext)
        except IndeterminateForm as exc:
            raise IndeterminateComposition(str(exc)) from exc
        if composed != embedded[k]:
            return False
    return True


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


def reference_relation_vanishes(relation: Poly, p: Poly, q: Poly, pair) -> bool:
    """relation(p/q, g) = 0 by substituting reduced p/q and g = value_at."""
    return subst(relation, [RatFunc(p, q), pair.value_at(p, q)], p.ring).is_zero()


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
