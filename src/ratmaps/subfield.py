"""Subfields of K(x) of low transcendence degree and their generators.

Covers Jacobian-rank transcendence degrees (exact in characteristic zero,
with a bounded dependence search as the flagged fallback elsewhere),
gcd-substitution identities, GL2 equivalence of generator pairs, the
unit-combination chain for fields containing a nonconstant polynomial,
polynomial and bounded rational membership tests, the constructive
single-variable generator, and the full witness verifier for
decompositions H = g * h(p, q).
"""

from __future__ import annotations

import itertools
from math import comb

from .errors import (
    AllConstant,
    AllZero,
    AssertionFailure,
    BothConstant,
    CharPUnsupported,
    ConstantP,
    ConstantRatio,
    InvalidArgument,
    NotCoprime,
    NotPrimitivePair,
    SingularMatrix,
    WitnessRejected,
    ZeroDenominator,
)
from .homog import HomogTuple, bi_ring, compose_homog_at, degree_check, uni_ring
from .linalg import (
    _bareiss_rank,
    coefficient_rows,
    field_nullspace,
    field_solve,
)
from .polyring import (
    Poly,
    PolyRing,
    RatFunc,
    RatMap,
    _k_gradients,
    _k_jacobian_rows,
    _k_mul,
    _monic_den,
    _substitute,
    clear_denominators,
    compose_poly,
    cross_equal,
    first_mismatch,
    gcd_many,
    is_primitive,
    on_kernel,
    relabel,
    require_transcendental,
)
from .records import FrozenRecord, Record


# -- GL2 action ------------------------------------------------------------


class Mobius(FrozenRecord):
    """An invertible 2x2 matrix over K acting on generator pairs (p, q)."""

    t11: object
    t12: object
    t21: object
    t22: object

    def __post_init__(self):
        if not self.det():
            raise SingularMatrix("matrix is singular")

    def det(self):
        return self.t11 * self.t22 - self.t12 * self.t21

    def apply(self, p: Poly, q: Poly):
        return (
            p.scale(self.t11) + q.scale(self.t12),
            p.scale(self.t21) + q.scale(self.t22),
        )

    def compose(self, other: Mobius) -> Mobius:
        return Mobius(
            self.t11 * other.t11 + self.t12 * other.t21,
            self.t11 * other.t12 + self.t12 * other.t22,
            self.t21 * other.t11 + self.t22 * other.t21,
            self.t21 * other.t12 + self.t22 * other.t22,
        )

    def is_scalar(self) -> bool:
        return (not self.t12) and (not self.t21) and self.t11 == self.t22

    def proportional_to(self, other: Mobius) -> bool:
        mine = (self.t11, self.t12, self.t21, self.t22)
        theirs = (other.t11, other.t12, other.t21, other.t22)
        for a, b in zip(mine, theirs):
            for c, d in zip(mine, theirs):
                if a * d != c * b:
                    return False
        return True


# -- transcendence degree ----------------------------------------------------


def adjoin_t(h: RatMap) -> RatMap:
    """The map tH over the ring extended with a fresh variable t."""
    ring = h.ring
    if "t" in ring.names:
        raise ValueError("the ring already contains a variable named t")
    ext = PolyRing(ring.field, ring.names + ("t",))
    vm = list(range(ring.nvars))
    t = ext.var(ext.nvars - 1)
    comps = []
    for c in h.comps:
        num = relabel(c.num, ext, vm)
        den = relabel(c.den, ext, vm)
        # num/den is reduced and den is free of t, so num*t/den is reduced too
        comps.append(RatFunc(num * t, den, _reduced=True))
    return RatMap(comps)


def trdeg_rank(h: RatMap, with_t: bool = False) -> int:
    """trdeg_K K(H), or of K(tH), as a Jacobian rank (characteristic zero).

    The Jacobian of tH is taken with respect to (x, t).  Rank equals the
    transcendence degree of the generated field by the Jacobian criterion,
    which is an exact contract only in characteristic zero.

    The matrix is polynomial and built on the packed-int kernel without a
    gcd: for H_k = N_k / D_k, row k is [d_i N_k * D_k - N_k * d_i D_k]_i
    (_k_jacobian_rows), plus N_k * D_k for tH.  That is row k of J(tH)
    times D_k^2, with the x columns divided by t; scaling rows and columns
    by nonzero elements of K(x, t) keeps the rank (so does the integer
    clearing row k over QQ), and the rank over K(x) equals the rank over
    K(x, t).
    """
    if h.ring.field.characteristic != 0:
        raise CharPUnsupported(
            "Jacobian rank equals trdeg only in characteristic zero; "
            "use the bounded dependence search instead"
        )

    def rank(K, packed):
        rows = []
        for num, den in packed:
            grad_num, grad_den = _k_gradients([num, den], K)
            row = _k_jacobian_rows(den, grad_den, [num], [grad_num], K)[0]
            if with_t:
                row.append(_k_mul(num, den, K))
            rows.append(row)
        return _bareiss_rank(K, rows)

    groups = [[c.num, c.den] for c in h.comps]
    return on_kernel(groups, rank)


# the most matrix cells one step of the dependence search may eliminate,
# counted before its substitution (_cap_search).  On the first map that
# test_cli times over GF(32003), on a 2-vCPU VM, bound 8 asks for
# 1,225 x 165 and its whole process took 2.4 s; bound 9 asks for
# 1,540 x 220 (5.6 s) and bound 12 for 2,701 x 455 (41 s, 38 s of it
# eliminating 2,419 x 455), and both are refused
MAX_SEARCH_CELLS = 250_000


class DependenceSearch(Record):
    """Outcome of the bounded algebraic-dependence search."""

    value: int
    certified: bool
    relations: list
    note: str


def trdeg_bounded_dependence(
    h: RatMap, with_t: bool = False, degree_bound: int = 2
) -> DependenceSearch:
    """Greedy bounded search for algebraic dependences among the components.

    Component i counts as dependent when some nonzero polynomial relation
    of total degree <= degree_bound links it to components 1..i-1; the
    returned value is the number of components left uncounted, a certified
    upper bound for the transcendence degree.  It is never certified as
    the exact transcendence degree (relations beyond the bound may exist),
    hence certified is always False.  A step whose matrix may have more
    than MAX_SEARCH_CELLS cells (_cap_search) is refused with
    InvalidArgument before its substitution.

    Step k clears h_1..h_k over the lcm L of their denominators, h_j =
    N_j / L, and substitutes y_0 = L, y_j = N_j into every monomial
    y_0^(B - |e|) y^e with |e| <= B = degree_bound: column e is the
    polynomial h^e * L^B, from one power table per image on the packed-int
    kernel.  All columns share the nonzero factor L^B, so their K-linear
    relations are those of the h^e; the only gcds are the step's lcm of
    the k denominators, none per column.
    """
    if degree_bound < 1:
        raise InvalidArgument("degree_bound must be at least 1")
    target = adjoin_t(h) if with_t else h
    field, m, bound = target.ring.field, target.m, degree_bound
    names = tuple(f"h{i + 1}" for i in range(m))
    rel_ring = PolyRing(field, names)
    independent = 0
    relations = []
    for i in range(m):
        lcm, nums = clear_denominators(target.comps[: i + 1])
        _cap_search([lcm, *nums], target.ring.nvars, bound)
        hom_ring = PolyRing(field, ("h0",) + names[: i + 1])
        exps = _exponents_upto(i + 1, bound)
        monos = [Poly(hom_ring, {(bound - sum(e),) + e: field.one()}) for e in exps]
        cols = _substitute(monos, [lcm, *nums], [None] * (i + 2), target.ring)
        basis = field_nullspace(coefficient_rows(cols, field), len(cols), field)
        found = next((v for v in basis if any(c for e, c in zip(exps, v) if e[i])), None)
        if found is None:
            independent += 1
        else:
            pad = (0,) * (m - i - 1)
            relations.append(Poly(rel_ring, {e + pad: c for e, c in zip(exps, found)}))
    note = (
        "no dependence found within the bound"
        if not relations
        else f"{len(relations)} dependence(s) found"
    )
    return DependenceSearch(independent, False, relations, note)


def _cap_search(polys, nvars: int, bound: int):
    """InvalidArgument when a search step's matrix on L, N_1..N_k may pass
    MAX_SEARCH_CELLS: a column per monomial of degree <= bound in k
    variables, and rows among the monomials of degree <= bound * d in nvars
    variables (d the polys' top degree) and among the sums of bound of
    their T distinct terms, since a column is a product of bound polys."""
    support = {e for p in polys for e in p.terms}
    top, k = max(map(sum, support)), len(polys) - 1
    rows = min(comb(nvars + bound * top, nvars), comb(len(support) + bound - 1, bound))
    cols = comb(k + bound, bound)
    if rows * cols > MAX_SEARCH_CELLS:
        raise InvalidArgument(
            f"degree_bound {bound} asks for a {rows} x {cols} matrix at component {k},"
            f" more than {MAX_SEARCH_CELLS} cells"
        )


def _exponents_upto(nvars: int, bound: int):
    """Exponent vectors of total degree <= bound, by total degree, then
    lexicographically: the column order of the nullspace search."""
    out = []
    for total in range(bound + 1):
        # nvars - 1 bars among total + nvars - 1 places cut total into parts
        for bars in itertools.combinations(range(total + nvars - 1), nvars - 1):
            cuts = (-1, *bars, total + nvars - 1)
            out.append(tuple(b - a - 1 for a, b in zip(cuts, cuts[1:])))
    return out


# -- gcd under substitution --------------------------------------------------


def gcd_subst_uni(fs, p: Poly) -> Poly:
    """gcd(f)(p), asserted equal to gcd(f_1(p), ..., f_m(p)) up to a unit.

    Both sides are computed independently and compared after monic
    normalization; disagreement raises an internal alarm, since the
    identity holds in any integral K-domain.
    """
    fs = list(fs)
    if all(f.is_zero() for f in fs):
        raise AllZero("all components are zero")
    return _gcd_commutes(fs, lambda f: compose_poly(f, [p], p.ring), "univariate")


def gcd_subst_homog(h, p: Poly, q: Poly) -> Poly:
    """gcd(h)(p, q) for homogeneous-or-zero h and a primitive pair (p, q)."""
    polys = list(h.polys) if isinstance(h, HomogTuple) else list(h)
    if all(c.is_zero() for c in polys):
        raise AllZero("all components are zero")
    for c in polys:
        if not c.is_zero() and not c.is_homogeneous():
            raise InvalidArgument("components must be homogeneous or zero")
    if not is_primitive([p, q]):
        raise NotPrimitivePair("(p, q) is not primitive")
    return _gcd_commutes(polys, lambda c: compose_homog_at(c, p, q), "homogeneous")


def _gcd_commutes(polys, compose, case: str) -> Poly:
    """compose(gcd(polys)), monic, checked against gcd(compose(c) for c in polys)."""
    lhs = compose(gcd_many(polys)).monic()
    if lhs != gcd_many([compose(c) for c in polys]):
        raise AssertionFailure(f"gcd does not commute with substitution ({case} case)")
    return lhs


# -- Moebius equivalence of generator pairs -----------------------------------


def mobius_equiv(p: Poly, q: Poly, pstar: Poly, qstar: Poly):
    """A matrix T with p*/q* = (T11 p + T12 q)/(T21 p + T22 q), if one exists.

    Existence is equivalent to K(p/q) = K(p*/q*).  The bilinear identity
    q* (T11 p + T12 q) = p* (T21 p + T22 q) is solved as a linear system in
    the four entries; an invertible solution is verified exactly before it
    is returned, and None means the fields differ.
    """
    require_transcendental(p, q)
    if not is_primitive([p, q]):
        raise NotCoprime("(p, q) is not reduced")
    if not pstar.is_zero() or not qstar.is_zero():
        if not is_primitive([pstar, qstar]):
            raise NotCoprime("(p*, q*) is not reduced")
    if qstar.is_zero():
        return None
    field = p.ring.field
    cols = [qstar * p, qstar * q, -(pstar * p), -(pstar * q)]
    for vec in field_nullspace(coefficient_rows(cols, field), 4, field):
        t21_p_t22_q = p.scale(vec[2]) + q.scale(vec[3])
        if t21_p_t22_q.is_zero():
            continue
        if not (vec[0] * vec[3] - vec[1] * vec[2]):
            continue
        cand = Mobius(*vec)
        num, den = cand.apply(p, q)
        if cross_equal(num, qstar, den, pstar):
            return cand
    return None


# -- the unit-combination chain ----------------------------------------------


def unit_combination(p: Poly, q: Poly):
    """(lambda, mu) with lambda*p + mu*q = 1, or None when no such pair exists."""
    if p.is_constant() and q.is_constant():
        raise BothConstant("p and q are both constant")
    if not is_primitive([p, q]):
        raise NotCoprime("gcd(p, q) is not a unit")
    field = p.ring.field
    matrix = coefficient_rows([p, q, p.ring.one()], field)
    sol = field_solve([r[:2] for r in matrix], [r[2] for r in matrix], field)
    return None if sol is None else (sol[0], sol[1])


class EnotherChain(Record):
    """Verdicts for the chain linking a unit combination to K(p/q) = K(p, q)."""

    has_unit_combo: bool
    contains_nonconstant_poly: bool
    field_equals_Kpq: bool
    lam: object = None
    mu: object = None
    generator: Poly = None
    p_membership: Poly = None
    q_membership: Poly = None

    def to_dict(self):
        # the three verdicts, then the unit combination's data when it exists
        data = ("lambda", "mu", "generator", "p_as_poly_in_generator", "q_as_poly_in_generator")
        keys = self._fields[:3] + (data if self.has_unit_combo else ())
        return dict(zip(keys, super().to_dict().values()))


def enother_chain(p: Poly, q: Poly) -> EnotherChain:
    """Decide the unit-combination condition and report its equivalents.

    The decided condition is the existence of lambda, mu in K with
    lambda*p + mu*q = 1; the other two verdicts (a nonconstant polynomial
    in K(p/q), and K(p/q) = K(p, q)) are reported as equal to it.  When it
    holds, the nonconstant member r* of {p, q} generates, and both p and q
    are exhibited as polynomials in r* as a constructive confirmation.
    """
    combo = unit_combination(p, q)
    if combo is None:
        return EnotherChain(False, False, False)
    lam, mu = combo
    rstar = p if not p.is_constant() else q
    f_p = member_Kp(p, rstar)
    f_q = member_Kp(q, rstar)
    if f_p is None or f_q is None:
        raise AssertionFailure(
            "unit combination exists but a membership verification failed"
        )
    return EnotherChain(True, True, True, lam, mu, rstar, f_p, f_q)


# -- membership tests ---------------------------------------------------------


def member_Kp(r: Poly, p: Poly):
    """A univariate F with r = F(p), or None; decides r in K[p] by solving
    r = sum_j F_j p^j for j <= deg r / deg p, the p^j from one power table."""
    if p.is_constant():
        raise ConstantP("p must not be constant")
    yring = uni_ring(p.ring.field)
    if r.is_zero():
        return yring.zero()
    if r.is_constant():
        return yring.const(r.constant_value())
    deg_r, deg_p = r.total_degree(), p.total_degree()
    if deg_r % deg_p:
        return None
    d = deg_r // deg_p
    field = p.ring.field
    monos = [Poly(yring, {(j,): field.one()}) for j in range(d + 1)]
    powers = _substitute(monos, [p], [None], p.ring)
    matrix = coefficient_rows(powers + [r], field)
    sol = field_solve([row[:-1] for row in matrix], [row[-1] for row in matrix], field)
    if sol is None:
        return None
    return Poly(yring, {(i,): c for i, c in enumerate(sol)})


def member_Kpq(r: RatFunc, p: Poly, q: Poly, bound: int):
    """(f1, f2) with r = f1(p/q)/f2(p/q), f1 and f2 coprime and f2 monic,
    or None; decides r in K(p/q) up to max(deg f1, deg f2) <= bound.

    With p/q nonconstant and reduced and r = N/D nonconstant, a member's
    degree is forced: e = max(deg f1, deg f2) has e * max(deg p, deg q) =
    max(deg N, deg D), since the homogenized F1(p, q) and F2(p, q) are
    coprime and at most one of them loses its top-degree part.  One linear
    system at degree e then has a nullspace of dimension at most one, so
    None proves r not in K(p/q) unless e exceeds the bound.
    """
    if q.is_zero():
        raise ZeroDenominator("q is zero")
    if bound < 0:
        raise InvalidArgument("bound must be non-negative")
    field = p.ring.field
    yring = uni_ring(field)
    if r.is_constant():
        return yring.const(r.constant_value()), yring.one()
    try:
        require_transcendental(p, q)
    except ConstantRatio:
        return None  # K(p/q) = K
    g = gcd_many([p, q])
    p, q, num, den = p.divexact(g), q.divexact(g), r.num, r.den
    d, rest = divmod(
        max(num.total_degree(), den.total_degree()),
        max(p.total_degree(), q.total_degree()),
    )
    if rest or d > bound:
        return None
    # -y^j and z y^j at y = p/q (degree d), z = num/den (degree 1)
    one, yz = field.one(), bi_ring(field)
    monos = [Poly(yz, {(j, k): one if k else -one}) for k in (0, 1) for j in range(d + 1)]
    cols = _substitute(monos, [p, num], [q, den], p.ring)
    basis = field_nullspace(coefficient_rows(cols, field), 2 * (d + 1), field)
    if not basis:
        return None
    vec = basis[0]
    f1 = Poly(yring, {(j,): vec[j] for j in range(d + 1)})
    f2 = Poly(yring, {(j,): vec[d + 1 + j] for j in range(d + 1)})
    f1, f2 = _monic_den(f1, f2)
    f1_at, f2_at = _substitute([f1, f2], [p], [q], p.ring)
    if len(basis) > 1 or not cross_equal(num, f2_at, den, f1_at):
        raise AssertionFailure(f"no single pair of degree {d} represents r in K(p/q)")
    return f1, f2


# -- the constructive single-variable generator --------------------------------


def luroth_generator_1var(rs) -> tuple:
    """A reduced coprime pair (p, q) generating the field the inputs generate.

    Classical construction: over the rational function field, the minimal
    polynomial of the variable is the gcd of num_i(Y) - r_i * den_i(Y) over
    the nonconstant inputs; any nonconstant coefficient of its monic form
    generates.  Deterministic choice: smallest numerator-plus-denominator
    degree, then smallest coefficient index; the result is normalized so
    that p is monic.  Every input is re-verified to lie in K(p/q) by a
    bounded membership search.
    """
    rs = [r if isinstance(r, RatFunc) else RatFunc.from_poly(r) for r in rs]
    if not rs:
        raise AllConstant("no inputs")
    ring = rs[0].ring
    if ring.nvars != 1:
        raise ValueError("inputs must be univariate rational functions")
    nonconst = [r for r in rs if not r.is_constant()]
    if not nonconst:
        raise AllConstant("all inputs are constant")
    field = ring.field
    work = PolyRing(field, (ring.names[0], "Y"))
    gs = []
    for r in nonconst:
        nx = relabel(r.num, work, [0])
        dx = relabel(r.den, work, [0])
        ny = relabel(r.num, work, [1])
        dy = relabel(r.den, work, [1])
        gs.append(ny * dx - nx * dy)
    minpoly = gcd_many(gs)
    coeffs = minpoly.coeffs_wrt(1)
    top = max(coeffs)
    if top < 1:
        raise AssertionFailure("minimal polynomial degenerated to degree zero")
    lead = Poly(ring, {(e[0],): c for e, c in coeffs[top].terms.items()})
    candidates = []
    for j in sorted(coeffs):
        if j == top:
            continue
        cj = Poly(ring, {(e[0],): c for e, c in coeffs[j].terms.items()})
        theta = RatFunc(cj, lead)
        if theta.is_constant():
            continue
        size = theta.num.total_degree() + theta.den.total_degree()
        candidates.append((size, j, theta))
    if not candidates:
        raise AssertionFailure("no nonconstant coefficient in the minimal polynomial")
    candidates.sort(key=lambda t: (t[0], t[1]))
    theta = candidates[0][2]
    # scaling the generator by a unit keeps the field: present p monic
    p_gen, q_gen = theta.num.monic(), theta.den
    for r in rs:
        b = max(r.num.total_degree(), r.den.total_degree(), 1)
        if member_Kpq(r, p_gen, q_gen, int(b)) is None:
            raise AssertionFailure(
                "an input fell outside the field of the computed generator"
            )
    return p_gen, q_gen


# -- witness verification for H = g * h(p, q) -----------------------------------


class LurothWitness(FrozenRecord):
    """Decomposition data: H = g * h(p, q) with h primitive homogeneous or zero."""

    g: RatFunc
    h: object  # HomogTuple or None for the zero tuple
    p: Poly
    q: Poly


class CheckItem(Record):
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""


class Hmgrk2Report(Record):
    items: list = []
    trdeg_tH: object = None
    note: str = ""

    def add(self, name, ok, detail=""):
        self.items.append(CheckItem(name, "pass" if ok else "fail", detail))

    def skip(self, name, detail=""):
        self.items.append(CheckItem(name, "skip", detail))

    def all_ok(self) -> bool:
        return all(item.status != "fail" for item in self.items)

    def to_dict(self):
        items, trdeg, note = super().to_dict().values()
        return {"checks": items, "trdeg_tH": trdeg, "all_ok": self.all_ok(), "note": note}


def hmgrk2_verify(h_map: RatMap, w: LurothWitness) -> Hmgrk2Report:
    """Verify a decomposition witness and all its stated consequences.

    Checks, in order: the defining identity H = g * h(p, q); equality of
    trdeg K(tH) and trdeg K(t h(p,q)) (characteristic zero only); the
    primitivity equivalences; trdeg <= 1 iff h is constant; the degree
    formulas; and the homogeneity equivalence.  Structural defects and a
    failed identity raise WitnessRejected; consequence failures are
    recorded in the report, since they would contradict a theorem and
    deserve eyes rather than silence.
    """
    report = Hmgrk2Report()
    ring = h_map.ring
    field = ring.field
    if w.g.is_zero():
        raise WitnessRejected("g must be nonzero")
    if w.h is not None and not isinstance(w.h, HomogTuple):
        raise WitnessRejected("h must be a HomogTuple or None")
    if w.h is not None and not is_primitive(w.h.polys):
        raise WitnessRejected("h must be primitive or zero")
    if w.p.is_constant() and w.q.is_constant():
        raise WitnessRejected("(p, q) must not be constant")
    if not is_primitive([w.p, w.q]):
        raise WitnessRejected("(p, q) must be primitive")
    if w.h is not None and len(w.h.polys) != h_map.m:
        raise WitnessRejected("h has the wrong number of components")

    blocks = [bi_ring(field).zero()] * h_map.m if w.h is None else w.h.polys
    hp = _substitute(list(blocks), [w.p, w.q], [None, None], w.p.ring)
    k = first_mismatch(h_map, w.g, hp, ring.one())
    if k is not None:
        raise WitnessRejected(f"H = g * h(p, q) fails at component {k}")
    report.add("identity H = g*h(p,q)", True)

    char_zero = field.characteristic == 0
    if char_zero:
        t_h = trdeg_rank(h_map, with_t=True)
        t_hp = trdeg_rank(RatMap.from_polys(hp), with_t=True)
        report.trdeg_tH = t_h
        report.add(
            "trdeg K(tH) = trdeg K(th(p,q))",
            t_h == t_hp,
            f"{t_h} vs {t_hp}",
        )
    else:
        report.skip("trdeg K(tH) = trdeg K(th(p,q))", "positive characteristic")

    nonzero_H = not h_map.is_zero()
    prim_hp = is_primitive(hp)
    # a nonzero h that is not primitive was rejected above
    prim_h = nonzero_h = w.h is not None
    report.add(
        "H != 0 <=> h(p,q) primitive <=> h primitive <=> h != 0",
        nonzero_H == prim_hp == prim_h == nonzero_h,
        f"{nonzero_H}, {prim_hp}, {prim_h}, {nonzero_h}",
    )

    h_const = w.h is None or w.h.degree == 0
    if char_zero:
        report.add(
            "trdeg K(tH) <= 1 <=> h constant",
            (t_h <= 1) == h_const,
            f"trdeg {t_h}, h constant: {h_const}",
        )
    else:
        report.skip("trdeg K(tH) <= 1 <=> h constant", "positive characteristic")

    if w.h is None:
        report.skip("degree formulas", "h = 0")
    else:
        try:
            # h was proved primitive above: its gcd has no linear factor
            deg, lowdeg = degree_check(w.h.degree, w.p, w.q, hp)
            report.add("degree formulas", True, f"deg {deg}, low deg {lowdeg}")
        except AssertionFailure as exc:
            report.add("degree formulas", False, str(exc))

    if w.h is None or w.h.degree == 0:
        report.skip(
            "h(p,q) homogeneous <=> (p,q) homogeneous",
            "vacuous for constant or zero h",
        )
    else:
        lhs = _tuple_is_homogeneous(hp)
        rhs = _tuple_is_homogeneous([w.p, w.q])
        report.add(
            "h(p,q) homogeneous <=> (p,q) homogeneous", lhs == rhs, f"{lhs} vs {rhs}"
        )

    report.note = (
        "minimality of deg(p,q) is not decided; when it is minimal, "
        "K(p/q) is algebraically closed in K(x)"
    )
    return report


def _tuple_is_homogeneous(polys) -> bool:
    return len({sum(e) for p in polys for e in p.terms}) <= 1
