"""The quasi-translation condition JH.H = tr JH.H and its classification.

For square rational maps of transcendence degree at most 2 (after adjoining
t), the condition is equivalent to the vanishing of J(core).core(y) for the
primitive part core of H, and to the existence of decompositions
H = g * h(p, q) (resp. g * f(p/q)) whose building blocks are annihilated by
the gradients of p and q.  The classifier computes each side independently
and raises an alarm if they ever disagree: the equivalence is the theorem
under test, never an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import (
    AssertionFailure,
    DegreeOrder,
    IndeterminateForm,
    IndeterminateComposition,
    NotCoprime,
    NotSquare,
    PreconditionNotVerified,
    TrdegTooLarge,
    ZeroScalar,
)
from .homog import HomogTuple, compose_homog_at
from .linalg import field_rank, independent_subset, poly_matrix_rank
from .polyring import (
    Poly,
    PolyRing,
    RatFunc,
    RatMap,
    eval_univar_at_ratio,
    is_primitive,
    jacobian,
    poly_jacobian,
    poly_lcm,
    primitive_part,
    relabel,
    subst,
)
from .subfield import trdeg_rank


def _require_square(h: RatMap) -> int:
    n = h.ring.nvars
    if h.m != n:
        raise NotSquare(f"{h.m} components in {n} variables")
    return n


def _rf_zero(ring) -> RatFunc:
    return RatFunc.from_poly(ring.zero())


def _cleared_sides(h: RatMap):
    """Numerators of JH.H and tr JH.H over the common denominator D^3.

    With H_i = N_i / D, the entry dH_k/dx_i is (d_iN_k D - N_k d_iD)/D^2,
    so both sides of the trace identity live over D^3 and the comparison
    reduces to polynomial identities, with no fraction normalization in
    the inner loop.
    """
    n = _require_square(h)
    ring = h.ring
    d = ring.one()
    for c in h.comps:
        if not c.den.is_one():
            d = poly_lcm(d, c.den)
    nums = [c.num * d.divexact(c.den) for c in h.comps]
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


def _trace_conditions(h: RatMap):
    """(JH . H = tr JH . H, JH . H = 0), from one build of the cleared sides."""
    lhs, rhs = _cleared_sides(h)
    return all(a == b for a, b in zip(lhs, rhs)), all(e.is_zero() for e in lhs)


def qt_condition(h: RatMap) -> bool:
    """Exact test of JH . H = tr JH . H."""
    return _trace_conditions(h)[0]


def classical_gn_condition(h: RatMap) -> bool:
    """The original hypothesis JH . H = 0, kept as a separate named check."""
    return _trace_conditions(h)[1]


@dataclass
class GquasiReport:
    original: bool
    scaled: bool

    def to_dict(self):
        return {"original": self.original, "scaled": self.scaled}


def gquasi_invariance(h: RatMap, g: RatFunc) -> GquasiReport:
    """qt_condition(H) computed next to qt_condition(gH); they must agree."""
    if g.is_zero():
        raise ZeroScalar("g must be nonzero")
    a = qt_condition(h)
    b = qt_condition(h.scale(g))
    if a != b:
        raise AssertionFailure("scaling by g changed the quasi-translation verdict")
    return GquasiReport(a, b)


def translation_invariance(h: RatMap) -> bool:
    """Exact test of H(x + tH) = H in K(x)(t)."""
    n = _require_square(h)
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


def _mat_mul(a, b, ring):
    n = len(a)
    zero = _rf_zero(ring)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), zero) for j in range(n)]
        for i in range(n)
    ]


def nilpotent_jacobian(h: RatMap) -> bool:
    """Whether (JH)^n = 0 over K(x), by exact matrix powers."""
    n = _require_square(h)
    jac = jacobian(h)
    power = jac
    for _ in range(n - 1):
        if all(entry.is_zero() for row in power for entry in row):
            return True
        power = _mat_mul(power, jac, h.ring)
    return all(entry.is_zero() for row in power for entry in row)


def bivariate_core_check(core) -> bool:
    """J(core) . core(y) = 0 and tr J(core) . core(y) = 0 in K[x, y].

    core is a square tuple of polynomials; the second copy of the
    variables is fresh, so both products live in a doubled ring.
    """
    core = tuple(core)
    if not core:
        raise NotSquare("empty tuple")
    ring = core[0].ring
    n = ring.nvars
    if len(core) != n:
        raise NotSquare(f"{len(core)} components in {n} variables")
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


# -- witnesses ---------------------------------------------------------------


@dataclass(frozen=True)
class GNWitness:
    """Decomposition data for conditions (3), (4) or (5) of the classifier.

    kind "cond3" carries h (a HomogTuple, or None for zero); kinds "cond4"
    and "cond5" carry f, a tuple of univariate polynomials.
    """

    kind: str
    g: RatFunc
    p: Poly
    q: Poly
    h: object = None
    f: object = None


@dataclass
class WitnessVerdict:
    kind: str
    verified: bool
    reason: str = ""

    def to_dict(self):
        return {"kind": self.kind, "verified": self.verified, "reason": self.reason}


def _verify_cond3(h_map: RatMap, w: GNWitness):
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
    for k in range(h_map.m):
        if w.g * RatFunc.from_poly(hp[k]) != h_map[k]:
            return False, f"H = g*h(p,q) fails at component {k}"
    if not classical_gn_condition(RatMap.from_polys(hp)):
        return False, "J(h(p,q)) . h(p,q) is nonzero"
    return True, ""


def _f_coefficient_vectors(fs):
    degs = [f.total_degree() for f in fs if not f.is_zero()]
    top = int(max(degs)) if degs else 0
    field = fs[0].ring.field
    vectors = []
    for k in range(top + 1):
        vec = []
        for f in fs:
            vec.append(f.terms.get((k,), field.zero()))
        vectors.append(vec)
    return vectors


def _gradients_annihilate(fs, p: Poly, q: Poly) -> bool:
    """Jp . f = Jq . f = 0, tested on every coefficient vector of f."""
    ring = p.ring
    n = ring.nvars
    grad_p = [p.derivative(j) for j in range(n)]
    grad_q = [q.derivative(j) for j in range(n)]
    for vec in _f_coefficient_vectors(fs):
        for grad in (grad_p, grad_q):
            dot = ring.zero()
            for j in range(n):
                dot = dot + grad[j].scale(vec[j])
            if not dot.is_zero():
                return False
    return True


def _verify_cond45(h_map: RatMap, w: GNWitness):
    fs = tuple(w.f) if w.f is not None else None
    if fs is None or len(fs) != h_map.m:
        return False, "f is missing or has the wrong number of components"
    if w.q.is_zero():
        return False, "q is zero, f(p/q) undefined"
    if w.kind == "cond5":
        if not is_primitive(fs):
            return False, "gcd of the components of f is not a unit"
        if not is_primitive([w.p, w.q]):
            return False, "gcd(p, q) is not a unit"
    degs = [f.total_degree() for f in fs if not f.is_zero()]
    s = int(max(degs)) if degs else 0
    cleared = [eval_univar_at_ratio(f, w.p, w.q, s) for f in fs]
    qs = RatFunc.from_poly(w.q**s)
    for k in range(h_map.m):
        if w.g * (RatFunc.from_poly(cleared[k]) / qs) != h_map[k]:
            return False, f"H = g*f(p/q) fails at component {k}"
    if not _gradients_annihilate(fs, w.p, w.q):
        return False, "Jp . f = Jq . f = 0 fails"
    return True, ""


@dataclass
class GNReport:
    qt: bool
    core_bivariate: bool
    classical_zero: bool
    trdeg_tH: object = None
    core: tuple = ()
    witnesses: list = dc_field(default_factory=list)
    char_zero_remark: object = None

    def to_dict(self):
        return {
            "qt_condition": self.qt,
            "bivariate_core_check": self.core_bivariate,
            "jh_dot_h_zero": self.classical_zero,
            "trdeg_tH": self.trdeg_tH,
            "core": [str(c) for c in self.core],
            "witnesses": [w.to_dict() for w in self.witnesses],
            "char_zero_remark": self.char_zero_remark,
        }


def gn_classify(h_map: RatMap, witnesses=()) -> GNReport:
    """Evaluate the equivalent conditions independently and verify witnesses.

    Conditions (1) (the trace identity) and (2) (the bivariate core check)
    are always computed; each supplied witness for (3), (4) or (5) is
    verified from scratch.  Any disagreement that the classification
    theorem forbids raises an internal alarm.  In characteristic zero the
    precondition trdeg K(tH) <= 2 is enforced; in positive characteristic
    it is the caller's assertion.
    """
    _require_square(h_map)
    report = GNReport(False, False, False)
    if h_map.ring.field.characteristic == 0:
        report.trdeg_tH = trdeg_rank(h_map, with_t=True)
        if report.trdeg_tH > 2:
            raise TrdegTooLarge(
                f"trdeg K(tH) = {report.trdeg_tH} > 2: the classification "
                "does not apply"
            )
    report.qt, report.classical_zero = _trace_conditions(h_map)
    if h_map.is_zero():
        report.core = tuple(h_map.ring.zero() for _ in range(h_map.m))
        report.core_bivariate = True
    else:
        _, core = primitive_part(h_map)
        report.core = core
        report.core_bivariate = bivariate_core_check(core)
    if report.qt != report.core_bivariate:
        raise AssertionFailure(
            "conditions (1) and (2) disagree; the classification theorem "
            "forbids this"
        )
    if h_map.ring.field.characteristic == 0 and not h_map.is_zero():
        core_zero = classical_gn_condition(RatMap.from_polys(report.core))
        report.char_zero_remark = {
            "core_jh_dot_h_zero": core_zero,
            "agrees_with_qt": core_zero == report.qt,
        }
    for w in witnesses:
        if w.kind == "cond3":
            ok, reason = _verify_cond3(h_map, w)
        elif w.kind in ("cond4", "cond5"):
            ok, reason = _verify_cond45(h_map, w)
        else:
            ok, reason = False, f"unknown witness kind {w.kind!r}"
        report.witnesses.append(WitnessVerdict(w.kind, ok, reason))
        if ok and not report.qt:
            raise AssertionFailure(
                "a verified witness contradicts a negative qt_condition"
            )
    return report


def flem_conclude(fs, p: Poly, q: Poly, mode: str) -> bool:
    """Check a gradient-annihilation hypothesis and assert its conclusion.

    mode "i":  J(p/q) . f(p/q) = J(p/q) . f'(p/q) = 0;
    mode "ii": J(p/q) . f(p/q) = Jq . f(p/q) = 0.
    Returns whether the hypothesis holds; when it does, the conclusion
    Jp . f = Jq . f = 0 is verified on the coefficient vectors of f, and
    a failure there is an internal alarm.
    """
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
    degs = [f.total_degree() for f in fs if not f.is_zero()]
    s = int(max(degs))
    ratio = RatFunc(p, q)
    grad_ratio = [ratio.derivative(j) for j in range(n)]
    qs = RatFunc.from_poly(q**s)
    f_at = [RatFunc.from_poly(eval_univar_at_ratio(f, p, q, s)) / qs for f in fs]
    dot1 = sum((grad_ratio[j] * f_at[j] for j in range(n)), _rf_zero(ring))
    if mode == "i":
        fprimes = [f.derivative(0) for f in fs]
        fp_at = [
            RatFunc.from_poly(eval_univar_at_ratio(fp, p, q, s)) / qs
            for fp in fprimes
        ]
        dot2 = sum((grad_ratio[j] * fp_at[j] for j in range(n)), _rf_zero(ring))
    elif mode == "ii":
        grad_q = [RatFunc.from_poly(q.derivative(j)) for j in range(n)]
        dot2 = sum((grad_q[j] * f_at[j] for j in range(n)), _rf_zero(ring))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    hypothesis = dot1.is_zero() and dot2.is_zero()
    if hypothesis and not _gradients_annihilate(fs, p, q):
        raise AssertionFailure("hypothesis held but Jp . f = Jq . f = 0 failed")
    return hypothesis


@dataclass
class SpanBoundReport:
    spanning_vectors: list
    span_dim: int
    rank_core: int
    bound: int
    bound_satisfied: bool

    def to_dict(self):
        return {
            "spanning_vectors": [[str(c) for c in v] for v in self.spanning_vectors],
            "span_dim": self.span_dim,
            "rank_core": self.rank_core,
            "bound": self.bound,
            "bound_satisfied": self.bound_satisfied,
        }


def constant_span_bound(h_map: RatMap) -> SpanBoundReport:
    """Span of the constant coefficient vectors of H(y) against n - rk J(core).

    H(y), cleared of denominators, is a polynomial tuple; the K-span of its
    monomial coefficient vectors must fit inside the kernel of J(core),
    whose dimension is n minus the rank.  Requires the trace identity to
    hold for H.
    """
    n = _require_square(h_map)
    if not qt_condition(h_map):
        raise PreconditionNotVerified("the trace identity does not hold for H")
    field = h_map.ring.field
    if h_map.is_zero():
        return SpanBoundReport([], 0, 0, n, True)
    yring = PolyRing(field, tuple(f"y{i + 1}" for i in range(n)))
    vm = list(range(n))
    comps_y = [
        RatFunc(relabel(c.num, yring, vm), relabel(c.den, yring, vm), _reduced=True)
        for c in h_map.comps
    ]
    den = yring.one()
    for c in comps_y:
        if not c.den.is_one():
            den = poly_lcm(den, c.den)
    cleared = [c.num * den.divexact(c.den) for c in comps_y]
    monos = sorted({e for c in cleared for e in c.terms}, key=lambda e: (sum(e), e))
    vectors = [
        [c.terms.get(e, field.zero()) for c in cleared] for e in monos
    ]
    dim = field_rank(vectors, field)
    chosen = independent_subset(vectors, field)
    _, core = primitive_part(h_map)
    rank_core = poly_matrix_rank(poly_jacobian(core, h_map.ring))
    bound = n - rank_core
    return SpanBoundReport(
        [vectors[i] for i in chosen], dim, rank_core, bound, dim <= bound
    )
