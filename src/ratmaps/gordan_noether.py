"""The quasi-translation condition JH.H = tr JH.H and its classification.

For square rational maps of transcendence degree at most 2 (after adjoining
t), the condition is equivalent to the vanishing of J(core).core(y) for the
primitive part core of H, and to the existence of decompositions
H = g * h(p, q) (resp. g * f(p/q)) whose building blocks are annihilated by
the gradients of p and q.  The classifier computes each side independently
and raises an alarm if they ever disagree: the equivalence is the theorem
under test, never an assumption.  The trace identity and the witness
identities, the nilpotency power, the core check and the translation
identity are decided on cleared numerators, with every gradient taken on
the packed-int kernel: no check reduces a fraction.  Neither (1) nor
trdeg K(tH) changes when H is scaled by a nonzero g in K(x), so for
H = N / D the classifier reads them off the numerators: (1) off J(N) and
trdeg K(tH) off rank [J(core) | core].  It clears H once and takes the
core, and one packing of (D, N), the core and every witness's groups
answers (1), JH . H = 0, (2), the remark and the rank, and substitutes each
witness, checks it against N / D and gradient-tests it (_witness_check).
Nilpotency of JH does change under scaling: nilpotent_jacobian, like
subfield.trdeg_rank and flem_conclude, takes the quotient-rule rows of
polyring's _k_jacobian_rows.
"""

from __future__ import annotations

from .errors import (
    AssertionFailure,
    DegreeOrder,
    IndeterminateComposition,
    NotCoprime,
    NotSquare,
    PreconditionNotVerified,
    RingMismatch,
    TrdegTooLarge,
    ZeroScalar,
)
from .homog import HomogTuple, bi_ring
from .linalg import _bareiss_rank, coefficient_rows, independent_subset
from .polyring import (
    Poly,
    PolyRing,
    RatFunc,
    RatMap,
    _k_dot,
    _k_first_mismatch,
    _k_gradients,
    _k_ints,
    _k_jacobian_rows,
    _k_maxes,
    _k_mul,
    _k_substitute,
    _on_packing,
    _split_content,
    _substitute,
    clear_denominators,
    cross_equal,
    is_primitive,
    on_kernel,
    relabel,
)
from .records import FrozenRecord, Record


def _require_square(m: int, ring: PolyRing) -> int:
    n = ring.nvars
    if m != n:
        raise NotSquare(f"{m} components in {n} variables")
    return n


def _on_numerators(cleared, core, fn, more=()):
    """fn(K, (D, N, J(N)), (core, J(core)), *more) on one packing
    (_on_packing) for cleared = (D, N), H = N / D, a polynomial tuple core
    and more groups of tuple-keyed int dicts, each group on its own scale
    over QQ: plain gradients, no quotient-rule row."""

    def run(K, packed):
        (d, *nums), kc, *rest = packed
        return fn(K, (d, nums, _k_gradients(nums, K)), (kc, _k_gradients(kc, K)), *rest)

    groups = [_k_ints([cleared[0], *cleared[1]])[1], _k_ints(core)[1], *more]
    ring = cleared[0].ring
    return _on_packing(ring.nvars, ring.field.characteristic, groups, run)


def _trace_conditions(h: RatMap):
    """(JH . H = tr JH . H, JH . H = 0), decided on cleared numerators."""
    _require_square(h.m, h.ring)
    return _on_numerators(clear_denominators(h.comps), (), lambda K, num, _: _trace_sides(K, *num))


def _trace(K, m) -> dict:
    return _k_dot([{0: 1}] * len(m), [row[i] for i, row in enumerate(m)], K)


def _trace_sides(K, d, nums, jn):
    """(qt, JH . H = 0) for H = N / D from jn = J(N).  As D^2 JH is
    D J(N) - N grad D, D^3 (JH . H - tr JH . H) = D (J(N) . N - tr J(N) N),
    and D^3 JH . H = D J(N) . N - (grad D . N) N; where J(N) . N = tr J(N) N
    that is N s for s = D tr J(N) - grad D . N, zero iff s = 0 (N = 0 gives it)."""
    trace = _trace(K, jn)
    dn = _k_dot(_k_gradients([d], K)[0], nums, K)
    lhs = [_k_dot(nums, row, K) for row in jn]
    if all(l == _k_mul(nk, trace, K) for l, nk in zip(lhs, nums)):
        return True, _k_mul(d, trace, K) == dn
    return False, all(_k_mul(d, l, K) == _k_mul(dn, nk, K) if dn else not l for l, nk in zip(lhs, nums))


def _core_sides(K, core, jc, rank=False):
    """(condition (2), J(core) . core = 0, and with rank in characteristic
    zero trdeg K(tH), else None) for the core with Jacobian jc.  D^2 times
    row k of J(tH) over (x, t) is [t (D grad N_k - N_k grad D), D N_k]:
    column operations give [J(N) | N], and with N = c core, [J(core) | core]."""
    trace = _trace(K, jc)
    zero = not any(_k_dot(core, row, K) for row in jc)
    trdeg = _bareiss_rank(K, [[*r, c] for r, c in zip(jc, core)]) if rank and not K.mod else None
    return not trace and _annihilates(K, jc, core), zero, trdeg


def qt_condition(h: RatMap) -> bool:
    """Exact test of JH . H = tr JH . H."""
    return _trace_conditions(h)[0]


def classical_gn_condition(h: RatMap) -> bool:
    """The original hypothesis JH . H = 0, kept as a separate named check."""
    return _trace_conditions(h)[1]


class GquasiReport(Record):
    original: bool
    scaled: bool


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
    """Exact test of H(x + tH) = H in K(x)(t): with the images x_i + t H_i
    passed as (x_i D_i + t N_i) / D_i, H_k = N_k / D_k composes to A / B,
    and the identity is A D_k = B N_k."""
    n = _require_square(h.m, h.ring)
    ring = h.ring
    ext = PolyRing(ring.field, ring.names + ("t",))
    vm = list(range(n))
    t = ext.var(n)
    nums = [relabel(c.num, ext, vm) for c in h.comps]
    dens = [relabel(c.den, ext, vm) for c in h.comps]
    images = [ext.var(i) * dens[i] + t * nums[i] for i in range(n)]
    image_dens = [None if c.den.is_one() else dens[i] for i, c in enumerate(h.comps)]
    for k, c in enumerate(h.comps):
        a, b = _substitute([c.num, c.den], images, image_dens, ext)
        if b.is_zero():
            raise IndeterminateComposition(
                "denominator vanishes identically after substitution"
            )
        if not cross_equal(a, dens[k], b, nums[k]):
            return False
    return True


def nilpotent_jacobian(h: RatMap) -> bool:
    """Whether (JH)^n = 0 over K(x): JH is m (_k_jacobian_rows) over D^2, so
    iff m^n = 0 on the kernel; scaling H changes this, so it takes the rows."""
    _require_square(h.m, h.ring)
    d, nums = clear_denominators(h.comps)

    def run(K, packed):
        (kd, *kn), (grad_d, *grads) = packed[0], _k_gradients(packed[0], K)
        return _nilpotent(K, _k_jacobian_rows(kd, grad_d, kn, grads, K))

    return on_kernel([[d, *nums]], run)


def _nilpotent(K, m):
    # a nilpotent matrix has trace 0 in every characteristic
    if _trace(K, m):
        return False
    cols = list(zip(*m))
    power = m
    for _ in range(len(m) - 1):
        if not any(any(row) for row in power):
            return True
        power = [[_k_dot(row, col, K) for col in cols] for row in power]
    return not any(any(row) for row in power)


def _annihilates(K, grads, ints) -> bool:
    """Whether g . c = 0 for every row g of grads and every coefficient
    vector c of ints, int polynomials on one scale (_k_ints)."""
    for e in {e for t in ints for e in t}:
        vec = [{0: t[e]} if e in t else {} for t in ints]
        if any(_k_dot(g, vec, K) for g in grads):
            return False
    return True


def bivariate_core_check(core) -> bool:
    """J(core) . core(y) = 0 and tr J(core) . core(y) = 0 in K[x, y].

    core(y) is the sum over monomials y^e of c_e y^e, c_e the coefficient
    vectors of core, so the first product vanishes iff J(core) kills every
    c_e.  The second vanishes iff tr J(core) = 0, since a zero core has a
    zero Jacobian.
    """
    core = tuple(core)
    if not core:
        raise NotSquare("empty tuple")
    _require_square(len(core), core[0].ring)
    return _on_numerators((core[0].ring.one(), ()), core, lambda K, _, c: _core_sides(K, *c)[0])


# -- witnesses ---------------------------------------------------------------


class GNWitness(FrozenRecord):
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


class WitnessVerdict(Record):
    kind: str
    verified: bool
    reason: str = ""


_WITNESS_RINGS = "the blocks, p, q and g of a witness and H lie in different rings"


def _witness_check(h_map: RatMap, w: GNWitness):
    """The reason of w's first failed precondition, a RingMismatch to raise,
    or (groups, check): groups (p, q) and (g.num, g.den) for gn_classify's
    packing, and check(K, D, N, pq, g) the reason, "" if w holds for N / D.

    One substitution of the blocks and of 1 gives F and F(1) (h(p, q) and 1
    for cond3, q^s f(p/q) and q^s for cond4 and cond5) on the scale of (p, q).
    H = g F / F(1) is checked as g.num F_k D = N_k g.den F(1), linear in every
    group, then J(F) . F = 0 for cond3 (F(1) is a constant), resp.
    Jp . f = Jq . f = 0 on the coefficient vectors of f.
    """
    m, ring = h_map.m, h_map.ring
    c = ring.field.characteristic
    cond3 = w.kind == "cond3"
    # the rings come first: a gcd of polys from different rings raises
    if {w.p.ring, w.q.ring, w.g.ring} != {ring}:
        return RingMismatch(_WITNESS_RINGS)
    if cond3:
        if not is_primitive([w.p, w.q]):
            return "gcd(p, q) is not a unit"
        if w.h is not None and not isinstance(w.h, HomogTuple):
            return "h must be a HomogTuple or None"
        blocks = [bi_ring(ring.field).zero()] * m if w.h is None else w.h.polys
        if len(blocks) != m:
            return "h has the wrong number of components"
        if w.h is not None and w.h.degree > 0 and c > 0 and w.h.degree % c == 0:
            return "characteristic divides deg h"
        shape = "h(p,q)"
    elif w.kind in ("cond4", "cond5"):
        blocks = tuple(w.f) if w.f is not None else ()
        if len(blocks) != m:
            return "f is missing or has the wrong number of components"
        if w.q.is_zero():
            return "q is zero, f(p/q) undefined"
        if len({b.ring for b in blocks}) > 1:
            return RingMismatch(_WITNESS_RINGS)
        if w.kind == "cond5" and not is_primitive(blocks):
            return "gcd of the components of f is not a unit"
        if w.kind == "cond5" and not is_primitive([w.p, w.q]):
            return "gcd(p, q) is not a unit"
        shape = "f(p/q)"
    else:
        return f"unknown witness kind {w.kind!r}"
    if blocks[0].ring.field != ring.field:
        return RingMismatch(_WITNESS_RINGS)
    ints = _k_ints([*blocks, blocks[0].ring.one()])[1]
    maxes = _k_maxes(ints, 2 if cond3 else 1)
    s, pq = _k_ints([w.p, w.q])

    def check(K, d, nums, pq, g):
        (kp, kq), (gn, gd) = pq, g
        images, dens = ({0: kp, 1: kq}, {}) if cond3 else ({0: kp}, {0: kq})
        *F, F1 = _k_substitute(ints, maxes, images, dens, s, K)
        k = _k_first_mismatch(gn, gd, F1, F, [(nk, d) for nk in nums], K)
        if k is not None:
            return f"H = g*{shape} fails at component {k}"
        if cond3:
            if any(_k_dot(F, row, K) for row in _k_gradients(F, K)):
                return "J(h(p,q)) . h(p,q) is nonzero"
        elif not _annihilates(K, _k_gradients([kp, kq], K), ints[:-1]):
            return "Jp . f = Jq . f = 0 fails"
        return ""

    return [pq, _k_ints([w.g.num, w.g.den])[1]], check


class GNReport(Record):
    qt: bool
    core_bivariate: bool
    classical_zero: bool
    trdeg_tH: object = None
    core: tuple = ()
    witnesses: list = []
    char_zero_remark: object = None

    def to_dict(self):
        keys = ("qt_condition", "bivariate_core_check", "jh_dot_h_zero", *self._fields[3:])
        return dict(zip(keys, super().to_dict().values()))


def gn_classify(h_map: RatMap, witnesses=()) -> GNReport:
    """Evaluate the equivalent conditions independently and verify witnesses.

    Conditions (1) (the trace identity) and (2) (the bivariate core check)
    are always computed; each supplied witness for (3), (4) or (5) is
    verified from scratch, against the cleared N / D.  Any disagreement
    that the classification theorem forbids raises an internal alarm.  In
    characteristic zero the precondition trdeg K(tH) <= 2 is enforced, on
    the core's Jacobian; in positive characteristic it is the caller's
    assertion.  (D, N), the core and the witnesses share one packing; a
    witness's RingMismatch is raised in its turn, after (1), (2) and the rank.
    """
    _require_square(h_map.m, h_map.ring)
    report = GNReport(False, False, False)
    zero = h_map.is_zero()
    cleared = clear_denominators(h_map.comps)
    report.core = tuple(cleared[1]) if zero else _split_content(cleared[1], with_g=False)[1]
    inputs = [(w.kind, _witness_check(h_map, w)) for w in witnesses]
    more = [g for _, x in inputs if type(x) is tuple for g in x[0]]

    def run(K, num, core, *packed):
        sides = (*_trace_sides(K, *num), *_core_sides(K, *core, rank=True))
        qt, _, bivariate, _, trdeg = sides
        if trdeg is not None and trdeg > 2:
            raise TrdegTooLarge(f"trdeg K(tH) = {trdeg} > 2: the classification does not apply")
        if qt != bivariate:
            raise AssertionFailure(
                "conditions (1) and (2) disagree; the classification theorem forbids this"
            )
        groups, verdicts = iter(packed), []
        for kind, x in inputs:
            if isinstance(x, RingMismatch):
                raise x
            reason = x if type(x) is str else x[1](K, *num[:2], next(groups), next(groups))
            verdicts.append(WitnessVerdict(kind, not reason, reason))
            if not reason and not qt:
                raise AssertionFailure("a verified witness contradicts a negative qt_condition")
        return sides, verdicts

    sides, report.witnesses = _on_numerators(cleared, report.core, run, more)
    report.qt, report.classical_zero, report.core_bivariate, core_zero, report.trdeg_tH = sides
    if h_map.ring.field.characteristic == 0 and not zero:
        report.char_zero_remark = dict(core_jh_dot_h_zero=core_zero, agrees_with_qt=core_zero == sides[0])
    return report


def flem_conclude(fs, p: Poly, q: Poly, mode: str) -> bool:
    """Check a gradient-annihilation hypothesis and assert its conclusion.

    mode "i":  J(p/q) . f(p/q) = J(p/q) . f'(p/q) = 0;
    mode "ii": J(p/q) . f(p/q) = Jq . f(p/q) = 0.
    Returns whether the hypothesis holds; when it does, the conclusion
    Jp . f = Jq . f = 0 is verified on the coefficient vectors of f, and
    a failure there is an internal alarm.

    With J(p/q) = G / q^2, G_j = q d_jp - p d_jq, and f(p/q) = F / q^s,
    each dot product is zero iff its numerator is: G . F and G . F' in
    mode i (F' the same evaluation of f'), G . F and Jq . F in mode ii.
    G is the row of _k_jacobian_rows, from the grad p and grad q that the
    conclusion reads.
    """
    if mode not in ("i", "ii"):
        raise ValueError(f"unknown mode {mode!r}")
    fs = tuple(fs)
    ring = p.ring
    n = _require_square(len(fs), ring)
    if not is_primitive([p, q]):
        raise NotCoprime("gcd(p, q) is not a unit")
    if p.total_degree() > q.total_degree():
        raise DegreeOrder("deg p exceeds deg q")
    if all(f.is_zero() for f in fs):
        return True
    ders = [f.derivative(0) for f in fs] if mode == "i" else []
    group = [p, q, *_substitute([*fs, *ders], [p], [q], ring)]
    ints = _k_ints(fs)[1]

    def dots(K, packed):
        kp, kq, *at = packed[0]
        grads = _k_gradients([kp, kq], K)
        ratio = _k_jacobian_rows(kq, grads[1], [kp], [grads[0]], K)[0]
        second = _k_dot(ratio, at[n:], K) if mode == "i" else _k_dot(grads[1], at, K)
        hypothesis = not _k_dot(ratio, at[:n], K) and not second
        if hypothesis and not _annihilates(K, grads, ints):
            raise AssertionFailure("hypothesis held but Jp . f = Jq . f = 0 failed")
        return hypothesis

    return on_kernel([group], dots)


class SpanBoundReport(Record):
    spanning_vectors: list
    span_dim: int
    rank_core: int
    bound: int
    bound_satisfied: bool


def constant_span_bound(h_map: RatMap) -> SpanBoundReport:
    """Span of the constant coefficient vectors of H(y) against n - rk J(core).

    H(y), cleared of denominators, is a polynomial tuple; the K-span of its
    monomial coefficient vectors must fit inside the kernel of J(core),
    whose dimension is n minus the rank.  Requires the trace identity to
    hold for H.
    """
    n = _require_square(h_map.m, h_map.ring)
    if h_map.is_zero():
        return SpanBoundReport([], 0, 0, n, True)
    cleared = clear_denominators(h_map.comps)
    core = _split_content(cleared[1], with_g=False)[1]
    # rank J(core), or None where the trace identity fails
    rank_core = _on_numerators(
        cleared, core, lambda K, num, c: _bareiss_rank(K, c[1]) if _trace_sides(K, *num)[0] else None
    )
    if rank_core is None:
        raise PreconditionNotVerified("the trace identity does not hold for H")
    field = h_map.ring.field
    # the coefficient vectors of H(y) are those of H(x)
    vectors = coefficient_rows(cleared[1], field)
    chosen = independent_subset(vectors, field)
    dim = len(chosen)
    bound = n - rank_core
    return SpanBoundReport(
        [vectors[i] for i in chosen], dim, rank_core, bound, dim <= bound
    )
