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
the packed-int kernel: no check reduces a fraction.  The classifier clears
H once, and each of its checks is one packing: one kernel Jacobian of H
answers (1) and trdeg K(tH), one of the core answers (2) and the
characteristic-zero remark, and each witness is substituted, compared with
H and gradient-tested inside one more (_verify_witness).  The Jacobian rows,
as in subfield.trdeg_rank, are polyring's _k_jacobian_rows.
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
    _k_sub,
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


def _on_cleared_jacobian(cleared, fn):
    """fn(K, N, m) on the kernel for cleared = (D, N), H = N / D, and m the
    rows of _k_jacobian_rows; over QQ one integer scales all.  The slot width
    is on_kernel's, from deg (D, N)."""
    d, nums = cleared

    def run(K, packed):
        d, *nums = packed[0]
        grad_d, *grads = _k_gradients([d, *nums], K)
        return fn(K, nums, _k_jacobian_rows(d, grad_d, nums, grads, K))

    return on_kernel([[d, *nums]], run)


def _trace_conditions(h: RatMap):
    """(JH . H = tr JH . H, JH . H = 0), decided on cleared numerators:
    over D^3, JH . H is m . N and tr JH . H is tr m times N."""
    _require_square(h.m, h.ring)
    return _on_cleared_jacobian(clear_denominators(h.comps), _trace_sides)


def _trace_sides(K, nums, m):
    n = len(nums)
    trace = _k_dot([{0: 1}] * n, [m[i][i] for i in range(n)], K)
    qt = zero = True
    for k in range(n):
        lhs = _k_dot(nums, m[k], K)
        zero = zero and not lhs
        qt = qt and not _k_sub(lhs, _k_mul(nums[k], trace, K), K)
    return qt, zero


def _classify_sides(K, nums, m):
    """_trace_sides and, in characteristic zero, trdeg K(tH) = rank [m | N]:
    D^2 times row k of J(tH) over (x, t) is [t m_k, D N_k], and column
    scalings (by t, by D, over QQ by the clearing integer) keep the rank.
    Bareiss on [m | N] forms products of degree up to 4(n-1) deg (D, N);
    where they outgrow the first slot width, the pass reruns wider
    (_on_packing)."""
    rank = None if K.mod else _bareiss_rank(K, [[*r, nk] for r, nk in zip(m, nums)])
    return (*_trace_sides(K, nums, m), rank)


def _core_sides(K, nums, m):
    """(condition (2), J(core) . core = 0) for the polynomial core nums with
    Jacobian m (see bivariate_core_check)."""
    trace = _k_dot([{0: 1}] * len(m), [row[i] for i, row in enumerate(m)], K)
    zero = not any(_k_dot(nums, row, K) for row in m)
    return not trace and _annihilates(K, m, nums), zero


def qt_condition(h: RatMap) -> bool:
    """Exact test of JH . H = tr JH . H."""
    return _trace_conditions(h)[0]


def classical_gn_condition(h: RatMap) -> bool:
    """The original hypothesis JH . H = 0, kept as a separate named check."""
    return _trace_conditions(h)[1]


class GquasiReport(Record):
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
    """Whether (JH)^n = 0 over K(x): JH is m (_k_jacobian_rows) over a
    nonzero factor, so iff m^n = 0 on the kernel."""
    _require_square(h.m, h.ring)
    return _on_cleared_jacobian(clear_denominators(h.comps), _nilpotent)


def _nilpotent(K, nums, m):
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
    return _on_cleared_jacobian((core[0].ring.one(), core), _core_sides)[0]


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

    def to_dict(self):
        return {"kind": self.kind, "verified": self.verified, "reason": self.reason}


def _verify_witness(h_map: RatMap, w: GNWitness):
    """(verified, reason), decided on one packing after the preconditions.

    The groups are (p, q), (g.num, g.den) and each (H_k.num, H_k.den), each
    on its own scale.  Inside, one substitution of the blocks and of 1
    gives F and F(1) (h(p, q) and 1 for cond3; q^s f(p/q) and q^s for cond4
    and cond5) on the scale of (p, q); then H = g F / F(1) is checked as
    g.num F_k H_k.den = H_k.num g.den F(1), linear in every group, and last
    J(F) . F = 0 for cond3 (F(1) is a constant, so J(F) is the plain
    gradients), resp. Jp . f = Jq . f = 0 on the coefficient vectors of f.
    A product that outgrows the first slot width reruns the whole check
    wider (_on_packing).
    """
    m, c = h_map.m, h_map.ring.field.characteristic
    cond3 = w.kind == "cond3"
    if cond3:
        if not is_primitive([w.p, w.q]):
            return False, "gcd(p, q) is not a unit"
        if w.h is not None and not isinstance(w.h, HomogTuple):
            return False, "h must be a HomogTuple or None"
        blocks = [bi_ring(h_map.ring.field).zero()] * m if w.h is None else w.h.polys
        if len(blocks) != m:
            return False, "h has the wrong number of components"
        if w.h is not None and w.h.degree > 0 and c > 0 and w.h.degree % c == 0:
            return False, "characteristic divides deg h"
        shape = "h(p,q)"
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
        shape = "f(p/q)"
    else:
        return False, f"unknown witness kind {w.kind!r}"
    ring = w.p.ring
    if w.q.ring != ring or blocks[0].ring.field != ring.field:
        raise RingMismatch("the blocks, p and q of a witness lie in different rings")
    ints = _k_ints([*blocks, blocks[0].ring.one()])[1]
    maxes = _k_maxes(ints, 2 if cond3 else 1)
    s, pq = _k_ints([w.p, w.q])
    groups = [pq, _k_ints([w.g.num, w.g.den])[1]]
    groups += [_k_ints([hk.num, hk.den])[1] for hk in h_map.comps]

    def checks(K, packed):
        (kp, kq), (gn, gd), *hs = packed
        nums, dens = ({0: kp, 1: kq}, {}) if cond3 else ({0: kp}, {0: kq})
        *F, F1 = _k_substitute(ints, maxes, nums, dens, s, K)
        k = _k_first_mismatch(gn, gd, F1, F, hs, K)
        if k is not None:
            return f"H = g*{shape} fails at component {k}"
        if cond3:
            if any(_k_dot(F, row, K) for row in _k_gradients(F, K)):
                return "J(h(p,q)) . h(p,q) is nonzero"
        elif not _annihilates(K, _k_gradients([kp, kq], K), ints[:-1]):
            return "Jp . f = Jq . f = 0 fails"
        return ""

    reason = _on_packing(ring.nvars, ring.field.characteristic, groups, checks)
    return not reason, reason


class GNReport(Record):
    qt: bool
    core_bivariate: bool
    classical_zero: bool
    trdeg_tH: object = None
    core: tuple = ()
    witnesses: list = []
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
    precondition trdeg K(tH) <= 2 is enforced, on the Jacobian of (1); in
    positive characteristic it is the caller's assertion.
    """
    _require_square(h_map.m, h_map.ring)
    report = GNReport(False, False, False)
    zero = h_map.is_zero()
    cleared = clear_denominators(h_map.comps)
    report.qt, report.classical_zero, report.trdeg_tH = _on_cleared_jacobian(
        cleared, _classify_sides
    )
    if report.trdeg_tH is not None and report.trdeg_tH > 2:
        raise TrdegTooLarge(
            f"trdeg K(tH) = {report.trdeg_tH} > 2: the classification does not apply"
        )
    report.core = (
        tuple(cleared[1]) if zero else _split_content(cleared[1], with_g=False)[1]
    )
    report.core_bivariate, core_zero = _on_cleared_jacobian(
        (h_map.ring.one(), report.core), _core_sides
    )
    if report.qt != report.core_bivariate:
        raise AssertionFailure(
            "conditions (1) and (2) disagree; the classification theorem forbids this"
        )
    if h_map.ring.field.characteristic == 0 and not zero:
        report.char_zero_remark = {
            "core_jh_dot_h_zero": core_zero,
            "agrees_with_qt": core_zero == report.qt,
        }
    for w in witnesses:
        ok, reason = _verify_witness(h_map, w)
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
    n = _require_square(h_map.m, h_map.ring)
    cleared = clear_denominators(h_map.comps)
    if not _on_cleared_jacobian(cleared, _trace_sides)[0]:
        raise PreconditionNotVerified("the trace identity does not hold for H")
    field = h_map.ring.field
    if h_map.is_zero():
        return SpanBoundReport([], 0, 0, n, True)
    # the coefficient vectors of H(y) are those of H(x)
    vectors = coefficient_rows(cleared[1], field)
    chosen = independent_subset(vectors, field)
    dim = len(chosen)
    core = _split_content(cleared[1], with_g=False)[1]
    rank_core = _on_cleared_jacobian(
        (h_map.ring.one(), core), lambda K, _, m: _bareiss_rank(K, m)
    )
    bound = n - rank_core
    return SpanBoundReport(
        [vectors[i] for i in chosen], dim, rank_core, bound, dim <= bound
    )
