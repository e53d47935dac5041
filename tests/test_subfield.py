import itertools
import json
import re
from fractions import Fraction

import pytest

from conftest import (
    random_coprime_pair,
    random_homog_poly,
    random_nonzero_poly,
    random_poly,
    random_ratfunc,
    reference_member_Kp,
    reference_member_Kpq,
    reference_trdeg_bounded_dependence,
    reference_trdeg_rank,
    seeded,
    time_limit,
)
from ratmaps import cli, homog, polyring, subfield
from ratmaps.errors import (
    AssertionFailure,
    BothConstant,
    CharPUnsupported,
    ConstantP,
    NotCoprime,
    SingularMatrix,
    WitnessRejected,
)
from ratmaps.fields import PrimeField, QQ
from ratmaps.homog import HomogTuple, bi_ring, uni_ring
from ratmaps.polyring import (
    Poly,
    PolyRing,
    RatFunc,
    RatMap,
    compose_poly,
    eval_univar_at_ratio,
    is_primitive,
    relabel,
)
from ratmaps.subfield import (
    LurothWitness,
    _exponents_upto,
    Mobius,
    adjoin_t,
    enother_chain,
    gcd_subst_homog,
    gcd_subst_uni,
    hmgrk2_verify,
    luroth_generator_1var,
    member_Kp,
    member_Kpq,
    mobius_equiv,
    trdeg_bounded_dependence,
    trdeg_rank,
    unit_combination,
)

R2 = PolyRing(QQ, ("x1", "x2"))
X1, X2 = R2.var(0), R2.var(1)
R1 = PolyRing(QQ, ("x1",))
U = R1.var(0)
YR = uni_ring(QQ)
Y = YR.var(0)
BR = bi_ring(QQ)
Y1, Y2 = BR.var(0), BR.var(1)


# -- transcendence degree -----------------------------------------------------


def test_trdeg_veronese():
    h = RatMap.from_polys([X1**2, X1 * X2, X2**2])
    # relation H2^2 = H1 H3 caps the degree at 2; the 3x2 Jacobian has rank 2
    assert trdeg_rank(h, False) == 2
    # worked value: the 3x3 Jacobian determinant of t*(x1^2, x1x2, x2^2)
    # with respect to (x1, x2, t) expands to zero
    assert trdeg_rank(h, True) == 2


def test_trdeg_single_component():
    # K(t*x1) is generated by one element, so its transcendence degree is 1
    assert trdeg_rank(RatMap.from_polys([U]), True) == 1
    assert trdeg_rank(RatMap.from_polys([U]), False) == 1


def test_trdeg_char_p_rejected():
    field = PrimeField(5)
    ring = PolyRing(field, ("x1",))
    with pytest.raises(CharPUnsupported):
        trdeg_rank(RatMap.from_polys([ring.var(0)]), False)


def test_trdeg_monotone_and_scaling_random():
    rng = seeded(14)
    for _ in range(60):
        comps = [random_ratfunc(rng, R2, 2, 2) for _ in range(rng.randint(1, 3))]
        h = RatMap(comps)
        t0 = trdeg_rank(h, False)
        t1 = trdeg_rank(h, True)
        assert t0 <= t1 <= t0 + 1
        g = random_ratfunc(rng, R2, 2, 2)
        if g.is_zero():
            continue
        assert trdeg_rank(h.scale(g), True) == t1


def random_linear_form(rng, ring):
    while True:
        form = ring.zero()
        for i in range(ring.nvars):
            form = form + ring.const(rng.randint(-2, 2)) * ring.var(i)
        if not form.is_zero():
            return form


def random_degree_one_ratfunc(rng, ring):
    """A quotient of products of linear forms, homogeneous of degree 1."""
    e = rng.randint(0, 2)
    num, den = random_linear_form(rng, ring), ring.one()
    for _ in range(e):
        num = num * random_linear_form(rng, ring)
        den = den * random_linear_form(rng, ring)
    return RatFunc(num, den)


def random_trdeg_map(rng, ring):
    """1-4 components mixing the shapes the rank must handle."""
    m = rng.randint(1, 4)
    if rng.random() < 0.2:
        # homogeneous of one degree: H = J(H) x by Euler's relation, so the
        # t column of J(tH) adds nothing to the rank, whatever the denominators
        return RatMap([random_degree_one_ratfunc(rng, ring) for _ in range(m)])
    shared = random_nonzero_poly(rng, ring, 2, 2)
    comps = []
    for _ in range(m):
        kind = rng.randrange(7 if comps else 6)
        if kind == 0:
            comps.append(RatFunc.from_poly(ring.zero()))
        elif kind == 1:
            comps.append(RatFunc.from_poly(ring.const(rng.randint(-3, 3))))
        elif kind == 2:
            comps.append(RatFunc.from_poly(random_poly(rng, ring, 3, 3)))
        elif kind == 3:
            comps.append(random_ratfunc(rng, ring, 2, 3))
        elif kind == 4:
            # a denominator with a repeated factor
            base = random_nonzero_poly(rng, ring, 2, 2)
            comps.append(RatFunc(random_poly(rng, ring, 2, 3), base ** rng.randint(2, 3)))
        elif kind == 5:
            comps.append(RatFunc(random_poly(rng, ring, 2, 3), shared))
        else:
            # algebraically dependent on the earlier components
            a, b = rng.choice(comps), rng.choice(comps)
            comps.append(rng.choice([a * b, a * a + b, a + a]))
    if rng.random() < 0.1:
        comps = [RatFunc.from_poly(ring.zero()) for _ in comps]
    return RatMap(comps)


def test_trdeg_rank_matches_normalised_jacobian_random():
    rng = seeded(41)
    for n in (1, 2, 3):
        ring = PolyRing(QQ, tuple(f"x{i + 1}" for i in range(n)))
        seen = set()
        for _ in range(70):
            h = random_trdeg_map(rng, ring)
            for with_t in (False, True):
                rank = trdeg_rank(h, with_t)
                assert rank == reference_trdeg_rank(h, with_t), (h, with_t)
                seen.add(rank)
        assert seen == set(range(n + 2)), (n, seen)


def test_trdeg_with_t_reads_a_variable_named_t_as_any_other():
    # trdeg_rank builds no ring with t (the t entry of row k is N_k D_k), so
    # a map over a ring with a variable named t gets its renamed copy's rank;
    # adjoin_t, which does build K[x, t], still refuses such a ring
    ring, renamed = PolyRing(QQ, ("x1", "t")), PolyRing(QQ, ("x1", "x2"))
    x, t = ring.var(0), ring.var(1)
    ranks = []
    for comps in ([x, t], [x, x**2], [x * t], [x**2, x * t, t**2]):
        h = RatMap.from_polys(comps)
        copy = RatMap.from_polys([relabel(c, renamed, [0, 1]) for c in comps])
        for with_t in (False, True):
            ranks.append(trdeg_rank(h, with_t))
            assert ranks[-1] == trdeg_rank(copy, with_t), (comps, with_t)
    assert ranks == [2, 2, 1, 2, 1, 1, 2, 2]
    with pytest.raises(ValueError, match="named t"):
        adjoin_t(RatMap.from_polys([t]))


def test_bounded_dependence_examples():
    field2 = PrimeField(2)
    ring = PolyRing(field2, ("x1", "x2"))
    a, b = ring.var(0), ring.var(1)
    res = trdeg_bounded_dependence(RatMap.from_polys([a**2, a * b, b**2]), False, 2)
    assert res.value == 2 and res.certified is False
    assert res.relations  # H2^2 - H1 H3 is found

    res = trdeg_bounded_dependence(RatMap.from_polys([X1, X2]), False, 3)
    assert res.value == 2 and not res.relations

    res = trdeg_bounded_dependence(RatMap.from_polys([X1, X1**2]), False, 2)
    assert res.value == 1


def random_dependence_map(rng, ring):
    """1-3 random fractions, sometimes zero or constant, often with a
    planted relation: h3 = h1^2 + h2, h2 = h1^2 or the homogeneous
    h2 h3 = h1^2, which tH keeps."""
    comps = [random_ratfunc(rng, ring, 2, 2) for _ in range(rng.randint(1, 3))]
    shape = rng.randrange(4)
    if shape == 0 and len(comps) == 3:
        comps[2] = comps[0] * comps[0] + comps[1]
    elif shape == 1 and len(comps) == 3 and not comps[1].is_zero():
        comps[2] = comps[0] * comps[0] / comps[1]
    elif shape < 3 and len(comps) >= 2:
        comps[-1] = comps[0] * comps[0]
    return RatMap(comps)


@pytest.mark.parametrize("p", [2, 3, 7, 101, 32003])
def test_bounded_dependence_matches_ratfunc_reference_random(p):
    rng = seeded(30 + p)
    ring = PolyRing(PrimeField(p), ("x1", "x2"))
    found = 0
    for _ in range(40):
        h = random_dependence_map(rng, ring)
        bound, with_t = rng.randint(1, 3), rng.random() < 0.5
        expected = reference_trdeg_bounded_dependence(h, with_t, bound).to_dict()
        assert trdeg_bounded_dependence(h, with_t, bound).to_dict() == expected, (
            h,
            with_t,
            bound,
        )
        found += bool(expected["relations"])
    assert found >= 5


def test_adjoin_t_builds_the_reduced_fraction_random():
    # num*t/den is taken as reduced without a gcd; the gcd agrees
    rng = seeded(31)
    for field in (QQ, PrimeField(7)):
        ring = PolyRing(field, ("x1", "x2"))
        ext = PolyRing(field, ("x1", "x2", "t"))
        for _ in range(20):
            h = random_dependence_map(rng, ring)
            for c, ct in zip(h.comps, adjoin_t(h).comps):
                num, den = (relabel(a, ext, [0, 1]) for a in (c.num, c.den))
                assert ct == RatFunc(num * ext.var(2), den)


def test_bounded_dependence_gcds_only_clear_the_denominators(spy):
    # each step's one gcd per denominator builds their lcm; no column
    # takes a gcd, so the count does not grow with the bound
    ring = PolyRing(PrimeField(7), ("x1", "x2"))
    a, b = ring.var(0), ring.var(1)
    h1 = RatFunc(a**2, b + ring.one())
    h2 = RatFunc(a * b, a + b**2 + ring.const(3))
    h3s = [RatFunc(b**3 + a, a**2 + b), h1 * h1 + h2, h1 * h1 / h2]
    cases = [(RatMap([h1, h2, h3]), with_t) for h3 in h3s for with_t in (False, True)]
    expected = [trdeg_bounded_dependence(h, with_t, 4).to_dict() for h, with_t in cases]
    assert expected[2]["relations"] and expected[5]["relations"]

    calls = spy("_gcd2", polyring)
    for (h, with_t), want in zip(cases, expected):
        dens = [c.den for c in (adjoin_t(h) if with_t else h).comps]
        for bound in (1, 4):
            calls.clear()
            got = trdeg_bounded_dependence(h, with_t, bound).to_dict()
            # steps 2 and 3 take 1 and 2 gcds to join their denominators
            assert len(calls) <= 3 and all(y in dens for _, y in calls), (h, with_t, bound)
        assert got == want


def test_exponents_upto_matches_filtered_product():
    # the column order of the nullspace search: by total degree, then
    # lexicographically, as the filter over the whole box produced them
    for nvars in range(1, 5):
        for bound in range(7):
            box = list(itertools.product(range(bound + 1), repeat=nvars))
            expected = [e for total in range(bound + 1) for e in box if sum(e) == total]
            assert _exponents_upto(nvars, bound) == expected, (nvars, bound)


# -- gcd under substitution ---------------------------------------------------


def test_gcd_subst_uni_examples():
    g = gcd_subst_uni([Y**2, Y * (Y + YR.one())], X1 + X2)
    assert g == X1 + X2
    assert gcd_subst_uni([Y, YR.one()], X1).is_one()
    g = gcd_subst_uni([Y - YR.one(), Y + YR.one()], X1**2)
    assert g.is_one()


def test_gcd_subst_homog_examples():
    g = gcd_subst_homog(HomogTuple((Y1**2, Y1 * Y2), 2), X1 + R2.one(), X1**2)
    assert g == X1 + R2.one()
    g = gcd_subst_homog(HomogTuple((Y1**2, Y2**2), 2), X1, X2)
    assert g.is_one()
    g = gcd_subst_homog((Y1**2,), X1, X2)
    assert g == X1**2


def test_gcd_subst_homog_requires_primitive_pair():
    # with the non-primitive pair (x1, x1) the two sides genuinely differ
    # (gcd(h) = 1 but gcd(h1(p,q), h2(p,q)) = x1^2), so the precondition
    # is what protects the identity
    from ratmaps.errors import NotPrimitivePair

    with pytest.raises(NotPrimitivePair):
        gcd_subst_homog(HomogTuple((Y1**2, Y2**2), 2), X1, X1)


def test_gcd_subst_random_agreement():
    # the two routes are computed independently inside; 200 instances
    rng = seeded(15)
    done = 0
    while done < 200:
        m = rng.randint(1, 3)
        s = rng.randint(1, 3)
        polys = tuple(random_homog_poly(rng, BR, s, 3) for _ in range(m))
        if all(p.is_zero() for p in polys):
            continue
        p, q = random_coprime_pair(rng, R2, 4)
        gcd_subst_homog(polys, p, q)  # raises AssertionFailure on mismatch
        done += 1

    done = 0
    while done < 100:
        m = rng.randint(1, 3)
        fs = [random_poly(rng, YR, 3, 3) for _ in range(m)]
        if all(f.is_zero() for f in fs):
            continue
        p = random_nonzero_poly(rng, R2, 3, 3)
        gcd_subst_uni(fs, p)
        done += 1


# -- Moebius equivalence ------------------------------------------------------


def test_mobius_examples():
    t = mobius_equiv(X1, X2, X1 + X2, X2)
    assert t is not None
    num, den = t.apply(X1, X2)
    assert RatFunc(num, den) == RatFunc(X1 + X2, X2)

    t = mobius_equiv(X1, X2, X1, X2)
    assert t is not None and t.proportional_to(
        Mobius(Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    )

    assert mobius_equiv(X1, X2, X1**2, X2**2) is None


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_mobius_equiv_skips_singular_solutions(field):
    # every solution of 1 * (T11 x1 + T12 x2) = 2 * (T21 x1 + T22 x2) has
    # T11 = 2 T21 and T12 = 2 T22, so det T = 0: x1/x2 and 2/1 are not linked
    ring = PolyRing(field, ("x1", "x2"))
    assert mobius_equiv(ring.var(0), ring.var(1), ring.const(2), ring.one()) is None


def test_mobius_singular_matrix_rejected():
    with pytest.raises(SingularMatrix):
        Mobius(Fraction(1), Fraction(2), Fraction(2), Fraction(4))


def _random_gl2(rng):
    while True:
        entries = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
        if entries[0] * entries[3] - entries[1] * entries[2]:
            return Mobius(*entries)


def test_mobius_recovery_random():
    rng = seeded(16)
    for _ in range(60):
        p, q = random_coprime_pair(rng, R2, 3)
        if q.is_zero() or RatFunc(p, q).is_constant():
            continue
        t_true = _random_gl2(rng)
        pstar, qstar = t_true.apply(p, q)
        t_found = mobius_equiv(p, q, pstar, qstar)
        assert t_found is not None
        assert t_found.proportional_to(t_true)
        # reverse direction composes to a scalar matrix: S T = c I
        s_found = mobius_equiv(pstar, qstar, p, q)
        assert s_found is not None
        assert s_found.compose(t_found).is_scalar()


def test_mobius_transitive_random():
    rng = seeded(17)
    for _ in range(25):
        p, q = random_coprime_pair(rng, R2, 2)
        if q.is_zero() or RatFunc(p, q).is_constant():
            continue
        t1, t2 = _random_gl2(rng), _random_gl2(rng)
        p1, q1 = t1.apply(p, q)
        p2, q2 = t2.apply(p1, q1)
        assert mobius_equiv(p, q, p1, q1) is not None
        assert mobius_equiv(p1, q1, p2, q2) is not None
        assert mobius_equiv(p, q, p2, q2) is not None


# -- unit combinations --------------------------------------------------------


def test_unit_combination_examples():
    assert unit_combination(X1, R2.one() - X1) == (Fraction(1), Fraction(1))
    assert unit_combination(X1, X2) is None
    assert unit_combination(X1**2 + R2.one(), X1**2) == (Fraction(1), Fraction(-1))
    with pytest.raises(BothConstant):
        unit_combination(R2.one(), R2.const(2))
    with pytest.raises(NotCoprime):
        unit_combination(X1**2, X1)


def test_unit_combination_soundness_random():
    rng = seeded(18)
    for _ in range(80):
        p, q = random_coprime_pair(rng, R2, 3)
        combo = unit_combination(p, q)
        if combo is not None:
            lam, mu = combo
            assert p.scale(lam) + q.scale(mu) == R2.one()


def test_enother_chain_examples():
    ch = enother_chain(X1, R2.one() - X1)
    assert ch.has_unit_combo and ch.contains_nonconstant_poly and ch.field_equals_Kpq
    # verification exhibits p and q as polynomials in the generator
    assert ch.generator == X1

    ch = enother_chain(X1, X2)
    assert not ch.has_unit_combo and not ch.field_equals_Kpq

    ch = enother_chain(X1**2 + R2.one(), X1**2)
    assert ch.has_unit_combo  # K(p/q) = K(x1^2)


def test_enother_acceptance_style_random():
    rng = seeded(19)
    # constructed positives: q = 1 - lam*p has lam*p + q = 1
    for _ in range(30):
        p = random_nonzero_poly(rng, R2, 3, 3)
        if p.is_constant():
            continue
        q = R2.one() - p
        if not is_primitive([p, q]):
            continue
        ch = enother_chain(p, q)
        assert ch.has_unit_combo and ch.field_equals_Kpq


# -- membership ---------------------------------------------------------------


def test_member_kp_examples():
    f = member_Kp(X1**4 + R2.const(2) * X1**2, X1**2)
    assert f == Y**2 + YR.const(2) * Y
    # degree obstruction: x1^3 is not a polynomial in x1^2
    assert member_Kp(X1**3, X1**2) is None
    assert member_Kp(R2.const(5), X1) == YR.const(5)
    with pytest.raises(ConstantP):
        member_Kp(X1, R2.one())


def test_member_kp_random_soundness():
    rng = seeded(20)
    from ratmaps.polyring import compose_poly

    for _ in range(40):
        p = random_nonzero_poly(rng, R2, 2, 2)
        if p.is_constant():
            continue
        f_true = random_nonzero_poly(rng, YR, 3, 3)
        r = compose_poly(f_true, [p], R2)
        f = member_Kp(r, p)
        assert f is not None
        assert compose_poly(f, [p], R2) == r


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(32003)])
def test_member_kp_matches_power_reference_random(field):
    rng = seeded(21)
    ring = PolyRing(field, ("x1", "x2"))
    yring = uni_ring(field)
    found = 0
    for _ in range(40):
        p = random_nonzero_poly(rng, ring, 2, 3)
        if p.is_constant():
            continue
        if rng.random() < 0.5:
            r = compose_poly(random_poly(rng, yring, 3, 3), [p], ring)
        else:
            r = random_poly(rng, ring, 4, 4)
        out = member_Kp(r, p)
        if r.is_constant():
            assert out is not None and compose_poly(out, [p], ring) == r
            continue
        assert out == reference_member_Kp(r, p), (r, p)
        found += out is not None
    assert found >= 10


def test_member_kpq_examples():
    out = member_Kpq(RatFunc(X2**2, X1**2), X1, X2, 2)
    assert out is not None and out[0] == YR.one() and out[1] == Y**2
    out = member_Kpq(RatFunc(X1, X2), X1, X2, 1)
    assert out == (Y, YR.one())
    # x1 + x2 is not degree-0 homogeneous in (x1, x2), hence not in K(x1/x2)
    assert member_Kpq(RatFunc.from_poly(X1 + X2), X1, X2, 3) is None


def test_member_kpq_bound_is_not_a_negative_certificate():
    # the generator itself is found only once the bound is large enough
    r = RatFunc(X2**2, X1**2)
    assert member_Kpq(r, X1, X2, 1) is None
    assert member_Kpq(r, X1, X2, 2) is not None


def random_kpq_case(rng, ring):
    """(r, p, q) with p and q often sharing a planted factor, p sometimes 0
    or a multiple of q, and r constant, random or f1(p/q)/f2(p/q)."""
    p = random_poly(rng, ring, 2, 3)
    q = random_nonzero_poly(rng, ring, 2, 3)
    shape = rng.randrange(10)
    if shape == 0:
        p = ring.zero()
    elif shape == 1:
        p = q.scale(ring.field.from_int(rng.randint(1, 4)))
    elif shape < 5:
        common = random_nonzero_poly(rng, ring, 1, 2)
        p, q = p * common, q * common
    kind = rng.randrange(6)
    if kind == 0:
        return RatFunc.from_poly(ring.const(rng.randint(-2, 2))), p, q
    if kind == 1:
        return random_ratfunc(rng, ring, 2, 3), p, q
    yring = uni_ring(ring.field)
    f1 = random_poly(rng, yring, 2, 3)
    f2 = random_nonzero_poly(rng, yring, 2, 3)
    s = max(f1.total_degree(), f2.total_degree(), 0)
    den = eval_univar_at_ratio(f2, p, q, s)
    if den.is_zero():
        return random_ratfunc(rng, ring, 2, 3), p, q
    return RatFunc(eval_univar_at_ratio(f1, p, q, s), den), p, q


def test_member_kpq_matches_degree_loop_reference():
    rng = seeded(66)
    found = 0
    for field in (QQ, PrimeField(7), PrimeField(101)):
        for n in (1, 2, 3):
            ring = PolyRing(field, tuple(f"x{i + 1}" for i in range(n)))
            for _ in range(40):
                r, p, q = random_kpq_case(rng, ring)
                bound = rng.randint(0, 4)
                out = member_Kpq(r, p, q, bound)
                assert out == reference_member_Kpq(r, p, q, bound), (r, p, q, bound)
                found += out is not None
    assert found > 100


def test_member_kpq_constant_cases():
    assert member_Kpq(RatFunc.from_poly(R2.zero()), X1, X2, 0) == (YR.zero(), YR.one())
    three = RatFunc.from_poly(R2.const(3))
    assert member_Kpq(three, X1 + X2, X1, 5) == (YR.const(3), YR.one())
    # K(p/q) = K when p = 0 or p = c q
    r = RatFunc(X1, X2)
    assert member_Kpq(r, R2.zero(), X2, 4) is None
    assert member_Kpq(r, (X1 + X2).scale(Fraction(2, 3)), X1 + X2, 4) is None


def test_member_kpq_solves_one_system_whatever_the_bound():
    # r is not in K(p/q); the degree loop took over 10 s here at bound 40
    r = RatFunc.from_poly(X1**2 + X2)
    p, q = X1 + X2**2, X2
    with time_limit(1):
        assert member_Kpq(r, p, q, 10**6) is None
    # a member is found at its forced degree e = 3, and only from there on
    f1, f2 = Y**3 - Y + YR.one(), Y**2 + YR.const(2)
    r = RatFunc(eval_univar_at_ratio(f1, p, q, 3), eval_univar_at_ratio(f2, p, q, 3))
    with time_limit(1):
        assert member_Kpq(r, p, q, 10**6) == member_Kpq(r, p, q, 3) == (f1, f2)
    assert member_Kpq(r, p, q, 2) is None
    assert reference_member_Kpq(r, p, q, 3) == (f1, f2)


# -- the constructive generator ------------------------------------------------


def test_luroth_integral_closure_example():
    p, q = luroth_generator_1var(
        [RatFunc.from_poly(U**2), RatFunc.from_poly(U**3)]
    )
    # the generator of K(x1^2, x1^3) is x1 itself, up to a Moebius transform
    assert mobius_equiv(U, R1.one(), p, q) is not None


def test_luroth_single_input():
    p, q = luroth_generator_1var([RatFunc.from_poly(U)])
    assert p == U and q == R1.one()


def test_luroth_difference_example():
    p, q = luroth_generator_1var(
        [RatFunc.from_poly(U**2 + U), RatFunc.from_poly(U**2)]
    )
    assert mobius_equiv(U, R1.one(), p, q) is not None


def test_luroth_membership_random():
    # inputs generated inside a common subfield K(theta); the generator
    # routine re-verifies every input against its own output internally
    rng = seeded(21)
    from ratmaps.polyring import subst

    done = 0
    while done < 25:
        theta = RatFunc(
            random_nonzero_poly(rng, R1, 2, 2), random_nonzero_poly(rng, R1, 2, 2)
        )
        if theta.is_constant():
            continue
        fs = [random_nonzero_poly(rng, YR, 2, 2) for _ in range(rng.randint(1, 3))]
        inputs = [subst(f, [theta], R1) for f in fs]
        if all(r.is_constant() for r in inputs):
            continue
        luroth_generator_1var(inputs)
        done += 1


# -- decomposition witness verification ----------------------------------------


def test_hmgrk2_verify_veronese():
    h_map = RatMap.from_polys([X1**2, X1 * X2, X2**2])
    h = HomogTuple((Y1**2, Y1 * Y2, Y2**2), 2)
    w = LurothWitness(RatFunc.from_poly(R2.one()), h, X1, X2)
    report = hmgrk2_verify(h_map, w)
    assert report.all_ok()
    assert report.trdeg_tH == 2


def test_hmgrk2_verify_constant_map():
    ring = PolyRing(QQ, ("x1",))
    h_map = RatMap.from_polys([ring.const(3), ring.const(5)])
    h = HomogTuple((BR.const(3), BR.const(5)), 0)
    w = LurothWitness(RatFunc.from_poly(ring.one()), h, ring.var(0), ring.one())
    report = hmgrk2_verify(h_map, w)
    assert report.all_ok()
    assert report.trdeg_tH == 1  # h lies in K^2 and trdeg K(tH) = 1


def test_hmgrk2_verify_rejects_bad_witness():
    h_map = RatMap.from_polys([X1**2, X1 * X2, X2**2])
    bad = HomogTuple((Y1**2, Y1 * Y2, Y1 * Y2), 2)
    w = LurothWitness(RatFunc.from_poly(R2.one()), bad, X1, X2)
    with pytest.raises(WitnessRejected):
        hmgrk2_verify(h_map, w)


VERONESE_ENTRY = {"g": "1", "h": "(y1^2, y1*y2, y2^2)", "p": "x1", "q": "x2"}
VERONESE_H = HomogTuple((Y1**2, Y1 * Y2, Y2**2), 2)


@pytest.mark.parametrize(
    "change, entry, message",
    [
        ({"g": R2.zero()}, {"g": "0"}, "g must be nonzero"),
        ({"h": VERONESE_H.polys}, None, "h must be a HomogTuple or None"),
        (
            {"h": HomogTuple((Y1**2, Y1 * Y2, Y1 * Y2), 2)},
            {"h": "(y1^2, y1*y2, y1*y2)"},
            "h must be primitive or zero",
        ),
        ({"p": R2.const(1), "q": R2.const(2)}, {"p": "1", "q": "2"}, "(p, q) must not be constant"),
        ({"p": X1**2, "q": X1 * X2}, {"p": "x1^2", "q": "x1*x2"}, "(p, q) must be primitive"),
        ({"h": HomogTuple((Y1, Y2), 1)}, {"h": "(y1, y2)"}, "h has the wrong number of components"),
        # every precondition holds; the identity itself fails
        ({"p": X2, "q": X1}, {"p": "x2", "q": "x1"}, "H = g * h(p, q) fails at component 0"),
    ],
)
def test_hmgrk2_verify_rejects_each_precondition(tmp_path, capsys, change, entry, message):
    """Each precondition of hmgrk2_verify, then its identity, rejects a
    witness that passes the earlier ones, with its own message: from the
    library, and where a witness file can state it, through the CLI (exit
    1).  A tuple that is not a HomogTuple can only be passed from the
    library."""
    w = {"g": R2.one(), "h": VERONESE_H, "p": X1, "q": X2, **change}
    h_map = RatMap.from_polys([X1**2, X1 * X2, X2**2])
    with pytest.raises(WitnessRejected) as exc:
        hmgrk2_verify(h_map, LurothWitness(RatFunc.from_poly(w["g"]), w["h"], w["p"], w["q"]))
    assert str(exc.value) == message
    if entry is not None:
        path = tmp_path / "w.json"
        path.write_text(json.dumps({**VERONESE_ENTRY, **entry}))
        assert cli.main(["hmgrk2-verify", "(x1^2, x1*x2, x2^2)", "--witness", str(path)]) == 1
        assert capsys.readouterr() == ("", f"precondition violated: {message}\n")


def test_hmgrk2_verify_zero_map():
    h_map = RatMap.from_polys([R2.zero(), R2.zero()])
    w = LurothWitness(RatFunc.from_poly(R2.one()), None, X1, X2)
    report = hmgrk2_verify(h_map, w)
    assert report.all_ok()


def test_hmgrk2_verify_takes_the_gcd_of_h_once(spy):
    """h is tested for primitivity once, in the preconditions; the
    four-way equivalence reads that verdict and prints the same detail."""
    seen = spy("is_primitive", subfield)
    one = RatFunc.from_poly(R2.one())
    h = HomogTuple((Y1**2, Y1 * Y2, Y2**2), 2)
    cases = [
        (RatMap.from_polys([X1**2, X1 * X2, X2**2]), LurothWitness(one, h, X1, X2), "True"),
        (RatMap.from_polys([R2.zero()] * 3), LurothWitness(one, None, X1, X2), "False"),
    ]
    for target, w, verdict in cases:
        seen.clear()
        report = hmgrk2_verify(target, w)
        assert report.all_ok()
        assert sum(polys is h.polys for polys, in seen) == (w.h is not None)
        item = next(i for i in report.items if i.name.startswith("H != 0"))
        assert item.detail == ", ".join([verdict] * 4)


def test_hmgrk2_verify_substitutes_h_once(spy):
    """The degree formulas are checked on the images h(p, q) the identity
    already took; h was proved primitive, so no gcd of h is taken again."""
    substitutions = spy("_substitute", polyring, homog, subfield)
    gcds = spy("gcd_many", polyring, homog, subfield)
    h_map = RatMap.from_polys([X1**2, X1 * X2, X2**2])
    h = HomogTuple((Y1**2, Y1 * Y2, Y2**2), 2)
    report = hmgrk2_verify(h_map, LurothWitness(RatFunc.from_poly(R2.one()), h, X1, X2))
    assert report.all_ok()
    item = next(i for i in report.items if i.name == "degree formulas")
    assert item.detail == "deg 2, low deg 2"
    # through degree_formula, h would be substituted and its gcd taken again: 2 and 4
    assert (len(substitutions), len(gcds)) == (1, 3)


# -- the internal alarms fire on a wrong but well-typed value -----------------


def test_gcd_subst_homog_alarm_fires_on_a_wrong_gcd_of_the_images(monkeypatch, capsys):
    # gcd(h) as it is, but the gcd of the images h_i(p, q) comes back as 1:
    # gcd(h)(p, q) = x1 + 1 disagrees, an internal alarm, exit 3 on the CLI
    real = subfield.gcd_many

    def wrong(polys):
        return real(polys) if "y1" in polys[0].ring.names else polys[0].ring.one()

    monkeypatch.setattr(subfield, "gcd_many", wrong)
    with pytest.raises(AssertionFailure, match="gcd does not commute with substitution"):
        gcd_subst_homog((Y1**2, Y1 * Y2), X1 + R2.one(), X1**2)
    assert cli.main(["gcd-subst", "--mode", "homog", "(y1^2, y1*y2)", "x1+1", "x1^2"]) == 3
    assert "gcd does not commute with substitution" in capsys.readouterr().err


def test_enother_chain_membership_alarm_fires(monkeypatch, capsys):
    # x1 + (1 - x1) = 1, so x1 and 1 - x1 lie in K[x1]; a membership test
    # that answers None contradicts it
    monkeypatch.setattr(subfield, "member_Kp", lambda r, p: None)
    message = "unit combination exists but a membership verification failed"
    with pytest.raises(AssertionFailure, match=message):
        enother_chain(X1, R2.one() - X1)
    assert cli.main(["enother", "x1", "1-x1"]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["member-kpq", "(x2^2)/(x1^2)", "x1", "x2", "--bound", "2"],
        ["member-kpq", "(x2^2)/(x1^2)", "x1*x2", "x2^2", "--bound", "6"],
    ],
)
def test_member_kpq_single_pair_alarm_fires(monkeypatch, capsys, argv):
    # the nullspace's one pair (f1, f2), but its cross-multiplied check fails
    monkeypatch.setattr(subfield, "cross_equal", lambda *polys: False)
    with pytest.raises(AssertionFailure, match="no single pair of degree 2 represents r"):
        member_Kpq(RatFunc(X2**2, X1**2), X1, X2, 2)
    assert cli.main(argv) == 3
    assert "no single pair of degree" in capsys.readouterr().err


def _constant_in_y(polys):
    return polys[0].ring.one()


def _y_minus_one(polys):
    ring = polys[0].ring
    return ring.var(1) - ring.one()


@pytest.mark.parametrize(
    "name, fault, message",
    [
        ("gcd_many", _constant_in_y, "minimal polynomial degenerated to degree zero"),
        ("gcd_many", _y_minus_one, "no nonconstant coefficient in the minimal polynomial"),
        ("member_Kpq", lambda *args: None, "an input fell outside the field"),
    ],
)
def test_luroth_generator_alarms_fire(monkeypatch, capsys, name, fault, message):
    # a minimal polynomial constant in Y, or Y - 1 with no coefficient in x,
    # or a membership search that misses an input
    monkeypatch.setattr(subfield, name, fault)
    with pytest.raises(AssertionFailure, match=message):
        luroth_generator_1var([U**2, U**3])
    assert cli.main(["luroth-gen", "x1^2", "x1^3"]) == 3
    assert message in capsys.readouterr().err


def _substitute_times(monkeypatch, module, factor):
    """module's _substitute with every result multiplied by factor."""
    real = module._substitute
    monkeypatch.setattr(module, "_substitute", lambda *args: [t * factor for t in real(*args)])


@pytest.mark.parametrize(
    "factor, message",
    [(R2.zero(), r"h\(p, q\) vanished"), (X1, r"degree formula mismatch: expected \(2, 2\)")],
)
def test_degree_check_alarms_fire(monkeypatch, factor, message):
    # the images h(p, q) come back all zero, or times x1: degree_formula
    # raises, and hmgrk2_verify, whose H is built from the same images so
    # that its identity holds, reports the failed degree formulas
    h = HomogTuple((Y1**2, Y1 * Y2, Y2**2), 2)
    _substitute_times(monkeypatch, homog, factor)
    with pytest.raises(AssertionFailure, match=message):
        homog.degree_formula(h, X1, X2)
    _substitute_times(monkeypatch, subfield, factor)
    h_map = RatMap.from_polys([t * factor for t in (X1**2, X1 * X2, X2**2)])
    report = hmgrk2_verify(h_map, LurothWitness(RatFunc.from_poly(R2.one()), h, X1, X2))
    item = next(i for i in report.items if i.name == "degree formulas")
    assert item.status == "fail" and re.match(message, item.detail), item


def test_tuple_is_homogeneous_reads_one_degree_set():
    # zero entries carry no terms; the all-zero tuple is homogeneous
    zero, one = R2.zero(), R2.one()
    cases = [
        ([], True),
        ([zero, zero], True),
        ([zero, X1**2, X1 * X2], True),
        ([one, R2.const(3), zero], True),
        ([X1, X2**2], False),  # each homogeneous, of two degrees
        ([X1**2 + X2, X2**2], False),  # an entry that is not homogeneous
        ([zero, X1 + one], False),
    ]
    for polys, expected in cases:
        assert subfield._tuple_is_homogeneous(polys) is expected, polys


def test_hmgrk2_verify_char_p_skips_trdeg_checks():
    field = PrimeField(5)
    ring = PolyRing(field, ("x1", "x2"))
    a, b = ring.var(0), ring.var(1)
    h_map = RatMap.from_polys([a**2, a * b, b**2])
    bring = bi_ring(field)
    y1, y2 = bring.var(0), bring.var(1)
    h = HomogTuple((y1**2, y1 * y2, y2**2), 2)
    w = LurothWitness(RatFunc.from_poly(ring.one()), h, a, b)
    report = hmgrk2_verify(h_map, w)
    assert report.all_ok()
    statuses = {item.name: item.status for item in report.items}
    assert statuses["trdeg K(tH) = trdeg K(th(p,q))"] == "skip"
    assert statuses["trdeg K(tH) <= 1 <=> h constant"] == "skip"
    assert statuses["degree formulas"] == "pass"
