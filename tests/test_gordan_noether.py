from collections import Counter
from fractions import Fraction

import pytest

import time

import refalg
from conftest import (
    plain,
    poly_jacobian,
    random_cond45_case,
    random_homog_poly,
    random_nonzero_poly,
    random_poly,
    random_ratfunc,
    random_square_map,
    reference_bivariate_core_check,
    reference_first_mismatch,
    reference_flem_conclude,
    reference_nilpotent,
    reference_rank,
    reference_substitute,
    reference_trace_conditions,
    reference_trace_sides,
    reference_translation_invariance,
    reference_trdeg_rank,
    reference_verify_witness,
    seeded,
    time_limit,
)
from ratmaps import gordan_noether, polyring, subfield
from ratmaps.errors import (
    AssertionFailure,
    DegreeOrder,
    NotSquare,
    PreconditionNotVerified,
    RingMismatch,
    TrdegTooLarge,
    ZeroScalar,
)
from ratmaps.fields import PrimeField, QQ
from ratmaps.homog import HomogTuple, bi_ring, compose_homog_at, uni_ring
from ratmaps.gordan_noether import (
    GNWitness,
    _core_sides,
    _on_numerators,
    _trace_conditions,
    _trace_sides,
    bivariate_core_check,
    classical_gn_condition,
    constant_span_bound,
    flem_conclude,
    gn_classify,
    gquasi_invariance,
    nilpotent_jacobian,
    qt_condition,
    translation_invariance,
)
from ratmaps.expressions import elaborate_map, elaborate_poly, parse
from ratmaps.polyring import (
    Poly,
    PolyRing,
    RatFunc,
    RatMap,
    _k_gradients,
    _k_jacobian_rows,
    clear_denominators,
    compose_poly,
    eval_univar_at_ratio,
    first_mismatch,
    gcd_many,
    is_primitive,
    primitive_part,
    relabel,
)
from ratmaps.subfield import trdeg_rank

R2 = PolyRing(QQ, ("x1", "x2"))
X1, X2 = R2.var(0), R2.var(1)
R3 = PolyRing(QQ, ("x1", "x2", "x3"))
A1, A2, A3 = R3.var(0), R3.var(1), R3.var(2)
YR = uni_ring(QQ)
Y = YR.var(0)


def _example_map():
    """The rational map (1, x2/x1)."""
    return RatMap([RatFunc.from_poly(R2.one()), RatFunc(X2, X1)])


def _f2_core():
    """The tuple (x1^2, x1 x2, x2^2) over GF(2), padded to three variables."""
    ring = PolyRing(PrimeField(2), ("x1", "x2", "x3"))
    a, b = ring.var(0), ring.var(1)
    return (a**2, a * b, b**2)


# -- golden facts ---------------------------------------------------------


def test_example_map_golden_facts():
    h = _example_map()
    assert translation_invariance(h) is True
    assert classical_gn_condition(h) is True  # JH.H = 0
    assert qt_condition(h) is False  # tr JH.H = (1/x1, x2/x1^2) != 0
    assert nilpotent_jacobian(h) is False


def test_f2_core_golden_facts():
    core = _f2_core()
    h = RatMap.from_polys(core)
    assert classical_gn_condition(h) is True  # J(core).core = 0 over GF(2)
    assert bivariate_core_check(core) is False  # J(core).core(y) != 0
    assert nilpotent_jacobian(h) is False


# -- qt_condition ----------------------------------------------------------


def test_qt_condition_examples():
    r = RatFunc(A1 + A2**2, A2)  # any function of x1, x2 only
    h = RatMap([RatFunc.from_poly(R3.zero()), RatFunc.from_poly(R3.zero()), r])
    assert qt_condition(h) is True
    assert qt_condition(RatMap.from_polys([R2.zero(), R2.zero()])) is True
    with pytest.raises(NotSquare):
        qt_condition(RatMap.from_polys([X1, X2, X1 * X2]))


def test_gquasi_examples():
    h = RatMap.from_polys([R3.zero(), R3.zero(), A1 * A2])
    rep = gquasi_invariance(h, RatFunc.from_poly(A1))
    assert rep.original and rep.scaled

    rep = gquasi_invariance(_example_map(), RatFunc.from_poly(X1))
    assert not rep.original and not rep.scaled

    rep = gquasi_invariance(_example_map(), RatFunc.from_poly(R2.one()))
    assert rep.original == rep.scaled

    with pytest.raises(ZeroScalar):
        gquasi_invariance(h, RatFunc.from_poly(R3.zero()))


def _cond4_template(rng, scale_deg=2):
    """A map g * f(p/q) with f supported on the x3 coordinate only.

    With p, q in (x1, x2) and f = (0, 0, f3), the rows Jp and Jq meet only
    the zero components of f, so the gradient annihilation is structural.
    """
    while True:
        p = random_poly(rng, R3, 2, 3)
        q = random_poly(rng, R3, 2, 3)
        p = Poly(R3, {e: c for e, c in p.terms.items() if e[2] == 0})
        q = Poly(R3, {e: c for e, c in q.terms.items() if e[2] == 0})
        if q.is_zero():
            continue
        f3 = random_nonzero_poly(rng, YR, 2, 2)
        g_num = random_poly(rng, R3, scale_deg, 2)
        g_den = random_nonzero_poly(rng, R3, scale_deg, 2)
        if g_num.is_zero():
            continue
        s = int(max(f3.total_degree(), 0))
        fpq3 = RatFunc(eval_univar_at_ratio(f3, p, q, s), q**s)
        g = RatFunc(g_num, g_den)
        zero = RatFunc.from_poly(R3.zero())
        return (
            RatMap([zero, zero, g * fpq3]),
            (YR.zero(), YR.zero(), f3),
            p,
            q,
            g,
        )


def test_gquasi_invariance_cond4_template_random():
    rng = seeded(27)
    for _ in range(200):
        h, _, _, _, _ = _cond4_template(rng)
        g = RatFunc(
            random_nonzero_poly(rng, R3, 2, 2), random_nonzero_poly(rng, R3, 2, 2)
        )
        rep = gquasi_invariance(h, g)  # raises on disagreement
        assert rep.original == rep.scaled


def test_cond4_implies_qt_random():
    rng = seeded(28)
    for _ in range(60):
        h, _, _, _, _ = _cond4_template(rng)
        assert qt_condition(h) is True


def test_core_check_implies_qt_random():
    rng = seeded(29)
    done = 0
    while done < 40:
        h, fs, p, q, _ = _cond4_template(rng)
        if h.is_zero():
            continue
        # h(p, q)-style core built from the same template
        f3 = fs[2]
        s = int(max(f3.total_degree(), 0))
        core = (R3.zero(), R3.zero(), eval_univar_at_ratio(f3, p, q, s))
        if not bivariate_core_check(core):
            continue
        g = RatFunc(
            random_nonzero_poly(rng, R3, 2, 2), random_nonzero_poly(rng, R3, 2, 2)
        )
        scaled = RatMap.from_polys(core).scale(g)
        assert qt_condition(scaled) is True
        done += 1


# -- translation invariance and nilpotency -----------------------------------


def test_translation_examples():
    assert translation_invariance(RatMap.from_polys([X2**2, R2.zero()])) is True
    assert translation_invariance(RatMap.from_polys([X1, R2.zero()])) is False


def test_nilpotent_examples():
    assert nilpotent_jacobian(RatMap.from_polys([X2**2, R2.zero()])) is True


def test_quasi_translations_have_nilpotent_jacobians_random():
    # polynomial maps H = (0, 0, f3(p)) with p free of x3 satisfy
    # H(x + tH) = H; their Jacobians must be nilpotent
    rng = seeded(30)
    done = 0
    while done < 50:
        p = random_poly(rng, R3, 2, 3)
        p = Poly(R3, {e: c for e, c in p.terms.items() if e[2] == 0})
        f3 = random_nonzero_poly(rng, YR, 2, 2)
        h3 = compose_poly(f3, [p], R3)
        h = RatMap.from_polys([R3.zero(), R3.zero(), h3])
        if not translation_invariance(h):
            continue
        assert nilpotent_jacobian(h) is True
        done += 1


# -- bivariate core check -----------------------------------------------------


def test_bivariate_core_examples():
    assert bivariate_core_check((R3.zero(), R3.zero(), A1 * A2)) is True
    assert bivariate_core_check((R3.zero(), R3.zero(), R3.zero())) is True
    assert bivariate_core_check(_f2_core()) is False


# -- the classifier -----------------------------------------------------------


def test_gn_classify_cond4_witness():
    h = RatMap(
        [RatFunc.from_poly(R3.zero()), RatFunc.from_poly(R3.zero()), RatFunc(A1, A2)]
    )
    w = GNWitness(
        "cond4",
        RatFunc.from_poly(R3.one()),
        A1,
        A2,
        f=(YR.zero(), YR.zero(), Y),
    )
    report = gn_classify(h, [w])
    assert report.qt and report.core_bivariate
    assert report.witnesses[0].verified
    assert report.core == (R3.zero(), R3.zero(), R3.one())


def test_gn_classify_cond5_witness():
    h = RatMap(
        [RatFunc.from_poly(R3.zero()), RatFunc.from_poly(R3.zero()), RatFunc(A1, A2)]
    )
    w = GNWitness(
        "cond5",
        RatFunc.from_poly(R3.one()),
        A1,
        A2,
        f=(YR.one(), YR.zero(), Y),
    )
    # gcd(f) = 1 and gcd(p, q) = 1, but the identity fails for this f
    report = gn_classify(h, [w])
    assert not report.witnesses[0].verified


def test_gn_classify_cond3_witness():
    b = bi_ring(QQ)
    y1, y2 = b.var(0), b.var(1)
    h = RatMap(
        [RatFunc.from_poly(R3.zero()), RatFunc.from_poly(R3.zero()), RatFunc(A1, A2)]
    )
    w = GNWitness(
        "cond3",
        RatFunc(R3.one(), A2**2),
        A1,
        A2,
        h=HomogTuple((b.zero(), b.zero(), y1 * y2), 2),
    )
    # H = (1/x2^2) * (0, 0, x1 x2) and J(h(p,q)).h(p,q) = 0
    report = gn_classify(h, [w])
    assert report.witnesses[0].verified, report.witnesses[0].reason


def test_gn_classify_negative_example():
    report = gn_classify(_example_map())
    assert not report.qt and not report.core_bivariate
    assert report.classical_zero
    assert report.trdeg_tH == 2


def test_gn_classify_zero_map():
    h = RatMap.from_polys([R2.zero(), R2.zero()])
    report = gn_classify(h)
    assert report.qt and report.core_bivariate


def test_gn_classify_char_divides_degree_rejected():
    # over GF(2) the core (x1^2, x1x2, x2^2) satisfies J(core).core = 0,
    # yet the trace identity fails; a cond3 witness with deg h = 2 must be
    # rejected on the characteristic condition, else the verifier would
    # alarm against the (correctly) negative classification
    field = PrimeField(2)
    ring = PolyRing(field, ("x1", "x2", "x3"))
    a, b = ring.var(0), ring.var(1)
    h_map = RatMap.from_polys([a**2, a * b, b**2])
    bf = bi_ring(field)
    y1, y2 = bf.var(0), bf.var(1)
    w = GNWitness(
        "cond3",
        RatFunc.from_poly(ring.one()),
        a,
        b,
        h=HomogTuple((y1**2, y1 * y2, y2**2), 2),
    )
    report = gn_classify(h_map, [w])
    assert report.qt is False
    assert not report.witnesses[0].verified
    assert "characteristic" in report.witnesses[0].reason


def test_gn_classify_rejects_wrong_g():
    h = RatMap(
        [RatFunc.from_poly(R3.zero()), RatFunc.from_poly(R3.zero()), RatFunc(A1, A2)]
    )
    w = GNWitness(
        "cond4",
        RatFunc(R3.one(), A2),  # wrong scalar: identity fails
        A1,
        A2,
        f=(YR.zero(), YR.zero(), Y),
    )
    report = gn_classify(h, [w])
    assert not report.witnesses[0].verified


def test_gn_classify_consistency_cond4_random():
    rng = seeded(31)
    for _ in range(60):
        h, fs, p, q, g = _cond4_template(rng)
        if h.is_zero():
            continue
        w = GNWitness("cond4", g, p, q, f=fs)
        report = gn_classify(h, [w])  # raises on (1)/(2) disagreement
        assert report.qt and report.core_bivariate
        assert report.witnesses[0].verified, report.witnesses[0].reason


# -- gradient annihilation lemma -----------------------------------------------


def test_flem_examples():
    assert flem_conclude((YR.zero(), YR.zero(), Y**2), A1, A2, "i") is True
    assert flem_conclude((Y, YR.zero()), X1, X2, "i") is False
    assert flem_conclude((YR.zero(), YR.zero()), X1, X2, "ii") is True
    assert flem_conclude((YR.zero(), YR.zero(), Y**2), A1, A2, "ii") is True
    with pytest.raises(DegreeOrder):
        flem_conclude((Y, YR.zero()), X1**2, X2, "i")


def test_flem_conclude_rejects_an_unknown_mode_whatever_f_is():
    for fs in ((YR.zero(), YR.zero()), (Y, YR.zero())):
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            flem_conclude(fs, X1, X2 + R2.one(), "bogus")


def test_flem_conclude_takes_each_gradient_once(spy):
    # grad p and grad q, two derivatives each, serve the row q grad p - p grad q,
    # mode ii and the conclusion alike
    derivatives = spy("_k_derivative", polyring)
    assert flem_conclude((Y, -Y), X1, X2 + R2.one(), "i") is False
    assert len(derivatives) == 4, derivatives


# -- span of constant vectors ---------------------------------------------------


def test_span_bound_examples():
    h = RatMap(
        [RatFunc.from_poly(R3.zero()), RatFunc.from_poly(R3.zero()), RatFunc(A1, A2)]
    )
    rep = constant_span_bound(h)
    assert rep.span_dim == 1
    assert rep.bound_satisfied
    assert rep.spanning_vectors == [[Fraction(0), Fraction(0), Fraction(1)]]

    const_map = RatMap.from_polys([R3.const(1), R3.const(2), R3.const(3)])
    rep = constant_span_bound(const_map)
    assert rep.span_dim == 1 and rep.rank_core == 0 and rep.bound_satisfied

    h = RatMap(
        [
            RatFunc.from_poly(R3.zero()),
            RatFunc.from_poly(R3.zero()),
            RatFunc(A1**2, A2) + RatFunc.from_poly(A1),
        ]
    )
    rep = constant_span_bound(h)
    assert rep.span_dim == 1 and rep.bound_satisfied


def test_span_bound_requires_qt():
    with pytest.raises(PreconditionNotVerified):
        constant_span_bound(_example_map())


def test_span_bound_random_templates():
    rng = seeded(32)
    done = 0
    while done < 30:
        h, _, _, _, _ = _cond4_template(rng)
        if h.is_zero():
            continue
        rep = constant_span_bound(h)
        assert rep.bound_satisfied
        done += 1


# -- the packed-int identities against refalg ---------------------------------


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(32003)])
def test_trace_conditions_match_cleared_sides_random(field):
    rng = seeded(71)
    seen = set()
    for n in (1, 2, 3):
        ring = PolyRing(field, tuple(f"x{i + 1}" for i in range(n)))
        for _ in range(40):
            h = random_square_map(rng, ring)
            verdicts = _trace_conditions(h)
            assert verdicts == reference_trace_conditions(h), h
            seen.add(verdicts)
    assert seen == {(True, True), (True, False), (False, False)}, seen


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(32003)])
def test_trace_conditions_examples_on_both_fields(field):
    ring = PolyRing(field, ("x1", "x2", "x3"))
    x1, x2, x3 = ring.var(0), ring.var(1), ring.var(2)
    zero = RatFunc.from_poly(ring.zero())
    half = ring.const(2).scale(field.one() / field.from_int(4))  # 1/2
    cases = [
        (RatMap([zero, zero, RatFunc(x1, x2)]), (True, True)),
        (RatMap([zero, zero, RatFunc(x3, x2)]), (True, False)),
        (RatMap([RatFunc.from_poly(x3**2 - x3), RatFunc.from_poly(x3), zero]), (True, True)),
        (RatMap([RatFunc(x2, x1 + half), zero, RatFunc(x1, x1 + half)]), (False, False)),
        (RatMap([zero, zero, zero]), (True, True)),
    ]
    # H = x3/D (1, 1, 0) has JH.H = 0 exactly when D is a function of
    # x1 - x2; D's degree-2 part (x1 - x2)^2/2 has coefficients with unequal
    # denominators, so a D read without its scale is no longer one
    for u, expected in ((x1 - x2, (True, True)), (x1 + x2, (True, False))):
        d = RatFunc.from_poly(u**3 + (u**2).scale(field.one() / field.from_int(2)))
        h = RatMap([RatFunc.from_poly(x3) / d, RatFunc.from_poly(x3) / d, zero])
        cases.append((h, expected))
    for h, expected in cases:
        assert _trace_conditions(h) == reference_trace_conditions(h) == expected, h


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(32003)])
def test_witness_identity_matches_ratfunc_path_random(field):
    rng = seeded(72)
    seen = set()
    for n in (1, 2, 3):
        ring = PolyRing(field, tuple(f"x{i + 1}" for i in range(n)))
        for _ in range(30):
            h, g, p, q, fs, s = random_cond45_case(rng, ring)
            cleared = [eval_univar_at_ratio(f, p, q, s) for f in fs]
            k = first_mismatch(h, g, cleared, q**s)
            *F, F1 = reference_substitute([*fs, fs[0].ring.one()], [p], [q], [s], ring)
            assert k == reference_first_mismatch(h, g, F, F1), (h, g, p, q, fs)
            seen.add(k is None)
            # the cond3 shape H = g * h(p, q): no denominator on the right
            hp = [c.num for c in h] if rng.random() < 0.5 else cleared
            expected = next(
                (k for k in range(n) if g * RatFunc.from_poly(hp[k]) != h[k]), None
            )
            assert first_mismatch(h, g, hp, ring.one()) == expected, (h, g, hp)
    assert seen == {True, False}


# -- the cleared identities against refalg ------------------------------------

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(32003)]


def _ring(field, n):
    return PolyRing(field, tuple(f"x{i + 1}" for i in range(n)))


def _only_after(p, k):
    """The terms of p free of x_1..x_(k+1)."""
    return Poly(p.ring, {e: c for e, c in p.terms.items() if not any(e[: k + 1])})


def _nilpotent_by_construction(rng, ring):
    """P H(P^-1 x) for a strictly triangular H, H_k a fraction in the
    variables after x_k only, and a random permutation P."""
    n = ring.nvars
    perm = list(range(n))
    rng.shuffle(perm)
    comps = [None] * n
    for k in range(n):
        num = _only_after(random_poly(rng, ring, 3, 3), k)
        den = _only_after(random_nonzero_poly(rng, ring, 2, 2), k)
        if den.is_zero():
            den = ring.one()
        comps[perm[k]] = RatFunc(relabel(num, ring, perm), relabel(den, ring, perm))
    return RatMap(comps)


@pytest.mark.parametrize("field", FIELDS)
def test_nilpotent_jacobian_matches_ratfunc_path_random(field):
    # random maps in two variables, and in three only maps built nilpotent
    # (the reference on reduced fractions that chose these inputs did not
    # finish on generic 3-variable maps)
    rng = seeded(81)
    seen = set()
    for _ in range(40):
        h = random_square_map(rng, _ring(field, 2))
        verdict = nilpotent_jacobian(h)
        assert verdict == reference_nilpotent(h), h
        seen.add(verdict)
    assert seen == {True, False}
    for n in (2, 3):
        for _ in range(15):
            h = _nilpotent_by_construction(rng, _ring(field, n))
            assert nilpotent_jacobian(h) is reference_nilpotent(h) is True, h


@pytest.mark.parametrize("field", FIELDS)
def test_nilpotent_jacobian_needs_every_power(field):
    # JH^2 != 0 = JH^3: a power loop one step short would answer False
    ring = _ring(field, 3)
    x1, x2, x3 = ring.var(0), ring.var(1), ring.var(2)
    h = RatMap(
        [RatFunc(x2**2, x3 + ring.one()), RatFunc.from_poly(x3**2), RatFunc.from_poly(ring.one())]
    )
    assert nilpotent_jacobian(h) is reference_nilpotent(h) is True
    assert nilpotent_jacobian(RatMap.from_polys([x2, x3, x1])) is False


def test_nilpotent_jacobian_with_nonzero_trace_takes_no_power(spy):
    # every row of J(x1, ..., x1) is (1, 0, ..., 0): trace 1, so not
    # nilpotent; the n - 1 powers would take 39 * 40^2 kernel dot products
    calls = spy("_k_dot", gordan_noether)
    for field in (QQ, PrimeField(2), PrimeField(7)):
        ring = _ring(field, 40)
        calls.clear()
        assert nilpotent_jacobian(RatMap.from_polys([ring.var(0)] * 40)) is False
        assert len(calls) == 1, field  # the trace


def test_nilpotent_check_on_a_three_variable_rational_map_is_fast():
    # the reduced matrix powers of this map had not finished after 10
    # minutes; tr JH = -2/(x3^2 - 4 x3) + 1/(x1 + 1) != 0, so not nilpotent
    tree = parse(
        "((x2 + 3)/(x3^2 + 4*x2 + 1), (1 - 2*x2)/(x3^2 - 4*x3), "
        "(x1*x2 + x2 + x3)/(x1 + 1))"
    )
    h = elaborate_map(tree, R3)
    start = time.perf_counter()
    assert nilpotent_jacobian(h) is False
    assert time.perf_counter() - start < 2.0


def test_translation_check_on_unequal_denominators_is_fast():
    # composing reduced fractions took more than 100 s on this map; a map
    # with H(x + tH) = H has JH.H = 0, which fails here
    tree = parse("((x1*x3 + x2^2)/(x1^2 + x3^2), (5/2 - x3)/x1^2, 0)")
    h = elaborate_map(tree, R3)
    start = time.perf_counter()
    assert translation_invariance(h) is False
    assert time.perf_counter() - start < 2.0
    assert classical_gn_condition(h) is False


@pytest.mark.parametrize("field", FIELDS)
def test_bivariate_core_check_matches_doubled_ring_random(field):
    rng = seeded(82)
    seen = set()
    for n in (2, 3):
        ring = _ring(field, n)
        for _ in range(40):
            if rng.random() < 0.5:
                # numerators of maps like (0, H_2(x_1)) kill their coefficient vectors
                core = tuple(c.num for c in random_square_map(rng, ring))
            else:
                core = tuple(random_poly(rng, ring, 2, 2) for _ in range(n))
            verdict = bivariate_core_check(core)
            assert verdict == reference_bivariate_core_check(core), core
            seen.add(verdict)
    assert seen == {True, False}


def _substituted(monkeypatch):
    """The list that receives the results of each _substitute call made in
    gordan_noether from now on, as refalg dicts: the verdicts alone may
    stay right on wrong values (f orthogonal to grad w whatever the powers
    of q, two quotients built alike)."""
    calls, real = [], gordan_noether._substitute

    def recording(*args):
        out = real(*args)
        calls.append([plain(t) for t in out])
        return out

    monkeypatch.setattr(gordan_noether, "_substitute", recording)
    return calls


@pytest.mark.parametrize("field", FIELDS)
def test_translation_invariance_matches_ratfunc_path_random(field, monkeypatch):
    # in three variables the numerators of the random maps only (a reference
    # on reduced fractions took minutes on some 3-variable maps with unequal
    # denominators, such as ((x1 x3 + x2^2)/(x1^2 + x3^2), (5/2 - x3)/x1^2, 0));
    # each component's composed (A, B) is refalg's too
    rng = seeded(83)
    seen = set()
    calls = _substituted(monkeypatch)
    for n in (2, 3):
        ring = _ring(field, n)
        for _ in range(25):
            h = random_square_map(rng, ring)
            if n == 3:
                h = RatMap.from_polys([c.num for c in h])
            calls.clear()
            verdict = translation_invariance(h)
            assert (verdict, calls) == reference_translation_invariance(h), h
            seen.add(verdict)
    assert seen == {True, False}


def _flem_case(rng, ring, fdeg, pdeg):
    """(fs, p, q) with gcd(p, q) = 1, deg p <= deg q <= pdeg and deg f <= fdeg.

    Half of them take p and q as polynomials in one linear form
    w = x1 + a_2 x2 + ... and f = sum_j g_j (a_j e_1 - e_j): every
    coefficient vector of f is orthogonal to grad w, so both hypotheses
    hold, while the g_j of unequal degrees keep each dot product from
    vanishing term by term.
    """
    n = ring.nvars
    field = ring.field
    yring = uni_ring(field)
    if rng.random() < 0.5:
        while True:
            p = random_poly(rng, ring, pdeg, 3)
            q = random_nonzero_poly(rng, ring, pdeg, 3)
            if p.total_degree() > q.total_degree():
                p, q = q, p
            if is_primitive([p, q]):
                return tuple(random_poly(rng, yring, fdeg, 3) for _ in range(n)), p, q
    # a_j is +-1 or +-2, and 1 where that is 0 in the field
    a = [field.one()]
    a += [field.from_int(rng.choice([1, -1, 2, -2])) or field.one() for _ in range(n - 1)]
    w = Poly(ring, {tuple(int(i == j) for i in range(n)): a[j] for j in range(n)})
    while True:
        pw = random_poly(rng, yring, pdeg, 3)
        qw = random_nonzero_poly(rng, yring, pdeg, 3)
        if pw.total_degree() > qw.total_degree():
            pw, qw = qw, pw
        if not qw.is_constant() and is_primitive([pw, qw]):
            break
    p, q = compose_poly(pw, [w], ring), compose_poly(qw, [w], ring)
    gs = [random_nonzero_poly(rng, yring, fdeg, 3) for _ in range(n - 1)]
    f1 = yring.zero()
    for aj, g in zip(a[1:], gs):
        f1 = f1 + g.scale(aj)
    return (f1, *(-g for g in gs)), p, q


@pytest.mark.parametrize("field", FIELDS)
def test_flem_conclude_matches_ratfunc_path_random(field, monkeypatch):
    # linear p and q in three variables (a reference on reduced fractions
    # took seconds to minutes with quadratic ones); F and F' at p/q are
    # refalg's too, and an all-zero f substitutes nothing
    rng = seeded(84)
    seen = set()
    calls = _substituted(monkeypatch)
    for n, fdeg, pdeg in ((2, 3, 2), (3, 2, 1)):
        ring = _ring(field, n)
        for _ in range(25):
            fs, p, q = _flem_case(rng, ring, fdeg, pdeg)
            for mode in ("i", "ii"):
                calls.clear()
                verdict = flem_conclude(fs, p, q, mode)
                expected, values = reference_flem_conclude(fs, p, q, mode)
                assert verdict == expected, (fs, p, q, mode)
                assert calls == ([values] if any(f.terms for f in fs) else []), (fs, p, q, mode)
                seen.add(verdict)
    assert seen == {True, False}


@pytest.mark.parametrize("mode", ["i", "ii"])
def test_flem_conclude_over_gf32003_is_fast(mode):
    # 20 to 30 s per mode on reduced rational functions
    field = PrimeField(32003)
    ring = _ring(field, 3)
    yring = uni_ring(field)
    x1, x2, x3 = ring.var(0), ring.var(1), ring.var(2)
    y = yring.var(0)

    def c(k, r=yring):
        return r.const(k)

    fs = (
        c(31999) * y**2 + c(31999) * y + c(32001),
        y**3 + c(2) * y**2 + c(31999) * y,
        c(32002) * y + c(31999),
    )
    p = c(4, ring) * x1 * x3 + c(32002, ring)
    q = c(32002, ring) * x1**2 + c(3, ring) * x2 * x3 + x3
    start = time.perf_counter()
    assert flem_conclude(fs, p, q, mode) is False
    assert time.perf_counter() - start < 2.0


# -- one clearing and one kernel Jacobian per map ------------------------------


def test_gn_classify_clears_template_maps_once_without_a_gcd(spy):
    # the parent cleared H for the trace identity, for the primitive part and
    # for the core's remark, and reduced g = gcd / D, which it threw away
    rng = seeded(93)
    cases = []
    while len(cases) < 20:
        h, fs, p, q, g = _cond4_template(rng)
        if not h[2].den.is_constant():
            cases.append((h, GNWitness("cond4", g, p, q, f=fs)))
    clearings = spy("clear_denominators", polyring, gordan_noether)
    gcds = spy("_gcd2", polyring)
    for h, w in cases:
        clearings.clear()
        report = gn_classify(h, [w])
        assert report.qt and report.core_bivariate and report.witnesses[0].verified
        assert len(clearings) == 1 and not gcds, (h, len(clearings), len(gcds))


def test_constant_span_bound_clears_h_once(spy):
    rng = seeded(94)
    maps = [_cond4_template(rng)[0] for _ in range(10)]
    for field in (QQ, PrimeField(7)):
        ring = _ring(field, 3)
        for _ in range(30):
            h = random_square_map(rng, ring)
            if not h.is_zero() and qt_condition(h):
                maps.append(h)
            # (a, b, 0)/d in x3 alone: JH . H = 0, and rank J(core) = 1 unless
            # a and b are proportional
            a, b, d = (_only_after(random_poly(rng, ring, 3, 3), 1) for _ in range(3))
            if d.is_zero() or (a.is_zero() and b.is_zero()):
                continue
            maps.append(RatMap([RatFunc(a, d), RatFunc(b, d), RatFunc.from_poly(ring.zero())]))
    clearings = spy("clear_denominators", polyring, gordan_noether)
    ranks = set()
    for h in maps:
        clearings.clear()
        rep = constant_span_bound(h)
        assert len(clearings) == 1, (h, len(clearings))
        core = primitive_part(h)[1]
        assert rep.rank_core == reference_rank(poly_jacobian(core, h.ring)), h
        ranks.add(rep.rank_core)
    assert len(ranks) > 1, ranks


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)])
def test_core_jacobian_dot_core_matches_classical_condition_random(field):
    rng = seeded(91)
    seen = set()
    for n in (1, 2, 3):
        ring = _ring(field, n)
        for _ in range(30):
            if rng.random() < 0.5:
                core = tuple(c.num for c in random_square_map(rng, ring))
            else:
                core = tuple(random_poly(rng, ring, 2, 2) for _ in range(n))
            as_map = RatMap.from_polys(core)
            zero = _on_numerators((ring.one(), ()), core, lambda K, _, c: _core_sides(K, *c)[1])
            assert zero == classical_gn_condition(as_map), core
            assert zero == reference_trace_sides((ring.one(), core))[1]
            seen.add(zero)
    assert seen == {True, False}


def test_char_zero_remark_matches_classical_condition_of_core_random():
    rng = seeded(92)
    maps = [_cond4_template(rng)[0] for _ in range(20)]
    maps += [random_square_map(rng, _ring(QQ, n)) for n in (1, 2) for _ in range(40)]
    seen = set()
    for h in maps:
        if h.is_zero():
            continue
        try:
            report = gn_classify(h)
        except TrdegTooLarge:
            continue
        assert report.core == primitive_part(h)[1], h
        expected = classical_gn_condition(RatMap.from_polys(report.core))
        remark = report.char_zero_remark
        assert remark["core_jh_dot_h_zero"] is expected, h
        assert remark["agrees_with_qt"] is (expected == report.qt), h
        seen.add((expected, report.qt))
    # in characteristic zero the remark always agrees with the trace identity
    assert seen == {(True, True), (False, False)}, seen


def _witness_verdict(h, w):
    """(verified, reason) for w as gn_classify reports it, checked against
    (D, N) and the core on one packing; None where trdeg K(tH) > 2 stops
    the classification before any witness (trdeg_rank agrees)."""
    try:
        verdict = gn_classify(h, [w]).witnesses[0]
    except TrdegTooLarge:
        assert trdeg_rank(h, True) > 2, h
        return None
    return verdict.verified, verdict.reason


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)])
def test_verify_cond45_matches_reference_random(field):
    rng = seeded(95)
    reasons = set()
    for n, fdeg, pdeg in ((2, 3, 2), (3, 2, 1)):
        ring = _ring(field, n)
        for _ in range(25):
            if rng.random() < 0.3:
                h, g, p, q, fs, _ = random_cond45_case(rng, ring)
            else:
                fs, p, q = _flem_case(rng, ring, fdeg, pdeg)
                g = random_ratfunc(rng, ring, 1, 2)
                degs = [f.total_degree() for f in fs if not f.is_zero()]
                s = int(max(degs)) if degs else 0
                comps = [g * RatFunc(eval_univar_at_ratio(f, p, q, s), q**s) for f in fs]
                if rng.random() < 0.2:
                    k = rng.randrange(n)
                    comps[k] = comps[k] + RatFunc.from_poly(ring.one())
                h = RatMap(comps)
            w = GNWitness(rng.choice(["cond4", "cond5"]), g, p, q, f=fs)
            verdict = _witness_verdict(h, w)
            if verdict is None:
                continue
            assert verdict == reference_verify_witness(h, w), (h, w)
            reasons.add(verdict[1].split(" at component")[0])
    assert {"", "H = g*f(p/q) fails", "Jp . f = Jq . f = 0 fails"} <= reasons, reasons


def _cond3_case(rng, ring):
    """(H, witness) for a cond3 witness H = g * h(p, q) in n >= 2 variables.

    Half of the h live on the last component with p and q free of x_n, so
    that J(h(p,q)) . h(p,q) = 0; the rest spread over every component.  The
    witness is then kept valid or spoilt in one of the ways a caller can:
    a wrong g or h, h = None, a plain tuple for h, or the wrong length.  A
    degree divisible by the characteristic comes up over GF(2) and GF(7).
    """
    n, field = ring.nvars, ring.field
    bring = bi_ring(field)
    y1 = bring.var(0)
    last = rng.random() < 0.5
    p, q = random_poly(rng, ring, 2, 3), random_poly(rng, ring, 2, 3)
    if last:  # p and q free of x_n
        p, q = (Poly(ring, {e: c for e, c in t.terms.items() if not e[-1]}) for t in (p, q))
    char = field.characteristic
    d = char if char in (2, 7) and rng.random() < 0.15 else rng.randint(1, 3)
    polys = [bring.zero()] * (n - 1) + [random_homog_poly(rng, bring, d, nonzero=True)]
    if not last:
        polys[:-1] = [random_homog_poly(rng, bring, d) for _ in range(n - 1)]
    g = random_ratfunc(rng, ring, 1, 2)
    h = HomogTuple(tuple(polys), d)
    hp = reference_substitute(polys, [p, q], [None, None], None, ring)
    comps = [g * RatFunc.from_poly(c) for c in hp]
    kind = rng.choice(["valid", "valid", "g", "h", "none", "tuple", "length"])
    if kind == "g":
        g = g + RatFunc.from_poly(ring.one())
    elif kind == "h":
        k = rng.randrange(n)
        # y1^d alone may cancel the only nonzero component; y2^d cannot then
        bumped = polys[k] + y1**d
        polys[k] = bumped if not bumped.is_zero() else polys[k] + bring.var(1) ** d
        h = HomogTuple(tuple(polys), d)
    elif kind == "none":
        h = None
        if rng.random() < 0.5:
            comps = [RatFunc.from_poly(ring.zero())] * n
    elif kind == "tuple":
        h = tuple(polys)
    elif kind == "length":
        h = HomogTuple(tuple(polys) + (y1**d,), d)
    return RatMap(comps), GNWitness("cond3", g, p, q, h=h)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)])
def test_verify_witness_matches_reference_cond3_random(field):
    rng = seeded(97)
    reasons = set()
    for n in (2, 3):
        ring = _ring(field, n)
        for _ in range(40):
            h, w = _cond3_case(rng, ring)
            verdict = _witness_verdict(h, w)
            assert verdict == reference_verify_witness(h, w), (h, w)
            reasons.add(verdict[1].split(" at component")[0])
    expected = {
        "",
        "gcd(p, q) is not a unit",
        "h must be a HomogTuple or None",
        "h has the wrong number of components",
        "H = g*h(p,q) fails",
        "J(h(p,q)) . h(p,q) is nonzero",
    }
    if field.characteristic in (2, 7):
        expected.add("characteristic divides deg h")
    assert expected <= reasons, reasons


def test_gn_classify_trdeg_matches_trdeg_rank_random():
    # gn_classify reads trdeg K(tH) off the Jacobian of its trace identity;
    # trdeg_rank builds its own rows, one denominator per component
    rng = seeded(98)
    ring3 = _ring(QQ, 3)
    maps = [
        RatMap.from_polys([ring3.zero()] * 3),
        RatMap.from_polys([ring3.var(i) for i in range(3)]),
    ]
    for n in (1, 2, 3):
        maps += [random_square_map(rng, _ring(QQ, n)) for _ in range(30)]
    seen = set()
    for h in maps:
        expected = trdeg_rank(h, True)
        assert expected == reference_trdeg_rank(h, True), h
        seen.add(expected)
        if expected > 2:
            with pytest.raises(TrdegTooLarge) as exc:
                gn_classify(h)
            assert str(exc.value) == (
                f"trdeg K(tH) = {expected} > 2: the classification does not apply"
            )
        else:
            assert gn_classify(h).trdeg_tH == expected, h
    assert seen == {0, 1, 2, 3}, seen
    h = random_square_map(rng, _ring(PrimeField(7), 2))
    assert gn_classify(h).trdeg_tH is None


def test_gn_classify_builds_one_jacobian_of_h(packings, spy):
    # the numerator checks read J(N) and J(core), and every witness is
    # checked against (D, N), on one packing whatever the witnesses (the
    # gcds and exact divisions pack on their own): no quotient-rule row,
    # no trdeg_rank, no rerun at a wider slot, and _k_ints twice for H and
    # its core plus three times per witness that passes its preconditions
    # (blocks, (p, q), g), none per component
    rng = seeded(99)
    cases = []
    for _ in range(15):
        h, fs, p, q, g = _cond4_template(rng)
        valid = GNWitness("cond4", g, p, q, f=fs)
        wrong = GNWitness("cond4", g + RatFunc.from_poly(R3.one()), p, q, f=fs)
        unknown = GNWitness("cond9", g, p, q)
        cases += [(h, [], 0), (h, [valid], 1), (h, [valid, wrong], 2), (h, [unknown, valid], 1)]
    for field in (QQ, PrimeField(7)):
        for n in (1, 2, 3):
            cases += [(random_square_map(rng, _ring(field, n)), [], 0) for _ in range(8)]
    for name in ("_prs_gcd", "_modular_gcd"):
        packings.leave_out(polyring, name)
    packings.leave_out(polyring.Poly, "divexact")
    probes = [packings, spy("_on_packing", gordan_noether), spy("_k_ints", gordan_noether)]
    probes += [spy("trdeg_rank", subfield), spy("_k_jacobian_rows", polyring, gordan_noether, subfield)]
    seen = Counter()
    for h, witnesses, checked in cases:
        for probe in probes:
            probe.clear()
        try:
            report = gn_classify(h, witnesses)
            seen[len(report.witnesses)] += 1
        except TrdegTooLarge:
            seen["rank 3"] += 1
        counts = [len(probe) for probe in probes]
        assert counts == [1, 1, 2 + 3 * checked, 0, 0], (h, counts)
    assert seen[0] > 25 and seen[1] == 15 and seen[2] == 30 and seen["rank 3"], seen


def test_gn_classify_raises_in_order_before_a_witness_ring_mismatch(monkeypatch):
    # a witness's rings are checked before the one packing, but its
    # RingMismatch is raised in the witness's turn: after TrdegTooLarge,
    # after the (1) != (2) alarm and after an earlier witness's alarm
    rng = seeded(105)
    h, fs, p, q, g = _cond4_template(rng)
    valid = GNWitness("cond4", g, p, q, f=fs)
    other = PolyRing(QQ, ("a", "b", "c"))
    alien = GNWitness("cond4", g, other.var(0), other.var(1), f=fs)
    with pytest.raises(RingMismatch):
        gn_classify(h, [valid, alien])
    assert gn_classify(h, [valid]).witnesses[0].verified
    rank3 = RatMap.from_polys([A1, A2, A3])
    with pytest.raises(TrdegTooLarge):
        gn_classify(rank3, [alien])
    real_core_sides = gordan_noether._core_sides

    def flipped(K, core, jc, rank=False):
        bivariate, *rest = real_core_sides(K, core, jc, rank)
        return (not bivariate, *rest)

    monkeypatch.setattr(gordan_noether, "_core_sides", flipped)
    with pytest.raises(AssertionFailure, match="conditions \\(1\\) and \\(2\\) disagree"):
        gn_classify(h, [alien])
    # both (1) and (2) read False: the valid witness is an alarm first
    monkeypatch.setattr(gordan_noether, "_trace_sides", lambda K, *a: (False, False))
    with pytest.raises(AssertionFailure, match="contradicts a negative qt_condition"):
        gn_classify(h, [valid, alien])


def test_witness_rings_are_checked_before_any_gcd():
    # a cond3 or cond5 witness with p and q in different rings, or cond5
    # blocks in different rings, reaches no gcd: a RingMismatch in the
    # witness's turn (after TrdegTooLarge), not an AttributeError
    rng = seeded(105)
    h, fs, p, q, g = _cond4_template(rng)
    alien_q = PolyRing(QQ, ("a", "b", "c")).var(1)
    alien_f = Poly(PolyRing(QQ, ("z",)), fs[2].terms)
    witnesses = [
        GNWitness("cond3", g, p, alien_q),
        GNWitness("cond5", g, p, alien_q, f=fs),
        GNWitness("cond5", g, p, q, f=(*fs[:2], alien_f)),
    ]
    for w in witnesses:
        with pytest.raises(RingMismatch):
            gn_classify(h, [w])
        with pytest.raises(TrdegTooLarge):
            gn_classify(RatMap.from_polys([A1, A2, A3]), [w])


def test_gn_classify_on_a_four_variable_composite_is_fast():
    # H = g * h(p, q) over QQ, h a homogeneous cubic tuple: reading
    # trdeg K(tH) off [m | N], whose entries carry D, had not finished after
    # 25 s on this map.  tH = t g q^3 h(p/q, 1) lies in K(t g q^3, p/q),
    # so the rank is 2.
    ring, bring = _ring(QQ, 4), bi_ring(QQ)
    p, q, g_num, g_den = (
        elaborate_poly(parse(text), ring)
        for text in (
            "-x2*x3 + 4*x1 - 2*x2 - 4*x3",
            "-2*x1*x2*x3 + x2*x3*x4 + 4*x4",
            "-x2^2 + 2*x3 + 3",
            "-4*x1*x4^2 + 2*x1*x2 + 3*x2",
        )
    )
    blocks = [
        elaborate_poly(parse(text), bring)
        for text in (
            "2*y1^3 + 2*y1^2*y2",
            "y1^3 + 2*y1^2*y2 - y2^3",
            "y1^3 - y1*y2^2",
            "-y1^2*y2 - 2*y1*y2^2",
        )
    ]
    g = RatFunc(g_num, g_den)
    h = RatMap([g * RatFunc.from_poly(compose_homog_at(b, p, q)) for b in blocks])
    with time_limit(10):
        rep = gn_classify(h)
    assert (rep.qt, rep.core_bivariate, rep.classical_zero, rep.trdeg_tH) == (False, False, False, 2)


# -- the shared Jacobian rows and the one-packing verifier ---------------------

CHECK_FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)]


def _cleared_pairs(rng, ring):
    """(D, N) pairs as the classifier passes them: cleared random maps, and
    polynomial maps over D = 1 and over a constant D != 1 (GF(2) has none),
    with zero numerators.  Over QQ the polynomial maps carry fractions, so
    the kernel's D is their clearing integer."""
    n, field = ring.nvars, ring.field
    pairs = []
    for _ in range(8):
        pairs.append(clear_denominators(random_square_map(rng, ring).comps))
        nums = [random_poly(rng, ring, 2, 3) if rng.random() < 0.7 else ring.zero()
                for _ in range(n)]
        if field == QQ:
            nums = [t.scale(Fraction(1, rng.randint(2, 6))) for t in nums]
        pairs.append((ring.one(), nums))
        pairs.append((ring.const(field.from_int(rng.choice([3, -1, 5]))), nums))
    return pairs


def _kernel_rows_match(cleared):
    """Whether J(N) and the quotient-rule rows that the kernel builds for
    cleared = (D, N) are refalg's, taken from the same packed D and N: the
    verdicts alone do not see a derivative that is wrong on some terms."""

    def run(K, num, _):
        d, nums, jn = num
        rows = _k_jacobian_rows(d, _k_gradients([d], K)[0], nums, jn, K)
        d, nums = K.unpack(d), [K.unpack(t) for t in nums]
        grads = [[refalg.derivative(t, i, K.mod) for i in range(K.n)] for t in nums]
        return [[[K.unpack(t) for t in row] for row in m] for m in (jn, rows)] == [
            grads, refalg.jacobian_rows(d, nums, K.n, K.mod)
        ]

    return _on_numerators(cleared, (), run)


@pytest.mark.parametrize("field", CHECK_FIELDS)
def test_jacobian_rows_match_per_row_quotient_rule_random(field):
    # plain gradients for a constant D drop one factor that every row
    # shares: nilpotency, the one classifier check read off the rows, may
    # not see it; the map is cleared again from its reduced components
    rng = seeded(102)
    seen = set()
    for n in (1, 2, 3):
        ring = _ring(field, n)
        for cleared in _cleared_pairs(rng, ring):
            h = RatMap([RatFunc(t, cleared[0]) for t in cleared[1]])
            expected = reference_nilpotent(h)
            assert nilpotent_jacobian(h) == expected, cleared
            assert _kernel_rows_match(cleared), cleared
            seen.add("constant D" if cleared[0].is_constant() else "D")
            if any(t.is_zero() for t in cleared[1]):
                seen.add("zero row")
    assert seen == {"constant D", "D", "zero row"}, seen


@pytest.mark.parametrize("field", CHECK_FIELDS)
def test_numerator_checks_match_quotient_rule_rows_random(field):
    # (qt, classical zero, trdeg K(tH)) from J(N) and [J(core) | core]
    # against PAPER.md's sums over the quotient-rule rows and the rank of
    # [m | N], both in refalg
    rng = seeded(103)
    seen = set()
    for n in (1, 2, 3):
        ring = _ring(field, n)
        maps = [random_square_map(rng, ring) for _ in range(12)]
        for _ in range(6):
            # a planted content: the cleared numerators share c, so core != N
            while (c := random_nonzero_poly(rng, ring, 2, 2)).is_constant():
                pass
            g = RatFunc(c, random_nonzero_poly(rng, ring, 1, 2))
            maps.append(random_square_map(rng, ring).scale(g))
        for h in maps:
            cleared = clear_denominators(h.comps)
            assert _kernel_rows_match(cleared), cleared
            qt, zero, rank = reference_trace_sides(cleared, rank=True)
            assert _trace_conditions(h) == (qt, zero), h
            if rank is not None and rank > 2:
                with pytest.raises(TrdegTooLarge) as exc:
                    gn_classify(h)
                assert str(exc.value) == (
                    f"trdeg K(tH) = {rank} > 2: the classification does not apply"
                )
                seen.add("rank 3")
            else:
                rep = gn_classify(h)
                assert (rep.qt, rep.classical_zero, rep.trdeg_tH) == (qt, zero, rank), h
            seen.add((qt, zero))
            nonzero = [t for t in cleared[1] if not t.is_zero()]
            if nonzero and len(nonzero) < n:
                seen.add("zero component")
            if len(nonzero) > 1 and not gcd_many(nonzero).is_constant():
                seen.add("content")
        # (D, N) as given, constant D != 1 included: no scaling by D shows
        for cleared in _cleared_pairs(rng, ring):
            got = _on_numerators(cleared, (), lambda K, sides, _: _trace_sides(K, *sides))
            assert got == reference_trace_sides(cleared), cleared
            if cleared[0].is_constant() and not cleared[0].is_one():
                seen.add("constant D")
    expected = {(True, True), (True, False), (False, False), "zero component", "content"}
    if field.characteristic != 2:  # GF(2) has no constant D != 1
        expected.add("constant D")
    if field == QQ:  # the rank is taken in characteristic zero only
        expected.add("rank 3")
    assert seen == expected, seen


@pytest.mark.parametrize("field", CHECK_FIELDS)
def test_trace_sides_where_qt_holds_match_quotient_rule_rows_random(field):
    # where J(N) . N = tr J(N) N holds, JH . H = 0 is read off the one
    # scalar D tr J(N) - grad D . N; against refalg's quotient-rule rows on
    # cond4 templates H = (0, 0, g f3(p/q)), p and q free of x3, for which
    # (1) holds, cleared (D nonconstant), polynomial (D = 1) and over a
    # constant D != 1, and on the zero map and random maps
    rng = seeded(104)
    ring, yring = _ring(field, 3), uni_ring(field)
    seen = set()

    def free(t):
        return Poly(ring, {e: c for e, c in t.terms.items() if not e[2]})

    for i in range(40):
        p, q = free(random_poly(rng, ring, 2, 3)), free(random_nonzero_poly(rng, ring, 2, 3))
        if q.is_zero() or i % 4 == 0:
            q = ring.one()
        f3 = random_poly(rng, yring, 2, 3)
        s = int(max(f3.total_degree(), 0))
        g_num = random_poly(rng, ring, 2, 2)
        g_num = free(g_num) if i % 3 == 0 else g_num
        g = RatFunc(g_num, ring.one() if q.is_one() else random_nonzero_poly(rng, ring, 1, 2))
        zero = RatFunc.from_poly(ring.zero())
        h = RatMap([zero, zero, g * RatFunc(eval_univar_at_ratio(f3, p, q, s), q**s)])
        pairs = [clear_denominators(h.comps), clear_denominators(random_square_map(rng, ring).comps)]
        if g.den.is_one() and field.characteristic != 2:
            pairs.append((ring.const(field.from_int(rng.choice([3, -1, 5]))), pairs[0][1]))
        if i == 0:
            pairs.append((ring.one(), [ring.zero()] * 3))
        for cleared in pairs:
            got = _on_numerators(cleared, (), lambda K, sides, _: _trace_sides(K, *sides))
            assert got == reference_trace_sides(cleared), cleared
            d, nums = cleared
            if cleared is not pairs[1]:
                assert got[0], cleared
                kind = "D = 1" if d.is_one() else "constant D" if d.is_constant() else "D"
                seen.add((kind, got[1]))
    expected = {("D", True), ("D", False), ("D = 1", True), ("D = 1", False)}
    if field.characteristic != 2:
        expected |= {("constant D", True), ("constant D", False)}
    assert expected <= seen, seen


def _cond45_witness_case(rng, ring):
    """(H, witness) for cond4 or cond5, H = g * f(p/q) built from the
    witness and then kept or spoilt: a wrong f or g, a wrong length, no f,
    q = 0, or blocks with a common factor (f times 1 + y with H rebuilt, or
    p and q times one linear form, which leaves H alone)."""
    n, field = ring.nvars, ring.field
    yring = uni_ring(field)
    fs, p, q = _flem_case(rng, ring, 2, 1)
    g = random_ratfunc(rng, ring, 1, 2)
    spoil = rng.choice(
        ["valid", "valid", "f", "g", "length", "none", "q", "common f", "common pq"]
    )
    if spoil == "common f":
        fs = tuple(f * (yring.one() + yring.var(0)) for f in fs)
    degs = [f.total_degree() for f in fs if not f.is_zero()]
    s = int(max(degs)) if degs else 0
    h = RatMap([g * RatFunc(eval_univar_at_ratio(f, p, q, s), q**s) for f in fs])
    if spoil == "f":
        k = rng.randrange(n)
        fs = fs[:k] + (fs[k] + yring.var(0),) + fs[k + 1 :]
    elif spoil == "g":
        g = g + RatFunc.from_poly(ring.one())
    elif spoil == "length":
        fs = fs[:-1] if rng.random() < 0.5 else fs + (yring.one(),)
    elif spoil == "none":
        fs = None
    elif spoil == "q":
        q = ring.zero()
    elif spoil == "common pq":
        form = ring.var(0) + ring.one()
        p, q = p * form, q * form
    return h, GNWitness(rng.choice(["cond4", "cond5"]), g, p, q, f=fs)


@pytest.mark.parametrize("field", CHECK_FIELDS)
def test_verify_witness_matches_three_entry_verifier_random(field):
    # H = N / D is checked as g.num F_k D = N_k g.den F(1), where the
    # reference took each reduced H_k = H_k.num / H_k.den: the maps include
    # nonzero components whose reduced denominators differ from D
    rng = seeded(103)
    reasons = set()
    for n in (2, 3):
        ring = _ring(field, n)
        for _ in range(30):
            if rng.random() < 0.4:
                h, w = _cond3_case(rng, ring)
            else:
                h, w = _cond45_witness_case(rng, ring)
            verdict = _witness_verdict(h, w)
            assert verdict == reference_verify_witness(h, w), (h, w)
            reasons.add(verdict[1].split(" at component")[0])
            d = clear_denominators(h.comps)[0]
            if any(c.den != d and not c.is_zero() for c in h.comps):
                reasons.add("D != H_k.den")
    assert {
        "D != H_k.den",
        "",
        "f is missing or has the wrong number of components",
        "q is zero, f(p/q) undefined",
        "gcd of the components of f is not a unit",
        "gcd(p, q) is not a unit",
        "H = g*f(p/q) fails",
        "H = g*h(p,q) fails",
        "Jp . f = Jq . f = 0 fails",
    } <= reasons, reasons


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
def test_verify_witness_reruns_whole_when_the_substitution_outgrows(field, packings, spy):
    # in 8 variables the first slot width for inputs of degree 1 is 3 bits,
    # room for total degree 3: p^8 outgrows it inside gn_classify's one
    # packing, and the whole classification reruns at 6 bits
    sides = spy("_trace_sides", gordan_noether)
    ring = _ring(field, 8)
    x = [ring.var(i) for i in range(8)]
    yring = uni_ring(field)
    y = yring.var(0)
    p, q = x[0] + x[1], x[2] - x[3]
    one = RatFunc.from_poly(ring.one())
    zero = RatFunc.from_poly(ring.zero())
    for k in (0, 5):
        h = RatMap([RatFunc.from_poly(x[4]) if i == k else zero for i in range(8)])
        fs = tuple(y**8 + y if i == k else yring.zero() for i in range(8))
        w = GNWitness("cond4", one, p, q, f=fs)
        packings.clear()
        sides.clear()
        verdict = _witness_verdict(h, w)
        assert packings == [3, 6], packings
        assert len(sides) == 2, sides
        assert verdict == reference_verify_witness(h, w)
        assert verdict == (False, f"H = g*f(p/q) fails at component {k}")


# -- the internal alarms fire on a wrong but well-typed value -----------------


def test_gquasi_invariance_alarm_fires_when_scaling_changes_the_verdict(monkeypatch):
    # qt_condition answers as it should for H and the opposite for gH
    h = RatMap.from_polys([R3.zero(), R3.zero(), A1 * A2])
    real = gordan_noether.qt_condition
    monkeypatch.setattr(gordan_noether, "qt_condition", lambda m: real(m) == (m is h))
    with pytest.raises(AssertionFailure, match="scaling by g changed the quasi-translation"):
        gquasi_invariance(h, RatFunc.from_poly(A1))


def test_flem_conclude_alarm_fires_when_the_conclusion_fails(monkeypatch):
    # grad(x1/x2) . (0, 0, f3) = 0 in both modes, so the hypothesis holds
    fs = (YR.zero(), YR.zero(), Y**2)
    monkeypatch.setattr(gordan_noether, "_annihilates", lambda *args: False)
    for mode in ("i", "ii"):
        with pytest.raises(AssertionFailure, match="hypothesis held but Jp . f = Jq . f = 0"):
            flem_conclude(fs, A1, A2, mode)
