from fractions import Fraction

import pytest

from conftest import (
    certify_coprime_by_resultant,
    lagrange_derivative_at_zero,
    random_coprime_pair,
    random_nonzero_poly,
    random_poly,
    random_ratfunc,
    seeded,
)
from ratmaps import polyring
from ratmaps.errors import AllZero, NotDivisible, RingMismatch, ZeroMap
from ratmaps.fields import PrimeField, QQ
from ratmaps.polyring import (
    NEG_INF,
    POS_INF,
    Poly,
    PolyRing,
    RatFunc,
    RatMap,
    degrees,
    eval_univar_at_ratio,
    gcd_many,
    is_primitive,
    jacobian,
    poly_arith,
    primitive_part,
    relabel,
    subst,
)

R2 = PolyRing(QQ, ("x1", "x2"))
X1, X2 = R2.var(0), R2.var(1)
ONE = R2.one()


def test_poly_arith_examples():
    assert poly_arith(X1 + ONE, X1 - ONE, "mul") == X1**2 - ONE
    assert poly_arith(X1**2 - ONE, X1 + ONE, "divexact") == X1 - ONE
    cube = (X1 + X2) ** 3
    q = poly_arith(cube, X1 + X2, "divexact")
    assert q == (X1 + X2) ** 2
    assert q * (X1 + X2) == cube  # multiply-back oracle


def test_poly_arith_errors():
    with pytest.raises(NotDivisible):
        (X1**2 + ONE).divexact(X2)
    other = PolyRing(QQ, ("x1",))
    with pytest.raises(RingMismatch):
        poly_arith(X1, other.var(0), "add")


def test_degrees_conventions():
    d = degrees(R2.zero())
    assert d.deg == NEG_INF and d.lowdeg == POS_INF
    d = degrees(X1**2 * X2 + X1)
    assert (d.deg, d.lowdeg) == (3, 1)
    # derived by expansion: (x1+1)^4 has top degree 4 and a constant term
    d = degrees((X1 + ONE) ** 4)
    assert (d.deg, d.lowdeg) == (4, 0)


def test_gcd_examples():
    assert gcd_many([X1**2, X1 * X2]) == X1
    f = R2.const(3) * X1 + X2
    assert gcd_many([f, R2.zero()]) == f.monic()
    a = (X1 + X2) ** 2 * (X1 - ONE)
    b = (X1 + X2) * (X2 + R2.const(3))
    g = gcd_many([a, b])
    assert g == X1 + X2
    # oracle: divides both (multiply-back) and cofactors coprime by resultant
    ca, cb = a.divexact(g), b.divexact(g)
    assert ca * g == a and cb * g == b
    assert certify_coprime_by_resultant(ca, cb, seeded(3))


def test_gcd_all_zero():
    with pytest.raises(AllZero):
        gcd_many([R2.zero(), R2.zero()])


def test_gcd_divides_and_quotients_primitive_random():
    rng = seeded(4)
    for _ in range(50):
        polys = [random_poly(rng, R2, 3, 3) for _ in range(rng.randint(2, 3))]
        if all(p.is_zero() for p in polys):
            continue
        g = gcd_many(polys)
        quots = []
        for p in polys:
            if p.is_zero():
                continue
            q = p.divexact(g)
            assert q * g == p
            quots.append(q)
        assert is_primitive(quots)


def test_gcd_fp():
    field = PrimeField(2)
    ring = PolyRing(field, ("x1", "x2"))
    a, b = ring.var(0), ring.var(1)
    # (x1 + x2)^2 = x1^2 + x2^2 over GF(2)
    assert gcd_many([a**2 + b**2, a + b]) == a + b


def test_is_primitive_examples():
    assert is_primitive([X1, X2])
    assert not is_primitive([X1**2, X1 * X2])
    assert is_primitive([X1 + ONE, X1**2])
    assert certify_coprime_by_resultant(X1 + ONE, X1**2, seeded(5))
    assert not is_primitive([R2.zero(), R2.zero()])
    # the common factor x2 lives in a variable other than x1
    a, b = X2 * (X1 + ONE), X2 * (X1 + R2.const(2))
    assert not is_primitive([a, b])
    assert not certify_coprime_by_resultant(a, b, seeded(5))


def test_primitive_part_examples():
    g, core = primitive_part(RatMap.from_polys([X1**2, X1 * X2]))
    assert g == RatFunc.from_poly(X1) and core == (X1, X2)

    h = RatMap([RatFunc.from_poly(ONE), RatFunc(X2, X1)])
    g, core = primitive_part(h)
    assert g == RatFunc(ONE, X1) and core == (X1, X2)

    h = RatMap([RatFunc(X1**2, X1 + ONE), RatFunc(X1 * X2, X1 + ONE)])
    g, core = primitive_part(h)
    assert core == (X1, X2)
    rebuilt = RatMap(tuple(g * RatFunc.from_poly(c) for c in core))
    assert rebuilt == h  # multiply-back oracle


def test_primitive_part_round_trip_random():
    rng = seeded(6)
    for _ in range(500):
        comps = []
        m = rng.randint(1, 3)
        for _ in range(m):
            comps.append(random_ratfunc(rng, R2, 2, 2))
        h = RatMap(comps)
        if h.is_zero():
            with pytest.raises(ZeroMap):
                primitive_part(h)
            continue
        g, core = primitive_part(h)
        assert not g.is_zero()
        assert is_primitive(core)
        assert RatMap(tuple(g * RatFunc.from_poly(c) for c in core)) == h


def test_gauss_lemma_products_of_primitive_are_primitive():
    # coefficients in K[x1], polynomials in a second variable
    rng = seeded(7)
    ring = PolyRing(QQ, ("x1", "t"))

    def random_primitive_in_t(max_deg_t):
        while True:
            terms = {}
            for k in range(max_deg_t + 1):
                c = random_poly(rng, PolyRing(QQ, ("x1",)), 2, 2)
                for e, v in c.terms.items():
                    terms[(e[0], k)] = v
            p = Poly(ring, terms)
            if p.is_zero():
                continue
            coeffs = list(p.coeffs_wrt(1).values())
            if is_primitive(coeffs):
                return p

    for _ in range(60):
        f1 = random_primitive_in_t(rng.randint(1, 2))
        f2 = random_primitive_in_t(rng.randint(1, 2))
        product = f1 * f2
        assert is_primitive(list(product.coeffs_wrt(1).values()))


def test_degree_additivity_random():
    rng = seeded(8)
    for _ in range(120):
        a = random_nonzero_poly(rng, R2, 3, 3)
        b = random_nonzero_poly(rng, R2, 3, 3)
        da, db, dab = degrees(a), degrees(b), degrees(a * b)
        assert dab.deg == da.deg + db.deg
        assert dab.lowdeg == da.lowdeg + db.lowdeg


def test_jacobian_power_rule():
    h = RatMap.from_polys([X1**2, X1 * X2, X2**2])
    jac = jacobian(h)
    two = R2.const(2)
    assert jac[0][0] == RatFunc.from_poly(two * X1)
    assert jac[0][1].is_zero()
    assert jac[1][0] == RatFunc.from_poly(X2)
    assert jac[1][1] == RatFunc.from_poly(X1)
    assert jac[2][0].is_zero()
    assert jac[2][1] == RatFunc.from_poly(two * X2)


def test_jacobian_quotient_rule_frozen():
    h = RatMap([RatFunc.from_poly(ONE), RatFunc(X2, X1)])
    jac = jacobian(h)
    assert jac[0][0].is_zero() and jac[0][1].is_zero()
    assert jac[1][0] == RatFunc(-X2, X1**2)
    assert jac[1][1] == RatFunc(ONE, X1)


def test_jacobian_fp2_reduction():
    field = PrimeField(2)
    ring = PolyRing(field, ("x1", "x2"))
    a, b = ring.var(0), ring.var(1)
    jac = jacobian(RatMap.from_polys([a**2, a * b, b**2]))
    assert jac[0][0].is_zero() and jac[0][1].is_zero()
    assert jac[1][0] == RatFunc.from_poly(b)
    assert jac[1][1] == RatFunc.from_poly(a)
    assert jac[2][0].is_zero() and jac[2][1].is_zero()


def test_jacobian_matches_interpolation_derivative():
    # oracle: derivative of the univariate restriction s -> f(a + s e_j),
    # recovered exactly from deg+1 interpolation nodes
    rng = seeded(9)
    for _ in range(30):
        f = random_nonzero_poly(rng, R2, 3, 4)
        point = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)]
        for j in range(2):
            d = max(f.degree_in(j), 1)
            nodes = [Fraction(k) for k in range(1, d + 2)]
            values = []
            for s in nodes:
                shifted = [point[0], point[1]]
                shifted[j] = shifted[j] + s
                values.append(f.evaluate(shifted))
            expected = lagrange_derivative_at_zero(values, nodes)
            assert f.derivative(j).evaluate(point) == expected


def test_subst_examples():
    yring = PolyRing(QQ, ("y1",))
    y = yring.var(0)
    # (y1^2 + 1) at y1 = p/q -> (p^2 + q^2)/q^2
    p, q = X1 + ONE, X1**2
    image = subst(y**2 + yring.one(), [RatFunc(p, q)], R2)
    assert image == RatFunc(p**2 + q**2, q**2)
    # relabeling x -> y
    target = PolyRing(QQ, ("y1", "y2"))
    assert relabel(X1 * X2, target, [0, 1]) == target.var(0) * target.var(1)
    # cleared evaluation route: q^2 f(p/q) for f = (y^2 + 1, y)
    f1, f2 = y**2 + yring.one(), y
    assert eval_univar_at_ratio(f1, p, q, 2) == (X1 + ONE) ** 2 + X1**4
    assert eval_univar_at_ratio(f2, p, q, 2) == (X1 + ONE) * X1**2


def test_subst_matches_cleared_route_random():
    rng = seeded(10)
    yring = PolyRing(QQ, ("y1",))
    for _ in range(40):
        f = random_nonzero_poly(rng, yring, 3, 3)
        p, q = random_coprime_pair(rng, R2, 2)
        if q.is_zero():
            continue
        s = int(max(f.total_degree(), 0))
        via_subst = subst(f, [RatFunc(p, q)], R2)
        via_clearing = RatFunc(eval_univar_at_ratio(f, p, q, s), q**s)
        assert via_subst == via_clearing


def test_homogeneous_parts():
    f = X1**2 + X1 + R2.const(3)
    parts = f.homogeneous_parts()
    assert parts == [(0, R2.const(3)), (1, X1), (2, X1**2)]
    h = X1 * X2
    assert h.homogeneous_parts() == [(2, h)]
    assert ((X1 + X2 + ONE) ** 2).trailing_part() == ONE
    assert sum((p for _, p in parts), R2.zero()) == f


def test_ratfunc_normalization():
    r = RatFunc(X1**2 - ONE, X1 + ONE)
    assert r.is_polynomial() and r.num == X1 - ONE
    r = RatFunc(R2.const(2) * X2, R2.const(2) * X1)
    assert r.num == X2 and r.den == X1
    r = RatFunc(X2, R2.const(3) * X1)
    assert r.den == X1 and r.num == RatFunc(X2, R2.const(3) * X1).num


def test_print_canonical_order():
    assert str(X2 + X1) == "x1 + x2"
    assert str(RatFunc(X2, X1)) == "(x2)/(x1)"
    assert str(R2.zero()) == "0"
    assert str(-X1 + R2.const(2)) == "-x1 + 2"


# -- the coprimality certificate against the PRS ----------------------------


def certificate_says_constant(a, b):
    """The certificate on a nonconstant pair: the cleared integers modulo
    _CERT_PRIME over QQ (as _gcd2 feeds it), the residues over GF(p)."""
    if a.ring.field == QQ:
        ta, tb = polyring._qq_int_terms(a), polyring._qq_int_terms(b)
        return polyring._coprime_certified(ta, tb, polyring._CERT_PRIME)
    ta, tb = ({e: c.v for e, c in t.terms.items()} for t in (a, b))
    return polyring._coprime_certified(ta, tb, a.ring.field.p)


@pytest.fixture
def gcd_pair(monkeypatch):
    """(gcd with the certificate, PRS gcd with it switched off) of a pair."""

    def both(a, b):
        fast = polyring._gcd2(a, b)
        with monkeypatch.context() as m:
            m.setattr(polyring, "_coprime_certified", lambda ta, tb, p: False)
            return fast, polyring._gcd2(a, b)

    return both


def check_against_prs(a, b, gcd_pair):
    """Compare with the PRS; returns the gcd and whether it was certified."""
    fast, prs = gcd_pair(a, b)
    assert fast == prs, (a, b)
    certified = not (a.is_constant() or b.is_constant()) and certificate_says_constant(a, b)
    assert prs.is_one() or not certified, (a, b)
    return prs, certified


@pytest.mark.parametrize("field", [QQ, PrimeField(32003), PrimeField(2), PrimeField(3)])
def test_certificate_matches_prs_random(field, gcd_pair):
    rng = seeded(11)
    planted = certified = 0
    for trial in range(36):
        ring = PolyRing(field, tuple(f"x{i + 1}" for i in range(2 + trial % 3)))
        a = random_nonzero_poly(rng, ring, 3, 3)
        b = random_nonzero_poly(rng, ring, 3, 3)
        if trial % 3:
            # a common factor: random, or in one variable other than x1
            if trial % 3 == 1:
                g = random_nonzero_poly(rng, ring, 2, 2)
            else:
                v = ring.var(rng.randrange(1, ring.nvars))
                g = v ** rng.randint(1, 2) + ring.const(rng.randint(0, 2))
            a, b = a * g, b * g
        prs, cert = check_against_prs(a, b, gcd_pair)
        planted += not prs.is_constant()
        certified += cert
    assert planted >= 12 and certified >= 3


def test_certificate_leading_coefficient_vanishing_everywhere(gcd_pair):
    # over GF(3) the x1-leading coefficient x2^3 - x2 is 0 at every point
    ring = PolyRing(PrimeField(3), ("x1", "x2"))
    x1, x2 = ring.var(0), ring.var(1)
    g = (x2**3 - x2) * x1 + ring.one()
    for a, b in [(g * (x1 + x2), g * (x1 + ring.one())), (g, x1 + x2)]:
        check_against_prs(a, b, gcd_pair)
    assert not certificate_says_constant(g * (x1 + x2), g * (x1 + ring.one()))


def test_certificate_leading_coefficient_multiple_of_prime(gcd_pair):
    # the shared factor's leading coefficient vanishes modulo the certificate
    # prime, so its images lose their degree there; only the PRS sees it
    g = R2.const(polyring._CERT_PRIME) * X1 + ONE
    a, b = g * (X1 + R2.const(2)), g * (X1 + R2.const(3))
    assert not certificate_says_constant(a, b)
    assert check_against_prs(a, b, gcd_pair) == (g.monic(), False)
    # b's leading coefficient survives, so the pair is still certified
    a = R2.const(polyring._CERT_PRIME) * X1**2 + X1 + ONE
    assert check_against_prs(a, X1 + R2.const(2), gcd_pair) == (ONE, True)
