import itertools
import math
import time
from fractions import Fraction

import pytest

import refalg
from conftest import (
    certify_coprime_by_resultant,
    lagrange_derivative_at_zero,
    plain,
    random_coprime_pair,
    random_nonzero_poly,
    random_poly,
    random_ratfunc,
    reference_divexact,
    reference_gcd2,
    reference_gcd_many,
    reference_k_divexact,
    reference_substitute,
    same_ratio,
    seeded,
    time_limit,
)
from ratmaps import polyring
from ratmaps.errors import (
    AllZero,
    DivisionByZero,
    FieldMismatch,
    InternalCheckError,
    NotDivisible,
    RingMismatch,
    ZeroMap,
)
from ratmaps.fields import Fp, PrimeField, QQ
from ratmaps.polyring import (
    NEG_INF,
    POS_INF,
    Poly,
    PolyRing,
    RatFunc,
    RatMap,
    _k_gradients,
    _k_jacobian_rows,
    _split_content,
    _substitute,
    clear_denominators,
    compose_poly,
    compose_poly_ratfunc,
    cross_equal,
    degrees,
    eval_univar_at_ratio,
    gcd_many,
    is_primitive,
    jacobian,
    on_kernel,
    poly_arith,
    poly_lcm,
    primitive_part,
    relabel,
    subst,
)

R2 = PolyRing(QQ, ("x1", "x2"))
X1, X2 = R2.var(0), R2.var(1)
ONE = R2.one()


def test_coefficients_from_another_field_are_rejected():
    gf7 = PolyRing(PrimeField(7), ("x1",))
    for ring, bad in [
        (gf7, Fraction(1, 2)),
        (gf7, Fp(3, 5)),
        (gf7, True),
        (R2, Fp(3, 5)),
        (R2, 1.5),
        (R2, "1"),
        (R2, True),
    ]:
        one = (0,) * ring.nvars
        with pytest.raises(FieldMismatch):
            ring.poly({one: bad})
        with pytest.raises(FieldMismatch):
            ring.poly({(1,) + one[1:]: ring.field.one(), one: bad})
        with pytest.raises(FieldMismatch):
            ring.const(bad)
    # ints and the ring's own elements are accepted
    assert gf7.poly({(1,): Fp(3, 7), (0,): 9}) == gf7.var(0).scale(Fp(3, 7)) + gf7.const(2)
    assert R2.poly({(1, 0): Fraction(1, 2), (0, 0): 1}) == X1.scale(Fraction(1, 2)) + ONE
    assert R2.const(Fraction(2, 3)) * R2.const(3) == R2.const(2)


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


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
def test_clear_denominators_zero_and_unit_components(field, monkeypatch):
    ring = PolyRing(field, ("x1", "x2"))
    x1, x2, one = ring.var(0), ring.var(1), ring.one()
    fracs = [
        RatFunc.from_poly(ring.zero()),
        RatFunc(x2, ring.const(2) * x1 + ring.const(2)),
        RatFunc.from_poly(x1),
        RatFunc(one, x1**2 - one),
    ]
    divisors = []
    real = Poly.divexact

    def divexact(a, b):
        divisors.append(b)
        return real(a, b)

    monkeypatch.setattr(Poly, "divexact", divexact)
    d, nums = clear_denominators(fracs)
    assert d == x1**2 - one
    half = field.one() / field.from_int(2)
    assert nums == [ring.zero(), (x2 * (x1 - one)).scale(half), x1 * d, one]
    # the zero component and the polynomial one are never divided into d
    assert not any(b.is_one() for b in divisors)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_split_content_lone_entry_matches_divexact_random(field, monkeypatch):
    # a lone nonzero entry N divided by its monic gcd is the constant lc(N):
    # no Poly.divexact is needed there, and more entries still divide
    rng = seeded(100)
    ring = PolyRing(field, ("x1", "x2", "x3"))
    cases = []
    for _ in range(60):
        nums = [ring.zero()] * rng.randint(1, 3)
        for k in rng.sample(range(len(nums)), rng.randint(1, len(nums))):
            nums[k] = random_nonzero_poly(rng, ring, 3, 4)
            if field == QQ and rng.random() < 0.5:
                nums[k] = nums[k].scale(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        g = reference_gcd_many(nums)
        quotients = tuple(reference_divexact(n, g) if n.terms else n for n in nums)
        cases.append((nums, g, quotients))
    calls = []
    real = Poly.divexact
    monkeypatch.setattr(Poly, "divexact", lambda a, b: calls.append(1) or real(a, b))
    lone = 0
    for nums, g, quotients in cases:
        calls.clear()
        assert _split_content(nums) == (g, quotients), nums
        if sum(1 for n in nums if n.terms) == 1:
            lone += 1
            assert calls == [], nums
    assert 10 < lone < len(cases)


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


# -- substitution on the kernel against refalg ----------------------------

SUBST_FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(32003))


def _frac_poly(rng, ring, max_deg=2, n_terms=3):
    """A random poly whose coefficients are divided by unequal small
    integers, so that over QQ its denominators differ from term to term."""
    field = ring.field
    terms = {}
    for e, c in random_poly(rng, ring, max_deg, n_terms).terms.items():
        d = field.from_int(rng.choice([1, 2, 3, 5, 7]))
        terms[e] = c / d if d else c
    return Poly(ring, terms)


def _subst_rings(rng, field):
    """A source ring in y and a target ring in x, 1-3 variables each."""
    src = PolyRing(field, tuple(f"y{i + 1}" for i in range(rng.randint(1, 3))))
    tgt = PolyRing(field, tuple(f"x{i + 1}" for i in range(rng.randint(1, 3))))
    return src, tgt


def _subst_source(rng, ring, shape):
    """shape 0: zero; 1: every term contains one variable; else general."""
    if shape == 0:
        return ring.zero()
    a = _frac_poly(rng, ring, 3, 4)
    return a * ring.var(rng.randrange(ring.nvars)) if shape == 1 else a


def _subst_images(rng, ring, k, shape):
    """k images; shape 0: all zero; 1: all constant; else mixed."""
    if shape == 0:
        return [ring.zero()] * k
    if shape == 1:
        return [_frac_poly(rng, ring, 0, 1) for _ in range(k)]
    return [_frac_poly(rng, ring, rng.randint(0, 2), 3) for _ in range(k)]


def test_compose_poly_matches_reference_random():
    rng = seeded(71)
    for field in SUBST_FIELDS:
        for i in range(80):
            src, tgt = _subst_rings(rng, field)
            a = _subst_source(rng, src, i % 5)
            images = _subst_images(rng, tgt, src.nvars, i % 7)
            expected = reference_substitute([a], images, [None] * len(images), None, tgt)[0]
            assert compose_poly(a, images, tgt) == expected, (a, images)


def test_compose_poly_ratfunc_matches_reference_random():
    rng = seeded(72)
    for field in SUBST_FIELDS:
        for i in range(60):
            src, tgt = _subst_rings(rng, field)
            a = _subst_source(rng, src, i % 5)
            images = []
            for num in _subst_images(rng, tgt, src.nvars, i % 7):
                kind = rng.randrange(4)
                if kind == 0:
                    images.append(rng.randint(-2, 2))
                elif kind == 1:
                    images.append(num)
                else:
                    den = _frac_poly(rng, tgt, 2, 2)
                    images.append(RatFunc(num, den) if den.terms else num)
            # over the common denominator prod_i d_i^M_i, M_i = deg_i a
            nums = [
                img.num if isinstance(img, RatFunc) else tgt.const(img) if isinstance(img, int) else img
                for img in images
            ]
            dens = [img.den if isinstance(img, RatFunc) else None for img in images]
            maxes = [a.degree_in(j) for j in range(src.nvars)]
            num, den = reference_substitute([a, src.one()], nums, dens, maxes, tgt)
            assert same_ratio(compose_poly_ratfunc(a, images, tgt), num, den), (a, images)


def test_eval_univar_at_ratio_matches_reference_random():
    rng = seeded(73)
    for field in SUBST_FIELDS:
        yring = PolyRing(field, ("y1",))
        for i in range(80):
            _, tgt = _subst_rings(rng, field)
            f = _subst_source(rng, yring, i % 5)
            p, q = _subst_images(rng, tgt, 2, i % 7)
            for k in (0, 1, 2):
                s = int(max(f.total_degree(), 0)) + k
                expected = reference_substitute([f], [p], [q], [s], tgt)[0]
                assert eval_univar_at_ratio(f, p, q, s) == expected, (f, p, q, s)
            if f.total_degree() > 0:
                with pytest.raises(ValueError):
                    eval_univar_at_ratio(f, p, q, int(f.total_degree()) - 1)


DIFF_FIELDS = (QQ, PrimeField(2), PrimeField(7), PrimeField(32003))


def _nonzero_frac_poly(rng, ring):
    while not (d := _frac_poly(rng, ring, 2, 2)).terms:
        pass
    return d


def _mul_operand(rng, ring, shape):
    """shape 0: zero; 1: a constant; 2: one term; else general, each
    with unlike denominators over QQ."""
    if shape == 0:
        return ring.zero()
    if shape == 1:
        return _frac_poly(rng, ring, 0, 1)
    if shape == 2:
        return _frac_poly(rng, ring, 3, 1)
    return _frac_poly(rng, ring, 2, rng.randint(2, 4))


@pytest.mark.parametrize("field", DIFF_FIELDS)
def test_poly_mul_and_pow_match_refalg(field):
    """Poly * and ** against refalg.mul and refalg.power: zero, constant,
    one-term and general operands, exponents 0, 1, 2, 5 and 7."""
    rng = seeded(74)
    kind, mod = type(field.one()), field.characteristic
    for i in range(60):
        ring = PolyRing(field, tuple(f"x{j + 1}" for j in range(rng.randint(1, 3))))
        a, b = _mul_operand(rng, ring, i % 5), _mul_operand(rng, ring, i // 5 % 5)
        prod = a * b
        assert plain(prod) == refalg.mul(plain(a), plain(b), mod), (a, b)
        for n in (0, 1, 2, 5, 7):
            p = a**n
            assert plain(p) == refalg.power(plain(a), n, ring.nvars, mod), (a, n)
            assert all(type(c) is kind for c in p.terms.values()), (a, n)
        assert all(type(c) is kind for c in prod.terms.values()), (a, b)


def test_substitute_reads_its_clearing_powers_over_the_tuple():
    """_substitute equals refalg's given maxes[i] = the highest exponent of
    y_i over the whole tuple; the tuples mix zero, constant and nonconstant
    polys, and the dens are all None, all given or mixed."""
    rng = seeded(75)
    for field in DIFF_FIELDS:
        for i in range(90):
            src, tgt = _subst_rings(rng, field)
            polys = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.randrange(3)
                if kind == 0:
                    polys.append(src.zero())
                elif kind == 1:
                    polys.append(src.const(field.from_int(rng.choice([1, 3, 5]))))
                else:
                    polys.append(_subst_source(rng, src, rng.randint(1, 2)))
            nums = _subst_images(rng, tgt, src.nvars, i % 7)
            given = [i % 3 == 1 or (i % 3 == 2 and rng.random() < 0.5) for _ in nums]
            dens = [_nonzero_frac_poly(rng, tgt) if g else None for g in given]
            exps = [e for a in polys for e in a.terms]
            maxes = [max((e[j] for e in exps), default=0) for j in range(src.nvars)]
            expected = reference_substitute(polys, nums, dens, maxes, tgt)
            assert _substitute(polys, nums, dens, tgt) == expected, (polys, nums, dens)


@pytest.mark.parametrize("field", DIFF_FIELDS)
def test_k_dot_with_empty_operands_is_the_plain_sum(field):
    """_k_dot skips a pair with an empty operand; the result is still the
    reduced sum of every product u_i v_i, here taken in Poly arithmetic."""
    rng = seeded(78)
    seen = set()
    for n in (1, 2, 3):
        ring = PolyRing(field, tuple(f"x{i + 1}" for i in range(n)))
        for _ in range(30):
            m = rng.randint(1, 4)
            us, vs = (
                [ring.zero() if rng.random() < 0.4 else random_poly(rng, ring, 3, 3) for _ in range(m)]
                for _ in range(2)
            )
            if field == QQ and rng.random() < 0.5:
                us = [u.scale(Fraction(1, rng.randint(2, 5))) for u in us]

            def dot(K, packed):
                t = polyring._k_dot(packed[0], packed[1], K)
                assert polyring._k_reduce(t, K.mod) == t
                return Poly(ring, {e: field.from_int(c) for e, c in K.unpack(t).items()})

            got = on_kernel([us, vs], dot)
            # over QQ each group is scaled by the lcm of its denominators
            scale = 1
            if field == QQ:
                scale = math.prod(math.lcm(*(c.denominator for p in g for c in p.terms.values()))
                                  for g in (us, vs))
            expected = sum((u * v for u, v in zip(us, vs)), ring.zero())
            assert got == expected.scale(field.from_int(scale)), (us, vs)
            if any(u.is_zero() or v.is_zero() for u, v in zip(us, vs)):
                seen.add("empty operand")
            if expected.is_zero():
                seen.add("zero sum")
    assert seen == {"empty operand", "zero sum"}, seen


@pytest.mark.parametrize("field", DIFF_FIELDS)
def test_jacobian_row_is_the_quotient_rule(field):
    """_k_jacobian_rows is den grad num - num grad den for every den,
    constant ones included, and a zero row for a zero num."""
    rng = seeded(76)
    seen = set()
    for n in (1, 2, 3):
        ring = PolyRing(field, tuple(f"x{i + 1}" for i in range(n)))
        for i in range(30):
            num = ring.zero() if i % 5 == 0 else random_poly(rng, ring, 3, 4)
            if i % 2:
                den = ring.const(field.from_int(rng.choice([1, 3, -1, 5])))
            else:
                while (den := random_nonzero_poly(rng, ring, 2, 3)).is_constant():
                    pass

            def rows(K, packed):
                kn, kd = packed[0]
                grad_n, grad_d = _k_gradients([kn, kd], K)
                row = _k_jacobian_rows(kd, grad_d, [kn], [grad_n], K)[0]
                kn, kd = K.unpack(kn), K.unpack(kd)
                return [K.unpack(t) for t in row], refalg.jacobian_rows(kd, [kn], n, K.mod)[0]

            row, expected = on_kernel([[num, den]], rows)
            assert row == expected, (num, den)
            seen.add("constant den" if den.is_constant() else "den")
            if num.is_zero():
                seen.add("zero num")
    assert seen == {"constant den", "den", "zero num"}, seen


def test_gcd_checks_rings():
    # polys from different rings: RingMismatch, where the gcd raised
    # IndexError or KeyError and is_primitive answered True
    r2, r3 = PolyRing(QQ, ("x1", "x2")), PolyRing(QQ, ("x1", "x2", "x3"))
    (a1, a2), (_, b2, b3) = (r2.var(i) for i in range(2)), (r3.var(i) for i in range(3))
    for polys in ([a1 * a2 + r2.one(), b2 * b3], [a1 * a2, r3.var(0) * b2], [a1, r3.zero()]):
        with pytest.raises(RingMismatch):
            gcd_many(polys)
    with pytest.raises(RingMismatch):
        is_primitive([a1 + r2.one(), b2])
    with pytest.raises(RingMismatch):
        poly_lcm(a1 + r2.one(), b2)


def test_substitution_checks_rings_and_fields():
    yring = PolyRing(QQ, ("y1",))
    f = yring.var(0) ** 2
    with pytest.raises(RingMismatch):
        compose_poly(f, [X1], PolyRing(PrimeField(5), ("x1", "x2")))
    with pytest.raises(RingMismatch):
        compose_poly_ratfunc(f, [RatFunc(X1, X2)], PolyRing(QQ, ("x1",)))
    with pytest.raises(RingMismatch):
        eval_univar_at_ratio(f, X1, PolyRing(QQ, ("x1",)).var(0), 2)
    with pytest.raises(ValueError):
        eval_univar_at_ratio(X1, X1, X2, 2)


def test_substitution_packs_once_at_its_first_width(monkeypatch):
    """At the first slot width a substitution of these sizes packs once; the
    gcds and exact divisions of RatFunc reduction are not counted (the
    exact division packs once of its own: test_divexact_packs_once)."""
    widths, outside = [], []

    class Recording(polyring._Packing):
        __slots__ = ()

        def __init__(self, n, w, mod):
            if not outside:
                widths.append(w)
            super().__init__(n, w, mod)

    def uncounted(real):
        def run(*args):
            outside.append(True)
            try:
                return real(*args)
            finally:
                outside.pop()

        return run

    def once(fn, *args):
        widths.clear()
        fn(*args)
        assert len(widths) == 1, (fn.__name__, args, widths)

    monkeypatch.setattr(polyring, "_Packing", Recording)
    for name in ("_prs_gcd", "_modular_gcd"):
        monkeypatch.setattr(polyring, name, uncounted(getattr(polyring, name)))
    monkeypatch.setattr(polyring.Poly, "divexact", uncounted(polyring.Poly.divexact))
    rng = seeded(74)
    for field in (QQ, PrimeField(32003)):
        yring = PolyRing(field, ("y1",))
        for i in range(40):
            src, tgt = _subst_rings(rng, field)
            a = _subst_source(rng, src, 2 + i % 2)
            images = _subst_images(rng, tgt, src.nvars, 2)
            once(compose_poly, a, images, tgt)
            dens = [_frac_poly(rng, tgt, 2, 2) for _ in images]
            ratios = [RatFunc(n, d) if d.terms else n for n, d in zip(images, dens)]
            once(compose_poly_ratfunc, a, ratios, tgt)
            f = _subst_source(rng, yring, 2)
            p, q = _subst_images(rng, tgt, 2, 2)
            once(eval_univar_at_ratio, f, p, q, int(max(f.total_degree(), 0)) + 1)


def test_homogeneous_parts():
    f = X1**2 + X1 + R2.const(3)
    parts = f.homogeneous_parts()
    assert parts == [(0, R2.const(3)), (1, X1), (2, X1**2)]
    h = X1 * X2
    assert h.homogeneous_parts() == [(2, h)]
    assert sum((p for _, p in parts), R2.zero()) == f


def test_ratfunc_normalization():
    r = RatFunc(X1**2 - ONE, X1 + ONE)
    assert r.is_polynomial() and r.num == X1 - ONE
    r = RatFunc(R2.const(2) * X2, R2.const(2) * X1)
    assert r.num == X2 and r.den == X1
    r = RatFunc(X2, R2.const(3) * X1)
    assert r.den == X1 and r.num == RatFunc(X2, R2.const(3) * X1).num


@pytest.mark.parametrize("field", (QQ, PrimeField(2), PrimeField(7)))
def test_ratfunc_negative_power(field):
    # r ** -n is the reduced den^n / num^n with the monic denominator that
    # RatFunc builds, whatever the leading coefficient of num
    rng = seeded(77)
    ring = PolyRing(field, ("x1", "x2"))
    one, three = field.one(), field.from_int(3)
    non_monic = 0
    for i in range(20):
        num = random_nonzero_poly(rng, ring, 0 if i % 5 == 0 else 3, 3)
        r = RatFunc(num.scale(three / num.lc()), random_nonzero_poly(rng, ring, 2, 3))
        non_monic += r.num.lc() != one
        for n in (1, 2, 3):
            got = r**-n
            assert got == RatFunc(r.den**n, r.num**n), (r, n)
            assert got.den.lc() == one, (r, n)
    with pytest.raises(DivisionByZero):
        RatFunc.from_poly(ring.zero()) ** -1
    if field.characteristic != 2:  # over GF(2) every leading coefficient is 1
        assert non_monic > 10, non_monic


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
        ta, tb = (polyring._k_normal(t, 0) for t in polyring._k_ints([a, b])[1])
        return polyring._coprime_certified(ta, tb, polyring._CERT_PRIME)
    ta, tb = ({e: c.v for e, c in t.terms.items()} for t in (a, b))
    return polyring._coprime_certified(ta, tb, a.ring.field.p)


@pytest.fixture
def gcd_pair(monkeypatch):
    """(gcd as _gcd2 computes it, PRS gcd with the certificate and the
    modular path of either field switched off) of a pair."""

    def both(a, b):
        fast = polyring._gcd2(a, b)
        with monkeypatch.context() as m:
            m.setattr(polyring, "_coprime_certified", lambda ta, tb, p: False)
            m.setattr(polyring, "_modular_gcd", lambda ta, tb, nvars, p: None)
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


# -- the packed-int PRS kernel against the reference PRS ----------------------

MERSENNE_61 = (1 << 61) - 1


@pytest.mark.parametrize(
    "field",
    [QQ, PrimeField(2), PrimeField(3), PrimeField(32003), PrimeField(MERSENNE_61)],
    ids=str,
)
def test_gcd_matches_reference_prs_random(field):
    rng = seeded(23)
    planted = 0
    for trial in range(36):
        ring = PolyRing(field, tuple(f"x{i + 1}" for i in range(1 + trial % 4)))
        a, b, c = (random_nonzero_poly(rng, ring, 3, 3) for _ in range(3))
        kind = trial // 4 % 3
        if kind == 1:
            g = random_nonzero_poly(rng, ring, 2, 2)
        elif kind == 2:
            # a common factor in one variable, other than x1 where there is one
            v = ring.var(rng.randrange(1, ring.nvars) if ring.nvars > 1 else 0)
            g = v ** rng.randint(1, 2) + ring.const(rng.randint(0, 2))
        else:
            g = ring.one()
        a, b, c = a * g, b * g, c * g
        ref = reference_gcd2(a, b)
        assert polyring._gcd2(a, b) == ref, (a, b)
        assert poly_lcm(a, b) == (a * b).divexact(ref).monic(), (a, b)
        assert gcd_many([a, b, c]) == reference_gcd_many([a, b, c]), (a, b, c)
        planted += not ref.is_constant()
    assert planted >= 12


def test_kernel_large_exponents_on_entry():
    # exponents of hundreds: the first slot width comes from the inputs
    for field in (QQ, PrimeField(32003)):
        ring = PolyRing(field, ("x1", "x2", "x3"))
        x1, x2, x3 = (ring.var(i) for i in range(3))
        g = x1**300 + x2 * x3**40 + ring.one()
        a, b = g * (x2**129 + x1), g * (x1**2 * x3**5 + ring.one())
        assert polyring._gcd2(a, b) == g.monic()
    t = {(300, 0, 7): 1, (0, 129, 0): 2, (1, 1, 1): 3, (0, 0, 0): 4, (0, 0, 307): 5}
    K = polyring._Packing(3, polyring._first_width(3, 307), 0)
    packed = K.pack(t)
    assert K.unpack(packed) == t
    # integer order on keys is grlex order
    order = [next(iter(K.unpack({k: 1}))) for k in sorted(packed)]
    assert order == sorted(t, key=polyring._grlex)


def test_kernel_widens_and_reruns(monkeypatch):
    widths = []

    class Recording(polyring._Packing):
        __slots__ = ()

        def __init__(self, n, w, mod):
            widths.append(w)
            super().__init__(n, w, mod)

    monkeypatch.setattr(polyring, "_Packing", Recording)
    # a coprime pair of total degree 3 in x1, x2, read in 8 variables: a
    # 30-bit digit holds 9 slots of only 3 bits, so the first width is the
    # 4 bits that degree 2*3 needs (slot limit 7), and the pseudo-remainders
    # of the pair outgrow it: the gcd reruns at double the width
    n = 8
    pad = (0,) * (n - 2)
    ta = {e + pad: c for e, c in {(3, 0): 1, (2, 1): -2, (1, 0): -4, (0, 1): -1}.items()}
    tb = {e + pad: c for e, c in {(0, 3): 3, (1, 1): 1, (0, 0): 3}.items()}
    w0 = polyring._first_width(n, 3)
    assert w0 == (2 * 3).bit_length() + 1
    for mod in (0, 2, 32003, MERSENNE_61):
        pair = (ta, tb)
        if mod:
            pair = [{e: c % mod for e, c in t.items() if c % mod} for t in pair]
        widths.clear()
        assert polyring._prs_gcd(*pair, n, mod) == {(0,) * n: 1}
        assert widths == [w0, 2 * w0]
    names = tuple(f"x{i + 1}" for i in range(n))
    for field in (QQ, PrimeField(32003)):
        ring = PolyRing(field, names)
        a, b = ring.poly(ta), ring.poly(tb)

        # (a*b)^2 has degree 12 > 7: on_kernel reruns too
        def square_of_product(K, packed):
            ab = polyring._k_mul(*packed[0], K)
            return polyring._k_poly(ring, K.unpack(polyring._k_mul(ab, ab, K)))

        widths.clear()
        assert polyring.on_kernel([[a, b]], square_of_product) == (a * b) ** 2
        assert widths == [w0, 2 * w0]
        # a planted factor of degree 1 takes the inputs to degree 4: a first
        # width of 5 bits (limit 15) leaves room, so each gcd packs once
        h = ring.var(0) + ring.var(n - 1)
        ah, bh = a * h, b * h
        w1 = polyring._first_width(n, 4)
        assert w1 == w0 + 1
        mod = field.characteristic
        pair = [polyring._k_normal(t, mod) for t in polyring._k_ints([ah, bh])[1]]
        assert reference_gcd2(ah, bh) == h
        for name in ("_modular_gcd", "_prs_gcd"):
            widths.clear()
            g = getattr(polyring, name)(*pair, n, mod)
            assert polyring._k_poly(ring, g).monic() == h
            # _crt_gcd reads its images modulo each prime at the same width
            assert set(widths) == {w1}, name
    # the PRS behind _gcd2: the modular path, which runs first, switched off
    monkeypatch.setattr(polyring, "_modular_gcd", lambda ta, tb, nvars, p: None)
    assert reference_gcd2(a, b) == ring.one()
    widths.clear()
    assert polyring._gcd2(a, b) == ring.one()
    assert widths == [w0, 2 * w0]


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(32003)])
def test_kernel_helpers_match_poly_arithmetic(field):
    rng = seeded(91)
    ring = PolyRing(field, ("x1", "x2", "x3"))
    for _ in range(40):
        a, b = random_poly(rng, ring, 4, 4), random_poly(rng, ring, 4, 4)
        if field == QQ:
            a = a.scale(Fraction(rng.randint(1, 5), rng.randint(1, 5)))

        def kernel(fn):
            def run(K, packed):
                t = fn(K, *packed[0])
                # reduced: no zero coefficient, residues in range over GF(p)
                assert polyring._k_reduce(t, K.mod) == t
                return Poly(ring, {e: field.from_int(c) for e, c in K.unpack(t).items()})

            return polyring.on_kernel([[a, b]], run)

        # over QQ the pair is scaled by one integer, the lcm of all its
        # denominators: products by its square
        scale = 1
        if field == QQ:
            scale = math.lcm(*(c.denominator for p in (a, b) for c in p.terms.values()))
        sq = field.from_int(scale * scale)
        assert kernel(lambda K, u, v: polyring._k_mul(u, v, K)) == (a * b).scale(sq)
        assert kernel(lambda K, u, v: polyring._k_sub(u, v, K)) == (a - b).scale(
            field.from_int(scale)
        )
        for j in range(3):
            # over GF(3) the derivative of a cube vanishes
            got = kernel(lambda K, u, v: polyring._k_derivative(u, j, K))
            assert got == a.derivative(j).scale(field.from_int(scale))


@pytest.mark.parametrize("mod", [0, 7])
def test_kernel_divexact_borrow_raises(mod):
    K = polyring._Packing(2, polyring._first_width(2, 5), mod)
    x1sq, x2 = K.pack({(2, 0): 1}), K.pack({(0, 1): 1})
    # x1^2 / x2 borrows from x1's slot into x2's: without the guard bit the
    # difference of the keys would read as x1 * x2^(2^w - 1)
    with pytest.raises(NotDivisible):
        polyring._k_divexact(x1sq, x2, K)
    # x1^3 + x1^2 = (x1^2 / x2) * (x1*x2 + x2): with wrapped keys the whole
    # remainder would cancel and the wrapped key come back as the quotient
    a, b = K.pack({(3, 0): 1, (2, 0): 1}), K.pack({(1, 1): 1, (0, 1): 1})
    with pytest.raises(NotDivisible):
        polyring._k_divexact(a, b, K)
    assert polyring._k_divexact(K.pack({(2, 1): 3}), x2, K) == K.pack({(2, 0): 3})


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(32003)], ids=str)
def test_cross_equal_matches_poly_products(field):
    rng = seeded(52)
    ring = PolyRing(field, ("x1", "x2", "x3"))
    equal = 0
    for _ in range(40):
        u, v, w = (random_poly(rng, ring, 2, 3) for _ in range(3))
        if field == QQ:
            k = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        else:
            k = field.from_int(rng.randint(1, 2))
        # u*v * w against u*k * v*w/k: the four have different denominators
        a, b, c, d = u * v, w, u.scale(k), (v * w).scale(field.one() / k)
        if rng.random() < 0.4:
            d = d + ring.const(rng.randint(1, 2))
        assert cross_equal(a, b, c, d) == (a * b == c * d), (a, b, c, d)
        equal += a * b == c * d
    assert equal >= 15
    assert cross_equal(ring.zero(), ring.zero(), ring.zero(), ring.one())
    with pytest.raises(RingMismatch):
        cross_equal(X1, X1, X1, ring.one())


# -- Brown's modular gcd over GF(p) against the reference PRS -----------------


@pytest.fixture
def fallbacks(monkeypatch):
    """The arguments of every _prs_gcd call."""
    calls = []

    def prs_gcd(*args, real=polyring._prs_gcd):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polyring, "_prs_gcd", prs_gcd)
    return calls


@pytest.mark.parametrize("p", [5, 7, 101, 32003, MERSENNE_61])
def test_modular_gcd_matches_reference_prs(p, fallbacks):
    rng = seeded(47)
    field = PrimeField(p)
    planted = 0
    for trial in range(48):
        nvars = 1 + trial % 4
        ring = PolyRing(field, tuple(f"x{i + 1}" for i in range(nvars)))
        a, b = (random_nonzero_poly(rng, ring, 3, 3) for _ in range(2))
        kind = trial // 4 % 4
        if kind == 1:
            g = random_nonzero_poly(rng, ring, 2, 3)
        elif kind == 2:
            # a factor in the last variable only: a content at the top level
            v = ring.var(nvars - 1)
            g = v ** rng.randint(1, 3) + ring.const(rng.randrange(1, p))
        elif kind == 3:
            # a factor in one other variable, a content after evaluation
            v = ring.var(rng.randrange(nvars))
            g = (v + ring.const(rng.randrange(p))) * random_nonzero_poly(rng, ring, 1, 2)
        else:
            g = ring.one()
        a, b = a * g, b * g
        ref = reference_gcd2(a, b)
        assert polyring._gcd2(a, b) == ref, (a, b)
        planted += not ref.is_constant()
    assert planted >= 24
    if p > 7:
        assert not fallbacks


def test_modular_gcd_falls_back_when_leading_coefficients_vanish_everywhere():
    # over GF(7) the x1-leading coefficient x2^7 - x2 is 0 at every point
    ring = PolyRing(PrimeField(7), ("x1", "x2"))
    x1, x2 = ring.var(0), ring.var(1)
    g = (x2**7 - x2) * x1 + ring.one()
    a, b = g * (x1 + x2), g * (x1 + ring.one())
    assert polyring._modular_gcd(*polyring._k_ints([a, b])[1], 2, 7) is None
    assert polyring._gcd2(a, b) == reference_gcd2(a, b) == g.monic()


def test_modular_gcd_rejects_unlucky_points(monkeypatch):
    real_points, real_divides = polyring._eval_points, polyring._k_divides
    first, drawn, verdicts = [], [], []

    def points_from_first(p):
        rest = (t for t in real_points(p) if t not in first)
        for t in itertools.chain(first, rest):
            drawn.append(t)
            yield t

    def divides(g, t, K):
        verdicts.append(real_divides(g, t, K))
        return verdicts[-1]

    def gcd_from(points, a, b):
        first[:] = points
        drawn.clear()
        verdicts.clear()
        # an image merged into the interpolant at a skipped point would
        # keep it from settling until the field runs out of points
        with time_limit(10):
            return polyring._gcd2(a, b)

    monkeypatch.setattr(polyring, "_eval_points", points_from_first)
    monkeypatch.setattr(polyring, "_k_divides", divides)
    ring = PolyRing(PrimeField(32003), ("x1", "x2"))
    x1, x2 = ring.var(0), ring.var(1)
    # at x2 = 1 both inputs become x1 + 1; the degree bound in x2 is 0, so
    # that one image is tried, and the trial division rejects it
    assert gcd_from([1], x1 + x2, x1 + ring.one()) == ring.one()
    assert drawn[0] == 1 and verdicts == [False]
    # with a planted factor g the image at x2 = 1 has degree 2 in x1, one
    # more than g: first, the lower degree at the next point restarts; after
    # a lucky point, the higher degree is skipped
    g = x1 + x2 + ring.const(2)
    a, b = g * (x1 + x2), g * (x1 + ring.one())
    for points in ([1], [5, 1]):
        assert gcd_from(points, a, b) == reference_gcd2(a, b) == g
        assert drawn[: len(points)] == points and verdicts == [True, True]


# -- the modular gcd over QQ (_crt_gcd) against the reference PRS -------------


def primitive_integer(g):
    """The monic rational g as an integer-primitive dict."""
    scale = math.lcm(*(c.denominator for c in g.terms.values()))
    return polyring._k_normal({e: int(c * scale) for e, c in g.terms.items()}, 0)


def qq_modular(a, b):
    """_modular_gcd on the pair as _gcd2 feeds it over QQ, signed as
    primitive_integer signs it; None if it gave none."""
    ta, tb = (polyring._k_normal(t, 0) for t in polyring._k_ints([a, b])[1])
    g = polyring._modular_gcd(ta, tb, a.ring.nvars, 0)
    if g is not None and g[max(g, key=polyring._grlex)] < 0:
        g = {e: -c for e, c in g.items()}
    return g


@pytest.fixture
def primes_used(monkeypatch):
    """The primes of each top-level _brown call, in order."""
    used = []

    def brown(a, b, m, K, real=polyring._brown):
        if m == K.n:
            used.append(K.mod)
        return real(a, b, m, K)

    monkeypatch.setattr(polyring, "_brown", brown)
    return used


def test_modular_primes_are_61_bit_primes():
    for p in polyring._PRIMES:
        assert p.bit_length() == 61
        # Miller-Rabin with these bases is a proof below 3.3 * 10^24
        d, s = p - 1, 0
        while not d % 2:
            d, s = d // 2, s + 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
            x = pow(a, d, p)
            assert x in (1, p - 1) or p - 1 in (pow(x, 2**i, p) for i in range(1, s))


def test_modular_gcd_qq_matches_reference_prs(fallbacks, primes_used):
    rng = seeded(83)
    planted = crt = 0
    for trial in range(60):
        nvars = 1 + trial % 4
        ring = PolyRing(QQ, tuple(f"x{i + 1}" for i in range(nvars)))
        a, b = (random_nonzero_poly(rng, ring, 3, 3) for _ in range(2))
        kind = trial // 4 % 5
        if kind == 1:
            g = random_nonzero_poly(rng, ring, 2, 3)
        elif kind == 2:
            # a factor in the last variable only: a polynomial content
            v = ring.var(nvars - 1)
            g = ring.const(rng.choice((-2, 3))) * v ** rng.randint(1, 3)
            g = g + ring.const(rng.randint(1, 5))
        elif kind == 3:
            # coefficients above 2^70: the images of two or more primes
            g = random_nonzero_poly(rng, ring, 2, 3).scale(rng.randint(2**70, 2**90))
            g = g + ring.const(rng.randint(2**70, 2**120)) * ring.var(rng.randrange(nvars))
        elif kind == 4:
            # a factor in one other variable, times a denominator
            v = ring.var(rng.randrange(nvars))
            g = ring.const(rng.randint(2, 7)) * v + ring.const(rng.randint(-9, 9))
            g = g.scale(Fraction(1, 6)) * random_nonzero_poly(rng, ring, 1, 2)
        else:
            g = ring.one()
        # negative and rational leading coefficients
        a = (a * g).scale(Fraction(-rng.randint(1, 9), rng.randint(1, 9)))
        b = (b * g).scale(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), 5))
        ref = reference_gcd2(a, b)
        primes_used.clear()
        if not (a.is_constant() or b.is_constant()):
            assert qq_modular(a, b) == primitive_integer(ref), (a, b)
            crt += len(set(primes_used)) > 1
        assert polyring._gcd2(a, b) == ref, (a, b)
        assert gcd_many([a, b, g]) == reference_gcd_many([a, b, g]), (a, b, g)
        planted += not ref.is_constant()
    assert planted >= 30 and crt >= 6
    assert not fallbacks


def test_modular_gcd_qq_skips_and_restarts_on_unlucky_primes(monkeypatch, primes_used):
    big, other, bad = polyring._PRIMES[:3]
    x1, x2 = X1, X2
    # 1. the first prime divides lc(a): it is skipped
    g = R2.const(3) * x1 + x2 - ONE
    a, b = g * (R2.const(big) * x1 + ONE), g * (R2.const(2) * x2 + ONE)
    monkeypatch.setattr(polyring, "_PRIMES", (big, other))
    assert qq_modular(a, b) == primitive_integer(g.monic())
    assert primes_used == [other]
    # 2. modulo bad the cofactors share x1 + 3: the first image is one degree
    # too high, its candidate divides a but not b, and the next prime restarts
    a, b = g * (x1 + R2.const(3)), g * (x1 + R2.const(3 + bad))
    monkeypatch.setattr(polyring, "_PRIMES", (bad, big))
    primes_used.clear()
    assert qq_modular(a, b) == primitive_integer(g.monic())
    assert primes_used == [bad, big]
    # 3. coefficients need two primes; the too-high image in between is
    # skipped, not combined
    g = R2.const(2**80 + 1) * x1 - R2.const(3**50) * x2 + R2.const(7)
    a, b = g * (x1 + R2.const(3)), g * (x1 + R2.const(3 + bad))
    monkeypatch.setattr(polyring, "_PRIMES", (big, bad, other))
    primes_used.clear()
    assert qq_modular(a, b) == primitive_integer(g.monic())
    assert primes_used == [big, bad, other]
    assert polyring._gcd2(a, b) == reference_gcd2(a, b) == g.monic()


def test_modular_gcd_qq_falls_back_when_the_primes_run_out(fallbacks):
    # every listed prime divides the leading coefficient of a
    g = X1 * X2 + R2.const(2) * X2 - ONE
    a = g * (R2.const(math.prod(polyring._PRIMES)) * X1 + X2)
    b = g * (X1 - R2.const(5) * X2)
    assert qq_modular(a, b) is None
    assert polyring._gcd2(a, b) == reference_gcd2(a, b) == g.monic()
    assert len(fallbacks) == 1


def test_prs_guard_stops_a_remainder_that_keeps_its_degree(monkeypatch):
    def prem_one_step_short(a, b, j, K):
        # _k_prem with its loop stopped at db instead of db - 1, so the
        # remainder keeps the divisor's degree in x_j
        db = polyring._k_deg_in(b, j, K)
        if db == 0:
            return {}
        sh, mask, drop = (K.n - 1 - j) * K.w, K.mask, db * K.unit(j)
        lb = {e - drop: c for e, c in b.items() if (e >> sh) & mask == db}
        r = a
        for dr in range(polyring._k_deg_in(a, j, K), db, -1):
            lr = {e - drop: -c for e, c in r.items() if (e >> sh) & mask == dr}
            if lr:
                r = polyring._k_addmul(polyring._k_addmul({}, lb, r, K), lr, b, K)
                r = polyring._k_reduce(r, K.mod)
                if not r:
                    break
        return r

    monkeypatch.setattr(polyring, "_k_prem", prem_one_step_short)
    # the modular path would answer before the PRS, over either field
    monkeypatch.setattr(polyring, "_modular_gcd", lambda ta, tb, nvars, p: None)
    for field in (QQ, PrimeField(32003)):
        ring = PolyRing(field, ("x1", "x2"))
        x1, x2 = ring.var(0), ring.var(1)
        g = x1 + x2 + ring.one()
        # unequal and equal degrees in the PRS variable; a planted factor
        # keeps the QQ certificate from answering first
        for a, b in [(g * (x1**2 + x2), g * (x1 + ring.const(3))), (g * x1, g * x2)]:
            start = time.perf_counter()
            with time_limit(10), pytest.raises(InternalCheckError):
                polyring._gcd2(a, b)
            assert time.perf_counter() - start < 5


# -- exact division without rescanning the remainder ---------------------------


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)])
def test_divexact_does_not_rescan_the_remainder(field, monkeypatch):
    # a 1,771-term quotient: rescanning the remainder for its leading term
    # at every step calls _grlex about 1.7 million times and takes about
    # 0.5 s; the heap of monomials needs no _grlex call beyond lead_term's
    ring = PolyRing(field, ("x1", "x2", "x3"))
    x1, x2, x3 = ring.var(0), ring.var(1), ring.var(2)
    b = x1 - x2 + ring.const(2)
    q = (x1 + x2 + x3 + ring.one()) ** 20
    a = q * b
    calls = 0
    real = polyring._grlex

    def counted(e):
        nonlocal calls
        calls += 1
        return real(e)

    monkeypatch.setattr(polyring, "_grlex", counted)
    start = time.perf_counter()
    assert a.divexact(b) == q
    assert time.perf_counter() - start < 0.3
    assert calls <= len(b.terms), calls
    with pytest.raises(NotDivisible):
        (a + x3**25).divexact(b)
    with pytest.raises(NotDivisible):
        (a + ring.one()).divexact(b)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7), PrimeField(32003)])
def test_divexact_matches_rescanning_reference_random(field):
    rng = seeded(96)
    seen = set()
    for n in (1, 2, 3):
        ring = PolyRing(field, tuple(f"x{i + 1}" for i in range(n)))
        for _ in range(40):
            b = random_nonzero_poly(rng, ring, 3, 3)
            a = random_poly(rng, ring, 3, 4) * b
            if rng.random() < 0.5:
                a = a + random_poly(rng, ring, 4, 2)
            try:
                expected = reference_divexact(a, b)
            except NotDivisible:
                expected = NotDivisible
            try:
                got = a.divexact(b)
            except NotDivisible:
                got = NotDivisible
            assert got == expected, (a, b)
            seen.add(got is NotDivisible)
    assert seen == {True, False}


# -- one exact division: Poly.divexact on the kernel's _k_divexact --------------


def _random_int_dict(rng, n, max_deg, n_terms, mod):
    t = {}
    for _ in range(n_terms):
        e = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(n)] += 1
        t[tuple(e)] = t.get(tuple(e), 0) + rng.randint(-5, 5)
    return {e: c % mod if mod else c for e, c in t.items() if (c % mod if mod else c)}


def _k_divexact_or_raise(a, b, K, divexact):
    try:
        return divexact(a, b, K)
    except NotDivisible:
        return NotDivisible


@pytest.mark.parametrize("mod", [0, 2, 7, 32003])
def test_k_divexact_matches_rescanning_reference_random(mod):
    rng = seeded(97)
    seen = set()
    for n in (1, 2, 3):
        for _ in range(60):
            b = _random_int_dict(rng, n, 3, 3, mod)
            q = _random_int_dict(rng, n, 3, 4, mod)
            if not b:
                continue
            K = polyring._Packing(n, polyring._first_width(n, 6), mod)
            pb, pq = K.pack(b), K.pack(q)
            pa = polyring._k_mul(pb, pq, K)
            roll = rng.random()
            if roll < 0.3:
                pa = polyring._k_sub(pa, K.pack(_random_int_dict(rng, n, 3, 2, mod)), K)
            elif roll < 0.5 and not mod:
                # twice b divides a only where every coefficient of q is even
                pb = {e: 2 * c for e, c in pb.items()}
            expected = _k_divexact_or_raise(pa, pb, K, reference_k_divexact)
            got = _k_divexact_or_raise(pa, pb, K, polyring._k_divexact)
            assert got == expected, (n, K.unpack(pa), K.unpack(pb))
            if got is not NotDivisible:
                assert polyring._k_mul(got, pb, K) == pa
            seen.add(got is NotDivisible)
    assert seen == {True, False}


@pytest.mark.parametrize("mod", [0, 2, 7, 32003])
def test_k_divexact_matches_reference_when_not_divisible(mod):
    K = polyring._Packing(2, polyring._first_width(2, 5), mod)
    cases = [
        # a slot borrow caught by the guard bit: x1^3 + x1^2 over x1*x2 + x2
        ({(3, 0): 1, (2, 0): 1}, {(1, 1): 1, (0, 1): 1}),
        # a remainder left over after two steps: x2^2 of (x1 + 1)*(x1*x2 + 1)
        # + x2^2 over x1*x2 + 1, whose key borrows from x1's slot
        ({(2, 1): 1, (1, 1): 1, (1, 0): 1, (0, 0): 1, (0, 2): 1}, {(1, 1): 1, (0, 0): 1}),
        # a remainder left over below the divisor's degree: 1 of x1^2 + 1 over x1
        ({(2, 0): 1, (0, 0): 1}, {(1, 0): 1}),
    ]
    if not mod:
        # an inexact integer step over Z: x1 + 1 over 2*x1 + 2, and a later
        # step, (2*x1 + 2)*(x1 + 1) + x1 + 1 over 2*x1 + 2
        cases += [
            ({(1, 0): 1, (0, 0): 1}, {(1, 0): 2, (0, 0): 2}),
            ({(2, 0): 2, (1, 0): 5, (0, 0): 3}, {(1, 0): 2, (0, 0): 2}),
        ]
    for a, b in cases:
        a = {e: c % mod for e, c in a.items()} if mod else a
        pa, pb = K.pack(a), K.pack(b)
        assert _k_divexact_or_raise(pa, pb, K, reference_k_divexact) is NotDivisible
        assert _k_divexact_or_raise(pa, pb, K, polyring._k_divexact) is NotDivisible


def test_divexact_over_qq_matches_reference():
    """Clearing scales both sides: the quotient carries t/(s*c), with c the
    integer content of the cleared divisor."""
    ring = PolyRing(QQ, ("x1", "x2"))
    x1, x2, one = ring.var(0), ring.var(1), ring.one()
    F = Fraction
    divisors = [
        # rational coefficients
        x1.scale(F(2, 3)) - x2.scale(F(5, 7)) + ring.const(F(1, 4)),
        # cleared by 5 to 30*x1 + 36: integer content 6
        x1.scale(6) + ring.const(F(36, 5)),
        # negative leading coefficients
        -(x1**2).scale(3) + x1 * x2 - ring.const(F(9, 2)),
        x2.scale(-4) - x1.scale(F(8, 3)),
        # constants
        ring.const(F(5, 3)),
        -one,
    ]
    quotients = [
        one,
        ring.const(F(-7, 12)),
        x1 + ring.const(F(3, 4)),
        (x2 - x1.scale(F(1, 6))) ** 2,
        -(x1 * x2).scale(F(10, 9)) + x2.scale(F(2, 15)) - one,
    ]
    for b in divisors:
        for q in quotients:
            a = q * b
            assert a.divexact(b) == reference_divexact(a, b) == q, (a, b)
            if not b.is_constant():
                for extra in (one, x2**4, x1.scale(F(1, 2))):
                    with pytest.raises(NotDivisible):
                        reference_divexact(a + extra, b)
                    with pytest.raises(NotDivisible):
                        (a + extra).divexact(b)
    assert x1.divexact(x1.scale(2)) == ring.const(F(1, 2))
    assert ring.const(F(3, 4)).divexact(ring.const(F(-9, 8))) == ring.const(F(-2, 3))


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
def test_divexact_packs_once_at_its_first_width(field, monkeypatch):
    """The quotient's keys never exceed the dividend's, so one packing at
    the width of the inputs' total degree serves, divisible or not."""
    widths = []

    class Recording(polyring._Packing):
        __slots__ = ()

        def __init__(self, n, w, mod):
            widths.append(w)
            super().__init__(n, w, mod)

    monkeypatch.setattr(polyring, "_Packing", Recording)
    rng = seeded(98)
    for n in (1, 2, 3):
        ring = PolyRing(field, tuple(f"x{i + 1}" for i in range(n)))
        for i in range(30):
            b = random_nonzero_poly(rng, ring, 4, 3)
            a = random_poly(rng, ring, 4, 4) * b
            if i % 3 == 0:
                a = a + random_poly(rng, ring, 8, 2)
            if a.is_zero():
                continue
            widths.clear()
            try:
                a.divexact(b)
            except NotDivisible:
                pass
            deg = max(a.total_degree(), b.total_degree())
            assert widths == [polyring._first_width(n, deg)], (a, b)


@pytest.mark.parametrize("p", [2, 7, 32003, 2**61 - 1])
def test_uni_rem_and_powmod_match_divmod_remainders_random(p):
    # _uni_rem reduces in place with no quotient; _uni_divmod keeps both
    rng = seeded(104)

    def dense(deg):
        return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]

    def powmod(a, n, f):
        result, base = [1], polyring._uni_divmod(a, f, p)[1]
        for _ in range(n):
            result = polyring._uni_divmod(polyring._uni_mul(result, base, p), f, p)[1]
        return result

    for _ in range(200):
        a, b = dense(rng.randint(0, 12)), dense(rng.randint(0, 6))
        if rng.random() < 0.2:
            a = polyring._uni_mul(a, b, p)  # a remainder of zero
        expected = polyring._uni_divmod(a, b, p)[1]
        copy = a[:]
        assert polyring._uni_rem(copy, b, p) == expected, (a, b)
        assert copy == expected, (a, b)
        n = rng.randint(0, 20)
        assert polyring._uni_powmod(a, n, b, p) == powmod(a, n, b), (a, n, b)
