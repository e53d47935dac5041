import math
from fractions import Fraction

import pytest

from conftest import (
    random_nonzero_poly,
    random_poly,
    reference_relation_vanishes,
    reference_substitute,
    seeded,
)
from ratmaps import cli, integrality
from ratmaps.errors import AssertionFailure, ConstantPart, ConstantRatio, DegenerateImage
from ratmaps.fields import PrimeField, QQ
from ratmaps.homog import uni_ring
from ratmaps.integrality import (
    IntegralityResult,
    ProjPoint,
    ReducedPair,
    _cleared_at,
    _vanishes_at,
    integral_over_KG,
    integral_over_Kg,
    pqtrans,
    regenerate_integral,
    relation_ring,
    valuation,
    valuation_fraction,
    valuation_laws_check,
)
from ratmaps.polyring import PolyRing, RatFunc, require_transcendental, subst

YR = uni_ring(QQ)
Y = YR.var(0)
ONE = YR.one()
R1 = PolyRing(QQ, ("x1",))
U = R1.var(0)
R2 = PolyRing(QQ, ("x1", "x2"))
X1, X2 = R2.var(0), R2.var(1)

INF = math.inf


def test_valuation_examples():
    assert valuation((Y - ONE) ** 3, ProjPoint.finite(Fraction(1))) == 3
    # at infinity the valuation is minus the degree
    assert valuation(Y**2 + YR.const(3) * Y, ProjPoint.infinity()) == -2
    # fraction: both multiplicities by deflation, 2 - 1 = 1
    assert valuation_fraction((Y**2, Y), ProjPoint.finite(Fraction(0))) == 1
    assert valuation(YR.zero(), ProjPoint.finite(Fraction(2))) == INF


def test_valuation_laws_examples():
    rep = valuation_laws_check((Y, Y + ONE), (Y, Y - ONE), ProjPoint.finite(Fraction(0)))
    assert rep.all_ok()
    assert rep.lhs_product == 2 and rep.rhs_product == 2

    rep = valuation_laws_check((Y**2, Y + ONE), (Y**2, Y + ONE), ProjPoint.infinity())
    assert rep.all_ok()
    assert rep.lhs_product == 2 * valuation_fraction((Y**2, Y + ONE), ProjPoint.infinity())

    # cancellation: f1 f2* + f1* f2 = 0, valuation +inf, inequality strict
    rep = valuation_laws_check((ONE, Y), (-ONE, Y), ProjPoint.finite(Fraction(0)))
    assert rep.all_ok()
    assert rep.rhs_ultrametric == INF


def test_valuation_laws_random():
    rng = seeded(22)
    points = [ProjPoint.infinity()] + [
        ProjPoint.finite(Fraction(k)) for k in (-2, -1, 0, 1, 2)
    ]
    for i in range(500):
        f1 = random_poly(rng, YR, 3, 3)
        f2 = random_nonzero_poly(rng, YR, 3, 3)
        g1 = random_poly(rng, YR, 3, 3)
        g2 = random_nonzero_poly(rng, YR, 3, 3)
        theta = points[i % len(points)]
        assert valuation_laws_check((f1, f2), (g1, g2), theta).all_ok()


def test_valuation_well_defined_under_common_factors():
    rng = seeded(23)
    points = [ProjPoint.infinity()] + [
        ProjPoint.finite(Fraction(k)) for k in (0, 1, -1)
    ]
    for i in range(100):
        f1 = random_poly(rng, YR, 3, 3)
        f2 = random_nonzero_poly(rng, YR, 3, 3)
        c = random_nonzero_poly(rng, YR, 2, 2)
        theta = points[i % len(points)]
        v1 = valuation_fraction((f1, f2), theta)
        v2 = valuation_fraction((f1 * c, f2 * c), theta)
        assert v1 == v2


def test_reduced_pair_of_a_zero_f1_is_zero_over_one():
    for field in (QQ, PrimeField(2), PrimeField(7)):
        yr = uni_ring(field)
        y, one = yr.var(0), yr.one()
        for f2 in (y**3 + y, y + one, yr.const(field.from_int(3)), y**2):
            pair = ReducedPair(yr.zero(), f2)
            assert (pair.f1, pair.f2) == (yr.zero(), one), (field, f2)
            assert pair == ReducedPair(yr.zero(), one)


def test_integral_over_kg_examples():
    res = integral_over_Kg(X1, X2, ReducedPair(Y**3, Y + ONE))
    assert res.integral
    assert str(res.relation) == "Y^3 - Y*g - g"
    # independent verification: substitute Y = p/q and g = g(p/q)
    pair = ReducedPair(Y**3, Y + ONE)
    value = subst(res.relation, [RatFunc(X1, X2), pair.value_at(X1, X2)], R2)
    assert value.is_zero()

    # x1 is not integral over K[x1/(x1^2+1)]
    assert not integral_over_Kg(U, R1.one(), ReducedPair(Y, Y**2 + ONE)).integral

    res = integral_over_Kg(U, R1.one(), ReducedPair(Y**2 + Y, Y + YR.const(5)))
    assert res.integral
    value = subst(
        res.relation,
        [RatFunc.from_poly(U), ReducedPair(Y**2 + Y, Y + YR.const(5)).value_at(U, R1.one())],
        R1,
    )
    assert value.is_zero()


def test_integral_over_kg_edge_cases():
    with pytest.raises(ConstantRatio):
        integral_over_Kg(R1.const(2), R1.one(), ReducedPair(Y**2, Y + ONE))
    with pytest.raises(ConstantPart):
        integral_over_Kg(U, R1.one(), ReducedPair(ONE, YR.const(2)))
    # a constant f1 is allowed: the verdict is still the degree comparison
    assert not integral_over_Kg(U, R1.one(), ReducedPair(ONE, Y**2 + ONE)).integral


def test_integral_soundness_random():
    rng = seeded(24)
    done = 0
    while done < 60:
        f1 = random_nonzero_poly(rng, YR, 3, 3)
        f2 = random_nonzero_poly(rng, YR, 3, 3)
        try:
            pair = ReducedPair(f1, f2)
        except ConstantPart:
            continue
        if pair.f1.is_constant() and pair.f2.is_constant():
            continue
        res = integral_over_Kg(X1, X2, pair)
        if res.integral:
            value = subst(
                res.relation, [RatFunc(X1, X2), pair.value_at(X1, X2)], R2
            )
            assert value.is_zero()
        done += 1


def test_pqtrans_shift_example():
    ps, qs, (f1s, f2s) = pqtrans(X1, X2, (Y**2, Y), "shift", eps=Fraction(2))
    assert f1s == (Y - YR.const(2)) ** 2
    assert f2s == Y - YR.const(2)
    assert ps == X1 + X2.scale(Fraction(2)) and qs == X2


def test_pqtrans_invert_examples():
    # theta = 0 is not a root of f2 = y^2 + 1: degrees stay 1 < 2
    _, _, (f1s, f2s) = pqtrans(U, R1.one(), (Y, Y**2 + ONE), "invert", theta=Fraction(0))
    assert f1s == Y and f2s == ONE + Y**2

    # theta = 1 is a double root of f2 = (y-1)^2, exceeding f1 = 1
    _, _, (f1s, f2s) = pqtrans(
        U, R1.one(), (ONE, (Y - ONE) ** 2), "invert", theta=Fraction(1)
    )
    assert f1s == Y**2 and f2s == ONE

    with pytest.raises(DegenerateImage):
        pqtrans(X2, X2, (Y, Y + ONE), "invert", theta=Fraction(1))


def test_pqtrans_identity_random():
    rng = seeded(25)
    done = 0
    while done < 60:
        f1 = random_nonzero_poly(rng, YR, 3, 2)
        f2 = random_nonzero_poly(rng, YR, 3, 2)
        eps = Fraction(rng.randint(-3, 3))
        theta = Fraction(rng.randint(-3, 3))
        mode = "shift" if rng.random() < 0.5 else "invert"
        try:
            # pqtrans verifies f1*(p*/q*)/f2*(p*/q*) = f1(p/q)/f2(p/q) itself
            pqtrans(X1, X2, (f1, f2), mode, eps=eps, theta=theta)
        except (DegenerateImage, ConstantRatio):
            continue
        done += 1


def test_regenerate_examples():
    out = regenerate_integral(U, R1.one(), ReducedPair(ONE, (Y - ONE) ** 2))
    assert out is not None
    pstar, qstar = out
    assert pstar == R1.one() and qstar == U - R1.one()
    # the new generator satisfies the monic relation Y^2 - g = 0
    res = integral_over_Kg(pstar, qstar, ReducedPair(Y**2, ONE))
    assert res.integral

    # the counterexample family: f2 = y^2 + 1 has no rational root
    assert regenerate_integral(U, R1.one(), ReducedPair(Y, Y**2 + ONE)) is None
    assert regenerate_integral(U, R1.one(), ReducedPair(ONE, Y**2 + ONE)) is None

    out = regenerate_integral(X1, X2, ReducedPair(Y**3, Y + ONE))
    assert out == (X1, X2)


def test_integral_over_kG_examples():
    G = [ReducedPair(Y, Y**2 + ONE), ReducedPair(Y**3, Y + ONE)]
    assert integral_over_KG(X1, X2, G) == 1

    G = [ReducedPair(Y, Y**2 + ONE), ReducedPair(Y**2, Y**2 + ONE)]
    assert integral_over_KG(U, R1.one(), G) is None

    assert integral_over_KG(U, R1.one(), [ReducedPair(Y**2, Y + ONE)]) == 0


def test_integral_over_kG_consistency_random():
    # when the scan returns None, no element individually qualifies
    rng = seeded(26)
    done = 0
    while done < 40:
        gs = []
        for _ in range(rng.randint(1, 3)):
            f1 = random_nonzero_poly(rng, YR, 3, 2)
            f2 = random_nonzero_poly(rng, YR, 3, 2)
            try:
                pair = ReducedPair(f1, f2)
            except ConstantPart:
                continue
            if pair.f1.is_constant() and pair.f2.is_constant():
                continue
            gs.append(pair)
        if not gs:
            continue
        idx = integral_over_KG(X1, X2, gs)
        verdicts = [integral_over_Kg(X1, X2, g).integral for g in gs]
        if idx is None:
            assert not any(verdicts)
        else:
            assert verdicts[idx] and not any(verdicts[:idx])
        done += 1


# -- cleared identities against refalg ------------------------------------

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(32003)]


@pytest.mark.parametrize("field", FIELDS)
def test_relation_check_matches_ratfunc_path_random(field):
    # the relations integral_over_Kg returns vanish; their multiples too,
    # and a relation with one coefficient changed, or a random one, does not
    rng = seeded(91)
    yring = uni_ring(field)
    rring = relation_ring(field)
    seen = set()
    for n in (2, 3):
        ring = PolyRing(field, tuple(f"x{i + 1}" for i in range(n)))
        done = 0
        while done < 15:
            p = random_poly(rng, ring, 2, 3)
            q = random_nonzero_poly(rng, ring, 2, 3)
            try:
                require_transcendental(p, q)
                f1 = random_poly(rng, yring, 3, 3)
                pair = ReducedPair(f1, random_nonzero_poly(rng, yring, 2, 2))
            except (ConstantRatio, ConstantPart):
                continue
            if pair.f1.is_constant() and pair.f2.is_constant():
                continue
            res = integral_over_Kg(p, q, pair)
            rel = res.relation if res.integral else random_nonzero_poly(rng, rring, 3, 3)
            for relation in (
                rel,
                rel * random_nonzero_poly(rng, rring, 1, 2),
                rel + rring.const(1),
                random_poly(rng, rring, 2, 3),
            ):
                verdict = _vanishes_at(relation, p, q, pair)
                assert verdict == reference_relation_vanishes(relation, p, q, pair)
                seen.add(verdict)
            done += 1
    assert seen == {True, False}


@pytest.mark.parametrize("field", FIELDS)
def test_constant_ratio_matches_reduced_fraction_random(field):
    rng = seeded(92)
    ring = PolyRing(field, ("x1", "x2"))
    seen = set()
    for _ in range(200):
        q = random_poly(rng, ring, 2, 3)
        kind = rng.randrange(3)
        if kind == 0:
            p = q.scale(field.from_int(rng.randint(-3, 3)))
        elif kind == 1:
            p = ring.const(rng.randint(-3, 3))
        else:
            p = random_poly(rng, ring, 2, 3)
        expected = q.is_zero() or RatFunc(p, q).is_constant()
        try:
            require_transcendental(p, q)
            constant = False
        except ConstantRatio as exc:
            assert str(exc) == "p/q lies in K"
            constant = True
        assert constant == expected, (p, q)
        seen.add(constant)
    assert seen == {True, False}


@pytest.mark.parametrize("field", FIELDS)
def test_power_tables_match_poly_product_references_random(field):
    # _cleared_at and pqtrans's shift and invert representations against
    # refalg substitutions, with f1 = 0, constant f and s = 0 among them
    rng = seeded(93)
    yring = uni_ring(field)
    ring = PolyRing(field, ("x1", "x2"))
    seen = set()
    for _ in range(80):
        kind = rng.randrange(4)
        f1 = yring.zero() if kind == 0 else random_poly(rng, yring, 3 * (kind > 1), 3)
        f2 = random_nonzero_poly(rng, yring, 3 * (kind != 1), 3)
        p, q = random_poly(rng, ring, 2, 3), random_nonzero_poly(rng, ring, 2, 3)
        expected = tuple(reference_substitute([f1, f2], [p], [q], None, ring))
        if expected[1].is_zero():
            with pytest.raises(ConstantRatio):
                _cleared_at(f1, f2, p, q)
            continue
        assert _cleared_at(f1, f2, p, q) == expected
        eps, theta = (field.from_int(rng.randint(-3, 3)) for _ in range(2))
        for mode in ("shift", "invert"):
            try:
                _, _, rep = pqtrans(p, q, (f1, f2), mode, eps=eps, theta=theta)
            except (DegenerateImage, ConstantRatio):
                continue
            # f(y - eps), or (y - eps)^s f(1/(y - eps) + theta), s = max deg f
            y_eps = yring.var(0) - yring.const(eps)
            if mode == "shift":
                images, dens = [y_eps], [None]
            else:
                images, dens = [yring.one() + y_eps.scale(theta)], [y_eps]
            assert rep == tuple(reference_substitute([f1, f2], images, dens, None, yring))
            seen.add((mode, kind))
    assert len(seen) == 8


# -- the internal alarms fire on a wrong but well-typed value -----------------
# each on the library call and on its README example, exit 3 on the CLI


def _alarm_fires(capsys, call, argv, message):
    with pytest.raises(AssertionFailure, match=message):
        call()
    assert cli.main(argv) == 3
    assert message in capsys.readouterr().err


def test_integral_over_kg_alarm_fires_when_the_relation_does_not_vanish(monkeypatch, capsys):
    monkeypatch.setattr(integrality, "_vanishes_at", lambda *args: False)
    _alarm_fires(
        capsys,
        lambda: integral_over_Kg(X1, X2, ReducedPair(Y**3, Y + ONE)),
        ["integral", "x1", "x2", "--g", "y1^3;y1+1"],
        "monic integral relation failed to vanish at p/q",
    )


def test_pqtrans_alarm_fires_when_the_function_changes(monkeypatch, capsys):
    monkeypatch.setattr(integrality, "cross_equal", lambda *args: False)
    _alarm_fires(
        capsys,
        lambda: pqtrans(U, R1.one(), ReducedPair(ONE, (Y - ONE) ** 2), "invert", theta=Fraction(1)),
        ["pqtrans", "x1", "1", "--g", "1;(y1-1)^2", "--mode", "invert", "--theta", "1"],
        "transformed representation changed the function",
    )


def test_regenerate_integral_alarm_fires_when_the_inverted_generator_is_not_integral(
    monkeypatch, capsys
):
    monkeypatch.setattr(integrality, "integral_over_Kg", lambda *args: IntegralityResult(False))
    _alarm_fires(
        capsys,
        lambda: regenerate_integral(U, R1.one(), ReducedPair(ONE, (Y - ONE) ** 2)),
        ["regen-integral", "x1", "1", "--g", "1;(y1-1)^2"],
        "inverted generator failed the integrality criterion",
    )
