import pytest

from conftest import (
    random_coprime_pair,
    random_homog_poly,
    random_nonzero_poly,
    seeded,
    time_limit,
)
from ratmaps import homog
from ratmaps.errors import (
    AssertionFailure,
    DivisibleByY2,
    LinearFactorPresent,
    WitnessRejected,
    ZeroTuple,
)
from ratmaps.fields import PrimeField, QQ
from ratmaps.homog import (
    HomogTuple,
    UniTuple,
    bi_ring,
    compose_homog_at,
    degree_formula,
    dehomogenize,
    divisor_transport,
    divisor_transport_inverse,
    has_linear_factor,
    hfc_decompose,
    homogenize,
    uni_ring,
)
from ratmaps.polyring import PolyRing, RatFunc, RatMap, tuple_degrees

YR = uni_ring(QQ)
BR = bi_ring(QQ)
Y = YR.var(0)
Y1, Y2 = BR.var(0), BR.var(1)


def test_homogenize_examples():
    # hand expansion: y2^2 (y1/y2)^2 + y2^2 = y1^2 + y2^2; y2^2 (y1/y2) = y1 y2
    f = UniTuple((Y**2 + YR.one(), Y), 2)
    h = homogenize(f)
    assert h.polys == (Y1**2 + Y2**2, Y1 * Y2) and h.degree == 2

    h = homogenize(UniTuple((YR.one(),), 0))
    assert h.polys == (BR.one(),) and h.degree == 0

    # y2^3 (y1/y2) = y1 y2^2
    h = homogenize(UniTuple((Y,), 3))
    assert h.polys == (Y1 * Y2**2,)


def test_dehomogenize_examples():
    f = dehomogenize(HomogTuple((Y1**2 + Y2**2, Y1 * Y2), 2))
    assert f.polys == (Y**2 + YR.one(), Y) and f.bound == 2
    f = dehomogenize(HomogTuple((Y2**4,), 4))
    assert f.polys == (YR.one(),)


def test_round_trip_random():
    rng = seeded(11)
    for _ in range(300):
        m = rng.randint(1, 4)
        polys = tuple(random_nonzero_poly(rng, YR, 4, 3) for _ in range(m))
        s = max(int(p.total_degree()) for p in polys) + rng.randint(0, 2)
        f = UniTuple(polys, s)
        h = homogenize(f)
        for c in h.polys:
            assert c.is_zero() or (c.is_homogeneous() and c.total_degree() == s)
        back = dehomogenize(h)
        assert back.polys == f.polys and back.bound == s


def test_zero_tuple_rejected():
    with pytest.raises(ZeroTuple):
        UniTuple((YR.zero(),), 2)
    with pytest.raises(ZeroTuple):
        HomogTuple((BR.zero(),), 2)


def test_divisor_transport_examples():
    assert divisor_transport(Y - YR.one()) == Y1 - Y2
    g = divisor_transport(Y**2 + YR.one())
    assert g == Y1**2 + Y2**2
    assert min(e[1] for e in g.terms) == 0  # y2 does not divide the image
    with pytest.raises(DivisibleByY2):
        divisor_transport_inverse(Y1 * Y2)


def test_divisor_transport_preserves_divisibility():
    rng = seeded(12)
    for _ in range(80):
        g = random_nonzero_poly(rng, YR, 2, 2)
        cof = random_nonzero_poly(rng, YR, 2, 2)
        f = g * cof
        s = int(f.total_degree())
        h = homogenize(UniTuple((f,), s)).polys[0]
        gt = divisor_transport(g)
        # forward: g | f  =>  transport(g) | h
        assert gt.divides(h)
        # inverse: a divisor of h prime to y2 comes from a divisor of f
        assert divisor_transport_inverse(gt).divides(f)


def test_has_linear_factor():
    assert has_linear_factor(Y1 * Y2)
    assert has_linear_factor(Y1 - Y2)
    assert not has_linear_factor(Y1**2 + Y2**2)
    field5 = PrimeField(5)
    b5 = bi_ring(field5)
    a, b = b5.var(0), b5.var(1)
    assert has_linear_factor(a**2 + b**2)  # 2 and 3 are square roots of -1 mod 5


def test_has_linear_factor_with_a_40_digit_coefficient_within_1_s():
    # the product of two 20-digit primes: no divisor enumeration could finish
    p1, p2 = 99999999999999999989, 99999999999999999973
    a0 = BR.const(p1 * p2)
    with time_limit(1):
        assert not has_linear_factor(Y1**2 + Y1 * Y2 + a0 * Y2**2)
        # (y1 + p1 y2)(y1 - p2 y2)
        assert has_linear_factor(Y1**2 + BR.const(p1 - p2) * Y1 * Y2 - a0 * Y2**2)


def test_hfc_decompose_quadratic_veronese():
    R = PolyRing(QQ, ("x1", "x2"))
    x1, x2 = R.var(0), R.var(1)
    h_map = RatMap.from_polys([x1**2, x1 * x2, x2**2])
    f = UniTuple((Y**2, Y, YR.one()), 2)
    f_out, g, h = hfc_decompose(h_map, 0, x1, x2, f)
    assert h.polys == (Y1**2, Y1 * Y2, Y2**2)
    assert g == RatFunc.from_poly(R.one())
    # oracle: expand g*h(p,q) and compare with H
    rebuilt = [g * RatFunc.from_poly(compose_homog_at(c, x1, x2)) for c in h.polys]
    assert rebuilt == list(h_map.comps)


def test_hfc_decompose_rational_map():
    R = PolyRing(QQ, ("x1", "x2"))
    x1, x2 = R.var(0), R.var(1)
    h_map = RatMap([RatFunc.from_poly(R.one()), RatFunc(x2, x1)])
    f = UniTuple((YR.one(), Y), 1)
    f_out, g, h = hfc_decompose(h_map, 0, x2, x1, f)
    assert h.polys == (Y2, Y1)
    assert g == RatFunc(R.one(), x1)


def test_hfc_decompose_rejects_wrong_witness():
    R = PolyRing(QQ, ("x1", "x2"))
    x1, x2 = R.var(0), R.var(1)
    h_map = RatMap([RatFunc.from_poly(R.one()), RatFunc(x2, x1)])
    bad = UniTuple((YR.one(), Y**2), 2)
    with pytest.raises(WitnessRejected):
        hfc_decompose(h_map, 0, x2, x1, bad)


def test_hfc_decompose_assembly_alarm_fires(monkeypatch):
    # the witness identity holds, but the check of the assembled H = g h(p, q)
    # reports component 0: only wrong arithmetic can do that, an internal alarm
    R = PolyRing(QQ, ("x1", "x2"))
    x1, x2 = R.var(0), R.var(1)
    h_map = RatMap([RatFunc.from_poly(R.one()), RatFunc(x2, x1)])
    real, calls = homog.first_mismatch, []

    def second_fails(*args):
        calls.append(args)
        return real(*args) if len(calls) == 1 else 0

    monkeypatch.setattr(homog, "first_mismatch", second_fails)
    with pytest.raises(AssertionFailure, match="assembled decomposition fails at component 0"):
        hfc_decompose(h_map, 0, x2, x1, UniTuple((YR.one(), Y), 1))
    assert len(calls) == 2


def test_degree_formula_examples():
    R = PolyRing(QQ, ("x1",))
    x1 = R.var(0)
    h = HomogTuple((Y1**2 + Y2**2, Y1 * Y2), 2)
    p, q = x1 + R.one(), x1**2
    # oracle: expand h(p, q) and read off the degrees
    composed = [compose_homog_at(c, p, q) for c in h.polys]
    dd = tuple_degrees(composed)
    assert (dd.deg, dd.lowdeg) == (4, 0)
    assert degree_formula(h, p, q) == (4, 0)

    h2 = HomogTuple((Y1, Y2), 1)
    assert degree_formula(h2, x1, x1) == (1, 1)

    with pytest.raises(LinearFactorPresent):
        degree_formula(HomogTuple((Y1**2, Y1 * Y2), 2), p, q)


def test_degree_formula_matches_expansion_random():
    rng = seeded(13)
    R = PolyRing(QQ, ("x1", "x2"))
    checked = 0
    while checked < 60:
        s = rng.randint(1, 3)
        m = rng.randint(1, 3)
        polys = tuple(random_homog_poly(rng, BR, s, 3) for _ in range(m))
        if all(p.is_zero() for p in polys):
            continue
        h = HomogTuple(polys, s)
        p, q = random_coprime_pair(rng, R, 3)
        try:
            deg, lowdeg = degree_formula(h, p, q)
        except LinearFactorPresent:
            continue
        composed = [compose_homog_at(c, p, q) for c in polys]
        dd = tuple_degrees(composed)
        assert (dd.deg, dd.lowdeg) == (deg, lowdeg)
        checked += 1
