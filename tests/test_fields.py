import time
from fractions import Fraction

import pytest

from conftest import random_nonzero_poly, reference_fp_roots, seeded
from ratmaps.errors import DivisionByZero, FieldMismatch, NotPrime, ZeroPolynomial
from ratmaps.fields import Fp, PrimeField, QQ, field_arith, is_prime, roots_in_K
from ratmaps.homog import uni_ring
from ratmaps.polyring import Poly


def test_field_arith_rationals():
    assert field_arith(Fraction(1, 2), Fraction(1, 3), "add") == Fraction(5, 6)
    assert field_arith(Fraction(7, 3), Fraction(0), "mul") == 0
    assert field_arith(Fraction(2), Fraction(3), "div") == Fraction(2, 3)


def test_field_arith_fp_div_against_exhaustive_oracle():
    # oracle: the unique c in GF(5) with 4*c = 3
    solutions = [c for c in range(5) if (4 * c) % 5 == 3]
    assert solutions == [2]
    assert field_arith(Fp(3, 5), Fp(4, 5), "div") == Fp(2, 5)


def test_field_arith_errors():
    with pytest.raises(DivisionByZero):
        field_arith(Fraction(1), Fraction(0), "div")
    with pytest.raises(DivisionByZero):
        field_arith(Fp(1, 5), Fp(0, 5), "div")
    with pytest.raises(FieldMismatch):
        field_arith(Fp(1, 5), Fp(1, 7), "add")
    with pytest.raises(FieldMismatch):
        field_arith(Fraction(1), Fp(1, 5), "add")


def test_prime_field_construction():
    assert PrimeField(2).characteristic == 2
    assert PrimeField(65521).characteristic == 65521
    with pytest.raises(NotPrime):
        PrimeField(6)
    with pytest.raises(NotPrime):
        PrimeField(1)
    with pytest.raises(NotPrime):
        PrimeField(2**63 + 9)  # beyond the machine-word limit


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    # oracle: sieve
    sieve = [
        n
        for n in range(2, 60)
        if all(n % d for d in range(2, int(n**0.5) + 1))
    ]
    assert primes == sieve


def test_fp_canonical_range():
    assert Fp(7, 5) == Fp(2, 5)
    assert Fp(-1, 5).v == 4
    assert str(Fp(12, 7)) == "5"


def test_roots_no_rational_roots():
    ring = uni_ring(QQ)
    y = ring.var(0)
    assert roots_in_K(y**2 + ring.one()) == []


def test_roots_factored_input():
    ring = uni_ring(QQ)
    y = ring.var(0)
    f = y**2 * (y - ring.one())
    assert roots_in_K(f) == [(Fraction(0), 2), (Fraction(1), 1)]


def test_roots_fp_exhaustive_oracle():
    field = PrimeField(5)
    ring = uni_ring(field)
    y = ring.var(0)
    f = y**2 + ring.one()
    # oracle: evaluate at all five residues
    expected = [v for v in range(5) if (v * v + 1) % 5 == 0]
    assert expected == [2, 3]
    assert roots_in_K(f) == [(Fp(2, 5), 1), (Fp(3, 5), 1)]


def test_roots_rational_candidates():
    ring = uni_ring(QQ)
    y = ring.var(0)
    # (2y - 1)(3y + 2)(y - 5)
    f = (ring.const(2) * y - ring.one()) * (ring.const(3) * y + ring.const(2)) * (
        y - ring.const(5)
    )
    assert roots_in_K(f) == [
        (Fraction(-2, 3), 1),
        (Fraction(1, 2), 1),
        (Fraction(5), 1),
    ]


def test_roots_highly_composite_end_coefficients():
    # 720720 has 240 divisors: about 10^5 candidate fractions r/s, most of
    # them repeats, which a list-based duplicate check took quadratic time on
    ring = uni_ring(QQ)
    y = ring.var(0)
    c = ring.const(720720)
    assert roots_in_K(c * y**3 + y + c) == []
    f = (ring.const(5040) * y - ring.one()) * (y + ring.const(720))
    assert roots_in_K(f) == [(Fraction(-720), 1), (Fraction(1, 5040), 1)]


def test_roots_zero_polynomial_rejected():
    ring = uni_ring(QQ)
    with pytest.raises(ZeroPolynomial):
        roots_in_K(ring.zero())


def test_roots_multiplicity_invariant_random():
    # every reported (theta, m): (y - theta)^m | f and (y - theta)^(m+1) does not
    rng = seeded(1)
    ring = uni_ring(QQ)
    y = ring.var(0)
    for _ in range(60):
        f = random_nonzero_poly(rng, ring, max_deg=4, n_terms=4)
        total = 0
        for theta, mult in roots_in_K(f):
            linear = y - ring.const(theta)
            assert (linear**mult).divides(f)
            assert not (linear ** (mult + 1)).divides(f)
            total += mult
        assert total <= f.total_degree()


def test_roots_fp_match_exhaustive_evaluation():
    # oracle: Fp-object evaluation at every residue; roots come back ascending
    rng = seeded(3)
    for p in (2, 5, 1009):
        field = PrimeField(p)
        ring = uni_ring(field)
        y = ring.var(0)
        for _ in range(25):
            f = random_nonzero_poly(rng, ring, max_deg=5, n_terms=4)
            if rng.random() < 0.5:  # plant a root, sometimes a repeated one
                theta = ring.const(rng.randrange(p))
                f = f * (y - theta) ** rng.randint(1, 2)
            expected = [t for t in range(p) if f.evaluate([Fp(t, p)]) == field.zero()]
            found = roots_in_K(f)
            assert [theta.v for theta, _ in found] == expected
            for theta, mult in found:
                linear = y - ring.const(theta)
                assert (linear**mult).divides(f)
                assert not (linear ** (mult + 1)).divides(f)


def test_roots_fp_across_residue_blocks():
    # GF(65537): roots at the top of the residue range (a residue scan in
    # blocks of 2^16 would end one block at 65535 and hold 65536 alone in
    # the next); 3 is a non-residue
    p = 65537
    ring = uni_ring(PrimeField(p))
    y = ring.var(0)
    f = (y - ring.one()) * (y - ring.const(65535)) * (y - ring.const(65536)) ** 2
    f = f * (y**2 - ring.const(3))
    found = [(theta.v, mult) for theta, mult in roots_in_K(f)]
    assert found == [(1, 1), (65535, 1), (65536, 2)]


def test_roots_multiplicity_invariant_fp():
    rng = seeded(2)
    field = PrimeField(5)
    ring = uni_ring(field)
    y = ring.var(0)
    for _ in range(40):
        f = random_nonzero_poly(rng, ring, max_deg=4, n_terms=4)
        for theta, mult in roots_in_K(f):
            linear = y - ring.const(theta)
            assert (linear**mult).divides(f)
            assert not (linear ** (mult + 1)).divides(f)


@pytest.mark.parametrize("p", [2, 3, 5, 1009, 10007])
def test_roots_fp_match_horner_scan(p):
    # the residue scan the gcd with y^p - y replaced, kept as the reference
    rng = seeded(37)
    ring = uni_ring(PrimeField(p))
    y = ring.var(0)
    with_roots = 0
    for _ in range(40):
        f = random_nonzero_poly(rng, ring, max_deg=6, n_terms=5)
        for _ in range(rng.randint(0, 3)):  # planted roots, some repeated
            f = f * (y - ring.const(rng.randrange(p))) ** rng.randint(1, 2)
        expected = reference_fp_roots(f)
        assert roots_in_K(f) == expected, f
        with_roots += bool(expected)
    assert with_roots >= 20


def test_roots_fp_large_prime_quintic():
    # at p = 2^61 - 1 no residue scan could finish; the gcd with y^p - y
    # takes 61 squarings modulo f
    p = (1 << 61) - 1
    ring = uni_ring(PrimeField(p))
    y = ring.var(0)
    r = 12345678901234567
    # y^2 + 1 has no root: -1 is not a square modulo p = 3 (mod 4)
    f = ((y - ring.const(3)) ** 2 * (y - ring.const(r)) * (y**2 + ring.one())).scale(
        ring.field.from_int(7)
    )
    assert f.total_degree() == 5
    start = time.perf_counter()
    found = roots_in_K(f)
    assert time.perf_counter() - start < 0.25
    assert [(theta.v, mult) for theta, mult in found] == [(3, 2), (r, 1)]
