"""Homogenization between univariate and homogeneous bivariate tuples.

The correspondence sends f in K[y1]^m of degree at most s to
h = y2^s f(y1/y2), homogeneous of degree s, with inverse f = h(y1, 1).
It transports common divisors both ways (those not divisible by y2) and
underlies the decomposition H = g * h(p, q) and the degree formulas
deg h(p,q) = s * deg(p,q), low deg h(p,q) = s * low deg(p,q).
"""

from __future__ import annotations

from .errors import (
    AssertionFailure,
    BothZero,
    DivisibleByY2,
    InvalidArgument,
    LinearFactorPresent,
    NotPrimitive,
    WitnessRejected,
    ZeroTuple,
)
from .fields import roots_in_K
from .polyring import (
    Poly,
    PolyRing,
    RatFunc,
    RatMap,
    _substitute,
    compose_poly,
    first_mismatch,
    gcd_many,
    tuple_degrees,
)
from .records import FrozenRecord


def uni_ring(field) -> PolyRing:
    return PolyRing(field, ("y1",))


def bi_ring(field) -> PolyRing:
    return PolyRing(field, ("y1", "y2"))


class _PolyTuple:
    """The ring and the printed form of the polynomial tuples below."""

    @property
    def ring(self):
        return self.polys[0].ring

    def __str__(self):
        return "(" + ", ".join(str(p) for p in self.polys) + ")"


class UniTuple(_PolyTuple, FrozenRecord):
    """A nonzero tuple of univariate polynomials with a degree bound."""

    polys: tuple
    bound: int

    def __post_init__(self):
        if all(p.is_zero() for p in self.polys):
            raise ZeroTuple("all components are zero")
        for p in self.polys:
            if p.ring.nvars != 1:
                raise ValueError("components must be univariate")
            if not p.is_zero() and p.total_degree() > self.bound:
                raise InvalidArgument("component degree exceeds the bound")


class HomogTuple(_PolyTuple, FrozenRecord):
    """A nonzero tuple of bivariate polynomials, homogeneous of one degree."""

    polys: tuple
    degree: int

    def __post_init__(self):
        if all(p.is_zero() for p in self.polys):
            raise ZeroTuple("all components are zero")
        for p in self.polys:
            if p.ring.nvars != 2:
                raise ValueError("components must be bivariate")
            if p.is_zero():
                continue
            if not p.is_homogeneous() or p.total_degree() != self.degree:
                raise InvalidArgument(
                    f"component {p} is not homogeneous of degree {self.degree}"
                )


def _homog(p: Poly, s: int) -> Poly:
    """y2^s p(y1/y2) for univariate p of degree at most s."""
    terms = {(e[0], s - e[0]): c for e, c in p.terms.items()}
    return Poly(bi_ring(p.ring.field), terms)


def _dehomog(p: Poly) -> Poly:
    """p(y1, 1) for homogeneous bivariate p."""
    return Poly(uni_ring(p.ring.field), {(e[0],): c for e, c in p.terms.items()})


def homogenize(f: UniTuple) -> HomogTuple:
    """h_i = y2^s f_i(y1/y2), each homogeneous of degree s = f.bound."""
    return HomogTuple(tuple(_homog(p, f.bound) for p in f.polys), f.bound)


def dehomogenize(h: HomogTuple) -> UniTuple:
    """f_i = h_i(y1, 1), with bound s; the left inverse of homogenize."""
    return UniTuple(tuple(_dehomog(p) for p in h.polys), h.degree)


def divisor_transport(g: Poly) -> Poly:
    """y2^(deg g) * g(y1/y2): the bivariate shadow of a univariate divisor."""
    if g.is_zero():
        raise ZeroTuple("cannot transport the zero polynomial")
    if g.ring.nvars != 1:
        raise ValueError("expected a univariate polynomial")
    return _homog(g, g.total_degree())


def divisor_transport_inverse(gt: Poly) -> Poly:
    """g = gt(y1, 1) for homogeneous gt with y2 not dividing gt."""
    if gt.is_zero():
        raise ZeroTuple("cannot transport the zero polynomial")
    if gt.ring.nvars != 2 or not gt.is_homogeneous():
        raise InvalidArgument("expected a homogeneous bivariate polynomial")
    if min(e[1] for e in gt.terms) > 0:
        raise DivisibleByY2("y2 divides the input")
    return _dehomog(gt)


def has_linear_factor(gt: Poly) -> bool:
    """Whether a homogeneous bivariate polynomial has a linear factor over K.

    The factor structure of homogeneous bivariate polynomials makes this
    decidable by inspection: a linear factor exists iff y2 divides gt or
    gt(y1, 1) has a root in K.
    """
    if gt.is_constant():
        return False
    if min(e[1] for e in gt.terms) > 0:
        return True
    dehom = divisor_transport_inverse(gt)
    if dehom.is_constant():
        return False
    return bool(roots_in_K(dehom))


def hfc_decompose(h_map: RatMap, i: int, p: Poly, q: Poly, f: UniTuple):
    """Check a decomposition witness and assemble H = g * h(p, q).

    The caller supplies the univariate tuple f; the function verifies the
    identity H_i^{-1} H = f_i^{-1}(p/q) f(p/q) exactly, demands that f be
    primitive, homogenizes f at s = deg f and returns (f, g, h) with
    g = H_i / h_i(p, q), after confirming H = g * h(p, q), an internal
    check (AssertionFailure), since the identity above implies it.
    """
    if h_map[i].is_zero():
        raise ZeroTuple(f"component {i} is zero")
    if len(f.polys) != h_map.m:
        raise WitnessRejected("witness tuple has the wrong length")
    if not gcd_many(f.polys).is_one():
        raise NotPrimitive("witness tuple is not primitive")
    s = max(p2.total_degree() for p2 in f.polys if not p2.is_zero())
    fi = f.polys[i]
    if fi.is_zero():
        raise WitnessRejected("witness component at the pivot index is zero")
    cleared = _substitute(f.polys, [p], [q], p.ring)
    if cleared[i].is_zero():
        raise WitnessRejected("f_i(p/q) vanishes")
    pivot = h_map[i]
    k = first_mismatch(h_map, pivot, cleared, cleared[i])
    if k is not None:
        raise WitnessRejected(f"identity fails at component {k}")
    f_exact = UniTuple(f.polys, s)
    h = homogenize(f_exact)
    g = pivot / RatFunc.from_poly(cleared[i])
    k = first_mismatch(h_map, g, cleared, p.ring.one())
    if k is not None:
        # implied by the identity above: only wrong arithmetic fails it
        raise AssertionFailure(f"assembled decomposition fails at component {k}")
    return f_exact, g, h


def degree_formula(h: HomogTuple, p: Poly, q: Poly):
    """(s * deg(p,q), s * low deg(p,q)), valid when gcd(h) has no linear factor.

    Also asserts h(p, q) != 0 and cross-checks both values against direct
    expansion; a mismatch would be a bug, not bad input.
    """
    if p.is_zero() and q.is_zero():
        raise BothZero("p and q are both zero")
    if has_linear_factor(gcd_many(h.polys)):
        raise LinearFactorPresent("gcd of the tuple has a linear factor over K")
    return degree_check(h.degree, p, q, _substitute(list(h.polys), [p, q], [None, None], p.ring))


def degree_check(s: int, p: Poly, q: Poly, hp):
    """degree_formula's values, checked against the images hp = h(p, q) of
    an h of degree s whose gcd has no linear factor."""
    dp = tuple_degrees([p, q])
    expect_deg = s * dp.deg
    expect_low = s * dp.lowdeg
    if all(c.is_zero() for c in hp):
        raise AssertionFailure("h(p, q) vanished despite the linear-factor filter")
    actual = tuple_degrees(hp)
    if (actual.deg, actual.lowdeg) != (expect_deg, expect_low):
        raise AssertionFailure(
            f"degree formula mismatch: expected ({expect_deg}, {expect_low}), "
            f"expansion gives ({actual.deg}, {actual.lowdeg})"
        )
    return expect_deg, expect_low


def compose_homog_at(c: Poly, p: Poly, q: Poly) -> Poly:
    """c(p, q) for bivariate c, evaluated by direct polynomial composition."""
    return compose_poly(c, [p, q], p.ring)
