"""Valuations on the projective line and integrality of p/q over K[g].

A point of the projective line K + {infinity} assigns to every univariate
polynomial its vanishing order (minus the degree at infinity), extended to
fractions by subtraction.  Whether p/q is integral over K[g] for
g = f1(p/q)/f2(p/q) is decided by the degree comparison deg f1 > deg f2;
generator changes (shift and invert) move a root of f2 to infinity, which
is what makes the existence question for equivalent integral generators
decidable by root inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    AssertionFailure,
    ConstantPart,
    ConstantRatio,
    DegenerateImage,
)
from .fields import _multiplicity, roots_in_K
from .polyring import (
    Poly,
    PolyRing,
    RatFunc,
    compose_poly,
    eval_univar_at_ratio,
    gcd_many,
    subst,
)

POS_INF = math.inf


@dataclass(frozen=True)
class ProjPoint:
    """A point of the projective line: a field element or infinity."""

    at_infinity: bool
    value: object = None

    @classmethod
    def finite(cls, theta) -> "ProjPoint":
        return cls(False, theta)

    @classmethod
    def infinity(cls) -> "ProjPoint":
        return cls(True)

    def __str__(self):
        return "inf" if self.at_infinity else str(self.value)


@dataclass(frozen=True)
class ReducedPair:
    """A pair (f1, f2) of univariate polynomials, reduced and f2 nonzero."""

    f1: Poly
    f2: Poly

    def __post_init__(self):
        if self.f2.is_zero():
            raise ConstantPart("f2 must be nonzero")
        if self.f1.ring != self.f2.ring or self.f1.ring.nvars != 1:
            raise ValueError("expected univariate polynomials over one ring")
        if not self.f1.is_zero():
            g = gcd_many([self.f1, self.f2])
            if not g.is_one():
                object.__setattr__(self, "f1", self.f1.divexact(g))
                object.__setattr__(self, "f2", self.f2.divexact(g))

    @property
    def ring(self):
        return self.f1.ring

    def value_at(self, p: Poly, q: Poly) -> RatFunc:
        """g = f1(p/q)/f2(p/q) as an element of K(x)."""
        return _value_at(self.f1, self.f2, p, q)

    def __str__(self):
        return f"({self.f1}; {self.f2})"


def valuation(g: Poly, theta: ProjPoint):
    """Order of vanishing of g at theta; -deg g at infinity; +inf for g = 0."""
    if g.is_zero():
        return POS_INF
    if theta.at_infinity:
        return -g.total_degree()
    return _multiplicity(g, theta.value)


def _pair_polys(g):
    """Accept a ReducedPair or a raw (f1, f2) tuple, without reducing."""
    if isinstance(g, ReducedPair):
        return g.f1, g.f2
    f1, f2 = g
    if f2.is_zero():
        raise ConstantPart("f2 must be nonzero")
    return f1, f2


def _value_at(f1: Poly, f2: Poly, p: Poly, q: Poly) -> RatFunc:
    s = max(f1.total_degree(), f2.total_degree(), 0)
    num = eval_univar_at_ratio(f1, p, q, int(s))
    den = eval_univar_at_ratio(f2, p, q, int(s))
    if den.is_zero():
        raise ConstantRatio("f2(p/q) vanishes")
    return RatFunc(num, den)


def valuation_fraction(pair, theta: ProjPoint):
    """v(f1/f2) = v(f1) - v(f2); well defined on the fraction."""
    f1, f2 = _pair_polys(pair)
    return valuation(f1, theta) - valuation(f2, theta)


@dataclass
class ValuationLaws:
    product_ok: bool
    ultrametric_ok: bool
    lhs_product: object
    rhs_product: object
    lhs_min: object
    rhs_ultrametric: object

    def all_ok(self):
        return self.product_ok and self.ultrametric_ok

    def to_dict(self):
        return {
            "product_ok": self.product_ok,
            "ultrametric_ok": self.ultrametric_ok,
            "product_lhs": str(self.lhs_product),
            "product_rhs": str(self.rhs_product),
            "min_lhs": str(self.lhs_min),
            "ultrametric_rhs": str(self.rhs_ultrametric),
        }


def valuation_laws_check(pair, pair2, theta: ProjPoint) -> ValuationLaws:
    """Additivity and the ultrametric inequality at one point.

    Pairs may be ReducedPair instances or raw (f1, f2) tuples; they are
    used as given, since the laws hold for unreduced representatives too.
    A failure indicates a bug in the valuation arithmetic, not bad input.
    """
    f1, f2 = _pair_polys(pair)
    g1, g2 = _pair_polys(pair2)
    v1 = valuation(f1, theta) - valuation(f2, theta)
    v2 = valuation(g1, theta) - valuation(g2, theta)
    lhs_product = v1 + v2
    rhs_product = valuation(f1 * g1, theta) - valuation(f2 * g2, theta)
    mixed = f1 * g2 + g1 * f2
    rhs_ultra = valuation(mixed, theta) - valuation(f2 * g2, theta)
    lhs_min = min(v1, v2)
    return ValuationLaws(
        lhs_product == rhs_product,
        lhs_min <= rhs_ultra,
        lhs_product,
        rhs_product,
        lhs_min,
        rhs_ultra,
    )


@dataclass
class IntegralityResult:
    integral: bool
    relation: Poly = None  # monic in Y over K[g], when integral

    def to_dict(self):
        return {
            "integral": self.integral,
            "relation": None if self.relation is None else str(self.relation),
        }


def relation_ring(field) -> PolyRing:
    return PolyRing(field, ("Y", "g"))


def integral_over_Kg(p: Poly, q: Poly, g: ReducedPair) -> IntegralityResult:
    """Decide whether p/q is integral over K[g] for g = f1(p/q)/f2(p/q).

    The verdict is the degree comparison deg f1 > deg f2 on the reduced
    pair.  When integral, the monic relation (f1(Y) - g f2(Y))/lc(f1) is
    returned and verified to vanish at Y = p/q exactly.
    """
    _require_transcendental(p, q)
    if g.f1.is_constant() and g.f2.is_constant():
        raise ConstantPart("f1 and f2 are both constant, so g lies in K")
    d1, d2 = g.f1.total_degree(), g.f2.total_degree()
    if d1 <= d2:
        return IntegralityResult(False)
    rring = relation_ring(p.ring.field)
    yvar, gvar = rring.var(0), rring.var(1)
    f1_y = compose_poly(g.f1, [yvar], rring)
    f2_y = compose_poly(g.f2, [yvar], rring)
    relation = (f1_y - gvar * f2_y).scale(p.ring.field.one() / g.f1.lc())
    value = subst(
        relation,
        [RatFunc(p, q), g.value_at(p, q)],
        p.ring,
    )
    if not value.is_zero():
        raise AssertionFailure("monic integral relation failed to vanish at p/q")
    return IntegralityResult(True, relation)


def _require_transcendental(p: Poly, q: Poly):
    if q.is_zero() or RatFunc(p, q).is_constant():
        raise ConstantRatio("p/q lies in K")


def pqtrans(p: Poly, q: Poly, g: ReducedPair, mode: str, eps=None, theta=None):
    """Transform the generator pair and the representation of g together.

    shift:  p* = p + eps*q, q* = q, f_i* = f_i(y - eps).
    invert: q* = p - theta*q, p* = q + eps*(p - theta*q),
            f_i* = (y - eps)^s f_i(1/(y - eps) + theta) with
            s = max(deg f1, deg f2).
    The identity f1*(p*/q*)/f2*(p*/q*) = f1(p/q)/f2(p/q) is verified
    exactly before returning.
    """
    f1, f2 = _pair_polys(g)
    field = p.ring.field
    zero = field.zero()
    eps = zero if eps is None else eps
    yring = f2.ring
    y = yring.var(0)
    if mode == "shift":
        pstar = p + q.scale(eps)
        qstar = q
        shift = y - yring.const(eps)
        f1s = compose_poly(f1, [shift], yring)
        f2s = compose_poly(f2, [shift], yring)
    elif mode == "invert":
        theta = zero if theta is None else theta
        qstar = p - q.scale(theta)
        if qstar.is_zero():
            raise DegenerateImage("p - theta*q is identically zero")
        pstar = q + qstar.scale(eps)
        s = int(max(f1.total_degree(), f2.total_degree()))
        f1s = _invert_rep(f1, theta, eps, s, yring)
        f2s = _invert_rep(f2, theta, eps, s, yring)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    lhs = _value_at(f1s, f2s, pstar, qstar)
    rhs = _value_at(f1, f2, p, q)
    if lhs != rhs:
        raise AssertionFailure("transformed representation changed the function")
    gstar = ReducedPair(f1s, f2s) if isinstance(g, ReducedPair) else (f1s, f2s)
    return pstar, qstar, gstar


def _invert_rep(f: Poly, theta, eps, s: int, yring: PolyRing) -> Poly:
    """(y - eps)^s * f(1/(y - eps) + theta), always a polynomial for deg f <= s."""
    if f.is_zero():
        return yring.zero()
    y = yring.var(0)
    shifted = compose_poly(f, [y + yring.const(theta)], yring)
    base = y - yring.const(eps)
    powers = [yring.one()]
    for _ in range(s):
        powers.append(powers[-1] * base)
    out = yring.zero()
    for e, c in shifted.terms.items():
        out = out + powers[s - e[0]].scale(c)
    return out


def regenerate_integral(p: Poly, q: Poly, g: ReducedPair):
    """An equivalent generator pair over which p*/q* is integral, if any.

    Returns (p, q) unchanged when deg f1 > deg f2 already; otherwise looks
    for a K-root of f2 whose multiplicity exceeds that of f1 and inverts
    there; None means no generator of K(p/q) is integral over K[g].
    """
    _require_transcendental(p, q)
    if g.f1.is_constant() and g.f2.is_constant():
        raise ConstantPart("f1 and f2 are both constant, so g lies in K")
    if g.f1.total_degree() > g.f2.total_degree():
        return p, q
    if g.f2.is_constant():
        return None
    for theta, mult in roots_in_K(g.f2):
        mult_f1 = 0 if g.f1.is_zero() else valuation(g.f1, ProjPoint.finite(theta))
        if mult > mult_f1:
            pstar, qstar, gstar = pqtrans(p, q, g, "invert", eps=None, theta=theta)
            verdict = integral_over_Kg(pstar, qstar, gstar)
            if not verdict.integral:
                raise AssertionFailure(
                    "inverted generator failed the integrality criterion"
                )
            return pstar, qstar
    return None


def integral_over_KG(p: Poly, q: Poly, gs) -> object:
    """The first index i with p/q integral over K[g_i], or None.

    Deciding integrality over K[G] reduces to the elementwise question,
    so a single scan settles it.
    """
    _require_transcendental(p, q)
    for i, g in enumerate(gs):
        if g.f1.is_constant() and g.f2.is_constant():
            raise ConstantPart(f"element {i} of G lies in K")
        if g.f1.total_degree() > g.f2.total_degree():
            return i
    return None
