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
    _substitute,
    cross_equal,
    gcd_many,
    relabel,
    require_transcendental,
)
from .records import FrozenRecord, Record

POS_INF = math.inf


class ProjPoint(FrozenRecord):
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


class ReducedPair(FrozenRecord):
    """A pair (f1, f2) of univariate polynomials, reduced and f2 nonzero."""

    f1: Poly
    f2: Poly

    def __post_init__(self):
        if self.f2.is_zero():
            raise ConstantPart("f2 must be nonzero")
        if self.f1.ring != self.f2.ring or self.f1.ring.nvars != 1:
            raise ValueError("expected univariate polynomials over one ring")
        # gcd(0, f2) = f2: a zero g is the pair (0, 1)
        g = self.f2 if self.f1.is_zero() else gcd_many([self.f1, self.f2])
        if not g.is_one():
            object.__setattr__(self, "f1", self.f1.divexact(g))
            object.__setattr__(self, "f2", self.f2.divexact(g))

    @property
    def ring(self):
        return self.f1.ring

    def value_at(self, p: Poly, q: Poly) -> RatFunc:
        """g = f1(p/q)/f2(p/q) as an element of K(x)."""
        return RatFunc(*_cleared_at(self.f1, self.f2, p, q))

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


def _cleared_at(f1: Poly, f2: Poly, p: Poly, q: Poly):
    """(q^s f1(p/q), q^s f2(p/q)), the second nonzero, for s = max(deg f1,
    deg f2): one substitution reads s from both, so they share q^s."""
    num, den = _substitute([f1, f2], [p], [q], p.ring)
    if den.is_zero():
        raise ConstantRatio("f2(p/q) vanishes")
    return num, den


def valuation_fraction(pair, theta: ProjPoint):
    """v(f1/f2) = v(f1) - v(f2); well defined on the fraction."""
    f1, f2 = _pair_polys(pair)
    return valuation(f1, theta) - valuation(f2, theta)


class ValuationLaws(Record):
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


class IntegralityResult(Record):
    integral: bool
    relation: Poly = None  # monic in Y over K[g], when integral

    def to_dict(self):
        return {
            "integral": self.integral,
            "relation": None if self.relation is None else str(self.relation),
        }


def relation_ring(field) -> PolyRing:
    return PolyRing(field, ("Y", "g"))


def _integral(g: ReducedPair, in_k: str) -> bool:
    """The integrality criterion: whether p/q is integral over K[g], i.e.
    deg f1 > deg f2; ConstantPart(in_k) when g lies in K."""
    if g.f1.is_constant() and g.f2.is_constant():
        raise ConstantPart(in_k)
    return g.f1.total_degree() > g.f2.total_degree()


def integral_over_Kg(p: Poly, q: Poly, g: ReducedPair) -> IntegralityResult:
    """Decide whether p/q is integral over K[g] for g = f1(p/q)/f2(p/q).

    The verdict is the degree comparison deg f1 > deg f2 on the reduced
    pair.  When integral, the monic relation (f1(Y) - g f2(Y))/lc(f1) is
    returned and verified to vanish at Y = p/q exactly.
    """
    require_transcendental(p, q)
    if not _integral(g, "f1 and f2 are both constant, so g lies in K"):
        return IntegralityResult(False)
    rring = relation_ring(p.ring.field)
    gvar = rring.var(1)
    f1_y = relabel(g.f1, rring, [0])
    f2_y = relabel(g.f2, rring, [0])
    relation = (f1_y - gvar * f2_y).scale(p.ring.field.one() / g.f1.lc())
    if not _vanishes_at(relation, p, q, g):
        raise AssertionFailure("monic integral relation failed to vanish at p/q")
    return IntegralityResult(True, relation)


def _vanishes_at(relation: Poly, p: Poly, q: Poly, g: ReducedPair) -> bool:
    """Whether relation(Y, g) cleared at Y = p/q, g = a/b is the zero polynomial."""
    a, b = _cleared_at(g.f1, g.f2, p, q)
    return _substitute([relation], [p, a], [q, b], p.ring)[0].is_zero()


def pqtrans(p: Poly, q: Poly, g: ReducedPair, mode: str, eps=None, theta=None):
    """Transform the generator pair and the representation of g together.

    shift:  p* = p + eps*q, q* = q, f_i* = f_i(y - eps).
    invert: q* = p - theta*q, p* = q + eps*(p - theta*q),
            f_i* = (y - eps)^s f_i(1/(y - eps) + theta) with
            s = max(deg f1, deg f2).
    Each mode is one substitution of y into both f1 and f2: y -> y - eps,
    or y -> (1 + theta*(y - eps))/(y - eps) cleared to the s-th power.
    The identity f1*(p*/q*)/f2*(p*/q*) = f1(p/q)/f2(p/q) is verified
    exactly before returning.
    """
    f1, f2 = _pair_polys(g)
    field = p.ring.field
    zero = field.zero()
    eps = zero if eps is None else eps
    yring = f2.ring
    y_eps = yring.var(0) - yring.const(eps)
    if mode == "shift":
        pstar = p + q.scale(eps)
        qstar = q
        f1s, f2s = _substitute([f1, f2], [y_eps], [None], yring)
    elif mode == "invert":
        theta = zero if theta is None else theta
        qstar = p - q.scale(theta)
        if qstar.is_zero():
            raise DegenerateImage("p - theta*q is identically zero")
        pstar = q + qstar.scale(eps)
        num = yring.one() + y_eps.scale(theta)
        f1s, f2s = _substitute([f1, f2], [num], [y_eps], yring)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    a1, b1 = _cleared_at(f1s, f2s, pstar, qstar)
    a2, b2 = _cleared_at(f1, f2, p, q)
    if not cross_equal(a1, b2, a2, b1):
        raise AssertionFailure("transformed representation changed the function")
    gstar = ReducedPair(f1s, f2s) if isinstance(g, ReducedPair) else (f1s, f2s)
    return pstar, qstar, gstar


def regenerate_integral(p: Poly, q: Poly, g: ReducedPair):
    """An equivalent generator pair over which p*/q* is integral, if any.

    Returns (p, q) unchanged when deg f1 > deg f2 already; otherwise looks
    for a K-root of f2 whose multiplicity exceeds that of f1 and inverts
    there; None means no generator of K(p/q) is integral over K[g].
    """
    require_transcendental(p, q)
    if _integral(g, "f1 and f2 are both constant, so g lies in K"):
        return p, q
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
    require_transcendental(p, q)
    for i, g in enumerate(gs):
        if _integral(g, f"element {i} of G lies in K"):
            return i
    return None
