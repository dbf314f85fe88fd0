"""Riccati fields e^u(z)(a w^2 + b w + c) d/dw on C x P1 and double sections.

On each vertical sphere the flow is a Mobius family fixing the fiber roots
of D(z, w) = a(z) w^2 + b(z) w + c(z).  With two distinct roots w1, w2 the
cross-ratio y = (w - w1)/(w - w2) evolves by e^(lambda t),
lambda = e^u a (w1 - w2); a double root flows by the affine rule on
1/(w - w1); degree drops push roots to infinity, handled exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DegenerateFiberError, DomainError
from .entire import Const, EntireExpr, PolyNode
from .poly import POLE, Poly, RationalFn

_ZERO_TOL = 1e-12   # coefficient considered zero, relative to the fiber triple


class SpherePoint:
    """Point of the Riemann sphere: a finite complex value or infinity."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        self.value = None if value is None else complex(value)

    @classmethod
    def finite(cls, value):
        return cls(complex(value))

    @classmethod
    def infinity(cls):
        return cls(None)

    @property
    def is_infinity(self):
        return self.value is None

    def chordal(self, other) -> float:
        """Chordal distance on the sphere (diameter normalized to 2)."""
        if self.is_infinity and other.is_infinity:
            return 0.0
        if self.is_infinity:
            return 2.0 / math.sqrt(1.0 + abs(other.value) ** 2)
        if other.is_infinity:
            return 2.0 / math.sqrt(1.0 + abs(self.value) ** 2)
        num = 2.0 * abs(self.value - other.value)
        return num / math.sqrt((1.0 + abs(self.value) ** 2)
                               * (1.0 + abs(other.value) ** 2))

    def __eq__(self, other):
        if not isinstance(other, SpherePoint):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return "SpherePoint(inf)" if self.is_infinity else "SpherePoint(%r)" % (self.value,)

    def to_json(self):
        if self.is_infinity:
            return "inf"
        return [self.value.real, self.value.imag]


INF = SpherePoint.infinity()


@dataclass(frozen=True)
class FiberRoots:
    points: tuple          # one or two SpherePoints
    double: bool           # True when a single root of multiplicity two


class DoubleSection:
    """Coefficient triple (a, b, c) of a w-quadratic with entire coefficients."""

    def __init__(self, a: EntireExpr, b: EntireExpr, c: EntireExpr):
        self.a = a
        self.b = b
        self.c = c

    @classmethod
    def from_polys(cls, a, b, c):
        def node(p):
            return PolyNode(p if isinstance(p, Poly) else Poly(p))
        return cls(node(a), node(b), node(c))

    def coefficients(self, z):
        z = complex(z)
        return self.a(z), self.b(z), self.c(z)

    def fiber_roots(self, z) -> FiberRoots:
        """Roots of a(z) w^2 + b(z) w + c(z) = 0 on the sphere at height z."""
        av, bv, cv = self.coefficients(z)
        m = max(abs(av), abs(bv), abs(cv))
        if m < 1e-300:
            raise DegenerateFiberError("all fiber coefficients vanish at %r" % (z,))
        if abs(av) > _ZERO_TOL * m:
            disc = bv * bv - 4.0 * av * cv
            if abs(disc) <= _ZERO_TOL * m * m:
                return FiberRoots((SpherePoint.finite(-bv / (2 * av)),), True)
            sq = cmath.sqrt(disc)
            r1 = (-bv + sq) / (2 * av)
            r2 = (-bv - sq) / (2 * av)
            pts = sorted([r1, r2], key=lambda w: (w.real, w.imag))
            return FiberRoots(tuple(SpherePoint.finite(p) for p in pts), False)
        if abs(bv) > _ZERO_TOL * m:
            # degree drop: one root escapes to infinity
            return FiberRoots((SpherePoint.finite(-cv / bv), INF), False)
        # only c survives: double root at infinity
        return FiberRoots((INF,), True)

    def eval(self, z, w):
        av, bv, cv = self.coefficients(z)
        return (av * w + bv) * w + cv


def _mobius_flow(w1, w2, lam, t, w: SpherePoint) -> SpherePoint:
    """Flow with distinct finite fixed points w1, w2 and multiplier e^(lam t)."""
    if w.is_infinity:
        y0 = 1.0 + 0j
    elif w.value == w2:
        return SpherePoint.finite(w2)
    else:
        y0 = (w.value - w1) / (w.value - w2)
    y = y0 * cmath.exp(lam * t)
    if not (cmath.isfinite(y)):
        return SpherePoint.finite(w2)
    if abs(1.0 - y) <= 1e-14 * (1.0 + abs(y)):
        return INF
    return SpherePoint.finite((w1 - y * w2) / (1.0 - y))


class RiccatiField:
    """e^u(z) (a w^2 + b w + c) d/dw with D = (a, b, c) a DoubleSection."""

    def __init__(self, section: DoubleSection, u: EntireExpr | None = None):
        self.section = section
        self.u = u if u is not None else Const(0)

    def eval_v(self, z, v):
        """dv/dt in the v = 1/w chart: -e^u (a + b v + c v^2)."""
        av, bv, cv = self.section.coefficients(z)
        return -cmath.exp(self.u(z)) * ((cv * v + bv) * v + av)

    def flow(self, t, z, w: SpherePoint) -> SpherePoint:
        """Time-t flow on the sphere over height z; fixes the fiber roots."""
        if not isinstance(w, SpherePoint):
            w = SpherePoint.finite(w)
        t = complex(t)
        z = complex(z)
        kappa = cmath.exp(self.u(z))
        av, bv, cv = self.section.coefficients(z)
        roots = self.section.fiber_roots(z)
        if roots.double and roots.points[0].is_infinity:
            # w' = kappa c, pure translation
            if w.is_infinity:
                return INF
            return SpherePoint.finite(w.value + kappa * cv * t)
        if roots.double:
            w1 = roots.points[0].value
            if w.is_infinity:
                inv0 = 0j
            else:
                if w.value == w1:
                    return SpherePoint.finite(w1)
                inv0 = 1.0 / (w.value - w1)
            inv_t = inv0 - kappa * av * t
            if abs(inv_t) <= 1e-300:
                return INF
            return SpherePoint.finite(w1 + 1.0 / inv_t)
        p1, p2 = roots.points
        if p2.is_infinity:
            # linear fiber ODE w' = kappa (b w + c), fixed point w1 = -c/b
            if w.is_infinity:
                return INF
            w1 = p1.value
            return SpherePoint.finite(w1 + (w.value - w1) * cmath.exp(kappa * bv * t))
        lam = kappa * av * (p1.value - p2.value)
        return _mobius_flow(p1.value, p2.value, lam, t, w)

    def multiplier(self, z):
        """lambda with fiber flow conjugate to y -> e^(lambda t) y.

        Sign depends on the lexicographic root order; the negative is the
        equally valid choice for the swapped labels.
        """
        roots = self.section.fiber_roots(z)
        if roots.double:
            raise DomainError("parabolic fiber at %r has no multiplier" % (z,))
        kappa = cmath.exp(self.u(z))
        av, bv, _ = self.section.coefficients(z)
        p1, p2 = roots.points
        if p2.is_infinity:
            return kappa * bv
        return kappa * av * (p1.value - p2.value)

    def callback_v(self):
        """(z, v) -> (0, dv) for the oracle in the 1/w chart."""
        return lambda z, v: (0j, self.eval_v(z, v))


class Section:
    """Holomorphic section of C x P1: a rational graph or the constant infinity."""

    def __init__(self, rational: RationalFn | None = None, infinite: bool = False):
        if infinite == (rational is not None):
            raise DomainError("section is either rational or the constant infinity")
        self.rational = rational
        self.infinite = infinite

    @classmethod
    def infinity(cls):
        return cls(infinite=True)

    @classmethod
    def of(cls, rational: RationalFn):
        return cls(rational=rational)

    def __call__(self, z) -> SpherePoint:
        if self.infinite:
            return INF
        val = self.rational(z)
        if val is POLE:
            return INF
        return SpherePoint.finite(val)


def default_section(section: DoubleSection) -> Section | None:
    """Propose sigma = infinity when the leading coefficient never vanishes.

    Only a leading coefficient that is structurally a nonzero constant
    polynomial is decidable; anything else returns None and the caller
    picks a section.
    """
    a = section.a.as_poly()
    if a is not None and a.degree == 0:
        return Section.infinity()
    return None


@dataclass(frozen=True)
class AvoidanceReport:
    min_distance: float
    argmin: complex
    samples: int
    passed: bool

    def to_json(self):
        return {"min_distance": self.min_distance,
                "argmin": [self.argmin.real, self.argmin.imag],
                "samples": self.samples,
                "passed": self.passed}


def verify_section_avoids(sigma: Section, section: DoubleSection,
                          n_samples: int = 400, seed: int = 0,
                          center: complex = 0j, radius: float = 3.0):
    """Sampled minimum chordal distance from sigma(z) to the fiber roots."""
    import numpy as np
    from .sampling import sample_disk

    rng = np.random.default_rng(seed)
    pts = sample_disk(rng, n_samples, center, radius)
    best = float("inf")
    argmin = 0j
    for z in pts:
        sv = sigma(z)
        roots = section.fiber_roots(z)
        d = min(sv.chordal(r) for r in roots.points)
        if d < best:
            best = d
            argmin = z
    return AvoidanceReport(best, argmin, n_samples, best > 0.0)


def dominating_map_g(field: RiccatiField, sigma: Section, z, t) -> SpherePoint:
    """g(z, t) = time-t flow of sigma(z); sigma must be off the fiber roots."""
    z = complex(z)
    start = sigma(z)
    roots = field.section.fiber_roots(z)
    if min(start.chordal(r) for r in roots.points) <= 1e-12:
        raise DomainError("section touches the double section over z=%r" % (z,))
    return field.flow(t, z, start)

