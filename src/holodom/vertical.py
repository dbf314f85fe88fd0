"""Vertical fields e^u(z) (q1(z) w - q(z)) d/dw and their dominating maps.

Each vertical line {z} x C carries the linear ODE
    w' = c(z) (w - s(z)),   c = e^u q1,
closed flow w(t) = s + (w - s) e^(c t) away from the roots of q1.  Near a
root the closed form divides by a vanishing q1; there the same flow is
evaluated through the entire reformulation

    w e^(ct) + q (1 - e^(ct))/q1 = w e^(ct) - t e^u q phi1(tc)

with phi1(x) = (e^x - 1)/x, which cancels the q1 exactly and at the
root itself degenerates to the translation w - e^u q t.

Starting the flow on the gap section h produces a map
    f(z, t) = (z, flow of h(z) at time t)
whose image misses graph(s) and which is dominating: its Jacobian
-e^(u+g1) e^(ct) never vanishes.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

from .errors import DomainError, TypeCFiberError
from .entire import EntireExpr, Const, phi1
from .gap import GapCertificate
from .poly import RationalFn, vanishes_at

JET_SWITCH = 1e-3   # |q1(z)| below this (times max|q1 coeff|) uses the phi1 form


class FiberType(enum.Enum):
    TYPE_C = "C"            # q1(z) = 0: trajectories are affine lines
    TYPE_C_STAR = "C*"      # closed orbits of e^(ct), punctured-plane type


class VerticalFieldZu:
    """The field e^u(z)(q1(z) w - q(z)) d/dw over a rational s = q/q1."""

    def __init__(self, s: RationalFn, u: EntireExpr | None = None):
        self.s = s
        self.u = u if u is not None else Const(0)
        self._q1_norm = s.den.norm()

    def eval(self, z, w):
        """Field value as the tangent pair (0, w-component)."""
        z = complex(z)
        w = complex(w)
        return (0j, cmath.exp(self.u(z)) * (self.s.den(z) * w - self.s.num(z)))

    def c(self, z):
        """Fiber rate e^u(z) q1(z)."""
        return cmath.exp(self.u(complex(z))) * self.s.den(complex(z))

    def classify_fiber(self, z) -> FiberType:
        if vanishes_at(self.s.den, z):
            return FiberType.TYPE_C
        return FiberType.TYPE_C_STAR

    def flow(self, t, z, w):
        """Time-t flow of (z, w); entire in t, exact group law in closed form."""
        t = complex(t)
        z = complex(z)
        w = complex(w)
        if t == 0:
            return (z, w)
        denv = self.s.den(z)
        uz = cmath.exp(self.u(z))
        cz = uz * denv
        if abs(denv) >= JET_SWITCH * self._q1_norm:
            sz = self.s.num(z) / denv
            if w == sz:
                # graph of s is flow-invariant, exactly
                return (z, w)
            return (z, sz + (w - sz) * cmath.exp(cz * t))
        # near a root of q1 the closed form divides by a vanishing q1;
        # s (1 - e^(ct)) = -t e^u q phi1(tc) cancels it exactly
        return (z, w * cmath.exp(cz * t)
                - t * uz * self.s.num(z) * phi1(t * cz))

    def period(self, z):
        """Generator 2 pi i / c(z) of the closed-orbit time lattice at z."""
        if self.classify_fiber(z) is FiberType.TYPE_C:
            raise TypeCFiberError("fiber at %r is a full line; no period" % (z,))
        return 2j * cmath.pi / self.c(z)

    def as_callback(self):
        """(z, w) -> (dz, dw) suitable for the numerical oracle."""
        return lambda z, w: self.eval(z, w)


@dataclass(frozen=True)
class PreimageResult:
    t: complex
    branch: str  # "log" or "linear"


class DominatingMapF:
    """f(z, t) = (z, time-t flow of the gap value h(z)) for a certificate."""

    def __init__(self, cert: GapCertificate, u: EntireExpr | None = None):
        self.cert = cert
        self.field = VerticalFieldZu(cert.s, u)

    def __call__(self, z, t):
        z = complex(z)
        return self.field.flow(t, z, self.cert.h(z))

    def g_value(self, z):
        """g(z) = q1(z) e^(-g1(z)); 1/g is the gap between s and h."""
        return self.cert.s.den(z) * cmath.exp(-self.cert.g1(z))

    def preimage(self, z0, w0) -> PreimageResult:
        """Solve f(z0, t) = (z0, w0) for t; w0 must avoid graph(s).

        Away from q1 roots inverts the exponential with the principal Log;
        on a root fiber the flow is affine in t and inverts linearly.
        """
        z0 = complex(z0)
        w0 = complex(w0)
        den = self.cert.s.den
        if self.field.classify_fiber(z0) is FiberType.TYPE_C:
            qv = self.cert.s.num(z0)
            uv = cmath.exp(self.field.u(z0))
            if qv == 0:
                raise DomainError("degenerate fiber: q and q1 both vanish")
            t = (self.cert.h(z0) - w0) / (uv * qv)
            return PreimageResult(t, "linear")
        sz = self.cert.s.num(z0) / den(z0)
        if w0 == sz:
            raise DomainError("target lies on graph(s); it has no preimage")
        gz = self.g_value(z0)
        val = gz * (sz - w0)
        if val == 0:
            raise DomainError("target coincides with the gap graph limit")
        t = cmath.log(val) / self.field.c(z0)
        return PreimageResult(t, "log")

    def jacobian(self, z, t):
        """det Df(z, t) = -e^(u(z) + g1(z)) e^(c(z) t), never zero."""
        z = complex(z)
        t = complex(t)
        expo = self.field.u(z) + self.cert.g1(z) + self.field.c(z) * t
        return -cmath.exp(expo)
