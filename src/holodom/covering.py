"""Polynomial coverings of the complement of a cuspidal curve y^r = a x^s.

For coprime r, s >= 2 pick the minimal positive Bezout pair p r - q s = 1;
then gamma(u, v) = (v^q u^r, v^p u^s) satisfies the exact exponent identity

    (v^p u^s)^r - a (v^q u^r)^s = u^(rs) v^(qs) (v - a),

so composing with (z, t) -> (z, a - e^t) lands in the complement of the
curve (and of the axes), with explicit rational inverse on the image.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError


def bezout(r: int, s: int):
    """Minimal positive (p, q) with p*r - q*s = 1; requires coprime r, s."""
    if r < 1 or s < 1:
        raise DomainError("bezout needs positive integers")
    if math.gcd(r, s) != 1:
        raise DomainError("r and s must be coprime, got (%d, %d)" % (r, s))
    p = 1
    while True:
        if (p * r - 1) % s == 0:
            q = (p * r - 1) // s
            if q >= 1:
                return p, q
        p += 1
        if p > s + 1:
            raise DomainError("no positive Bezout pair for (%d, %d)" % (r, s))


@dataclass(frozen=True)
class CuspCurve:
    """Curve y^r = a x^s together with its covering data."""

    r: int
    s: int
    a: complex

    def __post_init__(self):
        if self.r < 2 or self.s < 2:
            raise DomainError("cusp exponents must be >= 2")
        if math.gcd(self.r, self.s) != 1:
            raise DomainError("cusp exponents must be coprime")
        if self.a == 0:
            raise DomainError("curve coefficient a must be nonzero")
        object.__setattr__(self, "a", complex(self.a))

    @property
    def pq(self):
        return bezout(self.r, self.s)

    def gamma(self, u, v):
        """(v^q u^r, v^p u^s)."""
        p, q = self.pq
        u = complex(u)
        v = complex(v)
        return (v ** q * u ** self.r, v ** p * u ** self.s)

    def identity_check(self) -> bool:
        """Exact exponent/coefficient check of the defining identity."""
        p, q = self.pq
        r, s = self.r, self.s
        # (v^p u^s)^r - a (v^q u^r)^s = u^(rs) v^(qs) (v^(pr-qs) - a)
        if p * r - q * s != 1:
            return False
        lhs_terms = {(s * r, p * r): 1 + 0j, (r * s, q * s): -self.a}
        rhs_terms = {(r * s, q * s + 1): 1 + 0j, (r * s, q * s): -self.a}
        return lhs_terms == rhs_terms

    def big_gamma(self, z, t):
        """Gamma(z, t) = gamma(z, a - e^t); misses the curve and the axes."""
        v = self.a - cmath.exp(complex(t))
        return self.gamma(z, v)

    def gamma_preimage(self, x, y):
        """The distinguished gamma-preimage (u, v) = (x^p / y^q, y^r / x^s).

        Defined for x, y both nonzero; among points with a zero coordinate
        only (0, 0) lies in the image of gamma.
        """
        x = complex(x)
        y = complex(y)
        if x == 0 or y == 0:
            raise DomainError(
                "gamma_preimage needs x, y nonzero; of those points only "
                "(0, 0) is in the image, via u = 0")
        p, q = self.pq
        v = y ** self.r / x ** self.s
        u = x ** p / y ** q
        return u, v

    def membership(self, x, y) -> bool:
        """True iff (x, y) is in the image: off the axes and the curve,
        or exactly the origin."""
        x = complex(x)
        y = complex(y)
        if x == 0 and y == 0:
            return True
        return abs(x * y * (y ** self.r - self.a * x ** self.s)) > 0.0
