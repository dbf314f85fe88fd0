"""Dense complex polynomials, rational functions, and local series tools.

Coefficients are stored ascending (coeffs[k] multiplies z**k).  All
tolerances here are relative to the max coefficient magnitude of the
operands, so the routines are scale-free.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, NumericalError

EPS_GCD = 1e-10      # remainder considered zero, relative
EPS_ROOT = 1e-12     # root residual target, relative
CLUSTER_TOL = 1e-7   # roots closer than this are merged
EPS_POLE = 1e-9      # |p(z)| below this (relative) counts as a root hit
ABERTH_MAX_ITER = 80  # refinement sweeps before giving up


def _require_finite(values):
    for c in values:
        c = complex(c)
        if not (cmath.isfinite(c)):
            raise DomainError("non-finite coefficient %r" % (c,))


class Poly:
    """Immutable dense polynomial over C, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [complex(c) for c in coeffs]
        _require_finite(cs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_roots(cls, roots, leading=1.0):
        p = cls([leading])
        for r in roots:
            p = p * cls([-r, 1.0])
        return p

    @classmethod
    def one(cls):
        return cls([1.0])

    @property
    def degree(self):
        # -1 for the zero polynomial
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def norm(self):
        """Max coefficient magnitude (0.0 for the zero polynomial)."""
        return max((abs(c) for c in self.coeffs), default=0.0)

    def __call__(self, z):
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0j] * (n - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            a[k] += c
        return Poly(a)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return Poly()
        n, m = len(self.coeffs), len(other.coeffs)
        out = [0j] * (n + m - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Poly(%r)" % (list(self.coeffs),)

    def deriv(self):
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self):
        if self.is_zero:
            raise DomainError("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        return Poly([c / lead for c in self.coeffs])

    def trim(self, tol):
        """Drop leading (highest-degree) coefficients of magnitude <= tol."""
        cs = list(self.coeffs)
        while cs and abs(cs[-1]) <= tol:
            cs.pop()
        return Poly(cs)

    def shift(self, z0):
        """Coefficients of p(z0 + w) as a polynomial in w (Taylor shift)."""
        c = list(self.coeffs)
        n = len(c)
        for i in range(n):
            for j in range(n - 2, i - 1, -1):
                c[j] += z0 * c[j + 1]
        return Poly(c)

    def jet(self, z0, order):
        """Taylor coefficients of p at z0 through the given order."""
        cs = list(self.shift(z0).coeffs)
        cs += [0j] * (order + 1 - len(cs))
        return cs[: order + 1]

    def divmod(self, other):
        """Euclidean division; other's stored leading coefficient is used."""
        if other.is_zero:
            raise DomainError("division by zero polynomial")
        if self.degree < other.degree:
            return Poly(), self
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        quot = [0j] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            q = rem[other.degree + k] / lead
            quot[k] = q
            for j, b in enumerate(other.coeffs):
                rem[j + k] -= q * b
        return Poly(quot), Poly(rem[: other.degree])

    def to_json(self):
        return [[c.real, c.imag] for c in self.coeffs]

    @classmethod
    def from_json(cls, data):
        return cls([complex(re, im) for re, im in data])


def _coerce(x):
    if isinstance(x, Poly):
        return x
    return Poly([x])


def _scaled(p: Poly, e: int) -> Poly:
    """p·2^e, each part scaled on its own so that no separate 2^e overflows."""
    return Poly([complex(math.ldexp(c.real, e), math.ldexp(c.imag, e))
                 for c in p.coeffs])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm, zero threshold EPS_GCD relative.

    Each operand is first scaled to a norm in [0.5, 1), so a polynomial that
    is small against the other one is not taken for zero; the factors are
    powers of two, so the scaling rounds nothing.
    """
    if max(a.norm(), b.norm()) == 0.0:
        raise DomainError("gcd of two zero polynomials")
    a, b = [_scaled(p, -math.frexp(p.norm())[1]).trim(EPS_GCD)
            for p in (a, b)]
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    while True:
        _, r = a.divmod(b)
        r = r.trim(EPS_GCD)
        if r.is_zero:
            return b.monic()
        a, b = b, r


def _aberth(coeffs, guesses):
    """Aberth-Ehrlich simultaneous refinement; coeffs ascending, simple roots."""
    p = np.array(coeffs, dtype=complex)
    dp = p[1:] * np.arange(1, len(p))
    z = np.array(guesses, dtype=complex)
    n = len(z)
    if n == 0:
        return z
    for _ in range(ABERTH_MAX_ITER):
        pz = np.polyval(p[::-1], z)
        dpz = np.polyval(dp[::-1], z)
        dpz = np.where(np.abs(dpz) < 1e-300, 1e-300, dpz)
        newton = pz / dpz
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        s = inv.sum(axis=1)
        denom = 1.0 - newton * s
        denom = np.where(np.abs(denom) < 1e-300, 1.0, denom)
        step = newton / denom
        z = z - step
        if np.max(np.abs(step)) <= EPS_ROOT * (1.0 + np.max(np.abs(z))):
            break
    return z


def _square_free_split(p):
    """Yun-style split: list of (square-free factor, multiplicity)."""
    out = []
    mult = 1
    while p.degree > 0:
        g = poly_gcd(p, p.deriv())
        if g.degree == 0:
            out.append((p.monic(), mult))
            break
        f, _ = p.divmod(g)  # roots of p, each once
        # roots of multiplicity exactly `mult` in the original are roots of f not in g
        h = poly_gcd(f, g)
        exact, _ = f.divmod(h)
        exact = exact.trim(EPS_GCD * max(1.0, exact.norm()))
        if exact.degree > 0:
            out.append((exact.monic(), mult))
        p = g
        mult += 1
    return out


def poly_roots(p: Poly):
    """All roots of p with multiplicities, as a list of (root, mult).

    Multiple roots are isolated through a tolerant square-free split, then
    each square-free factor is solved by companion-matrix eigenvalues
    refined with Aberth-Ehrlich.  In (real, imag) order, each root of any
    factor joins the first weighted centroid within CLUSTER_TOL (relative).
    """
    if p.is_zero:
        raise DomainError("zero polynomial has every point as a root")
    if p.degree == 0:
        return []
    found = []
    for factor, mult in _square_free_split(p):
        if factor.degree == 0:
            continue
        guesses = np.roots(list(factor.coeffs)[::-1])
        roots = _aberth(factor.coeffs, guesses)
        scale = factor.norm()
        for r in roots:
            r = complex(r)
            res = abs(factor(r))
            bound = EPS_ROOT * scale * max(1.0, abs(r)) ** factor.degree
            if res > max(bound, 1e3 * EPS_ROOT * scale):
                raise NumericalError(
                    "root refinement stalled: residual %.3e at %r" % (res, r))
            found.append((r, mult))
    merged = []
    for root, m in sorted(found, key=lambda rm: (rm[0].real, rm[0].imag)):
        for k, (r0, m0) in enumerate(merged):
            if abs(root - r0) <= CLUSTER_TOL * (1.0 + abs(r0)):
                merged[k] = ((r0 * m0 + root * m) / (m0 + m), m0 + m)
                break
        else:
            merged.append((root, m))
    merged.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    total = sum(m for _, m in merged)
    if total != p.degree:
        raise NumericalError(
            "found %d roots with multiplicity for degree %d" % (total, p.degree))
    return merged


# ---------------------------------------------------------------------------
# truncated power series on plain lists (ascending, length = order + 1)

def series_add(a, b):
    n = max(len(a), len(b))
    out = [0j] * n
    for k, c in enumerate(a):
        out[k] += c
    for k, c in enumerate(b):
        out[k] += c
    return out


def series_mul(a, b, order):
    out = [0j] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def series_div(a, b, order):
    """a/b mod z^(order+1); requires b[0] != 0."""
    if not b or b[0] == 0:
        raise DomainError("series division by series with zero constant term")
    out = [0j] * (order + 1)
    for k in range(order + 1):
        acc = a[k] if k < len(a) else 0j
        for j in range(1, k + 1):
            if j < len(b):
                acc -= b[j] * out[k - j]
        out[k] = acc / b[0]
    return out


def series_exp(a, order):
    out = [0j] * (order + 1)
    out[0] = cmath.exp(a[0]) if a else 1.0 + 0j
    for k in range(1, order + 1):
        acc = 0j
        for j in range(1, k + 1):
            if j < len(a):
                acc += j * a[j] * out[k - j]
        out[k] = acc / k
    return out


def series_log(a, order):
    """log(a) mod z^(order+1) with the principal branch at a[0] != 0."""
    if not a or a[0] == 0:
        raise DomainError("series log needs a nonzero constant term")
    out = [0j] * (order + 1)
    out[0] = cmath.log(a[0])
    for k in range(1, order + 1):
        acc = a[k] * k if k < len(a) else 0j
        for j in range(1, k):
            if k - j < len(a):
                acc -= j * out[j] * a[k - j]
        out[k] = acc / (k * a[0])
    return out


# ---------------------------------------------------------------------------

class PoleMarker:
    """Singleton return for evaluation at a pole."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "POLE"


POLE = PoleMarker()


class RationalFn:
    """Quotient num/den, normalized to coprime with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise DomainError("rational function with zero denominator")
        self.num, self.den = _rat_normalize(num, den)

    def __call__(self, z):
        return rat_eval(self, z)

    def __repr__(self):
        return "RationalFn(%r, %r)" % (self.num, self.den)

    def poles(self):
        """Denominator roots with multiplicities."""
        if self.den.degree < 1:
            return []
        return poly_roots(self.den)

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data):
        return cls(Poly.from_json(data["num"]), Poly.from_json(data["den"]))


def _rat_normalize(num, den):
    if num.is_zero:
        return Poly(), Poly.one()
    g = poly_gcd(num, den)
    if g.degree > 0:
        num, _ = num.divmod(g)
        den, _ = den.divmod(g)
    lead = den.coeffs[-1]
    return Poly([c / lead for c in num.coeffs]), den.monic()


def vanishes_at(p: Poly, z) -> bool:
    """The one "is z at a root of p" test: |p(z)| is at rounding level,
    at most EPS_POLE * max|coeff| * max(1, |z|)^degree."""
    bound = EPS_POLE * p.norm() * max(1.0, abs(z)) ** max(p.degree, 0)
    return abs(p(z)) <= bound


def rat_eval(f: RationalFn, z):
    """Value of f at z, or POLE where f.den vanishes_at z."""
    if vanishes_at(f.den, z):
        return POLE
    return f.num(z) / f.den(z)

