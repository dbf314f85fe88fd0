"""Catalog of complete polynomial fields tangent to graphs.

Plane fields P(z,w) d/dz + Q(z,w) d/dw are stored with entire-expression
coefficients per power of w.  The module provides the parameterized families
with their validity checks, fiber automorphisms and pushforwards, the shear
conjugation over Laurent tables, tangency and eigenvalue-ratio certificates,
and closed-form flows of families (i)-(iii) written in phi-type integrals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .entire import (Const, EntireExpr, Exp, Neg, PolyNode, Prod, Sum, phi1,
                     phi1_power_integral)
from .errors import DomainError, NotHolomorphicError, NumericalError
from .gap import GapCertificate
from .poly import Poly, RationalFn
from .sampling import rng_from_seed, sample_annulus, sample_disk

CANCEL_TOL = 1e-12  # relative residue allowed when negative powers must cancel
RATIO_MAX_DEN = 64  # rational reconstruction: denominator bound
RATIO_TOL = 1e-9    # rational reconstruction: acceptance tolerance
TANGENCY_TOL = 1e-9


# ---------------------------------------------------------------------------
# bivariate expressions and plane fields

class BivarExpr:
    """Polynomial in w whose coefficients are entire expressions of z."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, EntireExpr) else Const(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    def __call__(self, z, w):
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * w + c(z)
        return acc

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for k in range(n):
            parts = []
            if k < len(self.coeffs):
                parts.append(self.coeffs[k])
            if k < len(other.coeffs):
                parts.append(other.coeffs[k])
            out.append(Sum.of(*parts))
        return BivarExpr(out)

    def __neg__(self):
        return BivarExpr([Neg.of(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def mul(self, other: "BivarExpr") -> "BivarExpr":
        if not self.coeffs or not other.coeffs:
            return BivarExpr()
        out = [[] for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j].append(Prod.of(a, b))
        return BivarExpr([Sum.of(*terms) for terms in out])

    def mul_expr(self, e: EntireExpr) -> "BivarExpr":
        return BivarExpr([Prod.of(e, c) for c in self.coeffs])

    def dz(self) -> "BivarExpr":
        return BivarExpr([c.derive() for c in self.coeffs])

    def dw(self) -> "BivarExpr":
        return BivarExpr([Prod.of(Const(k), c)
                          for k, c in enumerate(self.coeffs)][1:])

    def subst_w_affine(self, alpha: EntireExpr, beta: EntireExpr) -> "BivarExpr":
        """Coefficients after substituting w = alpha(z)·w' + beta(z)."""
        acc = BivarExpr()
        lin = BivarExpr([beta, alpha])
        for c in reversed(self.coeffs):
            acc = acc.mul(lin) + BivarExpr([c])
        return acc

    def to_json(self):
        return [c.to_json() for c in self.coeffs]

    def __repr__(self):
        return "BivarExpr(%r)" % (list(self.coeffs),)


class PlaneField:
    """Holomorphic field P d/dz + Q d/dw with w-polynomial components."""

    __slots__ = ("p", "q")

    def __init__(self, p: BivarExpr, q: BivarExpr):
        self.p = p
        self.q = q

    def __call__(self, z, w):
        return (self.p(z, w), self.q(z, w))

    def jacobian(self, z, w):
        """Rows are the gradients of P and Q, columns d/dz, d/dw."""
        return ((self.p.dz()(z, w), self.p.dw()(z, w)),
                (self.q.dz()(z, w), self.q.dw()(z, w)))

    def poly_tables(self):
        """Exact monomial tables {(z_exp, w_exp): coeff}; DomainError if a
        coefficient is not polynomial in z."""
        tables = []
        for comp in (self.p, self.q):
            table = {}
            for j, e in enumerate(comp.coeffs):
                poly = e.as_poly()
                if poly is None:
                    raise DomainError("field coefficient is not polynomial")
                for i, c in enumerate(poly.coeffs):
                    if c != 0:
                        table[(i, j)] = c
            tables.append(table)
        return tables[0], tables[1]

    def to_json(self):
        return {"p": self.p.to_json(), "q": self.q.to_json()}

    def __repr__(self):
        return "PlaneField(%r, %r)" % (self.p, self.q)


def tables_allclose(x: PlaneField, y: PlaneField, tol: float = 1e-12) -> bool:
    """Coefficient-wise comparison of two polynomial plane fields."""
    xp, xq = x.poly_tables()
    yp, yq = y.poly_tables()
    for a, b in ((xp, yp), (xq, yq)):
        scale = max([abs(c) for c in a.values()] +
                    [abs(c) for c in b.values()] + [1.0])
        for key in set(a) | set(b):
            if abs(a.get(key, 0j) - b.get(key, 0j)) > tol * scale:
                return False
    return True


# ---------------------------------------------------------------------------
# fiber automorphisms (z, w) -> (z, e^gamma(z) w + delta(z))

class FiberAutomorphism:
    """Fiber-preserving automorphism w -> e^gamma(z)·w + delta(z)."""

    __slots__ = ("gamma", "delta")

    def __init__(self, gamma: EntireExpr, delta: EntireExpr):
        self.gamma = gamma
        self.delta = delta

    def __call__(self, z, w):
        z = complex(z)
        return (z, cmath.exp(self.gamma(z)) * w + self.delta(z))

    def inverse(self) -> "FiberAutomorphism":
        gamma = Neg.of(self.gamma)
        return FiberAutomorphism(
            gamma, Neg.of(Prod.of(Exp.of(gamma), self.delta)))

    def compose(self, other: "FiberAutomorphism") -> "FiberAutomorphism":
        """self after other."""
        return FiberAutomorphism(
            Sum.of(self.gamma, other.gamma),
            Sum.of(Prod.of(Exp.of(self.gamma), other.delta), self.delta))

    def to_json(self):
        return {"gamma": self.gamma.to_json(), "delta": self.delta.to_json()}


def pushforward(phi: FiberAutomorphism, field: PlaneField) -> PlaneField:
    """Conjugated field phi_* X, computed symbolically on coefficients.

    With w = e^{-gamma}(w' - delta) the z-component substitutes directly and
    the w-component picks up the derivative of the fiber action:
    Q' = [gamma'(w' - delta) + delta']·P(..) + e^{gamma}·Q(..).
    """
    alpha = Exp.of(Neg.of(phi.gamma))
    beta = Neg.of(Prod.of(alpha, phi.delta))
    p_new = field.p.subst_w_affine(alpha, beta)
    q_sub = field.q.subst_w_affine(alpha, beta)
    dgamma = phi.gamma.derive()
    ddelta = phi.delta.derive()
    lin = BivarExpr([Sum.of(ddelta, Neg.of(Prod.of(dgamma, phi.delta))),
                     dgamma])
    return PlaneField(p_new, lin.mul(p_new) + q_sub.mul_expr(Exp.of(phi.gamma)))


def linear_pushforward(matrix, field: PlaneField) -> PlaneField:
    """Conjugate a polynomial plane field by an invertible linear map of C^2."""
    (m11, m12), (m21, m22) = [[complex(v) for v in row] for row in matrix]
    det = m11 * m22 - m12 * m21
    scale = max(abs(m11), abs(m12), abs(m21), abs(m22), 1.0)
    if abs(det) <= 1e-12 * scale * scale:
        raise DomainError("matrix is singular")
    inv_rows = ((m22 / det, -m12 / det), (-m21 / det, m11 / det))
    p_table, q_table = field.poly_tables()

    def subst(table):
        out = {}
        row_z = {(1, 0): inv_rows[0][0], (0, 1): inv_rows[0][1]}
        row_w = {(1, 0): inv_rows[1][0], (0, 1): inv_rows[1][1]}
        for (i, j), c in table.items():
            term = _lb_scale(_lb_mul(_lb_pow(row_z, i), _lb_pow(row_w, j)), c)
            out = _lb_add(out, term)
        return out

    ps, qs = subst(p_table), subst(q_table)
    new_p = _lb_add(_lb_scale(ps, m11), _lb_scale(qs, m12))
    new_q = _lb_add(_lb_scale(ps, m21), _lb_scale(qs, m22))
    return PlaneField(_table_to_bivar(new_p), _table_to_bivar(new_q))


# ---------------------------------------------------------------------------
# Laurent tables {(z_exp, w_exp): coeff}; z_exp may be negative mid-computation

def _lb_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0j) + c
    return out


def _lb_scale(a, c):
    return {key: v * c for key, v in a.items()}


def _lb_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0j) + c1 * c2
    return out


def _lb_pow(a, n):
    out = {(0, 0): 1.0 + 0j}
    for _ in range(n):
        out = _lb_mul(out, a)
    return out


def _lb_shift_z(a, dz):
    return {(i + dz, j): c for (i, j), c in a.items()}


def _shear_substitute(table, k):
    """Substitute t = w - z^{-k} into a table over (x, t) monomials."""
    out = {}
    for (i, j), c in table.items():
        for l in range(j + 1):
            coeff = c * math.comb(j, l) * (-1.0) ** (j - l)
            key = (i - k * (j - l), l)
            out[key] = out.get(key, 0j) + coeff
    return out


def _require_holomorphic(table, context):
    """Drop negative z-powers, insisting their residue is at rounding level."""
    scale = max([abs(c) for c in table.values()] + [1.0])
    residue = max([abs(c) for (i, _), c in table.items() if i < 0] + [0.0])
    if residue > CANCEL_TOL * scale:
        raise NotHolomorphicError(
            "%s leaves negative powers of z (relative residue %.3e)"
            % (context, residue / scale))
    return {key: c for key, c in table.items() if key[0] >= 0}


def _table_to_bivar(table) -> BivarExpr:
    table = {key: c for key, c in table.items() if c != 0}
    if not table:
        return BivarExpr()
    cols = []
    for j in range(max(jw for _, jw in table) + 1):
        entries = {i: c for (i, jw), c in table.items() if jw == j}
        if not entries:
            cols.append(Const(0))
            continue
        cols.append(PolyNode.of(Poly([entries.get(i, 0j)
                                      for i in range(max(entries) + 1)])))
    return BivarExpr(cols)


# ---------------------------------------------------------------------------
# the families

@dataclass(frozen=True)
class FamilyI:
    """(a·x + b) d/dx + multiplier(x)·t d/dt, multiplier not identically 0."""
    a: complex
    b: complex
    multiplier: Poly

    def validate(self):
        if self.multiplier.is_zero:
            raise DomainError("family (i) needs a nonzero multiplier")


@dataclass(frozen=True)
class FamilyII:
    """a·t d/dt + multiplier(x^m t^n)·(n·x d/dx - m·t d/dt), gcd(m,n)=1."""
    a: complex
    m: int
    n: int
    multiplier: Poly

    def validate(self):
        if self.m < 1 or self.n < 1:
            raise DomainError("family (ii) exponents must be positive")
        if math.gcd(self.m, self.n) != 1:
            raise DomainError("family (ii) exponents must be coprime")


@dataclass(frozen=True)
class FamilyIII:
    """a·z d/dz + (A(z)·w - tail(z)/z^k) d/dw with A = -a·k + tail, tail in
    z^k·C[z]."""
    a: complex
    k: int
    tail: Poly

    def validate(self):
        if self.k < 1:
            raise DomainError("family (iii) needs k >= 1")
        _require_low_zeros(self.tail, self.k, "family (iii) tail")


@dataclass(frozen=True)
class FamilyIV:
    """Shear conjugate of family (ii) with multiplier a/(m-n·k) + tail(y),
    tail in y^k·C[y]; requires m > n·k and gcd(m,n)=1."""
    a: complex
    k: int
    m: int
    n: int
    tail: Poly

    def validate(self):
        if min(self.k, self.m, self.n) < 1:
            raise DomainError("family (iv) parameters must be positive")
        if math.gcd(self.m, self.n) != 1:
            raise DomainError("family (iv) exponents must be coprime")
        if self.m <= self.n * self.k:
            raise DomainError("family (iv) requires m > n*k")
        _require_low_zeros(self.tail, self.k, "family (iv) tail")

    def base_family(self) -> FamilyII:
        lead = complex(self.a) / (self.m - self.n * self.k)
        return FamilyII(self.a, self.m, self.n,
                        Poly([lead]) + self.tail)


@dataclass(frozen=True)
class SuzukiForm1:
    """a(z) d/dw with rational a; instantiable only when a is polynomial."""
    a: RationalFn

    def validate(self):
        pass


@dataclass(frozen=True)
class SuzukiForm2:
    """g(z)(w - s(z)) d/dw, stored via g and the rational product g·s."""
    g: RationalFn
    gs: RationalFn

    def validate(self):
        pass


@dataclass(frozen=True)
class SuzukiForm3:
    """lam·(n·z d/dz + m·w d/dw) with constant lam != 0, gcd(m,n)=1."""
    lam: complex
    m: int
    n: int

    def validate(self):
        if self.lam == 0:
            raise DomainError("scaling constant must be nonzero")
        if self.m < 1 or self.n < 1 or math.gcd(self.m, self.n) != 1:
            raise DomainError("weights must be positive and coprime")


@dataclass(frozen=True)
class SuzukiForm4:
    """gamma(t)/z^l·(n·z^{l+1} d/dz - [(m+n·l)z^l w + m·p + n·z·p'] d/dw)
    with t = z^m (z^l w + p(z))^n; gamma must vanish at 0 to order >= l/m."""
    m: int
    n: int
    l: int
    p: Poly
    gamma: Poly

    def validate(self):
        if self.m < 1 or self.n < 1 or math.gcd(self.m, self.n) != 1:
            raise DomainError("weights must be positive and coprime")
        if self.l < 0:
            raise DomainError("pole order l must be nonnegative")
        if self.l == 0:
            if not self.p.is_zero:
                raise DomainError("p must vanish identically when l = 0")
        else:
            if self.p.degree >= self.l:
                raise DomainError("p must have degree below l")
            if self.p(0) == 0:
                raise DomainError("p(0) must be nonzero when l > 0")
        if self.gamma.is_zero:
            raise DomainError("gamma must be nonzero")
        low = -(-self.l // self.m)  # ceil(l/m)
        for j in range(min(low, len(self.gamma.coeffs))):
            if self.gamma.coeffs[j] != 0:
                raise DomainError(
                    "gamma must vanish at 0 to order at least l/m")


@dataclass(frozen=True)
class AffineFiberFamily:
    """lam·x d/dx + (a(x)·y + c(x)) d/dy where lam/a(0) is a positive
    rational that is neither an integer nor a reciprocal of one."""
    lam: complex
    a: Poly
    c: Poly

    def validate(self):
        if self.lam == 0 or self.a(0) == 0:
            raise DomainError("lam and a(0) must be nonzero")
        _restricted_positive_rational(complex(self.lam) / self.a(0))


@dataclass(frozen=True)
class MonomialFlowFamily:
    """x(n·f(x^m y^n) + alpha) d/dx - y(m·f(x^m y^n) + beta) d/dy with
    f in z·C[z], alpha·m - beta·n != 0, and -alpha/beta a positive rational
    that is neither an integer nor a reciprocal of one."""
    m: int
    n: int
    f: Poly
    alpha: complex
    beta: complex

    def validate(self):
        if self.m < 1 or self.n < 1:
            raise DomainError("exponents must be positive")
        if self.f.coeffs and self.f.coeffs[0] != 0:
            raise DomainError("f must vanish at 0")
        if complex(self.alpha) * self.m - complex(self.beta) * self.n == 0:
            raise DomainError("alpha*m - beta*n must be nonzero")
        if self.beta == 0:
            raise DomainError("beta must be nonzero")
        _restricted_positive_rational(-complex(self.alpha) / complex(self.beta))


@dataclass(frozen=True)
class ScalingField:
    """r·x d/dx + s·y d/dy with r, s coprime positive and r·s != 1; the
    monomial y^r/x^s is a first integral."""
    r: int
    s: int

    def validate(self):
        if self.r < 1 or self.s < 1 or self.r * self.s == 1:
            raise DomainError("weights must be positive with r*s != 1")
        if math.gcd(self.r, self.s) != 1:
            raise DomainError("weights must be coprime")


def _require_low_zeros(poly: Poly, k: int, label: str):
    for j in range(min(k, len(poly.coeffs))):
        if poly.coeffs[j] != 0:
            raise DomainError("%s must be divisible by the %d-th power of the "
                              "variable" % (label, k))


_FAMILY_KINDS = {
    "i": (FamilyI, (("a", "cx"), ("b", "cx"), ("multiplier", "poly"))),
    "ii": (FamilyII, (("a", "cx"), ("m", "int"), ("n", "int"),
                      ("multiplier", "poly"))),
    "iii": (FamilyIII, (("a", "cx"), ("k", "int"), ("tail", "poly"))),
    "iv": (FamilyIV, (("a", "cx"), ("k", "int"), ("m", "int"), ("n", "int"),
                      ("tail", "poly"))),
    "suzuki1": (SuzukiForm1, (("a", "rat"),)),
    "suzuki2": (SuzukiForm2, (("g", "rat"), ("gs", "rat"))),
    "suzuki3": (SuzukiForm3, (("lam", "cx"), ("m", "int"), ("n", "int"))),
    "suzuki4": (SuzukiForm4, (("m", "int"), ("n", "int"), ("l", "int"),
                              ("p", "poly"), ("gamma", "poly"))),
    "affine_fiber": (AffineFiberFamily, (("lam", "cx"), ("a", "poly"),
                                         ("c", "poly"))),
    "monomial_flow": (MonomialFlowFamily, (("m", "int"), ("n", "int"),
                                           ("f", "poly"), ("alpha", "cx"),
                                           ("beta", "cx"))),
    "scaling": (ScalingField, (("r", "int"), ("s", "int"))),
}

_FIELD_DECODERS = {
    "cx": lambda v: complex(v[0], v[1]),
    "int": int,
    "poly": Poly.from_json,
    "rat": RationalFn.from_json,
}


def family_from_json(data):
    """Decode a family spec from {"kind": ..., ...params}; complex scalars
    are [re, im], polynomials are coefficient arrays of [re, im], rational
    functions are {"num", "den"}.  The decoded spec is validated."""
    if not isinstance(data, dict) or "kind" not in data:
        raise DomainError("family document needs a 'kind' entry")
    entry = _FAMILY_KINDS.get(data["kind"])
    if entry is None:
        raise DomainError("unknown family kind %r (expected one of %s)"
                          % (data["kind"], ", ".join(sorted(_FAMILY_KINDS))))
    cls, fields = entry
    kwargs = {}
    for name, typ in fields:
        if name not in data:
            raise DomainError("family %r is missing the %r parameter"
                              % (data["kind"], name))
        try:
            kwargs[name] = _FIELD_DECODERS[typ](data[name])
        except (TypeError, ValueError, IndexError, KeyError):
            raise DomainError("family parameter %r is malformed" % (name,))
    spec = cls(**kwargs)
    spec.validate()
    return spec


def _restricted_positive_rational(value) -> Fraction:
    value = complex(value)
    if abs(value.imag) > RATIO_TOL * (1.0 + abs(value)):
        raise DomainError("eigenvalue ratio %r is not real" % (value,))
    frac = rational_reconstruct(value.real)
    if frac is None:
        raise DomainError("eigenvalue ratio %r is not rational within "
                          "tolerance" % (value,))
    if frac <= 0:
        raise DomainError("eigenvalue ratio must be positive")
    if frac.numerator == 1 or frac.denominator == 1:
        raise DomainError("eigenvalue ratio may not be an integer or a "
                          "reciprocal of an integer")
    return frac


def _monomial_tables(p_table, q_table, m, n, f: Poly):
    """Add f(x^m y^n)·(n·x d/dx - m·y d/dy) to the tables in place."""
    for j, c in enumerate(f.coeffs):
        if c == 0:
            continue
        key_p = (j * m + 1, j * n)
        key_q = (j * m, j * n + 1)
        p_table[key_p] = p_table.get(key_p, 0j) + n * c
        q_table[key_q] = q_table.get(key_q, 0j) - m * c
    return p_table, q_table


def _family_ii_tables(spec: FamilyII):
    return _monomial_tables({}, {(0, 1): complex(spec.a)},
                            spec.m, spec.n, spec.multiplier)


def instantiate_family(spec) -> PlaneField:
    """Concrete plane field for a family member; parameters are validated and
    any required exact division is checked."""
    spec.validate()
    if isinstance(spec, FamilyI):
        return PlaneField(
            BivarExpr([PolyNode.of(Poly([spec.b, spec.a]))]),
            BivarExpr([Const(0), PolyNode.of(spec.multiplier)]))
    if isinstance(spec, FamilyII):
        p_table, q_table = _family_ii_tables(spec)
        return PlaneField(_table_to_bivar(p_table), _table_to_bivar(q_table))
    if isinstance(spec, FamilyIII):
        full = Poly([-complex(spec.a) * spec.k]) + spec.tail
        lowered = Poly(spec.tail.coeffs[spec.k:])
        return PlaneField(
            BivarExpr([PolyNode(Poly([0.0, spec.a]))]),
            BivarExpr([PolyNode.of(-lowered), PolyNode.of(full)]))
    if isinstance(spec, FamilyIV):
        return alpha_conjugate(spec.base_family(), spec.k)
    if isinstance(spec, SuzukiForm1):
        return PlaneField(BivarExpr(), BivarExpr([_rational_as_expr(spec.a)]))
    if isinstance(spec, SuzukiForm2):
        return PlaneField(
            BivarExpr(),
            BivarExpr([Neg.of(_rational_as_expr(spec.gs)),
                       _rational_as_expr(spec.g)]))
    if isinstance(spec, SuzukiForm3):
        return PlaneField(
            BivarExpr([PolyNode(Poly([0.0, spec.lam * spec.n]))]),
            BivarExpr([Const(0), Const(spec.lam * spec.m)]))
    if isinstance(spec, SuzukiForm4):
        return _instantiate_suzuki4(spec)
    if isinstance(spec, AffineFiberFamily):
        return PlaneField(
            BivarExpr([PolyNode(Poly([0.0, spec.lam]))]),
            BivarExpr([PolyNode.of(spec.c), PolyNode.of(spec.a)]))
    if isinstance(spec, MonomialFlowFamily):
        p_table, q_table = _monomial_tables(
            {(1, 0): complex(spec.alpha)}, {(0, 1): -complex(spec.beta)},
            spec.m, spec.n, spec.f)
        return PlaneField(_table_to_bivar(p_table), _table_to_bivar(q_table))
    if isinstance(spec, ScalingField):
        return PlaneField(
            BivarExpr([PolyNode(Poly([0.0, spec.r]))]),
            BivarExpr([Const(0), Const(spec.s)]))
    raise DomainError("unknown family spec %r" % (type(spec).__name__,))


def _rational_as_expr(f: RationalFn) -> EntireExpr:
    if f.den.degree > 0:
        raise DomainError("rational coefficient has poles; this form is "
                          "catalog data only")
    return PolyNode.of(f.num * (1.0 / f.den.coeffs[0]))


def _instantiate_suzuki4(spec: SuzukiForm4) -> PlaneField:
    base = _lb_add({(spec.l, 1): 1.0 + 0j},
                   {(i, 0): c for i, c in enumerate(spec.p.coeffs)})
    t_tab = _lb_mul({(spec.m, 0): 1.0 + 0j}, _lb_pow(base, spec.n))
    gamma_tab = {}
    power = {(0, 0): 1.0 + 0j}
    for j, c in enumerate(spec.gamma.coeffs):
        if j:
            power = _lb_mul(power, t_tab)
        if c != 0:
            gamma_tab = _lb_add(gamma_tab, _lb_scale(power, c))
    p_tab = _lb_shift_z(_lb_scale(gamma_tab, spec.n), 1)
    bracket = {(spec.l, 1): complex(spec.m + spec.n * spec.l)}
    bracket = _lb_add(bracket, {(i, 0): spec.m * c
                                for i, c in enumerate(spec.p.coeffs)})
    dp = spec.p.deriv()
    bracket = _lb_add(bracket, {(i + 1, 0): spec.n * c
                                for i, c in enumerate(dp.coeffs)})
    q_tab = _lb_shift_z(_lb_scale(_lb_mul(gamma_tab, bracket), -1.0), -spec.l)
    q_tab = _require_holomorphic(q_tab, "normal form with meromorphic prefactor")
    return PlaneField(_table_to_bivar(p_tab), _table_to_bivar(q_tab))


def alpha_conjugate(spec, k: int) -> PlaneField:
    """Push family (i) (with b = 0) or (ii) through (x,t) -> (x, t + x^{-k}).

    The matrix action contributes -k·x^{-k-1}·P to the second component;
    all negative powers of z must cancel or NotHolomorphicError is raised.
    """
    if k < 0:
        raise DomainError("shear exponent k must be nonnegative")
    if isinstance(spec, FamilyI):
        spec.validate()
        if spec.b != 0:
            raise DomainError("shear conjugation of family (i) needs b = 0")
        p_table = {(1, 0): complex(spec.a)}
        q_table = {(i, 1): c for i, c in enumerate(spec.multiplier.coeffs)
                   if c != 0}
    elif isinstance(spec, FamilyII):
        spec.validate()
        p_table, q_table = _family_ii_tables(spec)
    else:
        raise DomainError("shear conjugation applies to families (i) and (ii)")
    q_pre = dict(q_table)
    for (i, j), c in p_table.items():
        key = (i - k - 1, j)
        q_pre[key] = q_pre.get(key, 0j) - k * c
    new_p = _require_holomorphic(_shear_substitute(p_table, k),
                                 "shear conjugation")
    new_q = _require_holomorphic(_shear_substitute(q_pre, k),
                                 "shear conjugation")
    return PlaneField(_table_to_bivar(new_p), _table_to_bivar(new_q))


# ---------------------------------------------------------------------------
# curves and tangency

@dataclass(frozen=True)
class GraphCurve:
    """Zero set of den(z)·w - num(z), i.e. the graph of a rational function."""
    s: RationalFn

    def defining(self, z, w):
        return self.s.den(z) * w - self.s.num(z)

    def gradient(self, z, w):
        return (self.s.den.deriv()(z) * w - self.s.num.deriv()(z),
                self.s.den(z))

    def sample(self, rng, n):
        avoid = [p for p, _ in self.s.poles()]
        zs = sample_disk(rng, n, radius=2.0, avoid=avoid, min_dist=0.3)
        return [(z, self.s.num(z) / self.s.den(z)) for z in zs]


def pole_graph_curve(k: int) -> GraphCurve:
    """The curve w·z^k - 1 = 0."""
    return GraphCurve(RationalFn(Poly.one(), Poly([0.0] * k + [1.0])))


@dataclass(frozen=True)
class CuspidalCurve:
    """Zero set of w^r - a·z^s, parameterized by tau -> (tau^r, a^{1/r} tau^s)."""
    r: int
    s: int
    a: complex

    def defining(self, z, w):
        return w ** self.r - self.a * z ** self.s

    def gradient(self, z, w):
        return (-self.a * self.s * z ** (self.s - 1),
                self.r * w ** (self.r - 1))

    def sample(self, rng, n):
        root = cmath.exp(cmath.log(self.a) / self.r)
        taus = sample_annulus(rng, n, inner=0.6, outer=1.4)
        return [(tau ** self.r, root * tau ** self.s) for tau in taus]


@dataclass(frozen=True)
class TangencyReport:
    max_residual: float
    max_on_curve: float
    n_samples: int
    passed: bool

    def to_json(self):
        return {"max_residual": self.max_residual,
                "max_on_curve": self.max_on_curve,
                "n_samples": self.n_samples,
                "passed": self.passed}


def tangency_check(field: PlaneField, curve, n_samples: int = 50,
                   seed: int = 0, tol: float = TANGENCY_TOL) -> TangencyReport:
    """Max normalized |dF(X)| over curve samples; tangency means it stays at
    rounding level."""
    rng = rng_from_seed(seed)
    worst = 0.0
    on_curve = 0.0
    for z, w in curve.sample(rng, n_samples):
        fz, fw = curve.gradient(z, w)
        pv, qv = field(z, w)
        deriv = pv * fz + qv * fw
        scale = max(1.0, abs(pv) * abs(fz) + abs(qv) * abs(fw))
        worst = max(worst, abs(deriv) / scale)
        fval = abs(curve.defining(z, w))
        on_curve = max(on_curve, fval / max(1.0, abs(fz) + abs(fw)))
    return TangencyReport(worst, on_curve, n_samples, worst < tol)


# ---------------------------------------------------------------------------
# eigenvalue ratio at a zero

class RatioClass(Enum):
    NON_REAL_TYPE_C = "NonRealTypeC"
    # real but failing bounded-denominator reconstruction: reported as
    # "not rational within tolerance", never as irrational
    IRRATIONAL_REAL_TYPE_C = "IrrationalRealTypeC"
    POSITIVE_RATIONAL_TYPE_C_STAR = "PositiveRationalTypeCStar"
    NEGATIVE_RATIONAL_OR_OTHER = "NegativeRationalOrOther"


@dataclass(frozen=True)
class EigenratioResult:
    ratio: complex
    kind: RatioClass

    def to_json(self):
        return {"ratio": [self.ratio.real, self.ratio.imag],
                "kind": self.kind.value}


def rational_reconstruct(x: float, max_den: int = RATIO_MAX_DEN,
                         tol: float = RATIO_TOL):
    """Nearest fraction with denominator <= max_den, or None if the best one
    misses x by more than tol (relative)."""
    frac = Fraction(x).limit_denominator(max_den)
    if abs(x - frac) <= tol * max(1.0, abs(x)):
        return frac
    return None


def eigenratio(field: PlaneField, p, max_den: int = RATIO_MAX_DEN,
               tol: float = RATIO_TOL) -> EigenratioResult:
    """Ratio of the linearization eigenvalues at a zero p of the field,
    canonicalized to |ratio| <= 1 (ties broken toward Im >= 0), plus its
    trajectory-type classification."""
    z, w = complex(p[0]), complex(p[1])
    jac = field.jacobian(z, w)
    jnorm = max(abs(jac[0][0]), abs(jac[0][1]), abs(jac[1][0]),
                abs(jac[1][1]), 1.0)
    pv, qv = field(z, w)
    if abs(pv) + abs(qv) > 1e-10 * jnorm * (1.0 + abs(z) + abs(w)):
        raise DomainError("point %r is not a zero of the field" % (p,))
    tr = jac[0][0] + jac[1][1]
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    disc = cmath.sqrt(tr * tr - 4.0 * det)
    eig1 = (tr + disc) / 2.0
    eig2 = (tr - disc) / 2.0
    if min(abs(eig1), abs(eig2)) <= 1e-12 * jnorm:
        raise DomainError("degenerate linearization: zero eigenvalue")
    ratio = eig1 / eig2
    if abs(ratio) > 1.0 + 1e-12:
        ratio = 1.0 / ratio
    elif abs(abs(ratio) - 1.0) <= 1e-12 and ratio.imag < 0:
        ratio = 1.0 / ratio
    if abs(ratio.imag) > tol * (1.0 + abs(ratio)):
        kind = RatioClass.NON_REAL_TYPE_C
    else:
        frac = rational_reconstruct(ratio.real, max_den, tol)
        if frac is None:
            kind = RatioClass.IRRATIONAL_REAL_TYPE_C
        elif frac > 0:
            kind = RatioClass.POSITIVE_RATIONAL_TYPE_C_STAR
        else:
            kind = RatioClass.NEGATIVE_RATIONAL_OR_OTHER
    return EigenratioResult(ratio, kind)


# ---------------------------------------------------------------------------
# closed flows

def closed_flow_family(spec, t, p):
    """Time-t flow of a family (i), (ii), or (iii) member from p, written in
    phi-type integrals (phi1 and phi1_power_integral) that stay accurate at
    every rate, 0 included.  NumericalError when the flow leaves the float
    range."""
    t = complex(t)
    flow = _CLOSED_FLOWS.get(type(spec))
    if flow is None:
        raise DomainError("closed flows cover families (i)-(iii) only")
    spec.validate()
    try:
        out = flow(spec, t, p)
    except OverflowError as exc:
        raise NumericalError("closed flow overflows at t = %r" % (t,)) from exc
    if not all(cmath.isfinite(v) for v in out):
        raise NumericalError("closed flow leaves the float range at t = %r"
                             % (t,))
    return out


def _flow_family_i(spec: FamilyI, t, p):
    # x(s) = x0 + c1·s·phi1(a s), so the integral of M(x(s)) is
    # sum_l M^(l)(x0)/l!·c1^l·t^(l+1)·phi1_power_integral(l, a t)
    x0, y0 = complex(p[0]), complex(p[1])
    a = complex(spec.a)
    c1 = a * x0 + complex(spec.b)
    integral = t * sum(c * (c1 * t) ** l * phi1_power_integral(l, a * t)
                       for l, c in enumerate(spec.multiplier.shift(x0).coeffs))
    return (x0 + c1 * t * phi1(a * t), y0 * cmath.exp(integral))


def _flow_family_ii(spec: FamilyII, t, p):
    # the monomial x^m y^n grows like e^(n a s)
    x0, y0 = complex(p[0]), complex(p[1])
    a = complex(spec.a)
    mono = x0 ** spec.m * y0 ** spec.n
    integral = t * sum(c * mono ** j * phi1(j * spec.n * a * t)
                       for j, c in enumerate(spec.multiplier.coeffs))
    return (x0 * cmath.exp(spec.n * integral),
            y0 * cmath.exp(a * t - spec.m * integral))


def _flow_family_iii(spec: FamilyIII, t, p):
    z0, w0 = complex(p[0]), complex(p[1])
    a, k = complex(spec.a), spec.k
    tail = spec.tail
    partial = 0j  # sum of tail_j z0^{j-k} t phi1(j a t)
    for j in range(k, len(tail.coeffs)):
        c = tail.coeffs[j]
        if c == 0:
            continue
        partial += c * z0 ** (j - k) * t * phi1(j * a * t)
    lowered_integral = z0 ** k * partial
    total = -a * k * t + lowered_integral
    w1 = (w0 * cmath.exp(total)
          - cmath.exp(-a * k * t) * partial * phi1(lowered_integral))
    return (z0 * cmath.exp(a * t), w1)


_CLOSED_FLOWS = {FamilyI: _flow_family_i, FamilyII: _flow_family_ii,
                 FamilyIII: _flow_family_iii}


# ---------------------------------------------------------------------------
# graph relabeling and first integrals

def lbl_automorphism(cert: GapCertificate, k: int | None = None
                     ) -> FiberAutomorphism:
    """Fiber automorphism w -> e^{-g1}(w - h) sending graph(cert.s) onto the
    graph of 1/(z - z0)^k for the unique pole z0 of s."""
    poles = cert.pole_data
    if len(poles) != 1:
        raise DomainError("graph relabeling needs exactly one pole, found %d"
                          % (len(poles),))
    order = poles[0].order
    if k is not None and k != order:
        raise DomainError("pole order is %d, not %d" % (order, k))
    gamma = PolyNode.of(-cert.g1)
    return FiberAutomorphism(gamma, Neg.of(Prod.of(Exp.of(gamma), cert.h)))


@dataclass(frozen=True)
class DriftReport:
    max_drift: float
    max_oracle_drift: float
    n_samples: int
    passed: bool

    def to_json(self):
        return {"max_drift": self.max_drift,
                "max_oracle_drift": self.max_oracle_drift,
                "n_samples": self.n_samples,
                "passed": self.passed}


def first_integral_check(spec: ScalingField, starts, times,
                         use_oracle: bool = True, rtol: float = 1e-12,
                         tol: float = 1e-8) -> DriftReport:
    """Relative drift of y^r/x^s along the flow of r·x d/dx + s·y d/dy."""
    from .oracle import IntegrationSpec, integrate

    spec.validate()
    field = instantiate_family(spec)
    drift = 0.0
    oracle_drift = 0.0
    count = 0
    for x0, y0 in starts:
        x0, y0 = complex(x0), complex(y0)
        if x0 == 0:
            raise DomainError("first integral is undefined on x = 0")
        level = y0 ** spec.r / x0 ** spec.s
        ref = max(1.0, abs(level))
        for t in times:
            t = complex(t)
            x1 = x0 * cmath.exp(spec.r * t)
            y1 = y0 * cmath.exp(spec.s * t)
            drift = max(drift, abs(y1 ** spec.r / x1 ** spec.s - level) / ref)
            count += 1
            if use_oracle:
                res = integrate(field, (x0, y0),
                                IntegrationSpec(path=(t,), rtol=rtol))
                xo, yo = res.endpoint
                oracle_drift = max(oracle_drift,
                                   abs(yo ** spec.r / xo ** spec.s - level)
                                   / ref)
    worst = max(drift, oracle_drift)
    return DriftReport(drift, oracle_drift, count, worst < tol)
