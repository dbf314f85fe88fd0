"""Closed expression trees for entire functions of one variable.

Nodes: Const, Var, PolyNode, Sum, Prod, Neg, Exp, RemovableQuotient.
Every tree evaluates, differentiates symbolically, and produces truncated
Taylor jets at arbitrary centers.  RemovableQuotient(numer, den, roots)
asserts at construction that numer vanishes at every root of den to the
root's order, so the quotient extends to an entire function; evaluation
switches to a cached local series near denominator roots.

The raw constructors build exactly the tree asked for, which keeps
certificate JSON stable; the smart constructors Sum.of, Prod.of, Neg.of,
Exp.of and PolyNode.of fold polynomial content so that symbolic work such
as pushforwards keeps its trees small.

The phi-type functions of exponential integrators live here too: phi1(x) =
(e^x - 1)/x, and phi1_power_integral, the integral of (u·phi1(x u))^l over
[0, 1], which the closed catalogue flows are written in.  Both stay accurate
as x goes to 0.
"""

from __future__ import annotations

import cmath
import itertools
import math

from .errors import DomainError
from .poly import (Poly, poly_roots, series_add, series_div, series_exp,
                   series_mul)

EPS_JET = 1e-8        # removability residual, relative to the magnitude jet
SERIES_FACTOR = 1e-2  # series-fallback threshold factor for |den(z)|
JET_EXTRA = 8         # jet order beyond the root multiplicity


class EntireExpr:
    """Base class; subclasses implement _eval, derive, jet, to_json."""

    def __call__(self, z):
        return self._eval(complex(z))

    def derive(self):
        raise NotImplementedError

    def jet(self, z0, order):
        """Taylor coefficients at z0 through the given order."""
        raise NotImplementedError

    def magnitude_jet(self, z0, order):
        """Coefficientwise majorant of the jet with no interior cancellation.

        Sums and products combine the majorants of their operands, so an
        identically-zero combination like q - e^(g1) still reports the size
        of its pieces; that is the yardstick for removability residuals.
        """
        return [abs(c) for c in self.jet(z0, order)]

    def to_json(self):
        raise NotImplementedError

    def as_poly(self):
        """Poly content of the tree, or None if it is not a polynomial in
        Const/PolyNode leaves under Sum, Prod and Neg."""
        return None

    is_zero = False  # structurally zero: Const(0) or a zero PolyNode

    def __repr__(self):
        return "%s(...)" % type(self).__name__


class Const(EntireExpr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = complex(value)

    def _eval(self, z):
        return self.value

    def derive(self):
        return Const(0)

    def jet(self, z0, order):
        return [self.value] + [0j] * order

    def to_json(self):
        return {"op": "const", "value": [self.value.real, self.value.imag]}

    def as_poly(self):
        return Poly([self.value])

    @property
    def is_zero(self):
        return self.value == 0

    def __repr__(self):
        return "Const(%r)" % (self.value,)


class Var(EntireExpr):
    def _eval(self, z):
        return z

    def derive(self):
        return Const(1)

    def jet(self, z0, order):
        out = [0j] * (order + 1)
        out[0] = complex(z0)
        if order >= 1:
            out[1] = 1.0 + 0j
        return out

    def to_json(self):
        return {"op": "var"}


class PolyNode(EntireExpr):
    __slots__ = ("poly",)

    def __init__(self, poly):
        self.poly = poly if isinstance(poly, Poly) else Poly(poly)

    @staticmethod
    def of(p: Poly) -> EntireExpr:
        """Const for degree <= 0, else PolyNode."""
        if p.degree <= 0:
            return Const(p.coeffs[0] if p.coeffs else 0.0)
        return PolyNode(p)

    def _eval(self, z):
        return self.poly(z)

    def derive(self):
        return PolyNode(self.poly.deriv())

    def jet(self, z0, order):
        return self.poly.jet(z0, order)

    def to_json(self):
        return {"op": "poly", "coeffs": self.poly.to_json()}

    def as_poly(self):
        return self.poly

    @property
    def is_zero(self):
        return self.poly.is_zero

    def __repr__(self):
        return "PolyNode(%r)" % (self.poly,)


class Sum(EntireExpr):
    __slots__ = ("args",)

    def __init__(self, args):
        self.args = tuple(args)
        if not self.args:
            raise DomainError("empty Sum")

    @staticmethod
    def of(*terms) -> EntireExpr:
        """Sum with nested sums flattened and polynomial terms folded into
        one leading Poly; Const(0) when nothing is left."""
        flat = []
        for t in terms:
            flat.extend(t.args if isinstance(t, Sum) else (t,))
        poly_acc = Poly()
        rest = []
        for t in flat:
            p = t.as_poly()
            if p is None:
                rest.append(t)
            else:
                poly_acc = poly_acc + p
        if not poly_acc.is_zero or not rest:
            rest.insert(0, PolyNode.of(poly_acc))
        return rest[0] if len(rest) == 1 else Sum(rest)

    def _eval(self, z):
        return sum(a._eval(z) for a in self.args)

    def derive(self):
        return Sum([a.derive() for a in self.args])

    def jet(self, z0, order):
        out = [0j] * (order + 1)
        for a in self.args:
            out = series_add(out, a.jet(z0, order))
        return out[: order + 1]

    def magnitude_jet(self, z0, order):
        out = [0.0] * (order + 1)
        for a in self.args:
            out = [x + y for x, y in zip(out, a.magnitude_jet(z0, order))]
        return out

    def to_json(self):
        return {"op": "sum", "args": [a.to_json() for a in self.args]}

    def as_poly(self):
        acc = Poly()
        for a in self.args:
            inner = a.as_poly()
            if inner is None:
                return None
            acc = acc + inner
        return acc


class Prod(EntireExpr):
    __slots__ = ("args",)

    def __init__(self, args):
        self.args = tuple(args)
        if not self.args:
            raise DomainError("empty Prod")

    @staticmethod
    def of(*factors) -> EntireExpr:
        """Product with Neg signs pulled out, nested products flattened and
        polynomial factors folded into one leading Poly; Const(0) when that
        Poly vanishes."""
        flat = []
        sign = 1.0
        for f in factors:
            while isinstance(f, Neg):
                sign = -sign
                f = f.arg
            flat.extend(f.args if isinstance(f, Prod) else (f,))
        poly_acc = Poly([sign])
        rest = []
        for f in flat:
            p = f.as_poly()
            if p is None:
                rest.append(f)
            else:
                poly_acc = poly_acc * p
        if poly_acc.is_zero:
            return Const(0)
        if poly_acc != Poly.one() or not rest:
            rest.insert(0, PolyNode.of(poly_acc))
        return rest[0] if len(rest) == 1 else Prod(rest)

    def _eval(self, z):
        acc = 1.0 + 0j
        for a in self.args:
            acc *= a._eval(z)
        return acc

    def derive(self):
        terms = []
        for k in range(len(self.args)):
            factors = list(self.args)
            factors[k] = factors[k].derive()
            terms.append(Prod(factors))
        return Sum(terms)

    def jet(self, z0, order):
        out = self.args[0].jet(z0, order)
        for a in self.args[1:]:
            out = series_mul(out, a.jet(z0, order), order)
        return out

    def magnitude_jet(self, z0, order):
        out = self.args[0].magnitude_jet(z0, order)
        for a in self.args[1:]:
            out = series_mul(out, a.magnitude_jet(z0, order), order)
        return [abs(c) for c in out]

    def to_json(self):
        return {"op": "prod", "args": [a.to_json() for a in self.args]}

    def as_poly(self):
        acc = Poly.one()
        for a in self.args:
            inner = a.as_poly()
            if inner is None:
                return None
            acc = acc * inner
        return acc


class Neg(EntireExpr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg

    @staticmethod
    def of(e: EntireExpr) -> EntireExpr:
        """-e with double negation cancelled and constants negated in place."""
        if isinstance(e, Neg):
            return e.arg
        if isinstance(e, Const):
            return Const(-e.value)
        if isinstance(e, PolyNode):
            return PolyNode(-e.poly)
        return Neg(e)

    def _eval(self, z):
        return -self.arg._eval(z)

    def derive(self):
        return Neg(self.arg.derive())

    def jet(self, z0, order):
        return [-c for c in self.arg.jet(z0, order)]

    def magnitude_jet(self, z0, order):
        return self.arg.magnitude_jet(z0, order)

    def to_json(self):
        return {"op": "neg", "arg": self.arg.to_json()}

    def as_poly(self):
        inner = self.arg.as_poly()
        return None if inner is None else -inner


class Exp(EntireExpr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg

    @staticmethod
    def of(e: EntireExpr) -> EntireExpr:
        """e^e, folded to a Const when e is one."""
        if isinstance(e, Const):
            return Const(cmath.exp(e.value))
        return Exp(e)

    def _eval(self, z):
        return cmath.exp(self.arg._eval(z))

    def derive(self):
        return Prod([self.arg.derive(), Exp(self.arg)])

    def jet(self, z0, order):
        return series_exp(self.arg.jet(z0, order), order)

    def magnitude_jet(self, z0, order):
        # exp has nonnegative Taylor coefficients, so it maps majorants
        # to majorants
        out = series_exp(self.arg.magnitude_jet(z0, order), order)
        return [abs(c) for c in out]

    def to_json(self):
        return {"op": "exp", "arg": self.arg.to_json()}


class RemovableQuotient(EntireExpr):
    """numer/den where den's roots are all removable singularities of the quotient.

    The caller supplies den's roots as (root, multiplicity) pairs, as
    poly_roots returns them; the multiplicities must sum to den's degree.
    Construction fails unless the jet of numer at every root of den vanishes
    through (multiplicity - 1), relative tolerance EPS_JET.  A local quotient
    series of order multiplicity + JET_EXTRA is cached per root and used for
    evaluation within r_series of that root, where r_series is 1e-2 times the
    minimal pairwise root distance of den (capped at 1); the truncated series
    is only accurate well inside the root separation, so the switch is on
    distance, not on |den(z)|, which a multiple root keeps small far out.
    """

    __slots__ = ("numer", "den", "_roots", "_series", "_radius")

    def __init__(self, numer: EntireExpr, den: Poly, roots):
        if den.degree < 1:
            raise DomainError("RemovableQuotient denominator must be nonconstant")
        if sum(m for _, m in roots) != den.degree:
            raise DomainError("root multiplicities do not sum to degree %d"
                              % den.degree)
        self.numer = numer
        self.den = den
        self._roots = roots
        centers = [r for r, _ in self._roots]
        dists = [abs(centers[i] - centers[j])
                 for i in range(len(centers)) for j in range(i)]
        self._radius = SERIES_FACTOR * min(dists + [1.0])
        self._series = {}
        for root, mult in self._roots:
            order = mult + JET_EXTRA
            njet = self.numer.jet(root, order)
            djet = den.jet(root, order)
            scale = max(self.numer.magnitude_jet(root, order)) or 1.0
            for k in range(mult):
                if abs(njet[k]) > EPS_JET * scale:
                    raise DomainError(
                        "quotient not removable at root %r: jet coefficient "
                        "%d has relative size %.3e" % (root, k, abs(njet[k]) / scale))
            quot = series_div(njet[mult:], djet[mult:], order - mult)
            self._series[root] = quot

    def _eval(self, z):
        root = min(self._roots, key=lambda rm: abs(z - rm[0]))[0]
        if abs(z - root) < self._radius:
            return self._eval_series(z, root)
        return self._eval_direct(z)

    def _eval_direct(self, z):
        return self.numer._eval(z) / self.den(z)

    def _eval_series(self, z, root):
        acc = 0j
        for c in reversed(self._series[root]):
            acc = acc * (z - root) + c
        return acc

    def derive(self):
        dnum = Sum([Prod([self.numer.derive(), PolyNode(self.den)]),
                    Neg(Prod([self.numer, PolyNode(self.den.deriv())]))])
        return RemovableQuotient(dnum, self.den * self.den,
                                 [(r, 2 * m) for r, m in self._roots])

    def jet(self, z0, order):
        # multiplicity read off the denominator jet itself, so centers that
        # are (numerically) roots work without root matching
        mult = 0
        for root, m in self._roots:
            if abs(z0 - root) <= 1e-9 * (1.0 + abs(root)):
                mult = m
                break
        work = order + mult
        njet = self.numer.jet(z0, work)
        djet = self.den.jet(z0, work)
        if mult:
            scale = max(self.numer.magnitude_jet(z0, work)) or 1.0
            for k in range(mult):
                if abs(njet[k]) > 1e-6 * scale:
                    raise DomainError("jet center is a non-removable root")
        return series_div(njet[mult:], djet[mult:], order)

    def to_json(self):
        return {"op": "rq", "num": self.numer.to_json(), "den": self.den.to_json()}


def expr_from_json(data) -> EntireExpr:
    op = data["op"]
    if op == "const":
        re, im = data["value"]
        return Const(complex(re, im))
    if op == "var":
        return Var()
    if op == "poly":
        return PolyNode(Poly.from_json(data["coeffs"]))
    if op == "sum":
        return Sum([expr_from_json(a) for a in data["args"]])
    if op == "prod":
        return Prod([expr_from_json(a) for a in data["args"]])
    if op == "neg":
        return Neg(expr_from_json(data["arg"]))
    if op == "exp":
        return Exp(expr_from_json(data["arg"]))
    if op == "rq":
        den = Poly.from_json(data["den"])
        return RemovableQuotient(expr_from_json(data["num"]), den,
                                 poly_roots(den))
    raise DomainError("unknown expression op %r" % (op,))


def phi1(x) -> complex:
    """(e^x - 1)/x, extended by 1 at 0; series path for |x| <= 5e-5."""
    x = complex(x)
    if abs(x) <= 5e-5:
        acc = 0j
        term = 1.0 + 0j
        for k in range(1, 10):
            acc += term
            term = term * x / (k + 1)
        return acc
    if x.real > 700.0:
        # e^x overflows before e^x/x does; e^(x/2)·(e^(x/2)/x) keeps the
        # argument exact
        half = cmath.exp(0.5 * x)
        return half * (half / x) - 1.0 / x
    if x.real < -700.0:
        # sinh(x/2) overflows here, and e^x - 1 cannot cancel
        return (cmath.exp(x) - 1.0) / x
    # e^x - 1 as 2 e^(x/2) sinh(x/2): the plain difference cancels for
    # small |x|, costing up to 1e-12 relative just above the series cutoff
    half = 0.5 * x
    return 2.0 * cmath.exp(half) * cmath.sinh(half) / x


def phi1_power_integral(l: int, x) -> complex:
    """Integral of (u·phi1(x u))^l over u in [0, 1], so that the integral of
    (s·phi1(a s))^l over s in [0, t] is t^(l+1)·phi1_power_integral(l, a t).

    For |x| <= 1 the series l!·sum_n S(n, l)·x^(n-l)/((n+1)·n!) over the
    Stirling numbers S of the second kind, which has no cancellation as x
    goes to 0.  Above, the recurrence J_0 = 1, J_k = (phi1(x)^k/k - J_(k-1))/x,
    from d(E^k)/du = k·E^(k-1)·(1 + x E) with E = u·phi1(x u); each step
    divides the error by |x| > 1, so it is stable there.  phi1(x)^k is a
    running product, so leaving the float range gives inf, not OverflowError.
    """
    x = complex(x)
    if not abs(x) <= 1.0:  # NaN included: the series would never stop
        e1 = phi1(x)
        e1_k, acc = 1.0 + 0j, 1.0 + 0j
        for k in range(1, l + 1):
            e1_k *= e1
            acc = (e1_k / k - acc) / x
        return acc
    row = [1] + [0] * l  # S(n, k) for k = 0..l, advanced with n
    n_fact = 1
    acc, mass = 0j, 0.0
    for n in itertools.count():
        if n >= l:
            term = (math.factorial(l) * row[l] / ((n + 1) * n_fact)
                    * x ** (n - l))
            acc += term
            mass += abs(term)
            if abs(term) <= 1e-17 * mass:
                return acc
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, l + 1)]
        n_fact *= n + 1
