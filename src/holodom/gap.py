"""Gap certificates: an entire graph inside the complement of a rational graph.

Given rational s = q/q1 (coprime, q1 monic), build a polynomial g1 matching
the jet of Log q at each root of q1 through (order - 1), so that
e^(g1) = q mod q1 and

    h = s - e^(g1)/q1 = (q - e^(g1)) / q1

extends to an entire function whose graph never meets graph(s):
h - s = -e^(g1)/q1 is free of zeros.  The certificate also carries
g = q1 e^(-g1), the entire function with 1/g = s - h.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .entire import (EPS_JET, Const, EntireExpr, Exp, Neg, PolyNode, Prod,
                     RemovableQuotient, Sum)
from .poly import Poly, RationalFn, poly_roots, series_log, vanishes_at
from .sampling import sample_disk


def hermite_interpolate(nodes) -> Poly:
    """Minimal-degree polynomial matching Taylor jets at distinct centers.

    nodes: list of (center, jet) where jet[k] is the prescribed k-th Taylor
    coefficient (derivative / k!).  Degree < total number of conditions.
    """
    if not nodes:
        return Poly()
    centers = [complex(c) for c, _ in nodes]
    for i in range(len(centers)):
        for j in range(i):
            if centers[i] == centers[j]:
                raise DomainError("duplicate interpolation centers")
    xs = []
    jets = []
    for c, jet in nodes:
        if not jet:
            raise DomainError("empty jet at node %r" % (c,))
        xs.extend([complex(c)] * len(jet))
        jets.append([complex(v) for v in jet])
    n = len(xs)
    # confluent divided differences
    table = [[0j] * n for _ in range(n)]
    pos = 0
    for jet in jets:
        for k in range(len(jet)):
            table[pos + k][0] = jet[0]
        pos += len(jet)
    for col in range(1, n):
        for row in range(n - col):
            if xs[row] == xs[row + col]:
                # same center through the whole window: prescribed coefficient
                jet = next(j for c, j in zip(centers, jets) if c == xs[row])
                table[row][col] = jet[col]
            else:
                num = table[row + 1][col - 1] - table[row][col - 1]
                table[row][col] = num / (xs[row + col] - xs[row])
    poly = Poly([table[0][n - 1]])
    for col in range(n - 2, -1, -1):
        poly = poly * Poly([-xs[col], 1.0]) + Poly([table[0][col]])
    return poly


@dataclass(frozen=True)
class PoleDatum:
    pole: complex
    order: int
    log_branch: complex  # principal Log of q at the pole

    def to_json(self):
        return {"pole": [self.pole.real, self.pole.imag],
                "order": self.order,
                "log_branch": [self.log_branch.real, self.log_branch.imag]}


@dataclass(frozen=True)
class GapCertificate:
    s: RationalFn
    g1: Poly
    g_expr: EntireExpr     # q1 e^(-g1); 1/g = s - h off the poles
    h: EntireExpr          # entire, graph disjoint from graph(s)
    pole_data: tuple

    def to_json(self):
        return {"s": self.s.to_json(),
                "g1": self.g1.to_json(),
                "g": self.g_expr.to_json(),
                "h": self.h.to_json(),
                "pole_data": [p.to_json() for p in self.pole_data]}


def construct_gap(s: RationalFn) -> GapCertificate:
    """Build the gap certificate for s; raises DomainError on a constant s
    denominator mismatch or non-coprime input."""
    q, q1 = s.num, s.den
    if q1.degree < 1:
        # no poles: q1 = 1 after normalization, h = s - 1
        g1 = Poly()
        g_expr = Prod([PolyNode(q1), Exp(Neg(PolyNode(g1)))])
        h = Sum([PolyNode(q), Const(-1.0)])
        return GapCertificate(s, g1, g_expr, h, ())
    roots = poly_roots(q1)
    nodes = []
    data = []
    for pole, order in roots:
        if vanishes_at(q, pole):
            raise DomainError("num and den share the root %r" % (pole,))
        qjet = q.jet(pole, max(order - 1, 0))
        logjet = series_log(qjet, order - 1)  # principal branch at the value
        nodes.append((pole, logjet))
        data.append(PoleDatum(pole, order, logjet[0]))
    g1 = hermite_interpolate(nodes)
    numer = Sum([PolyNode(q), Neg(Exp(PolyNode(g1)))])
    h = RemovableQuotient(numer, q1, roots)
    g_expr = Prod([PolyNode(q1), Exp(Neg(PolyNode(g1)))])
    return GapCertificate(s, g1, g_expr, h, tuple(data))


@dataclass(frozen=True)
class GapReport:
    min_difference: float
    argmin: complex
    pole_circle_max: float
    jet_residual: float
    consistency: float
    samples: int
    passed: bool

    def to_json(self):
        return {"min_difference": self.min_difference,
                "argmin": [self.argmin.real, self.argmin.imag],
                "pole_circle_max": self.pole_circle_max,
                "jet_residual": self.jet_residual,
                "consistency": self.consistency,
                "samples": self.samples,
                "passed": self.passed}


def verify_gap(cert: GapCertificate, n_samples: int = 1000, seed: int = 0,
               center: complex = 0j, radius: float = 3.0) -> GapReport:
    """Sampled evidence that graph(h) avoids graph(s).

    The separation s - h equals 1/g = e^(g1)/q1 identically, so the minimum
    of |h - s| is found and judged in log space; direct subtraction would
    cancel to exact zero once e^(Re g1) drops below machine precision
    against |q|.  A minimum below the float range is reported as 0.0.
    The report's consistency entry bounds |(s - h) - 1/g| at every sample,
    scaled by the operand magnitudes, so a wrong h cannot hide behind the
    identity.  Also reports max |h| on circles of radius 1e-2 around each
    pole and the removability jet residual of the h numerator at each pole.
    """
    rng = np.random.default_rng(seed)
    poles = [p.pole for p in cert.pole_data]
    pts = sample_disk(rng, n_samples, center, radius,
                      avoid=poles, min_dist=1e-8)
    best_log = math.inf
    argmin = 0j
    mismatch = 0.0
    for z in pts:
        denv = cert.s.den(z)
        g1v = cert.g1(z)
        log_gap = g1v.real - math.log(max(abs(denv), 5e-324))
        if log_gap < best_log:
            best_log = log_gap
            argmin = z
        if g1v.real <= 650.0:
            # beyond this e^(g1) overflows in h, so only the log gap is kept
            hv = cert.h(z)
            sv = cert.s.num(z) / denv
            gap = cmath.exp(g1v) / denv
            scale = 1.0 + abs(sv) + abs(hv) + abs(gap)
            mismatch = max(mismatch, abs((sv - hv) - gap) / scale)
    circle_max = 0.0
    for p in poles:
        for k in range(32):
            z = p + 1e-2 * cmath.exp(2j * cmath.pi * k / 32)
            circle_max = max(circle_max, abs(cert.h(z)))
    residual = 0.0
    for datum in cert.pole_data:  # h is a RemovableQuotient when q1 has roots
        pole, order = datum.pole, datum.order
        njet = cert.h.numer.jet(pole, order + 4)
        scale = max(cert.h.numer.magnitude_jet(pole, order + 4)) or 1.0
        for k in range(order):
            residual = max(residual, abs(njet[k]) / scale)
    passed = best_log > -math.inf and residual < EPS_JET
    return GapReport(math.exp(min(best_log, 700.0)), argmin, circle_max,
                     residual, mismatch, n_samples, passed)
