"""End-to-end seeded checks behind `holodom verify` and the acceptance tests.

Each suite exercises one advertised guarantee of the package against an
independent route: a frozen worked value, a hand-derived formula, or the
numerical oracle.  Suites are deterministic functions of their seed and
return a CriterionReport rather than raising on failure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .catalog import (
    FamilyI,
    FamilyII,
    FamilyIII,
    FamilyIV,
    GraphCurve,
    ScalingField,
    alpha_conjugate,
    canonical_ratio,
    first_integral_check,
    instantiate_family,
    lbl_automorphism,
    pole_graph_curve,
    pushforward,
    tables_allclose,
    tangency_check,
    eigenratio,
)
from .covering import CuspCurve
from .entire import PolyNode
from .errors import EscapeError, NotHolomorphicError, NumericalError
from .gap import construct_gap, verify_gap
from .oracle import IntegrationSpec, integrate, monodromy_check
from .poly import Poly, RationalFn
from .riccati import (
    DoubleSection,
    RiccatiField,
    SpherePoint,
    default_section,
    dominating_map_g,
    verify_section_avoids,
)
from .sampling import rng_from_seed, sample_annulus, sample_disk
from .vertical import DominatingMapF, VerticalFieldZu


@dataclass(frozen=True)
class CriterionReport:
    criterion: int
    name: str
    passed: bool
    details: dict

    def to_json(self):
        return {"criterion": self.criterion, "name": self.name,
                "passed": self.passed, "details": self.details}


# ---------------------------------------------------------------------------
# conditioned random instances

def random_section(rng, max_poles=4, max_order=3, num_degree=6,
                   separation=0.7, log_bound=200.0, radius=3.1):
    """Random rational s = q/q1 with its certificate, conditioned to stay in
    floating range: separated poles inside a moderate disk, q bounded away
    from zero at each of them, and g1 bounded on the sampling region (so the
    gap e^{g1}/q1 never underflows to an exact zero)."""
    circle = [radius * cmath.exp(2j * cmath.pi * k / 64) for k in range(64)]
    for _ in range(400):
        n_poles = int(rng.integers(1, max_poles + 1))
        poles = []
        for _ in range(n_poles):
            poles += sample_disk(rng, 1, 0j, 1.6,
                                 avoid=poles, min_dist=separation)
        den = Poly.one()
        budget = num_degree
        for p in poles:
            order = min(int(rng.integers(1, max_order + 1)), budget)
            if order == 0:
                break
            budget -= order
            for _ in range(order):
                den = den * Poly([-p, 1.0])
        num = None
        for _ in range(20):
            deg = int(rng.integers(0, num_degree + 1))
            coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for _ in range(deg + 1)]
            if abs(coeffs[-1]) < 0.2:
                continue
            cand = Poly(coeffs)
            if all(abs(cand(p)) >= 0.3 for p in poles):
                num = cand
                break
        if num is None:
            continue
        s = RationalFn(num, den)
        if s.den.degree != den.degree:
            continue
        cert = construct_gap(s)
        if max(abs(cert.g1(z)) for z in circle) > log_bound:
            continue
        return s, cert
    raise NumericalError("conditioned rational generator starved")


def _scaled_time(rng, rate, cap=8.0, t_max=2.0):
    """Random |t| <= t_max, shrunk so |rate * t| stays below cap."""
    t = sample_disk(rng, 1, 0j, t_max)[0]
    if abs(rate) * abs(t) > cap:
        t *= cap / (abs(rate) * abs(t))
    return t


# ---------------------------------------------------------------------------
# criterion 1: gap certificates

def gap_certificates(seed=0) -> CriterionReport:
    rng = rng_from_seed(seed)
    min_gap = float("inf")
    max_residual = 0.0
    max_mismatch = 0.0
    failures = 0
    for _ in range(100):
        _, cert = random_section(rng)
        rep = verify_gap(cert, n_samples=1000, seed=int(rng.integers(2 ** 31)))
        min_gap = min(min_gap, rep.min_difference)
        max_residual = max(max_residual, rep.jet_residual)
        max_mismatch = max(max_mismatch, rep.consistency)
        failures += 0 if rep.passed else 1

    c_simple = construct_gap(RationalFn(Poly([1.0]), Poly([0.0, 1.0])))
    worked = max([abs(c) for c in c_simple.g1.coeffs] or [0.0])
    worked = max(worked, *(abs(c_simple.h(z)) for z in (0.3, 1.7 - 0.4j)))
    c_two = construct_gap(RationalFn(Poly([0.0, 1.0]), Poly([-1.0, 0.0, 1.0])))
    target = Poly([0.5j * cmath.pi, -0.5j * cmath.pi])
    diff = c_two.g1 - target
    worked = max(worked, *([abs(c) for c in diff.coeffs] or [0.0]))

    passed = (failures == 0 and min_gap > 0.0 and worked <= 1e-10
              and max_mismatch < 1e-6)
    return CriterionReport(1, "gap_certificates", passed, {
        "instances": 100,
        "failures": failures,
        "min_gap": min_gap,
        "max_jet_residual": max_residual,
        "max_consistency": max_mismatch,
        "worked_value_error": worked,
    })


# ---------------------------------------------------------------------------
# criterion 2: closed vertical flow against the oracle

def flow_fidelity(seed=0) -> CriterionReport:
    rng = rng_from_seed(seed)
    worst = 0.0
    jet_cases = 0
    total = 0
    for _ in range(10):
        s, cert = random_section(rng, max_poles=2, max_order=2, num_degree=3,
                                 log_bound=60.0, radius=2.3)
        u = Poly([complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
                  for _ in range(3)])
        field = VerticalFieldZu(s, PolyNode(u))
        poles = [d.pole for d in cert.pole_data]
        for j in range(20):
            if j >= 17:
                # force the series path: walk in until q1 is tiny
                root = poles[int(rng.integers(len(poles)))]
                step = 0.05 * cmath.exp(2j * cmath.pi * rng.uniform())
                z = root + step
                for _ in range(60):
                    if abs(s.den(z)) < 1e-3:
                        break
                    step *= 0.2
                    z = root + step
            else:
                z = sample_disk(rng, 1, 0j, 1.8)[0]
            w = sample_disk(rng, 1, 0j, 2.0)[0]
            t = _scaled_time(rng, field.c(z))
            closed = field.flow(t, z, w)[1]
            res = integrate(field.as_callback(), (z, w),
                            IntegrationSpec(path=(t,)))
            err = abs(closed - res.endpoint[1]) / (1.0 + abs(closed))
            worst = max(worst, err)
            jet_cases += 1 if abs(s.den(z)) < 1e-3 else 0
            total += 1
    passed = worst < 1e-7 and jet_cases >= 20 and total == 200
    return CriterionReport(2, "flow_fidelity", passed, {
        "cases": total,
        "near_root_cases": jet_cases,
        "worst_relative_error": worst,
    })


# ---------------------------------------------------------------------------
# criterion 3: group law, period lattice, monodromy

def group_law_and_period(seed=0) -> CriterionReport:
    rng = rng_from_seed(seed)
    worst = 0.0
    for _ in range(8):
        s, cert = random_section(rng, max_poles=2, max_order=2, num_degree=3,
                                 log_bound=60.0, radius=2.3)
        u = Poly([complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
                  for _ in range(2)])
        field = VerticalFieldZu(s, PolyNode(u))
        poles = [d.pole for d in cert.pole_data]
        for _ in range(25):
            z = sample_disk(rng, 1, 0j, 1.8, avoid=poles, min_dist=0.02)[0]
            w = sample_disk(rng, 1, 0j, 2.0)[0]
            rate = field.c(z)
            t1 = _scaled_time(rng, rate, cap=4.0)
            t2 = _scaled_time(rng, rate, cap=4.0)
            joint = field.flow(t1 + t2, z, w)[1]
            split = field.flow(t2, *field.flow(t1, z, w))[1]
            worst = max(worst, abs(joint - split) / (1.0 + abs(joint)))

    simple = VerticalFieldZu(RationalFn(Poly([1.0]), Poly([0.0, 1.0])))
    tau = simple.period(1.0)
    period_err = abs(tau - 2j * cmath.pi)
    full = max(abs(simple.flow(tau, 1.0, w)[1] - w)
               for w in (0j, 2.0 + 0j, -1.0 + 1j))
    half = abs(simple.flow(tau / 2, 1.0, 2.0)[1] - 2.0)
    cb = simple.as_callback()
    mono_full = monodromy_check(cb, (1.0 + 0j, 2.0 + 0j), [tau], rtol=1e-12)
    mono_half = monodromy_check(cb, (1.0 + 0j, 2.0 + 0j), [tau / 2],
                                rtol=1e-12)
    passed = (worst < 1e-9 and period_err < 1e-12 and full < 1e-8
              and half > 0.1 and mono_full < 1e-8 and mono_half > 0.1)
    return CriterionReport(3, "group_law_and_period", passed, {
        "group_law_cases": 200,
        "worst_group_law_error": worst,
        "period_identity_error": full,
        "half_period_displacement": half,
        "oracle_full_period_gap": mono_full,
        "oracle_half_period_gap": mono_half,
    })


# ---------------------------------------------------------------------------
# criterion 4: the u = -g1 exponential identity

def exponential_identity(seed=0) -> CriterionReport:
    rng = rng_from_seed(seed)
    worst = 0.0
    for _ in range(10):
        s, cert = random_section(rng, max_poles=3, max_order=2, num_degree=4,
                                 log_bound=50.0, radius=2.7)
        f = DominatingMapF(cert, PolyNode(-cert.g1))
        poles = [d.pole for d in cert.pole_data]
        for z in sample_disk(rng, 100, 0j, 2.5, avoid=poles, min_dist=0.2):
            g = f.g_value(z)
            t = _scaled_time(rng, g)
            expected = s(z) - cmath.exp(g * t) / g
            got = f(z, t)[1]
            worst = max(worst, abs(got - expected) / (1.0 + abs(expected)))
    passed = worst < 1e-10
    return CriterionReport(4, "exponential_identity", passed, {
        "sections": 10,
        "points_per_section": 100,
        "worst_relative_error": worst,
    })


# ---------------------------------------------------------------------------
# criteria 5 and 6 share a fixed instance set

def _fixed_maps():
    to_pair = [
        (RationalFn(Poly([1.0]), Poly([0.0, 1.0])), None),
        (RationalFn(Poly([1.0, 0.0, 1.0]),
                    Poly([-0.9, 1.0]) * Poly([0.8, -1.0]) * Poly([0.8, -1.0])),
         None),
        (RationalFn(Poly([2.0, 1.0]), Poly([2.0, 2.0, 1.0])),
         PolyNode(Poly([0.2, -0.1]))),
    ]
    out = []
    for s, u in to_pair:
        cert = construct_gap(s)
        out.append((s, DominatingMapF(cert, u)))
    return out


def preimage_round_trip(seed=0) -> CriterionReport:
    rng = rng_from_seed(seed)
    worst = 0.0
    log_count = lin_count = 0
    for s, f in _fixed_maps():
        poles = [d.pole for d in f.cert.pole_data]
        for _ in range(350):
            z = sample_disk(rng, 1, 0j, 2.0, avoid=poles, min_dist=0.05)[0]
            mag = 10.0 ** rng.uniform(math.log10(0.05), math.log10(4.0))
            w0 = s(z) + mag * cmath.exp(2j * cmath.pi * rng.uniform())
            pre = f.preimage(z, w0)
            log_count += 1 if pre.branch == "log" else 0
            zz, ww = f(z, pre.t)
            worst = max(worst, math.hypot(abs(zz - z), abs(ww - w0)))
        for i in range(150):
            z0 = poles[i % len(poles)]
            w0 = sample_disk(rng, 1, 0j, 3.0)[0]
            pre = f.preimage(z0, w0)
            lin_count += 1 if pre.branch == "linear" else 0
            zz, ww = f(z0, pre.t)
            worst = max(worst, math.hypot(abs(zz - z0), abs(ww - w0)))
    passed = worst < 1e-8 and log_count == 1050 and lin_count == 450
    return CriterionReport(5, "preimage_round_trip", passed, {
        "log_branch_cases": log_count,
        "linear_branch_cases": lin_count,
        "worst_round_trip": worst,
    })


def jacobian_determinant(seed=0) -> CriterionReport:
    rng = rng_from_seed(seed)
    worst = 0.0
    min_det = float("inf")
    for _, f in _fixed_maps():
        poles = [d.pole for d in f.cert.pole_data]
        for z in sample_disk(rng, 100, 0j, 2.2, avoid=poles, min_dist=0.15):
            t = _scaled_time(rng, f.field.c(z), cap=3.0)
            det = f.jacobian(z, t)
            min_det = min(min_det, abs(det))
            # z-row of Df is (1, 0), so the determinant is d(f_2)/dt
            d = 2e-6 * (1.0 + abs(t))
            fd = (f(z, t + d)[1] - f(z, t - d)[1]) / (2.0 * d)
            worst = max(worst, abs(det - fd) / abs(det))
    passed = worst < 1e-5 and min_det > 0.0
    return CriterionReport(6, "jacobian_determinant", passed, {
        "points": 300,
        "worst_relative_error": worst,
        "min_abs_determinant": min_det,
    })


# ---------------------------------------------------------------------------
# criterion 7: Riccati flow for the double section w^2 = z

def _lex_sqrt_roots(z):
    r = cmath.sqrt(z)
    lo, hi = sorted([r, -r], key=lambda x: (x.real, x.imag))
    return lo, hi


def double_section_flow(seed=0) -> CriterionReport:
    rng = rng_from_seed(seed)
    section = DoubleSection.from_polys(Poly([1.0]), Poly([]),
                                       Poly([0.0, -1.0]))
    sigma = default_section(section)
    field = RiccatiField(section)
    avoid = verify_section_avoids(sigma, section, n_samples=1000,
                                  seed=int(rng.integers(2 ** 31)))
    worst_mult = worst_formula = worst_oracle = worst_relabel = 0.0
    min_root_dist = float("inf")
    accepted = oracle_runs = 0
    while accepted < 1000:
        z = sample_annulus(rng, 1, inner=0.4, outer=2.0)[0]
        t = sample_disk(rng, 1, 0j, 1.2)[0]
        lo, hi = _lex_sqrt_roots(z)
        lam = lo - hi
        worst_mult = max(worst_mult, abs(field.multiplier(z) - lam))
        if abs(lam * t) > 1.8:
            t *= 1.8 / abs(lam * t)
        growth = cmath.exp(lam * t)
        if abs(growth - 1.0) < 0.05:
            continue
        accepted += 1
        out = dominating_map_g(field, sigma, z, t)
        manual = SpherePoint.finite((lo - growth * hi) / (1.0 - growth))
        worst_formula = max(worst_formula, out.chordal(manual))
        # same flow with the root labels exchanged flips the multiplier sign
        swapped = (hi - lo / growth) / (1.0 - 1.0 / growth)
        worst_relabel = max(worst_relabel,
                            out.chordal(SpherePoint.finite(swapped)))
        for root in section.fiber_roots(z).points:
            min_root_dist = min(min_root_dist, out.chordal(root))
        if oracle_runs < 100:
            oracle_runs += 1
            res = integrate(field.callback_v(), (z, 0j),
                            IntegrationSpec(path=(t,)))
            v_end = res.endpoint[1]
            back = (SpherePoint.infinity() if abs(v_end) < 1e-14
                    else SpherePoint.finite(1.0 / v_end))
            worst_oracle = max(worst_oracle, out.chordal(back))
    passed = (avoid.passed and worst_mult < 1e-10 and worst_formula < 1e-7
              and worst_oracle < 1e-7 and worst_relabel < 1e-10
              and min_root_dist > 0.0)
    return CriterionReport(7, "double_section_flow", passed, {
        "section_avoidance_min": avoid.min_distance,
        "worst_multiplier_error": worst_mult,
        "worst_formula_distance": worst_formula,
        "worst_oracle_distance": worst_oracle,
        "worst_relabel_distance": worst_relabel,
        "min_root_distance": min_root_dist,
        "oracle_runs": oracle_runs,
    })


# ---------------------------------------------------------------------------
# criterion 8: catalog tangency, eigenvalue ratios, shear conjugation

_PULLBACK_INSTANCES = (
    (FamilyIII(1.0, 1, Poly([0.0, 0.6])), Poly([1.0, 0.2])),
    (FamilyIII(2.0, 1, Poly([0.0, -0.4, 0.3])), Poly([0.8, -0.3])),
    (FamilyIII(0.5 + 0.5j, 1, Poly([0.0, 0.5j])), Poly([1.2])),
    (FamilyIII(1.5, 2, Poly([0.0, 0.0, 0.7])), Poly([1.0, 0.0, 0.3])),
    (FamilyIII(-1.0, 2, Poly([0.0, 0.0, -0.2, 0.1])), Poly([0.9, 0.4])),
    (FamilyIII(3.0, 1, Poly([0.0, 0.3, 0.0, -0.2])), Poly([0.7])),
    (FamilyIV(1.0, 1, 3, 2, Poly([0.0, 0.4])), Poly([1.1, -0.2])),
    (FamilyIV(1.0, 1, 2, 1, Poly([0.0, 0.3, -0.2])), Poly([0.6])),
    (FamilyIV(2.0, 2, 5, 2, Poly([0.0, 0.0, 0.6])), Poly([1.0, 0.1])),
    (FamilyIV(-0.5, 2, 3, 1, Poly([0.0, 0.0, 0.25])), Poly([0.8, 0.0, -0.3])),
)


def catalog_tangency_and_ratios(seed=0) -> CriterionReport:
    rng = rng_from_seed(seed)
    worst_graph = worst_pole = 0.0
    for idx, (spec, num) in enumerate(_PULLBACK_INSTANCES):
        den = Poly([0.0] * spec.k + [1.0])
        s = RationalFn(num, den)
        cert = construct_gap(s)
        phi = lbl_automorphism(cert)
        raw = instantiate_family(spec)
        pulled = pushforward(phi.inverse(), raw)
        rep = tangency_check(pulled, GraphCurve(s), n_samples=40,
                             seed=int(rng.integers(2 ** 31)))
        base = tangency_check(raw, pole_graph_curve(spec.k), n_samples=40,
                              seed=int(rng.integers(2 ** 31)))
        worst_graph = max(worst_graph, rep.max_residual)
        worst_pole = max(worst_pole, base.max_residual)

    ratio_cases = [
        (FamilyI(2.0, 0.0, Poly([3.0, 0.5])), (0j, 0j),
         canonical_ratio(2.0 / 3.0)),
        (FamilyII(1.0, 2, 3, Poly([1.0, 0.25])), (0j, 0j),
         canonical_ratio(3.0 / (1.0 - 2.0))),
        (FamilyIII(1.0, 2, Poly([0.0, 0.0, 0.7])), (0j, -0.35 + 0j),
         canonical_ratio(-1.0 / 2.0)),
        (FamilyIV(1.0, 1, 3, 2, Poly([0.0, 1.0])), (0j, 0.5 + 0j),
         canonical_ratio(-1.0)),
    ]
    worst_ratio = 0.0
    kinds = []
    for spec, point, expected in ratio_cases:
        res = eigenratio(instantiate_family(spec), point)
        worst_ratio = max(worst_ratio, abs(res.ratio - expected))
        kinds.append(res.kind.value)

    shear_cases = [
        (FamilyI(1.0, 0.0, Poly([-1.0, 0.5])), 1,
         FamilyIII(1.0, 1, Poly([0.0, 0.5]))),
        (FamilyI(2.0, 0.0, Poly([-4.0, 0.0, 0.3, -0.1])), 2,
         FamilyIII(2.0, 2, Poly([0.0, 0.0, 0.3, -0.1]))),
        (FamilyI(0.5 + 0.25j, 0.0, Poly([-0.5 - 0.25j, 0.0, 1.0])), 1,
         FamilyIII(0.5 + 0.25j, 1, Poly([0.0, 0.0, 1.0]))),
        (FamilyII(1.0, 3, 2, Poly([1.0, 0.7])), 1,
         FamilyIV(1.0, 1, 3, 2, Poly([0.0, 0.7]))),
        (FamilyII(1.0, 5, 2, Poly([1.0, 0.0, 0.3])), 2,
         FamilyIV(1.0, 2, 5, 2, Poly([0.0, 0.0, 0.3]))),
    ]
    shear_ok = all(
        tables_allclose(alpha_conjugate(spec, k), instantiate_family(target))
        for spec, k, target in shear_cases)
    try:
        alpha_conjugate(FamilyI(1.0, 0.0, Poly([2.0, 0.5])), 1)
        reject_ok = False
    except NotHolomorphicError:
        reject_ok = True

    passed = (worst_graph < 1e-9 and worst_pole < 1e-9
              and worst_ratio < 1e-10 and shear_ok and reject_ok)
    return CriterionReport(8, "catalog_tangency_and_ratios", passed, {
        "pullback_instances": len(_PULLBACK_INSTANCES),
        "worst_graph_tangency": worst_graph,
        "worst_pole_tangency": worst_pole,
        "worst_ratio_error": worst_ratio,
        "ratio_kinds": kinds,
        "shear_matches": shear_ok,
        "shear_reject": reject_ok,
    })


# ---------------------------------------------------------------------------
# criterion 9: cusp coverings and scaling first integrals

def covering_identities(seed=0) -> CriterionReport:
    rng = rng_from_seed(seed)
    identity_ok = True
    pairs = 0
    for r in range(2, 10):
        for s in range(2, 10):
            if math.gcd(r, s) != 1:
                continue
            pairs += 1
            for a in (1.0, 2.0, 1.0 + 0.5j):
                identity_ok = identity_ok and CuspCurve(r, s, a).identity_check()

    worst_round = 0.0
    curves = [CuspCurve(2, 3, 1.0), CuspCurve(5, 3, 2.0 + 0.5j),
              CuspCurve(4, 9, 0.7)]
    for curve in curves:
        us = sample_annulus(rng, 300, inner=0.7, outer=1.3)
        vs = sample_annulus(rng, 300, inner=0.7, outer=1.3)
        for u, v in zip(us, vs):
            x, y = curve.gamma(u, v)
            uu, vv = curve.gamma_preimage(x, y)
            worst_round = max(worst_round,
                              abs(uu - u) / (1.0 + abs(u)),
                              abs(vv - v) / (1.0 + abs(v)))

    curve = curves[0]
    members = samples = 0
    zs = sample_annulus(rng, 10000, inner=0.5, outer=1.5)
    ts = sample_disk(rng, 10000, 0j, 2.0)
    for z, t in zip(zs, ts):
        if abs(curve.a - cmath.exp(t)) < 1e-6:
            continue
        samples += 1
        members += 1 if curve.membership(*curve.big_gamma(z, t)) else 0

    drift = 0.0
    drift_ok = True
    for spec in (ScalingField(2, 3), ScalingField(3, 5)):
        starts = list(zip(sample_annulus(rng, 10, inner=0.5, outer=1.5),
                          sample_annulus(rng, 10, inner=0.5, outer=1.5)))
        rep = first_integral_check(spec, starts,
                                   [0.4, 0.35j, -0.25 + 0.3j])
        drift = max(drift, rep.max_drift, rep.max_oracle_drift)
        drift_ok = drift_ok and rep.passed

    passed = (identity_ok and worst_round < 1e-10
              and members == samples and drift_ok)
    return CriterionReport(9, "covering_identities", passed, {
        "coprime_pairs": pairs,
        "identity_ok": identity_ok,
        "worst_round_trip": worst_round,
        "membership_checked": samples,
        "membership_passed": members,
        "worst_integral_drift": drift,
    })


# ---------------------------------------------------------------------------
# criterion 10: oracle convergence and blow-up detection

def oracle_convergence(seed=0) -> CriterionReport:
    del seed  # closed-form references need no sampling
    exponential = lambda z, w: (0j, w)
    quadratic = lambda z, w: (0j, w * w)
    errors = []
    for rtol in (1e-4, 1e-6, 1e-8):
        res = integrate(exponential, (0j, 1.0 + 0j),
                        IntegrationSpec(path=(1.0 + 0j,), rtol=rtol,
                                        atol=rtol * 1e-3))
        errors.append(abs(res.endpoint[1] - math.e))
    converging = all(errors[i + 1] <= errors[i] / 4.0 + 1e-15
                     for i in range(len(errors) - 1))

    res = integrate(quadratic, (0j, 1.0 + 0j),
                    IntegrationSpec(path=(0.5 + 0j,)))
    doubling = abs(res.endpoint[1] - 2.0)

    tau = None
    try:
        integrate(quadratic, (0j, 1.0 + 0j), IntegrationSpec(path=(1.0 + 0j,)))
        escaped = False
    except EscapeError as exc:
        tau = exc.tau_reached
        escaped = 0.99 <= tau <= 1.0

    passed = converging and doubling < 1e-8 and escaped
    return CriterionReport(10, "oracle_convergence", passed, {
        "endpoint_errors": errors,
        "doubling_error": doubling,
        "escape_time": tau,
    })


# ---------------------------------------------------------------------------

SUITES = (
    gap_certificates,
    flow_fidelity,
    group_law_and_period,
    exponential_identity,
    preimage_round_trip,
    jacobian_determinant,
    double_section_flow,
    catalog_tangency_and_ratios,
    covering_identities,
    oracle_convergence,
)


def run_all(seed=0):
    """Run every acceptance suite; suite k gets the derived seed + 100*k."""
    return [fn(seed + 100 * k) for k, fn in enumerate(SUITES)]
