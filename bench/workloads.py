"""The four workloads as seeded lists of checked operations.

An op's `run(hook)` is the timed part: it calls the library only through
the hook (see tracing.py).  `check(outcome)` compares the result, or the
exception `run` raised, with a reference that does not come from the code
path under test, and returns None on a pass or a short failure label.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import gen
from holodom.catalog import (FamilyI, FamilyII, FamilyIII, ScalingField,
                             closed_flow_family, instantiate_family)
from holodom.covering import CuspCurve
from holodom.entire import PolyNode
from holodom.errors import DomainError, EscapeError, NumericalError
from holodom.gap import construct_gap, verify_gap
from holodom.oracle import IntegrationSpec, integrate
from holodom.poly import Poly, RationalFn
from holodom.riccati import (DoubleSection, RiccatiField, default_section,
                             dominating_map_g)
from holodom.vertical import DominatingMapF, VerticalFieldZu


@dataclass
class Op:
    kind: str
    run: object
    check: object
    replay: dict = field(default_factory=dict)  # inputs the traced run replays


@dataclass
class Workload:
    ops: list
    warmup: int              # ops run untimed at the end of set-up
    trace_lap: int           # ops in the traced run's lap
    known_defects: frozenset = frozenset()


def _failed(outcome):
    return isinstance(outcome, BaseException)


def _label(exc):
    return type(exc).__name__


def interleave(counts):
    """Kinds spread evenly over one cycle: {kind: n} -> list of kinds."""
    total = sum(counts.values())
    slots = [((k + 0.5) * total / n, kind) for kind, n in counts.items()
             for k in range(n)]
    return [kind for _, kind in sorted(slots)]


def _rational(sec):
    return RationalFn(Poly(sec.num), Poly(sec.den))


# ---------------------------------------------------------------------------
# certify: construct_gap + verify_gap on criterion 1's distribution

CERTIFY_POOL = 600       # one pass takes about 11 s on a 2-vCPU host
VERIFY_SAMPLES = 1000
CONSISTENCY_GATE = 1e-6
G1_TOL = 1e-6      # double poles come back from poly_roots ~1e-8 off, moving g1 as much

# Today's defects, counted as failed ops (see METRICS.md): on draws without
# the |g1| bound a raw OverflowError from cert.h(z) inside verify_gap, and
# passed=False because the log-space gap underflows to exactly 0; on any
# draw, poly_roots splitting a triple pole into three simple roots about
# 1e-5 apart, so construct_gap certifies the wrong pole structure and
# verify_gap, reusing those roots, passes it.
CERTIFY_KNOWN = frozenset({"unbounded:OverflowError", "unbounded:gap-underflow",
                           "pole-orders", "unbounded:pole-orders"})


def _certify_op(sec, s, vseed):
    def run(hook):
        cert = hook.call("gap.construct_gap", construct_gap, s)
        rep = hook.call("gap.verify_gap", verify_gap, cert,
                        n_samples=VERIFY_SAMPLES, seed=vseed)
        return cert, rep

    prefix = "" if sec.bounded else "unbounded:"

    def check(out):
        if _failed(out):
            if not sec.bounded and isinstance(out, (DomainError, NumericalError)):
                return None  # a precise refusal is acceptable off the bound
            return prefix + _label(out)
        cert, rep = out
        if not rep.passed:
            return prefix + ("gap-underflow" if rep.min_difference == 0.0
                             else "not-passed")
        if not rep.consistency < CONSISTENCY_GATE:
            return prefix + "consistency"
        if sorted(d.order for d in cert.pole_data) != sorted(m for _, m in sec.poles):
            return prefix + "pole-orders"
        got = list(cert.g1.coeffs)
        want = list(sec.g1)
        n = max(len(got), len(want))
        got += [0j] * (n - len(got))
        want += [0j] * (n - len(want))
        scale = 1.0 + max([abs(c) for c in want] or [0.0])
        if any(abs(a - b) > G1_TOL * scale for a, b in zip(got, want)):
            return prefix + "g1-mismatch"
        return None

    return Op("bounded" if sec.bounded else "unbounded", run, check,
              {"s": s, "seed": vseed})


def build_certify(seed, root):
    rng = gen.rng_for("certify", seed)
    ops = []
    for i in range(CERTIFY_POOL):
        sec = gen.draw_section(rng, bounded=(i % 10 != 9))
        ops.append(_certify_op(sec, _rational(sec), rng.randrange(2 ** 31)))
    return Workload(ops, warmup=3, trace_lap=40,
                    known_defects=CERTIFY_KNOWN)


# ---------------------------------------------------------------------------
# crosscheck: closed-form flows against the oracle

CROSS_CYCLES = 5          # pool of 5 x 200 ops, one pass about 16 s
GROUP = 20                # trajectories per field
FLOW_TOL = 1e-7
CT_MAX = 8.0              # |c t| of a vertical trajectory
T_MAX = 8.0
ESCAPE_TAU = (0.99, 1.0)


def _quadratic(z, w):
    return (0j, w * w)


def _vertical_op(fld, cb, z, w, t):
    spec = IntegrationSpec(path=(t,))

    def run(hook):
        closed = hook.call("vertical.flow", fld.flow, t, z, w)[1]
        res = hook.call("oracle.integrate", integrate,
                        hook.field("vertical", cb), (z, w), spec)
        return closed, res

    def check(out):
        if _failed(out):
            return _label(out)
        closed, res = out
        return None if gen.rel_err(res.endpoint[1], closed) < FLOW_TOL else "flow-mismatch"

    return run, check


def _riccati_op(rf, sigma, cbv, z, t, manual):
    spec = IntegrationSpec(path=(t,))

    def run(hook):
        out = hook.call("riccati.dominating_map_g", dominating_map_g, rf, sigma, z, t)
        res = hook.call("oracle.integrate", integrate,
                        hook.field("riccati", cbv), (z, 0j), spec)
        return out, res

    def check(out):
        if _failed(out):
            return _label(out)
        got, res = out
        v = res.endpoint[1]
        back = None if abs(v) < 1e-14 else 1.0 / v
        if gen.chordal(got.value, back) >= FLOW_TOL:
            return "riccati-oracle-mismatch"
        if gen.chordal(got.value, manual) >= FLOW_TOL:
            return "riccati-formula-mismatch"
        return None

    return run, check


def _scaling_op(pf, r, s, x0, y0, t):
    spec = IntegrationSpec(path=(t,))
    want = (x0 * cmath.exp(r * t), y0 * cmath.exp(s * t))

    def run(hook):
        return hook.call("oracle.integrate", integrate,
                         hook.field("catalog", pf), (x0, y0), spec)

    def check(out):
        if _failed(out):
            return _label(out)
        err = max(gen.rel_err(a, b) for a, b in zip(out.endpoint, want))
        return None if err < FLOW_TOL else "scaling-mismatch"

    return run, check


def _blowup_op():
    spec = IntegrationSpec(path=(1.0 + 0j,))

    def run(hook):
        return hook.call("oracle.integrate", integrate,
                         hook.field("quadratic", _quadratic), (0j, 1.0 + 0j), spec)

    def check(out):
        if isinstance(out, EscapeError):
            lo, hi = ESCAPE_TAU
            return None if lo <= out.tau_reached <= hi else "escape-tau"
        return _label(out) if _failed(out) else "no-escape"

    return run, check


def _near_root(rng, sec):
    """A point with |q1(z)| < 1e-3, walking in on a random pole."""
    root = sec.poles[rng.randrange(len(sec.poles))][0]
    step = 0.05 * cmath.exp(1j * gen.TWO_PI * rng.random())
    z = root + step
    for _ in range(60):
        if abs(gen.horner(sec.den, z)) < 1e-3:
            break
        step *= 0.2
        z = root + step
    return z


def build_crosscheck(seed, root):
    """Cycles of 200 ops: groups 0-6 vertical fields, 7-8 the Riccati field
    of w^2 = z, 9 a scaling field; op i of a cycle belongs to group i % 10,
    so every stretch of the loop sees the same mix.  The last op of each
    cycle is the blow-up."""
    rng = gen.rng_for("crosscheck", seed)
    section = DoubleSection.from_polys(Poly([1.0]), Poly([]), Poly([0.0, -1.0]))
    rf = RiccatiField(section)
    sigma = default_section(section)
    cbv = rf.callback_v()
    ops = []
    for cycle in range(CROSS_CYCLES):
        groups = []
        for g in range(10):
            if g < 7:
                sec = gen.draw_section(rng, max_poles=2, max_order=2, num_degree=3,
                                       log_bound=60.0, radius=2.3)
                u = [gen.cx_uniform(rng, -0.4, 0.4) for _ in range(3)]
                fld = VerticalFieldZu(_rational(sec), PolyNode(Poly(u)))
                cb = fld.as_callback()
                grp = []
                for j in range(GROUP):
                    psi_path = j % 7 == 3
                    z = _near_root(rng, sec) if psi_path else gen.in_disk(rng, 1.8)
                    w = gen.in_disk(rng, 2.0)
                    c = cmath.exp(gen.horner(u, z)) * gen.horner(sec.den, z)
                    t = gen.time_for_rate(rng, c, CT_MAX, T_MAX, j, GROUP)
                    grp.append(("vertical-psi" if psi_path else "vertical",
                                _vertical_op(fld, cb, z, w, t)))
            elif g < 9:
                grp = [("riccati", _riccati_op(rf, sigma, cbv, *gen.riccati_sqrt_draw(rng)))
                       for _ in range(GROUP)]
            else:
                r, s = ((2, 3), (3, 5))[cycle % 2]
                pf = instantiate_family(ScalingField(r, s))
                grp = [("scaling", _scaling_op(pf, r, s, gen.in_annulus(rng, 0.5, 1.5),
                                               gen.in_annulus(rng, 0.5, 1.5),
                                               gen.in_disk(rng, 0.45)))
                       for _ in range(GROUP)]
            groups.append(grp)
        for i in range(10 * GROUP):
            kind, (run, check) = groups[i % 10][i // 10]
            if i == 10 * GROUP - 1:
                kind, (run, check) = "blowup", _blowup_op()
            ops.append(Op(kind, run, check))
    return Workload(ops, warmup=5, trace_lap=10 * GROUP)


# ---------------------------------------------------------------------------
# closed_form: one prebuilt object evaluated at one random point

CLOSED_POOL = 4000
CLOSED_MIX = {"map": 12, "riccati": 3, "cusp": 3, "group-law": 2}
MAP_TOL = 1e-8
MOBIUS_TOL = 1e-7
CUSP_TOL = 1e-10
GROUP_TOL = 1e-9
N_MAPS = 32


def _map_op(f, sec, u, z, t, pole, w0):
    """Log branch: map, preimage, map back, jacobian at (z, t); linear
    branch: preimage of w0 on the pole fiber, then map back."""
    c = cmath.exp(gen.horner(u, z)) * gen.horner(sec.den, z)
    e = gen.horner(sec.g1, z) + c * t
    w_ref = sec.s(z) - cmath.exp(e) / gen.horner(sec.den, z)
    jac_ref = -cmath.exp(gen.horner(u, z) + e)

    def run(hook):
        w = hook.call("vertical.map", f, z, t)[1]
        pre = hook.call("vertical.preimage.log", f.preimage, z, w)
        back = hook.call("vertical.map", f, z, pre.t)[1]
        jac = hook.call("vertical.jacobian", f.jacobian, z, t)
        pre_lin = hook.call("vertical.preimage.linear", f.preimage, pole, w0)
        back_lin = hook.call("vertical.map", f, pole, pre_lin.t)[1]
        return w, pre, back, jac, pre_lin, back_lin

    def check(out):
        if _failed(out):
            return _label(out)
        w, pre, back, jac, pre_lin, back_lin = out
        if (pre.branch, pre_lin.branch) != ("log", "linear"):
            return "branch"
        if gen.rel_err(w, w_ref) >= MAP_TOL:
            return "map-mismatch"
        if gen.rel_err(back, w) >= MAP_TOL or gen.rel_err(back_lin, w0) >= MAP_TOL:
            return "round-trip"
        return None if abs(jac - jac_ref) < MAP_TOL * abs(jac_ref) else "jacobian"

    return run, check


def _riccati_map_op(rf, sigma, z, t, manual):
    def run(hook):
        return hook.call("riccati.dominating_map_g", dominating_map_g, rf, sigma, z, t)

    def check(out):
        if _failed(out):
            return _label(out)
        return None if gen.chordal(out.value, manual) < MOBIUS_TOL else "mobius-mismatch"

    return run, check


def _cusp_op(curve, u, v, z, t):
    def run(hook):
        x, y = hook.call("covering.gamma", curve.gamma, u, v)
        uv = hook.call("covering.gamma_preimage", curve.gamma_preimage, x, y)
        xy = hook.call("covering.big_gamma", curve.big_gamma, z, t)
        member = hook.call("covering.membership", curve.membership, *xy)
        return uv, member

    def check(out):
        if _failed(out):
            return _label(out)
        (uu, vv), member = out
        if max(gen.rel_err(uu, u), gen.rel_err(vv, v)) >= CUSP_TOL:
            return "gamma-round-trip"
        return None if member is True else "membership"

    return run, check


def _group_law_op(spec, p, t1, t2):
    def run(hook):
        joint = hook.call("catalog.closed_flow_family", closed_flow_family, spec, t1 + t2, p)
        mid = hook.call("catalog.closed_flow_family", closed_flow_family, spec, t1, p)
        split = hook.call("catalog.closed_flow_family", closed_flow_family, spec, t2, mid)
        return joint, split

    def check(out):
        if _failed(out):
            return _label(out)
        joint, split = out
        err = max(gen.rel_err(a, b) for a, b in zip(split, joint))
        return None if err < GROUP_TOL else "group-law"

    return run, check


def _family_specs(rng):
    specs = []
    small = lambda: Poly([gen.cx_uniform(rng, -0.5, 0.5) for _ in range(2)])
    for k, (m, n) in enumerate(((1, 2), (2, 3), (3, 2)) * 3):
        specs.append(FamilyI(gen.cx_uniform(rng), gen.cx_uniform(rng), small()))
        specs.append(FamilyII(gen.cx_uniform(rng), m, n, small()))
        order = 1 + k % 2
        specs.append(FamilyIII(gen.cx_uniform(rng), order,
                               Poly([0j] * order + list(small().coeffs))))
    return specs


CUSP_CURVES = ((2, 3, 1.0), (5, 3, 2.0 + 0.5j), (4, 9, 0.7))


def build_closed_form(seed, root):
    rng = gen.rng_for("closed_form", seed)
    maps = []
    for _ in range(N_MAPS):
        sec = gen.draw_section(rng, max_poles=3, max_order=2, num_degree=4,
                               log_bound=50.0, radius=2.7)
        u = [gen.cx_uniform(rng, -0.2, 0.2) for _ in range(2)]
        maps.append((sec, u, DominatingMapF(construct_gap(_rational(sec)),
                                            PolyNode(Poly(u)))))
    section = DoubleSection.from_polys(Poly([1.0]), Poly([]), Poly([0.0, -1.0]))
    rf = RiccatiField(section)
    sigma = default_section(section)
    curves = [CuspCurve(*c) for c in CUSP_CURVES]
    specs = _family_specs(rng)
    cycle = interleave(CLOSED_MIX)
    ops = []
    for i in range(CLOSED_POOL):
        kind = cycle[i % len(cycle)]
        if kind == "map":
            sec, u, f = maps[rng.randrange(N_MAPS)]
            while True:
                z = gen.in_disk(rng, 2.0)
                if all(abs(z - p) >= 0.05 for p in sec.pole_list()):
                    break
            c = cmath.exp(gen.horner(u, z)) * gen.horner(sec.den, z)
            pole = sec.poles[rng.randrange(len(sec.poles))][0]
            run, check = _map_op(f, sec, u, z, gen.scaled_time(rng, c, 3.0),
                                 pole, gen.in_disk(rng, 3.0))
        elif kind == "riccati":
            run, check = _riccati_map_op(rf, sigma, *gen.riccati_sqrt_draw(rng))
        elif kind == "cusp":
            curve = curves[rng.randrange(len(curves))]
            while True:
                z = gen.in_annulus(rng, 0.5, 1.5)
                t = gen.in_disk(rng, 2.0)
                if abs(curve.a - cmath.exp(t)) >= 1e-6:
                    break
            run, check = _cusp_op(curve, gen.in_annulus(rng, 0.7, 1.3),
                                  gen.in_annulus(rng, 0.7, 1.3), z, t)
        else:
            run, check = _group_law_op(specs[rng.randrange(len(specs))],
                                       (gen.in_disk(rng, 1.0), gen.in_disk(rng, 1.0)),
                                       gen.in_disk(rng, 0.5), gen.in_disk(rng, 0.5))
        ops.append(Op(kind, run, check))
    return Workload(ops, warmup=200, trace_lap=2000)


# ---------------------------------------------------------------------------
# cli_cold: one `python -m holodom.cli` child per op

CLI_TIMEOUT_S = 60.0


def child_env(root):
    env = dict(os.environ)
    env.pop("HOLODOM_SEED", None)  # would override the --seed we pass
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _tok(z):
    z = complex(z)
    return "%r,%r" % (z.real, z.imag)


def _cx_list(coeffs):
    return [[complex(c).real, complex(c).imag] for c in coeffs]


def _canonical_ratio(x):
    if abs(x) > 1.0 + 1e-12:
        x = 1.0 / x
    if abs(abs(x) - 1.0) <= 1e-12 and x.imag < 0:
        x = 1.0 / x
    return x


def _cli_cases(rng):
    """argv tail and a validator of the parsed stdout, per subcommand."""
    sec = gen.draw_section(rng, max_poles=2, max_order=2, num_degree=3,
                           log_bound=60.0, radius=2.3)
    u = [gen.cx_uniform(rng, -0.2, 0.2) for _ in range(2)]
    s_doc = {"num": _cx_list(sec.num), "den": _cx_list(sec.den)}
    s_json = json.dumps(s_doc)
    u_json = json.dumps(_cx_list(u))

    def off_poles(radius):
        while True:
            z = gen.in_disk(rng, radius)
            if all(abs(z - p) >= 0.1 for p in sec.pole_list()):
                return z

    def rate(z):
        return cmath.exp(gen.horner(u, z)) * gen.horner(sec.den, z)

    def map_w(z, t):
        return sec.s(z) - cmath.exp(gen.horner(sec.g1, z) + rate(z) * t) / gen.horner(sec.den, z)

    cases = {}
    vseed = rng.randrange(2 ** 31)

    def v_gap(doc):
        rep = doc["report"]
        g1 = [complex(*c) for c in doc["certificate"]["g1"]]
        want = list(sec.g1) + [0j] * max(0, len(g1) - len(sec.g1))
        g1 += [0j] * (len(want) - len(g1))
        scale = 1.0 + max(abs(c) for c in want)
        return (rep["passed"] and rep["consistency"] < CONSISTENCY_GATE
                and all(abs(a - b) <= G1_TOL * scale for a, b in zip(g1, want)))
    cases["gap"] = (["gap", "--s", s_json, "--seed", str(vseed)], v_gap)

    zc = off_poles(1.5)

    def v_classify(doc):
        return (doc["fiber"] == "C*"
                and gen.rel_err(complex(*doc["period"]), 2j * math.pi / rate(zc)) < 1e-10)
    cases["classify"] = (["classify", "--s", s_json, "--u", u_json, "--z", _tok(zc)],
                         v_classify)

    zm = off_poles(2.0)
    tm = gen.scaled_time(rng, rate(zm), 3.0)

    def v_map(doc):
        return gen.rel_err(complex(*doc["w"]), map_w(zm, tm)) < MAP_TOL
    cases["map"] = (["map", "--s", s_json, "--u", u_json, "--eval", _tok(zm), _tok(tm)],
                    v_map)

    zp = off_poles(2.0)
    w0 = sec.s(zp) + 10.0 ** rng.uniform(math.log10(0.05), math.log10(4.0)) \
        * cmath.exp(1j * gen.TWO_PI * rng.random())

    def v_preimage(doc):
        return (doc["branch"] == "log"
                and gen.rel_err(map_w(zp, complex(*doc["t"])), w0) < MAP_TOL)
    cases["preimage"] = (["preimage", "--s", s_json, "--u", u_json,
                          "--target", _tok(zp), _tok(w0)], v_preimage)

    zf = off_poles(1.8)
    wf = gen.in_disk(rng, 2.0)
    tf = gen.scaled_time(rng, rate(zf), 1.0)
    sz = sec.s(zf)
    wf_ref = sz + (wf - sz) * cmath.exp(rate(zf) * tf)
    field_json = json.dumps({"vertical": {"s": s_doc, "u": _cx_list(u)}})

    def v_flow(doc):
        return gen.rel_err(complex(*doc["endpoint"]["w"]), wf_ref) < FLOW_TOL
    cases["flow"] = (["flow", "--field", field_json, "--start", _tok(zf), _tok(wf),
                      "--path", _tok(tf)], v_flow)

    while True:
        r, s = rng.randint(2, 9), rng.randint(2, 9)
        if math.gcd(r, s) == 1:
            break
    cases["covering"] = (["covering", "--r", str(r), "--s", str(s), "--a",
                          _tok(gen.in_annulus(rng, 0.5, 2.0)), "--identity"],
                         lambda doc: doc == "pass")

    a = gen.in_annulus(rng, 0.5, 2.0)
    mult = [gen.in_annulus(rng, 0.5, 2.0), gen.cx_uniform(rng, -0.5, 0.5)]
    fam = json.dumps({"kind": "i", "a": _cx_list([a])[0], "b": [0.0, 0.0],
                      "multiplier": _cx_list(mult)})

    def v_tangent(doc):
        return abs(complex(*doc["ratio"]) - _canonical_ratio(a / mult[0])) < 1e-10
    cases["tangent"] = (["tangent", "--family", fam, "--check", "eigenratio",
                         "--at", "0,0", "0,0"], v_tangent)
    return cases


def run_cli(argv, root, env):
    return subprocess.run([sys.executable, "-m", "holodom.cli"] + argv, cwd=root,
                          env=env, capture_output=True, timeout=CLI_TIMEOUT_S)


def _cli_op(sub, argv, root, env, ref):
    """ref is (exit code, stdout) captured in set-up, or a failure label when
    that capture did not match the benchmark's own reference."""
    def run(hook):
        return hook.call("cli." + sub, run_cli, argv, root, env)

    def check(out):
        if _failed(out):
            return _label(out)
        if isinstance(ref, str):
            return ref
        return None if (out.returncode, out.stdout) == ref else "stdout-changed"

    return Op(sub, run, check)


def build_cli_cold(seed, root):
    rng = gen.rng_for("cli_cold", seed)
    env = child_env(root)
    ops = []
    for sub, (argv, valid) in _cli_cases(rng).items():
        proc = run_cli(argv, root, env)
        try:
            ok = proc.returncode == 0 and valid(json.loads(proc.stdout))
        except (ValueError, KeyError, TypeError):
            ok = False
        ref = (proc.returncode, proc.stdout) if ok else "reference:" + sub
        ops.append(_cli_op(sub, argv, root, env, ref))
    return Workload(ops, warmup=0, trace_lap=3 * len(ops))


WORKLOADS = {
    "certify": build_certify,
    "crosscheck": build_crosscheck,
    "closed_form": build_closed_form,
    "cli_cold": build_cli_cold,
}
