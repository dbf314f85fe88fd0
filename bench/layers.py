"""Per-layer metrics of the traced run.

Span metrics come from the traced lap of the workload that calls the
layer.  `poly`, `sampling` and `entire` are only reached inside `gap`, so
their metrics replay the layer's public function on the inputs the certify
ops fed `construct_gap` and `verify_gap`.  The oracle's split into field
time and self time comes from the wrapped field callbacks.
"""

from __future__ import annotations

import cmath
import subprocess
import sys
from statistics import median
from time import perf_counter_ns

import numpy as np

from holodom.errors import EscapeError
from holodom.oracle import IntegrationResult
from holodom.poly import poly_roots
from holodom.sampling import sample_disk
from workloads import VERIFY_SAMPLES

POLY_ROOTS_REPLAYS = 200
SERIES_OFFSET = 1e-4    # well inside RemovableQuotient's series radius
SERIES_POINTS = 32
PROBE_REPEATS = 3
SPAN_LAYERS = ("gap", "vertical", "riccati", "covering", "catalog", "cli")

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import {0}; "
                 "print(time.perf_counter() - t)")


def child_import_seconds(module, root, env):
    """`import module` timed inside a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(module)],
                         cwd=root, env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout)


def _busy_s(tracer, name):
    return sum(tracer.durations_us(name)) / 1e6


def gap_layers(tracer, lap, pool):
    """gap spans from the certify lap; poly, sampling and entire replayed."""
    m = {}
    m["gap.construct_gap.busy_s"] = _busy_s(tracer, "gap.construct_gap")
    m["gap.construct_gap.us_p50"] = median(tracer.durations_us("gap.construct_gap"))
    m["gap.verify_gap.busy_s"] = _busy_s(tracer, "gap.verify_gap")
    n_verify = len(tracer.durations_us("gap.verify_gap"))
    m["gap.verify_gap.ms_per_1000_samples"] = (
        m["gap.verify_gap.busy_s"] * 1e3 / (n_verify * VERIFY_SAMPLES / 1000))

    buckets = {"deg1-2": [], "deg3-4": [], "deg5-6": []}
    fails = 0
    for op in pool[:POLY_ROOTS_REPLAYS]:
        den = op.replay["s"].den
        t0 = perf_counter_ns()
        try:
            poly_roots(den)
        except Exception:  # counted: a root-finder failure is the metric
            fails += 1
            continue
        dt = (perf_counter_ns() - t0) / 1e3
        pair = (den.degree + 1) // 2
        buckets["deg%d-%d" % (2 * pair - 1, 2 * pair)].append(dt)
    for name, values in buckets.items():
        m["poly.poly_roots.us_p50." + name] = median(values)
    m["poly.poly_roots.fail"] = fails

    sample_ms, eval_ns, evals, direct_us, series_us = [], 0, 0, [], []
    for _, op, outcome in lap:
        if op.check(outcome) is not None:
            continue  # replay only what the op completed
        cert, _ = outcome
        poles = [d.pole for d in cert.pole_data]
        t0 = perf_counter_ns()
        pts = sample_disk(np.random.default_rng(op.replay["seed"]), VERIFY_SAMPLES,
                          0j, 3.0, avoid=poles, min_dist=1e-8)
        sample_ms.append((perf_counter_ns() - t0) / 1e6)
        for poly in (cert.s.den, cert.s.num):
            t0 = perf_counter_ns()
            for z in pts:
                poly(z)
            eval_ns += perf_counter_ns() - t0
            evals += len(pts)
        t0 = perf_counter_ns()
        for z in pts:
            cert.h(z)
        direct_us.append((perf_counter_ns() - t0) / 1e3 / len(pts))
        near = [p + SERIES_OFFSET * cmath.exp(2j * cmath.pi * k / SERIES_POINTS)
                for p in poles for k in range(SERIES_POINTS)]
        t0 = perf_counter_ns()
        for z in near:
            cert.h(z)
        series_us.append((perf_counter_ns() - t0) / 1e3 / len(near))
    m["sampling.sample_disk.ms_per_1000"] = median(sample_ms) * 1000 / VERIFY_SAMPLES
    m["poly.eval.ns_per_point"] = eval_ns / evals
    m["entire.h_eval.us_per_point.direct"] = median(direct_us)
    m["entire.h_eval.us_per_point.series"] = median(series_us)
    return m


def oracle_layers(tracer, lap):
    """oracle and field-callback metrics from the crosscheck lap."""
    steps = rejected = escapes = 0
    stepped_us = 0.0
    integrate_us = {op: (e - s) / 1e3 for n, s, e, _, op in tracer.spans
                    if n == "oracle.integrate"}
    for op_id, _, outcome in lap:
        if isinstance(outcome, EscapeError):
            escapes += 1
            continue
        res = outcome[1] if isinstance(outcome, tuple) else outcome
        if isinstance(res, IntegrationResult):
            steps += res.steps
            rejected += res.rejected
            stepped_us += integrate_us[op_id]
    busy = _busy_s(tracer, "oracle.integrate")
    field_s = sum(tracer.field_ns.values()) / 1e9
    per_eval = {k: tracer.field_ns[k] / 1e3 / tracer.field_evals[k]
                for k in tracer.field_evals}
    return {
        "oracle.integrate.busy_s": busy,
        "oracle.steps": steps,
        "oracle.rejected": rejected,
        "oracle.accept_ratio": steps / (steps + rejected),
        "oracle.field_evals": sum(tracer.field_evals.values()),
        "oracle.field_s": field_s,
        "oracle.self_s": busy - field_s,
        "oracle.us_per_step": stepped_us / steps,
        "oracle.escapes": escapes,
        "vertical.flow.us_p50": median(tracer.durations_us("vertical.flow")),
        "vertical.field_eval.us": per_eval["vertical"],
        "riccati.field_eval.us": per_eval["riccati"],
        "catalog.field_eval.us": per_eval["catalog"],
    }


def closed_form_layers(tracer):
    return {
        "vertical.map.us_p50": median(tracer.durations_us("vertical.map")),
        "vertical.preimage.us_p50.log":
            median(tracer.durations_us("vertical.preimage.log")),
        "vertical.preimage.us_p50.linear":
            median(tracer.durations_us("vertical.preimage.linear")),
        "vertical.jacobian.us_p50": median(tracer.durations_us("vertical.jacobian")),
        "riccati.dominating_map_g.us_p50":
            median(tracer.durations_us("riccati.dominating_map_g")),
        "covering.gamma_round_trip.us_p50":
            median(tracer.by_op_us("covering.gamma", "covering.gamma_preimage")),
        "covering.membership.us_p50": median(tracer.durations_us("covering.membership")),
        "catalog.closed_flow_family.us_p50":
            median(tracer.durations_us("catalog.closed_flow_family")),
    }


def cli_layers(tracer, root, env):
    m = {}
    for name in {n for n, _, _, _, _ in tracer.spans if n.startswith("cli.")}:
        m[name + ".ms_p50"] = median(tracer.durations_us(name)) / 1e3
    passes = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env,
                       check=True, timeout=60)
        passes.append((perf_counter_ns() - t0) / 1e6)
    m["cli.interpreter_ms"] = median(passes)
    for module, name in (("numpy", "cli.numpy_import_ms"),
                         ("holodom", "cli.holodom_import_ms")):
        m[name] = 1e3 * median([child_import_seconds(module, root, env)
                              for _ in range(PROBE_REPEATS)])
    return m


def self_times(tracers):
    """Self seconds per span layer, summed over the traced laps."""
    total = {}
    for tracer in tracers:
        for layer, secs in tracer.self_seconds().items():
            total[layer] = total.get(layer, 0.0) + secs
    return {layer + ".self_s": total[layer] for layer in SPAN_LAYERS}
