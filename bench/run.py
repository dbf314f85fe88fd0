"""holodom benchmark runner.

    python3 bench/run.py --workload certify --seed 0 --seconds 10 --trace 0

Runs one workload in this process, closed loop with a single caller, for
--seconds and at least one pass over the workload's pool of ops, and
prints every end-to-end metric declared in BENCHMARK.json, scaled to a
reference host speed (hostspeed.py); with --trace 1 it
instead runs the traced laps of all four workloads and prints the per-layer
metrics.  The last stdout line is the JSON result.  A full record (the
environment, percentiles with their sample counts, failure labels) is
written to .bench_out/, with the spans of the traced run beside it.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_ROUNDS = 3
TAIL_BEYOND = 10
TAIL_WINDOW = 250
PROBE_GAP_NS = 10_000_000
LOCAL_NS = 100_000_000
LOCAL_PROBES = 9
SETUP_PROBES = 10


def _fail(msg):
    print("bench: " + msg, file=sys.stderr)
    raise SystemExit(2)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# One thread for BLAS, in this process and in every child it starts; set
# before numpy is first imported.
for _var in BLAS_PIN:
    os.environ[_var] = "1"

if not (ROOT / "src" / "holodom" / "__init__.py").is_file():
    _fail("no holodom sources under %s" % (ROOT / "src"))
if not (ROOT / "BENCHMARK.json").is_file():
    _fail("no BENCHMARK.json at %s" % ROOT)
sys.path.insert(0, str(ROOT / "src"))

_t0 = perf_counter()
import holodom  # noqa: E402  (path and thread pinning come first)
IMPORT_S = perf_counter() - _t0
if Path(holodom.__file__).resolve().parent != ROOT / "src" / "holodom":
    _fail("imported holodom from %s, not from this checkout" % holodom.__file__)

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
from tracing import DIRECT, Tracer  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402

BASELINE = Path(__file__).resolve().parent / "certify_baseline.json"


@dataclass
class Run:
    """Outcome of running a stretch of a workload's ops."""
    start: int
    lat_ns: list = field(default_factory=list)
    failures: list = field(default_factory=list)   # (pool index, label)
    kept: list = field(default_factory=list)       # (op index, op, outcome)
    covered: set = field(default_factory=set)      # pool indices run
    start_ns: list = field(default_factory=list)   # when each op started
    probes: list = field(default_factory=list)     # (when, host slowness)

    @property
    def attempted(self):
        return len(self.lat_ns)

    @property
    def busy_s(self):
        return sum(self.lat_ns) / 1e9

    def failed_ops(self):
        """{pool index: label} of every distinct op that failed at least once
        (the first label it failed with)."""
        out = {}
        for i, label in self.failures:
            out.setdefault(i, label)
        return out


def run_ops(wl, hook, start, *, seconds=None, count=None, keep=False, probe=False):
    """Closed loop over wl.ops from pool index `start` (wrapping), for
    `count` ops, or until `seconds` have passed and every op of the pool
    has run at least once.  Only op.run is timed.  With `probe`, the host
    speed probe is timed between ops, at least PROBE_GAP_NS apart."""
    ops = wl.ops
    traced = isinstance(hook, Tracer)
    run = Run(start)
    deadline = None if seconds is None else perf_counter() + seconds
    since_probe = PROBE_GAP_NS
    i = start
    while True:
        if count is not None and i - start >= count:
            break
        if deadline is not None and i - start >= len(ops) and perf_counter() >= deadline:
            break
        if probe and since_probe >= PROBE_GAP_NS:
            run.probes.append((perf_counter_ns(), hostspeed.slowness(hostspeed.probe_ms())))
            since_probe = 0
        op = ops[i % len(ops)]
        if traced:
            hook.begin_op(i, "op." + op.kind)
        t0 = perf_counter_ns()
        try:
            outcome = op.run(hook)
        except Exception as exc:  # every outcome, raised or returned, is checked
            outcome = exc
        dt = perf_counter_ns() - t0
        if traced:
            hook.end_op()
        run.lat_ns.append(dt)
        run.start_ns.append(t0)
        since_probe += dt
        run.covered.add(i % len(ops))
        label = op.check(outcome)
        if label is not None:
            run.failures.append((i % len(ops), label))
        if keep:
            run.kept.append((i, op, outcome))
        i += 1
    return run


def scaled_latencies_ms(run):
    """Each op's latency in ms divided by the host's slowness around it: the
    median over the probes taken from LOCAL_NS before the op started to
    LOCAL_NS after it ended, widened to the LOCAL_PROBES probes nearest in
    time where that holds fewer (a single probe is too noisy)."""
    when = [t for t, _ in run.probes]
    slow = [s for _, s in run.probes]
    want = min(LOCAL_PROBES, len(when))
    out = []
    for t0, dt in zip(run.start_ns, run.lat_ns):
        lo = bisect.bisect_left(when, t0 - LOCAL_NS)
        hi = bisect.bisect_right(when, t0 + dt + LOCAL_NS)
        while hi - lo < want:
            if hi == len(when) or (lo > 0 and t0 - when[lo - 1] < when[hi] - t0 - dt):
                lo -= 1
            else:
                hi += 1
        out.append(dt / 1e6 / statistics.median(slow[lo:hi]))
    return out


def set_up(name, seed):
    wl = WORKLOADS[name](seed, ROOT)
    if wl.warmup:
        run_ops(wl, DIRECT, 0, count=wl.warmup)
    return wl


def tail(lat_ms):
    """Latency at the highest percentile with at least TAIL_BEYOND samples
    above it, that percentile, and the sample count."""
    xs = sorted(lat_ms)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n


def windowed_tail(lat_ms):
    """tail() per window of TAIL_WINDOW consecutive ops, median over the
    run's full windows (a run shorter than one window is one window).  The
    percentile then stays the same however many ops a run manages, and one
    host preemption moves one window, not the result.  Returns (latency,
    percentile, ops per window, windows)."""
    if len(lat_ms) < TAIL_WINDOW:
        value, pct, n = tail(lat_ms)
        return value, pct, n, 1
    tails = [tail(lat_ms[i:i + TAIL_WINDOW])
             for i in range(0, len(lat_ms) - TAIL_WINDOW + 1, TAIL_WINDOW)]
    return (statistics.median(t[0] for t in tails), tails[0][1], TAIL_WINDOW,
            len(tails))


def environment(args, env_children):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: env_children.get(v) for v in BLAS_PIN},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "in_process_import_s": IMPORT_S,
    }


def certify_baseline(run, pool_size, seed):
    """Compare the distinct ops this run saw fail with the recorded ones."""
    if not BASELINE.is_file():
        return None
    rec = json.loads(BASELINE.read_text())
    if rec["pool"] != pool_size or str(seed) not in rec["failed_ops"] \
            or len(run.covered) != pool_size:
        return {"covered": False}
    want = {i: lab for i, lab in rec["failed_ops"][str(seed)]}
    return {"covered": True, "match": run.failed_ops() == want,
            "expected_fail_ratio": len(want) / pool_size,
            "expected_failed": len(want)}


def declared():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def emit(values, units, record, correct, attempted, failed, args):
    if set(values) != set(units):
        raise RuntimeError("metrics %s do not match BENCHMARK.json"
                           % sorted(set(values) ^ set(units)))
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    record["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / ("BENCH_%s_seed%d_trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for k in units:
        print("%-40s %14.6g %s" % (k, values[k], units[k]))
    print("record: %s" % out.relative_to(ROOT))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def end_to_end(args, units, env_children):
    """Set-up rounds, then the timed loop.  Times are scaled by the host
    speed probe (see hostspeed.py); the record keeps the raw ones too."""
    rounds, raw_rounds, wl = [], [], None
    for _ in range(SETUP_ROUNDS):
        probes = [hostspeed.probe_ms() for _ in range(SETUP_PROBES)]
        imp = layers.child_import_seconds("holodom", ROOT, env_children)
        t0 = perf_counter()
        wl = set_up(args.workload, args.seed)
        raw = imp + perf_counter() - t0
        probes += [hostspeed.probe_ms() for _ in range(SETUP_PROBES)]
        raw_rounds.append(raw)
        rounds.append(raw / statistics.median(map(hostspeed.slowness, probes)))
    run = run_ops(wl, DIRECT, wl.warmup, seconds=args.seconds, probe=True)
    passed = run.attempted - len(run.failures)
    failed = run.failed_ops()
    values, raw = {}, {}
    for out, lat_ms in ((raw, [x / 1e6 for x in run.lat_ns]),
                        (values, scaled_latencies_ms(run))):
        out["ops_per_s"] = passed / (sum(lat_ms) / 1e3)
        out["op_p50_ms"] = statistics.median(lat_ms)
        out["op_tail_ms"], tail_pct, window, windows = windowed_tail(lat_ms)
    values["pass_ratio"] = 1.0 - len(failed) / len(run.covered)
    values["setup_s"] = statistics.median(rounds)
    raw["setup_s"] = statistics.median(raw_rounds)
    slow = [x for _, x in run.probes]
    labels = Counter(failed.values())
    record = {
        "env": environment(args, env_children),
        "ops_run": run.attempted,
        "ops_distinct": len(run.covered),
        "ops_failed_distinct": len(failed),
        "fail_ratio": len(failed) / len(run.covered),
        "failure_labels": dict(labels),
        "failed_ops": sorted(failed.items()),
        "known_defects": sorted(wl.known_defects),
        "first_op": run.start,
        "pool_size": len(wl.ops),
        "pool_laps": run.attempted / len(wl.ops),
        "timed_busy_s": run.busy_s,
        "op_p50_samples": run.attempted,
        "op_tail_percentile": tail_pct,
        "op_tail_window_ops": window,
        "op_tail_windows": windows,
        "op_tail_beyond": min(TAIL_BEYOND, window - 1),
        "setup_rounds_s": rounds,
        "setup_rounds_raw_s": raw_rounds,
        "raw_metrics": raw,
        "host_slowness_quartiles": statistics.quantiles(slow, n=4),
        "host_probes": len(slow),
    }
    if args.workload == "certify":
        record["baseline"] = certify_baseline(run, len(wl.ops), args.seed)
    print("workload %s seed %d: %d ops run, %d of the pool's %d failed (fail_ratio "
          "%.6f), tail at p%.2f of %d ops, median of %d windows; host slowness %.3f "
          "(median of %d probes; 1 is the reference host)"
          % (args.workload, args.seed, run.attempted, len(failed), len(run.covered),
             record["fail_ratio"], tail_pct, window, windows,
             statistics.median(slow), len(slow)))
    print("raw (unscaled): %s" % {k: round(v, 6) for k, v in raw.items()})
    if labels:
        print("failures: %s" % dict(labels))
    if record.get("baseline"):
        print("certify baseline: %s" % record["baseline"])
    correct = all(lab in wl.known_defects for lab in labels)
    emit(values, units, record, correct, len(run.covered), len(failed), args)


def traced(args, units, env_children):
    """One traced lap per workload feeds the layer table; the named workload
    alternates untraced and traced laps for --seconds to price the tracing."""
    wls = {name: set_up(name, args.seed) for name in WORKLOADS}
    tracers, laps, all_runs = {}, {}, []
    overhead = {"untraced_ops": 0, "untraced_s": 0.0, "traced_ops": 0, "traced_s": 0.0}
    for name, wl in wls.items():
        deadline = perf_counter() + args.seconds
        while True:
            if name == args.workload:
                plain = run_ops(wl, DIRECT, wl.warmup, count=wl.trace_lap)
                overhead["untraced_ops"] += plain.attempted
                overhead["untraced_s"] += plain.busy_s
                all_runs.append((name, wl, plain))
            tracer = Tracer()
            lap = run_ops(wl, tracer, wl.warmup, count=wl.trace_lap, keep=True)
            all_runs.append((name, wl, lap))
            if name not in tracers:
                tracers[name], laps[name] = tracer, lap
            if name != args.workload:
                break
            overhead["traced_ops"] += lap.attempted
            overhead["traced_s"] += lap.busy_s
            if perf_counter() >= deadline:
                break
    values = {}
    values.update(layers.gap_layers(tracers["certify"], laps["certify"].kept,
                                    wls["certify"].ops[wls["certify"].warmup:]))
    values.update(layers.oracle_layers(tracers["crosscheck"], laps["crosscheck"].kept))
    values.update(layers.closed_form_layers(tracers["closed_form"]))
    values.update(layers.cli_layers(tracers["cli_cold"], ROOT, env_children))
    values.update(layers.self_times(tracers.values()))
    plain_rate = overhead["untraced_ops"] / overhead["untraced_s"]
    traced_rate = overhead["traced_ops"] / overhead["traced_s"]
    values["trace.untraced_ops_per_s"] = plain_rate
    values["trace.traced_ops_per_s"] = traced_rate
    values["trace.overhead_pct"] = 100.0 * (plain_rate - traced_rate) / plain_rate

    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / ("spans_%s_seed%d.jsonl" % (args.workload, args.seed))
    with open(spans, "w", encoding="utf-8") as fh:
        for name, tracer in tracers.items():
            tracer.dump(fh, name)
    covered, failed = set(), {}
    for name, wl, r in all_runs:
        covered.update((name, i) for i in r.covered)
        for i, lab in r.failed_ops().items():
            failed.setdefault((name, i), lab)
    failures = list(failed.values())
    correct = all(lab in wls[name].known_defects for (name, _), lab in failed.items())
    record = {
        "env": environment(args, env_children),
        "laps": {name: {"ops": laps[name].attempted, "first_op": laps[name].start,
                        "failures": laps[name].failures,
                        "span_counts": dict(Counter(s[0] for s in tracers[name].spans)),
                        "field_evals": dict(tracers[name].field_evals)}
                 for name in laps},
        "overhead": overhead,
        "spans_file": str(spans.relative_to(ROOT)),
        "failure_labels": dict(Counter(failures)),
    }
    print("traced laps: %s; tracing overhead on %s %.2f%%"
          % ({n: laps[n].attempted for n in laps}, args.workload,
             values["trace.overhead_pct"]))
    emit(values, units, record, correct, len(covered), len(failed), args)


def main(argv=None):
    args = _parse(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    e2e_units, layer_units = declared()
    env_children = child_env(ROOT)
    if args.trace:
        traced(args, layer_units, env_children)
    else:
        end_to_end(args, e2e_units, env_children)


if __name__ == "__main__":
    main()
