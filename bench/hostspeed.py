"""Host-speed probe: a fixed piece of numpy and pure-Python work.

On a shared machine the speed a process gets moves by tens of percent, at
times by 1.7x, within seconds, with the neighbours' load.  The runner
times this probe between the ops it measures; the probes around an op say
how fast the host was then, and the end-to-end metrics are scaled to a
host on which each part of the probe takes its REFERENCE_MS.  Nothing
here imports holodom, so a change to the library cannot move the probe.
"""

from __future__ import annotations

import cmath
from time import perf_counter_ns

import numpy as np

# Each part's time on the 2-vCPU host the benchmark was tuned on, while its
# neighbours were busy.
REFERENCE_MS = (0.6, 1.3, 0.8)

_rng = np.random.default_rng(20140718)
_POINTS = _rng.standard_normal(1000) + 1j * _rng.standard_normal(1000)
_COEFFS = _rng.standard_normal(7) + 1j * _rng.standard_normal(7)
_PY_COEFFS = [complex(c) for c in _COEFFS]
_PAIR = np.array([0.3 + 0.1j, -0.2 + 0.5j])


# Dormand-Prince 5(4) coefficients for the probe's fixed-step integration.
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array(_A[6] + [0.0])
_ERR = _B5 - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                       -92097 / 339200, 187 / 2100, 1 / 40])
_RK_STEPS = 10


def _field(z, w):
    return (0j, w * w - z)


def _rk_step(y, h):
    """One step on a pair of complex numbers, with a Python field callback
    and small numpy arrays, as an oracle step does."""
    ks = [np.array(_field(*y), dtype=complex)]
    for i in range(1, 7):
        yi = y + h * sum(_A[i][j] * ks[j] for j in range(i))
        ks.append(np.array(_field(*yi), dtype=complex))
    ks = np.array(ks)
    y5 = y + h * (_B5 @ ks)
    scale = 1e-12 + 1e-10 * np.maximum(np.abs(y), np.abs(y5))
    np.sqrt(np.mean(np.abs(h * (_ERR @ ks) / scale) ** 2))
    return y5 if np.all(np.isfinite(y5.view(float))) else _PAIR


def _horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def probe_ms():
    """One timing of the probe: milliseconds spent in each of its three
    parts, one per kind of work the workloads do: numpy over 1000 points (as verify_gap), fixed Dormand-Prince steps on a pair
    (as the oracle), and scalar Python complex arithmetic (as a field
    callback or a closed form)."""
    t0 = perf_counter_ns()
    for _ in range(7):
        np.abs(np.exp(-0.01 * np.polyval(_COEFFS, _POINTS))).min()
    t1 = perf_counter_ns()
    y = _PAIR
    for _ in range(_RK_STEPS):
        y = _rk_step(y, 0.01)
    t2 = perf_counter_ns()
    z, acc = 0.3 + 0.4j, 0j
    for _ in range(600):
        acc += _horner(_PY_COEFFS, z) * cmath.exp(-z)
        z = 0.999 * z + 0.001j
    t3 = perf_counter_ns()
    return ((t1 - t0) / 1e6, (t2 - t1) / 1e6, (t3 - t2) / 1e6)


def slowness(sample):
    """How much slower than the reference host one probe ran: the mean over
    its parts of the part's time over REFERENCE_MS.  Latencies are divided
    by it and rates multiplied by it."""
    return sum(t / ref for t, ref in zip(sample, REFERENCE_MS)) / len(sample)
