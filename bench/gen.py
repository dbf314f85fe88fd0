"""Seeded input generators and the benchmark's own reference formulas.

Nothing here imports holodom: the inputs and the references the benchmark
checks against must not move when the library changes.  Draws use
`random.Random`, seeded per workload from the run's --seed.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


def cx_uniform(rng, lo=-1.0, hi=1.0):
    return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))


def in_disk(rng, radius):
    r = radius * math.sqrt(rng.random())
    return r * cmath.exp(1j * TWO_PI * rng.random())


def in_annulus(rng, inner, outer):
    r = math.sqrt(rng.uniform(inner * inner, outer * outer))
    return r * cmath.exp(1j * TWO_PI * rng.random())


def horner(coeffs, z):
    """Ascending coefficients evaluated at z."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def poly_mul(a, b):
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def taylor_at(coeffs, p, order):
    """Taylor coefficients of the polynomial at p through `order`."""
    return [sum(c * math.comb(j, k) * p ** (j - k)
                for j, c in enumerate(coeffs) if j >= k)
            for k in range(order + 1)]


def log_series(a, order):
    """Principal Log of a power series a (a[0] != 0) through `order`."""
    b = [cmath.log(a[0])] + [0j] * order
    for k in range(1, order + 1):
        acc = k * (a[k] if k < len(a) else 0j)
        for j in range(1, k):
            acc -= j * b[j] * (a[k - j] if k - j < len(a) else 0j)
        b[k] = acc / (k * a[0])
    return b


def solve(matrix, rhs):
    """Gaussian elimination with partial pivoting on a small dense system."""
    n = len(rhs)
    m = [list(row) + [r] for row, r in zip(matrix, rhs)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        m[col], m[piv] = m[piv], m[col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n + 1):
                m[r][c] -= f * m[col][c]
    x = [0j] * n
    for r in range(n - 1, -1, -1):
        x[r] = (m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))) / m[r][r]
    return x


def hermite_log(num, poles):
    """Coefficients of the polynomial g1 of degree < sum of orders whose jet
    at each pole matches Log num through (order - 1), principal branch at
    the value: the defining property of a gap certificate's g1."""
    rows, rhs = [], []
    n = sum(m for _, m in poles)
    for p, m in poles:
        logjet = log_series(taylor_at(num, p, m - 1), m - 1)
        for k in range(m):
            rows.append([math.comb(j, k) * p ** (j - k) if j >= k else 0j
                         for j in range(n)])
            rhs.append(logjet[k])
    return solve(rows, rhs) if n else []


@dataclass(frozen=True)
class Section:
    """s = num/den with den = prod (z - p)^m, and its independent g1."""
    num: tuple
    den: tuple
    poles: tuple      # ((pole, order), ...)
    g1: tuple
    bounded: bool     # drawn under the |g1| bound

    def s(self, z):
        return horner(self.num, z) / horner(self.den, z)

    def pole_list(self):
        return [p for p, _ in self.poles]


CIRCLE_POINTS = 64


def draw_section(rng, max_poles=4, max_order=3, num_degree=6, separation=0.7,
                 pole_radius=1.6, log_bound=200.0, radius=3.1, bounded=True):
    """Criterion 1's distribution: up to max_poles poles at least
    `separation` apart in |z| <= pole_radius, orders 1..max_order with
    deg q1 <= num_degree, deg q <= num_degree, |q| >= 0.3 at each pole and,
    when bounded, |g1| <= log_bound on |z| = radius."""
    circle = [radius * cmath.exp(1j * TWO_PI * k / CIRCLE_POINTS)
              for k in range(CIRCLE_POINTS)]
    for _ in range(1000):
        centers = []
        for _ in range(rng.randint(1, max_poles)):
            for _ in range(1000):
                z = in_disk(rng, pole_radius)
                if all(abs(z - c) >= separation for c in centers):
                    centers.append(z)
                    break
        poles = []
        budget = num_degree
        for c in centers:
            order = min(rng.randint(1, max_order), budget)
            if order == 0:
                break
            budget -= order
            poles.append((c, order))
        den = [1 + 0j]
        for p, m in poles:
            for _ in range(m):
                den = poly_mul(den, [-p, 1 + 0j])
        num = None
        for _ in range(20):
            coeffs = [cx_uniform(rng) for _ in range(rng.randint(0, num_degree) + 1)]
            if abs(coeffs[-1]) < 0.2:
                continue
            if all(abs(horner(coeffs, p)) >= 0.3 for p, _ in poles):
                num = coeffs
                break
        if num is None:
            continue
        g1 = hermite_log(num, poles)
        if bounded and max(abs(horner(g1, z)) for z in circle) > log_bound:
            continue
        return Section(tuple(num), tuple(den), tuple(poles), tuple(g1), bounded)
    raise RuntimeError("section generator starved")


def scaled_time(rng, rate, cap, t_max=2.0):
    """Random |t| <= t_max, shrunk so |rate * t| <= cap."""
    t = in_disk(rng, t_max)
    if abs(rate) * abs(t) > cap:
        t *= cap / (abs(rate) * abs(t))
    return t


def time_for_rate(rng, rate, cap, t_max, stratum=0, strata=1):
    """t in a random direction with |rate * t| uniform on the stratum-th of
    `strata` equal parts of [0, cap], shrunk so |t| <= t_max.  The work of
    flowing to t then hardly depends on which field was drawn, and a group
    that takes each stratum once spans [0, cap] evenly whatever the seed."""
    mag = cap * (stratum + rng.random()) / strata / max(abs(rate), 1e-300)
    return min(mag, t_max) * cmath.exp(1j * TWO_PI * rng.random())


def lex_sqrt_roots(z):
    r = cmath.sqrt(z)
    lo, hi = sorted([r, -r], key=lambda x: (x.real, x.imag))
    return lo, hi


def riccati_sqrt_draw(rng):
    """(z, t) for w' = w^2 - z with |lambda t| <= 1.8 and e^(lambda t) away
    from 1, as in criterion 7; also returns the Mobius image of infinity."""
    while True:
        z = in_annulus(rng, 0.4, 2.0)
        t = in_disk(rng, 1.2)
        lo, hi = lex_sqrt_roots(z)
        lam = lo - hi
        if abs(lam * t) > 1.8:
            t *= 1.8 / abs(lam * t)
        growth = cmath.exp(lam * t)
        if abs(growth - 1.0) >= 0.05:
            return z, t, (lo - growth * hi) / (1.0 - growth)


def chordal(a, b):
    """Chordal distance on the sphere; None stands for infinity."""
    if a is None and b is None:
        return 0.0
    if a is None or b is None:
        v = b if a is None else a
        return 2.0 / math.sqrt(1.0 + abs(v) ** 2)
    return 2.0 * abs(a - b) / math.sqrt((1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2))


def rel_err(got, want):
    return abs(got - want) / (1.0 + abs(want))
