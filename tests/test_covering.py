"""Cusp-curve coverings and the monomial parameterization."""

import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from holodom.covering import CuspCurve, bezout
from holodom.errors import DomainError


def test_bezout_minimal_positive():
    p, q = bezout(2, 3)
    assert 2 * p - 3 * q == 1
    assert (p, q) == (2, 1)


def test_bezout_various_pairs():
    for r, s in ((2, 3), (3, 4), (4, 9), (5, 7), (8, 9)):
        p, q = bezout(r, s)
        assert r * p - s * q == 1
        assert 0 < p <= s + 1
        assert 0 < q
        # minimality: no smaller positive p satisfies the identity
        for smaller in range(1, p):
            assert (smaller * r - 1) % s != 0 or (smaller * r - 1) // s < 1


def test_cusp_curve_validation():
    CuspCurve(2, 3, 1.0)
    with pytest.raises(DomainError):
        CuspCurve(2, 4, 1.0)   # not coprime
    with pytest.raises(DomainError):
        CuspCurve(1, 3, 1.0)   # r < 2
    with pytest.raises(DomainError):
        CuspCurve(2, 3, 0.0)   # a = 0


def test_identity_check_all_small_pairs():
    for r in range(2, 10):
        for s in range(2, 10):
            if math.gcd(r, s) != 1:
                continue
            assert CuspCurve(r, s, 1.0 + 0.5j).identity_check()


def test_gamma_lands_off_curve_and_axes():
    curve = CuspCurve(2, 3, 1.0)
    x, y = curve.gamma(0.7 + 0.2j, 1.3 - 0.4j)
    assert curve.membership(x, y)
    assert x != 0 and y != 0


def test_gamma_preimage_round_trip():
    curve = CuspCurve(3, 4, 2.0)
    u, v = 0.9 - 0.3j, 1.2 + 0.5j
    x, y = curve.gamma(u, v)
    uu, vv = curve.gamma_preimage(x, y)
    assert abs(uu - u) < 1e-10 * (1 + abs(u))
    assert abs(vv - v) < 1e-10 * (1 + abs(v))


def test_gamma_preimage_rejects_axes():
    curve = CuspCurve(2, 3, 1.0)
    with pytest.raises(DomainError):
        curve.gamma_preimage(0.0, 1.0)
    with pytest.raises(DomainError):
        curve.gamma_preimage(1.0, 0.0)


def test_big_gamma_composition():
    curve = CuspCurve(2, 3, 1.5)
    z, t = 0.8 + 0.1j, 0.4 - 0.2j
    want = curve.gamma(z, 1.5 - cmath.exp(t))
    assert curve.big_gamma(z, t) == pytest.approx(want)


def test_big_gamma_avoids_curve():
    # v = a - e^t is never 0 or a, so the image misses the cusp and the axes
    curve = CuspCurve(2, 3, 1.0)
    for k in range(20):
        z = 0.5 + 0.1 * k + 0.3j
        t = complex(0.1 * k, 0.2 * k)
        x, y = curve.big_gamma(z, t)
        assert curve.membership(x, y)


def test_membership_on_and_off_curve():
    curve = CuspCurve(2, 3, 1.0)
    assert curve.membership(0.0, 0.0)          # origin belongs to the image
    assert not curve.membership(1.0, 1.0)      # on y^2 = x^3
    assert not curve.membership(0.0, 1.0)      # on an axis
    assert curve.membership(1.0, 2.0)


coprime_pairs = st.tuples(st.integers(2, 9), st.integers(2, 9)).filter(
    lambda rs: math.gcd(rs[0], rs[1]) == 1)


@given(st.tuples(st.integers(2, 60), st.integers(2, 60)).filter(
    lambda rs: math.gcd(rs[0], rs[1]) == 1))
@settings(max_examples=60, deadline=None)
def test_bezout_property(rs):
    r, s = rs
    p, q = bezout(r, s)
    assert r * p - s * q == 1
    assert 0 < p <= s + 1
    assert 0 < q


@given(coprime_pairs,
       st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0,
                          allow_nan=False, allow_infinity=False),
       st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0,
                          allow_nan=False, allow_infinity=False))
@settings(max_examples=40, deadline=None)
def test_gamma_round_trip_property(rs, u, v):
    r, s = rs
    curve = CuspCurve(r, s, 1.0)
    x, y = curve.gamma(u, v)
    if x == 0 or y == 0 or not (cmath.isfinite(x) and cmath.isfinite(y)):
        return
    uu, vv = curve.gamma_preimage(x, y)
    assert cmath.isclose(uu, u, rel_tol=1e-6)
    assert cmath.isclose(vv, v, rel_tol=1e-6)
