"""Gap certificates: construction, worked values, verification report."""

import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

import holodom.entire
import holodom.gap
import holodom.poly
from holodom.entire import expr_from_json
from holodom.errors import DomainError
from holodom.gap import construct_gap, hermite_interpolate, verify_gap
from holodom.poly import Poly, RationalFn


def rational(num, den):
    return RationalFn(Poly(num), Poly(den))


def test_hermite_single_jet_is_taylor():
    p = hermite_interpolate([(1.0, [2.0, 3.0, 4.0])])
    # p(1) = 2, p'(1) = 3, p''(1)/2 = 4
    assert p.jet(1.0, 2) == pytest.approx([2.0, 3.0, 4.0])


def test_hermite_two_centers():
    p = hermite_interpolate([(0.0, [1.0, 1.0]), (1.0, [0.0])])
    assert p.degree <= 2
    assert p(0.0) == pytest.approx(1.0)
    assert p.deriv()(0.0) == pytest.approx(1.0)
    assert p(1.0) == pytest.approx(0.0, abs=1e-12)


def test_hermite_rejects_duplicate_centers():
    with pytest.raises(DomainError):
        hermite_interpolate([(1.0, [0.0]), (1.0, [1.0])])


def test_hermite_empty_is_zero():
    assert hermite_interpolate([]).is_zero


def test_gap_for_one_over_z():
    cert = construct_gap(rational([1.0], [0.0, 1.0]))
    assert cert.g1.is_zero
    # h = (q - e^0)/q1 = 0 identically
    for z in (0.5, 2.0 - 1.0j, -3.0):
        assert abs(cert.h(z)) < 1e-12
        assert cert.g_expr(z) == pytest.approx(z)


def test_gap_worked_two_pole_example():
    # s = z/(z^2 - 1): g1 interpolates Log z at +1 and -1
    cert = construct_gap(rational([0.0, 1.0], [-1.0, 0.0, 1.0]))
    want = Poly([0.5j * math.pi, -0.5j * math.pi])
    assert len(cert.g1.coeffs) == len(want.coeffs)
    for got, expect in zip(cert.g1.coeffs, want.coeffs):
        assert abs(got - expect) < 1e-10


def test_gap_entire_case():
    # s = z^2 has no poles: h = s - 1
    cert = construct_gap(rational([0.0, 0.0, 1.0], [1.0]))
    assert cert.g1.is_zero
    assert cert.pole_data == ()
    for z in (0.0, 1.0j, 2.5):
        assert cert.h(z) == pytest.approx(z * z - 1.0)


def test_gap_identity_holds_off_poles():
    # s - h = e^(g1)/q1 wherever everything is finite
    s = rational([1.0, 2.0], [-2.0, 0.0, 1.0])
    cert = construct_gap(s)
    for z in (0.3, -1.0 + 2.0j, 4.0):
        lhs = s(z) - cert.h(z)
        rhs = cmath.exp(cert.g1(z)) / s.den(z)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_gap_multiple_pole_matches_log_jet():
    # double pole at 1: g1 must match Log q through first order there
    s = rational([3.0, 1.0], [1.0, -2.0, 1.0])
    cert = construct_gap(s)
    qjet = s.num.jet(1.0, 1)
    assert cert.g1(1.0) == pytest.approx(cmath.log(qjet[0]))
    assert cert.g1.deriv()(1.0) == pytest.approx(qjet[1] / qjet[0])


def test_verify_gap_report_fields_and_pass():
    cert = construct_gap(rational([0.0, 1.0], [-1.0, 0.0, 1.0]))
    rep = verify_gap(cert, n_samples=500, seed=3)
    assert rep.passed
    assert rep.min_difference > 0.0
    assert rep.jet_residual < 1e-8
    assert rep.consistency < 1e-6
    assert rep.samples == 500
    data = rep.to_json()
    assert set(data) >= {"min_difference", "jet_residual", "pole_circle_max",
                         "consistency", "passed", "samples"}


def test_verify_gap_min_difference_positive_despite_underflow():
    # far from the poles e^(g1) underflows below float resolution of s;
    # the reported minimum gap must stay strictly positive anyway
    cert = construct_gap(rational([1.0], [0.0, 0.0, 0.0, 1.0]))
    rep = verify_gap(cert, n_samples=2000, seed=11)
    assert rep.passed
    assert rep.min_difference > 0.0


def _steep(a):
    # s = z/(z^2 - a^2): g1 = Log a + i pi/2 - i pi z/(2a), so Re g1 runs
    # linearly from about -pi|z|/(2a) to +pi|z|/(2a) across a disk
    return construct_gap(rational([0.0, 1.0], [-a * a, 0.0, 1.0]))


def test_verify_gap_survives_g1_beyond_the_float_range():
    cert = _steep(0.005)
    assert cert.g1(3j).real > 709.0  # e^(g1) overflows a float there
    rep = verify_gap(cert, n_samples=1000, seed=0)
    assert rep.passed
    assert rep.consistency < 1e-6


def test_verify_gap_passes_when_every_gap_underflows():
    # on this disk Re g1 < -600, so e^(g1)/q1 is below the float range at
    # most samples; it is still nowhere zero and the certificate is correct
    cert = _steep(0.005)
    rep = verify_gap(cert, n_samples=500, seed=0, center=-5j)
    assert rep.min_difference == 0.0
    assert rep.passed
    assert rep.argmin.imag < -7.0


def test_construct_and_verify_find_the_roots_once(monkeypatch):
    real = holodom.poly.poly_roots
    calls = []

    def counted(p):
        calls.append(p)
        return real(p)

    for module in (holodom.poly, holodom.gap, holodom.entire):
        monkeypatch.setattr(module, "poly_roots", counted)
    s = rational([3.0, 1.0], Poly.from_roots([1.0, 1.0, -0.5j]).coeffs)
    verify_gap(construct_gap(s), n_samples=200, seed=1)
    assert calls == [s.den]


def test_h_round_trips_through_json_bit_for_bit():
    s = rational([3.0, 1.0], Poly.from_roots([1.0, 1.0, -0.5j]).coeffs)
    h = construct_gap(s).h
    back = expr_from_json(h.to_json())
    for z in (0.0, 1.0 + 1e-4, -0.5j + 2e-3, 1.0, 2.0 - 1.0j):
        assert back(z) == h(z)


def test_certificate_json_shape():
    cert = construct_gap(rational([1.0], [0.0, 1.0]))
    data = cert.to_json()
    assert data["g1"] == []
    assert data["s"]["num"] == [[1.0, 0.0]]
    assert data["pole_data"][0]["order"] == 1


@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.complex_numbers(min_magnitude=0.2, max_magnitude=2.0,
                       allow_nan=False, allow_infinity=False),
    min_size=n, max_size=n)))
@settings(max_examples=40, deadline=None)
def test_gap_construction_separated_simple_poles(poles):
    for i, a in enumerate(poles):
        for b in poles[:i]:
            if abs(a - b) < 0.3:
                return  # want well-separated poles only
    s = RationalFn(Poly([1.0, 0.5]), Poly.from_roots(poles))
    cert = construct_gap(s)
    for pole in poles:
        # s - h = e^(g1)/q1 forces h finite with the right jet at each pole
        val = cmath.exp(cert.g1(pole))
        qv = s.num(pole)
        assert cmath.isclose(val, qv, rel_tol=1e-6)
