"""Polynomial and rational-function layer."""

import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from holodom.errors import DomainError
from holodom.poly import (Poly, RationalFn, poly_gcd, poly_roots, rat_eval,
                          series_div, series_exp, series_log, series_mul)


def test_poly_eval_and_arithmetic():
    p = Poly([1.0, 2.0, 3.0])  # 1 + 2z + 3z^2
    assert p(0) == 1.0
    assert p(1) == 6.0
    assert p(2j) == 1.0 + 4j - 12.0
    q = Poly([0.0, 1.0])
    assert (p + q)(1) == 7.0
    assert (p * q)(2) == p(2) * 2
    assert (p - p).is_zero
    assert (-p)(1) == -6.0
    assert (2 * q)(3) == 6.0


def test_poly_degree_trims_leading_zeros():
    assert Poly([1.0, 0.0, 0.0]).degree == 0
    assert Poly([]).degree == -1
    assert Poly([0.0]).is_zero


def test_poly_deriv_and_shift():
    p = Poly([5.0, 0.0, 1.0])  # 5 + z^2
    assert p.deriv() == Poly([0.0, 2.0])
    shifted = p.shift(1.0)  # p(z + 1) = 6 + 2z + z^2
    assert shifted == Poly([6.0, 2.0, 1.0])


def test_poly_jet_matches_derivatives():
    p = Poly([1.0, -2.0, 0.5, 3.0])
    jet = p.jet(0.7 + 0.2j, 3)
    assert jet[0] == pytest.approx(p(0.7 + 0.2j))
    assert jet[1] == pytest.approx(p.deriv()(0.7 + 0.2j))
    assert jet[2] == pytest.approx(p.deriv().deriv()(0.7 + 0.2j) / 2)


def test_poly_divmod():
    p = Poly.from_roots([1.0, 2.0, 3.0])
    d = Poly.from_roots([2.0])
    quo, rem = p.divmod(d)
    assert rem.is_zero
    assert quo == Poly.from_roots([1.0, 3.0])


def test_poly_from_roots_and_roots_round_trip():
    roots = [0.5, -1.0 + 0.5j, 2.0]
    p = Poly.from_roots(roots)
    found = sorted(poly_roots(p), key=lambda rm: (rm[0].real, rm[0].imag))
    assert all(m == 1 for _, m in found)
    for got, want in zip((r for r, _ in found),
                         sorted(roots, key=lambda z: (z.real, z.imag))):
        assert abs(got - want) < 1e-9


def test_poly_roots_multiplicity():
    p = Poly.from_roots([1.0, 1.0, 1.0, -2.0])
    found = {round(r.real, 6): m for r, m in poly_roots(p)}
    assert found == {1.0: 3, -2.0: 1}


def test_poly_gcd_of_shared_factor():
    shared = Poly.from_roots([1.5])
    a = shared * Poly.from_roots([2.0])
    b = shared * Poly.from_roots([-3.0])
    g = poly_gcd(a, b)
    assert g.degree == 1
    assert abs(g.monic()(1.5)) < 1e-9


def test_rational_keeps_a_numerator_small_against_its_denominator():
    # the gcd threshold is relative to each operand, not to the larger one
    s = RationalFn(Poly([0.0, 1e-12]), Poly([-0.25, 0.0, 1.0]))
    assert s.num == Poly([0.0, 1e-12]) and s.den.degree == 2
    cancelled = RationalFn(Poly.from_roots([0.5, 0.3]) * 1e-12,
                           Poly.from_roots([0.5, 0.2]))
    assert cancelled.den.degree == 1
    assert cancelled(0.0) == pytest.approx(1e-12 * 0.3 / 0.2)
    # a subnormal numerator scales up without a separate 2^e overflowing
    tiny = RationalFn(Poly([1e-310]), Poly([1.0, 1.0]))
    assert tiny.num == Poly([1e-310]) and tiny.den == Poly([1.0, 1.0])


def test_poly_json_round_trip():
    p = Poly([1.0 + 2.0j, 0.0, -0.5j])
    assert Poly.from_json(p.to_json()) == p


def test_rational_normalizes_coprime_monic():
    z = Poly([0.0, 1.0])
    common = Poly.from_roots([2.0])
    s = RationalFn(common * Poly([1.0]), common * (3.0 * z))
    # shared root cancelled, denominator made monic
    assert s.den == z
    assert s.num(1.0) == pytest.approx(1.0 / 3.0)


def test_rational_zero_denominator_rejected():
    with pytest.raises(DomainError):
        RationalFn(Poly([1.0]), Poly())


def test_rational_poles():
    s = RationalFn(Poly([1.0]), Poly.from_roots([1.0, 1.0, -2.0]))
    poles = {round(p.real, 6): m for p, m in s.poles()}
    assert poles == {1.0: 2, -2.0: 1}


def test_rat_eval_marks_poles():
    from holodom.poly import POLE
    s = RationalFn(Poly([1.0]), Poly([0.0, 1.0]))
    assert rat_eval(s, 0.0) is POLE
    assert rat_eval(s, 2.0) == pytest.approx(0.5)


def test_series_exp_log_inverse():
    a = [0.5, 0.2, -0.1, 0.05]
    back = series_log(series_exp(a, 3), 3)
    assert back == pytest.approx(a)


def test_series_log_principal_branch():
    jet = series_log([-1.0 + 0j], 0)
    assert jet[0] == pytest.approx(1j * math.pi)


def test_series_mul_div_inverse():
    a = [1.0, 2.0, 3.0]
    b = [2.0, -1.0, 0.5]
    prod = series_mul(a, b, 2)
    assert series_div(prod, b, 2) == pytest.approx(a)


coeff = st.complex_numbers(min_magnitude=0.0, max_magnitude=10.0,
                           allow_nan=False, allow_infinity=False)


@given(st.lists(coeff, min_size=1, max_size=6))
def test_poly_json_round_trip_property(coeffs):
    p = Poly(coeffs)
    assert Poly.from_json(p.to_json()) == p


@given(st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0,
                                   allow_nan=False, allow_infinity=False),
                min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_from_roots_evaluates_to_zero(roots):
    p = Poly.from_roots(roots)
    for r in roots:
        assert abs(p(r)) < 1e-6 * max(1.0, p.norm())


@given(st.lists(coeff, min_size=1, max_size=5), st.integers(0, 6))
@settings(max_examples=50, deadline=None)
def test_series_exp_log_round_trip_property(jet, order):
    # constant term only returns modulo 2*pi*i (principal branch)
    out = series_log(series_exp(jet, order), order)
    want = list(jet[:order + 1]) + [0.0] * max(0, order + 1 - len(jet))
    branch = round((out[0] - want[0]).imag / (2 * math.pi))
    assert cmath.isclose(out[0], want[0] + 2j * math.pi * branch,
                         rel_tol=1e-8, abs_tol=1e-8)
    for got, expect in zip(out[1:], want[1:]):
        assert cmath.isclose(got, expect, rel_tol=1e-8, abs_tol=1e-8)


def test_root_decisions_stay_in_poly():
    # root tolerances are named only in poly.py, and roots are found only
    # where a denominator enters: construct_gap and expr_from_json
    import ast
    from pathlib import Path

    import holodom

    tolerances = {"EPS_POLE", "CLUSTER_TOL", "EPS_GCD"}
    finders = {("gap.py", "construct_gap"), ("entire.py", "expr_from_json")}
    for path in sorted(Path(holodom.__file__).parent.glob("*.py")):
        if path.name == "poly.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                name = (getattr(node, "id", None) or getattr(node, "attr", None)
                        or getattr(node, "name", None))
                assert name not in tolerances, (path.name, name)
                if isinstance(node, ast.Call):
                    func = getattr(node.func, "id", None) or getattr(
                        node.func, "attr", None)
                    if func == "poly_roots":
                        assert (path.name, owner) in finders, (path.name, owner)
