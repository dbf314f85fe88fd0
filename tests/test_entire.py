"""Entire-expression trees, removable quotients, phi-type functions."""

import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

import holodom.entire
from holodom.entire import (Const, Exp, Neg, PolyNode, Prod, RemovableQuotient,
                            Sum, Var, expr_from_json, phi1,
                            phi1_power_integral)
from holodom.errors import DomainError
from holodom.poly import Poly, poly_roots


def test_expr_eval_basic():
    z = Var()
    p = PolyNode(Poly([1.0, 2.0]))
    e = Sum([Prod([z, p]), Neg(Const(3.0))])  # z(1 + 2z) - 3
    assert e(2.0) == pytest.approx(7.0)
    assert Exp(Const(0.0))(5.0) == pytest.approx(1.0)


def test_expr_derive():
    e = Exp(PolyNode(Poly([0.0, 0.0, 1.0])))  # exp(z^2)
    d = e.derive()
    z0 = 0.3 + 0.1j
    assert d(z0) == pytest.approx(2 * z0 * cmath.exp(z0 * z0))


def test_expr_jet_matches_finite_differences():
    e = Prod([PolyNode(Poly([1.0, 1.0])), Exp(PolyNode(Poly([0.0, -0.5])))])
    z0 = 0.2
    jet = e.jet(z0, 3)
    assert jet[0] == pytest.approx(e(z0))
    assert jet[1] == pytest.approx(e.derive()(z0))
    assert jet[2] == pytest.approx(e.derive().derive()(z0) / 2)


def test_expr_json_round_trip():
    e = Sum([Exp(Neg(PolyNode(Poly([1.0, 2.0])))), Const(1.5 + 0.5j), Var()])
    back = expr_from_json(e.to_json())
    z0 = -0.7 + 0.3j
    assert back(z0) == pytest.approx(e(z0))


def test_expr_json_unknown_op():
    with pytest.raises(DomainError):
        expr_from_json({"op": "integral"})


def test_smart_constructors_fold_constants():
    two_z = Prod.of(Const(2.0), PolyNode(Poly([0.0, 1.0])))
    assert isinstance(two_z, PolyNode) and two_z.poly == Poly([0.0, 2.0])
    three = Sum.of(Const(1.0), PolyNode(Poly([2.0])))
    assert isinstance(three, Const) and three.value == 3.0
    assert isinstance(Sum.of(), Const) and Sum.of().value == 0
    assert isinstance(PolyNode.of(Poly([4.0])), Const)


def test_smart_constructors_flatten_nested_sums_and_products():
    e1, e2 = Exp(Var()), Exp(PolyNode(Poly([0.0, 2.0])))
    s = Sum.of(Sum([e1, Const(1.0)]), e2)
    assert isinstance(s, Sum)
    assert [type(a) for a in s.args] == [Const, Exp, Exp]
    assert s.args[1] is e1 and s.args[2] is e2
    p = Prod.of(Prod([e1, Const(3.0)]), e2)
    assert isinstance(p, Prod)
    assert p.args[0].value == 3.0 and p.args[1:] == (e1, e2)
    # a unit polynomial factor is dropped
    assert Prod.of(Const(1.0), e1) is e1


def test_smart_constructors_cancel_signs():
    e = Exp(Var())
    assert Neg.of(Neg(e)) is e
    assert Neg.of(Const(2.0)).value == -2.0
    assert Neg.of(PolyNode(Poly([1.0, 1.0]))).poly == Poly([-1.0, -1.0])
    assert isinstance(Neg.of(e), Neg)
    # signs pulled out of factors cancel in pairs
    assert Prod.of(Neg(e), Neg(e)).args == (e, e)
    negated = Prod.of(Neg(e), e)
    assert negated.args[0].value == -1.0 and negated.args[1:] == (e, e)


def test_smart_constructors_zero_factor_and_exp_of_constant():
    zero = Prod.of(Exp(Var()), Const(0.0), PolyNode(Poly([1.0, 1.0])))
    assert isinstance(zero, Const) and zero.value == 0
    one = Exp.of(Const(0.0))
    assert isinstance(one, Const) and one.value == 1.0
    assert isinstance(Exp.of(Var()), Exp)


def test_as_poly_reads_polynomial_trees_only():
    tree = Sum([PolyNode(Poly([0.0, 1.0])),
                Neg(Prod([Const(2.0), PolyNode(Poly([1.0, 1.0]))]))])
    assert tree.as_poly() == Poly([-2.0, -1.0])
    assert Exp(Const(0.0)).as_poly() is None
    assert Var().as_poly() is None
    assert Sum([Const(1.0), Var()]).as_poly() is None


def test_magnitude_jet_majorizes():
    e = Sum([Exp(PolyNode(Poly([0.5, -1.0, 0.25]))),
             Neg(Prod([PolyNode(Poly([1.0, 1.0])), Const(2.0)]))])
    for z0 in (0.0, 0.4 - 0.2j, 1.0j):
        jet = e.jet(z0, 6)
        mag = e.magnitude_jet(z0, 6)
        for got, bound in zip(jet, mag):
            assert abs(got) <= bound * (1 + 1e-9) + 1e-12


def test_removable_quotient_equals_polynomial_quotient():
    quot = Poly([2.0, -1.0, 0.5])
    den = Poly.from_roots([1.0, -1.0])
    rq = RemovableQuotient(PolyNode(den * quot), den, poly_roots(den))
    for z in (0.0, 1.0 + 1e-9, 3.0 - 2.0j):
        assert rq(z) == pytest.approx(quot(z), rel=1e-10, abs=1e-10)


def test_removable_quotient_rejects_actual_pole():
    with pytest.raises(DomainError):
        RemovableQuotient(PolyNode(Poly([1.0])), Poly([0.0, 1.0]), [(0j, 1)])


def test_removable_quotient_rejects_roots_short_of_the_degree():
    den = Poly.from_roots([0.5, 0.5])
    with pytest.raises(DomainError):
        RemovableQuotient(PolyNode(den), den, [(0.5 + 0j, 1)])


def test_removable_quotient_derive_reuses_the_roots(monkeypatch):
    quot = Poly([1.0, -0.5, 0.25, 0.1])
    den = Poly.from_roots([0.5, 0.5, -1.0])
    rq = RemovableQuotient(PolyNode(den * quot), den, poly_roots(den))

    def refuse(p):
        raise AssertionError("derive root-found %r" % (p,))

    monkeypatch.setattr(holodom.entire, "poly_roots", refuse)
    drq = rq.derive()
    dquot = quot.deriv()
    for z in (0.5, 0.5 + 1e-4, -1.0 + 1e-3j, 2.0 - 1.0j):
        assert abs(drq(z) - dquot(z)) < 1e-8 * max(1.0, abs(dquot(z)))


def test_removable_quotient_constant_denominator_rejected():
    with pytest.raises(DomainError):
        RemovableQuotient(PolyNode(Poly([1.0])), Poly([2.0]), [])


def test_removable_quotient_accurate_near_multiple_root():
    # a triple root keeps |den| small far beyond the series' trust radius;
    # evaluation there must fall back to the direct quotient
    quot = Poly([1.0, 0.3, -0.2, 0.05])
    den = Poly.from_roots([0.8, 0.8, 0.8, 5.0])
    rq = RemovableQuotient(PolyNode(den * quot), den, poly_roots(den))
    for dist in (1e-4, 5e-3, 0.05, 0.233, 2.0):
        z = 0.8 + dist * cmath.exp(0.3j)
        assert abs(rq(z) - quot(z)) < 1e-8 * max(1.0, abs(quot(z)))


def test_removable_quotient_jet_at_root():
    quot = Poly([2.0, 1.0])
    den = Poly.from_roots([0.5, 0.5])
    rq = RemovableQuotient(PolyNode(den * quot), den, poly_roots(den))
    jet = rq.jet(0.5, 1)
    assert jet[0] == pytest.approx(quot(0.5))
    assert jet[1] == pytest.approx(quot.deriv()(0.5))


def _phi1_reference(x):
    # high-order series; truncation < |x|^12/13! (negligible for |x| <= 0.01)
    acc, term = 0j, 1.0 + 0j
    for k in range(1, 14):
        acc += term
        term = term * x / (k + 1)
    return acc


def test_phi1_limit_and_continuity():
    assert phi1(0.0) == pytest.approx(1.0)
    for x in (4.9999e-5, 5.0001e-5, 0.9999e-4, 1.0001e-4):
        # straddle the series switch and the old 1e-4 cutoff
        assert abs(phi1(x) - _phi1_reference(x)) < 1e-15


def test_phi1_at_zero_and_generic():
    assert phi1(0.0) == 1.0
    assert phi1(1.0) == pytest.approx(math.e - 1.0)


@pytest.mark.parametrize("x", [1.01e-4, 2e-4j, 1e-2])
def test_phi1_matches_mpmath(x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        xm = mpmath.mpc(x)
        want = complex(mpmath.expm1(xm) / xm)
    assert abs(phi1(x) - want) <= 4 * math.ulp(abs(want))


@pytest.mark.parametrize("x", [-1500.0, -2000.0 + 5.0j, -1e5 - 1e6j, 712.0,
                               701.0 + 1e3j, 705.0 + 3.0j, 709.7 - 2.0j,
                               -740.0 + 30.0j])
def test_phi1_far_from_zero(x):
    # sinh(x/2) overflows on the left, and e^x on the right before e^x/x
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        want = complex(mpmath.expm1(mpmath.mpc(x)) / x)
    assert abs(phi1(x) - want) <= 4 * math.ulp(abs(want))


# just above |x| = 1, where a sum over phi1(j x) cancels as l grows
HIGH_ORDER_POINTS = (1.01, -1.01, -1.01j, 1.2 + 0.3j)


@pytest.mark.parametrize("x", [0.0, 1e-7, 0.3 - 0.4j, 0.99j, -0.99, 1.01,
                               -1.01j, 0.8 + 0.8j, -3.0 + 2.0j, 6.0,
                               -1.01, 1.2 + 0.3j])
def test_phi1_power_integral_matches_mpmath(x):
    # series below |x| = 1, the recurrence in phi1(x) above; orders 7-10
    # only at HIGH_ORDER_POINTS
    mpmath = pytest.importorskip("mpmath")
    for l in range(11 if x in HIGH_ORDER_POINTS else 7):
        with mpmath.workdps(50):
            xm = mpmath.mpc(x)

            def integrand(u):
                return (u if xm == 0 else mpmath.expm1(xm * u) / xm) ** l

            want = complex(mpmath.quad(integrand, [0, 0.5, 1]))
        bound = 5e-14 if l < 7 else 5e-13
        assert abs(phi1_power_integral(l, x) - want) <= bound * abs(want), l


def test_one_expm1_quotient():
    # (e^x - 1)/x lives in entire.py only: no other module subtracts 1 from
    # an exp(...) call or brings back an exponential-polynomial class
    import ast
    from pathlib import Path

    import holodom

    def is_exp_minus_one(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and isinstance(node.left, ast.Call)
                and (getattr(node.left.func, "id", None)
                     or getattr(node.left.func, "attr", None)) == "exp"
                and isinstance(node.right, ast.Constant)
                and node.right.value == 1)

    for path in sorted(Path(holodom.__file__).parent.glob("*.py")):
        if path.name == "entire.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            assert not is_exp_minus_one(node), (path.name, node.lineno)
            assert not (isinstance(node, ast.ClassDef)
                        and node.name == "ExpPoly"), path.name


small_cx = st.complex_numbers(min_magnitude=0.0, max_magnitude=2.0,
                              allow_nan=False, allow_infinity=False)


@given(st.lists(small_cx, min_size=1, max_size=4),
       st.lists(small_cx, min_size=1, max_size=3), small_cx)
@settings(max_examples=50, deadline=None)
def test_magnitude_jet_majorizes_property(c1, c2, z0):
    e = Prod([Sum([PolyNode(Poly(c1)), Const(1.0)]),
              Exp(PolyNode(Poly(c2)))])
    jet = e.jet(z0, 4)
    mag = e.magnitude_jet(z0, 4)
    for got, bound in zip(jet, mag):
        assert abs(got) <= bound * (1 + 1e-9) + 1e-9


@given(st.complex_numbers(max_magnitude=4e-4, allow_nan=False,
                          allow_infinity=False))
@settings(max_examples=100)
def test_phi1_continuous_across_series_switch(x):
    assert cmath.isclose(phi1(x), _phi1_reference(x),
                         rel_tol=1e-14, abs_tol=1e-15)


@given(st.complex_numbers(min_magnitude=1e-8, max_magnitude=1e-2,
                          allow_nan=False, allow_infinity=False))
def test_phi1_matches_series_reference(x):
    assert cmath.isclose(phi1(x), _phi1_reference(x),
                         rel_tol=1e-10, abs_tol=1e-12)
