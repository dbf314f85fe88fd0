"""Vertical fields, their closed flows, and the dominating map."""

import cmath
import math

import pytest

from holodom.entire import PolyNode
from holodom.errors import DomainError
from holodom.gap import construct_gap
from holodom.oracle import IntegrationSpec, integrate
from holodom.poly import POLE, Poly, RationalFn, rat_eval
from holodom.vertical import DominatingMapF, FiberType, VerticalFieldZu


def rational(num, den):
    return RationalFn(Poly(num), Poly(den))


S_SIMPLE = rational([1.0], [0.0, 1.0])                    # 1/z
S_TWO_POLE = rational([1.0, 0.0, 1.0],
                      Poly.from_roots([0.9, 0.8, 0.8]).coeffs)
U_LINEAR = PolyNode(Poly([0.2, -0.1]))


def test_field_vanishes_on_graph():
    field = VerticalFieldZu(S_SIMPLE)
    z = 2.0
    dz, dw = field.eval(z, 0.5)  # s(2) = 0.5
    assert dz == 0j
    assert abs(dw) < 1e-12


def test_flow_at_zero_time_is_identity():
    field = VerticalFieldZu(S_TWO_POLE, U_LINEAR)
    z, w = 0.3 + 0.2j, 1.5 - 0.4j
    assert field.flow(0.0, z, w) == (z, w)


def test_flow_fixes_graph_exactly():
    field = VerticalFieldZu(S_SIMPLE)
    z = 1.7 + 0.3j
    sz = S_SIMPLE(z)
    _, w = field.flow(2.3 - 1.1j, z, sz)
    assert w == sz  # bitwise, not approximately


def test_flow_group_law():
    field = VerticalFieldZu(S_TWO_POLE, U_LINEAR)
    z, w = 0.4 - 0.6j, 2.0 + 1.0j
    t1, t2 = 0.37 + 0.21j, -0.52 + 0.33j
    _, w12 = field.flow(t1 + t2, z, w)
    _, w1 = field.flow(t1, z, w)
    _, w2 = field.flow(t2, z, w1)
    assert abs(w12 - w2) < 1e-9 * (1 + abs(w12))


def test_flow_matches_oracle_generic_point():
    field = VerticalFieldZu(S_TWO_POLE, U_LINEAR)
    z, w = 1.4 + 0.5j, -0.7 + 0.2j
    t = 0.6 - 0.4j
    _, w_closed = field.flow(t, z, w)
    res = integrate(field.as_callback(), (z, w), IntegrationSpec(path=(t,)))
    assert abs(res.endpoint[1] - w_closed) < 1e-7 * (1 + abs(w_closed))


def test_flow_matches_oracle_near_suppressed_q1():
    # z close to the simple root 0.9 while the double root 0.8 keeps
    # |q1(z)| small: closed form must stay accurate on the switch branch
    field = VerticalFieldZu(S_TWO_POLE)
    z = 0.9546 + 0.0180j
    w = 0.5 + 0.1j
    t = 0.8 + 0.2j
    _, w_closed = field.flow(t, z, w)
    res = integrate(field.as_callback(), (z, w),
                    IntegrationSpec(path=(t,), rtol=1e-12, atol=1e-14))
    assert abs(res.endpoint[1] - w_closed) < 1e-7 * (1 + abs(w_closed))


def test_flow_on_root_fiber_is_affine():
    # q1(0) = 0 for s = 1/z: fiber flow is w - t e^u q
    field = VerticalFieldZu(S_SIMPLE)
    w = 0.3 + 0.8j
    t = 1.7 - 0.6j
    _, moved = field.flow(t, 0.0, w)
    assert moved == pytest.approx(w - t, rel=1e-12)  # e^u = q = 1 at z=0


def test_classify_fiber():
    field = VerticalFieldZu(S_SIMPLE)
    assert field.classify_fiber(0.0) is FiberType.TYPE_C
    assert field.classify_fiber(1.0) is FiberType.TYPE_C_STAR


def test_period_of_c_star_fiber():
    field = VerticalFieldZu(S_SIMPLE)
    # c(1) = q1(1) = 1, period 2*pi*i
    assert field.period(1.0) == pytest.approx(2j * math.pi)
    _, w = field.flow(field.period(1.0), 1.0, 2.5 + 0.5j)
    assert w == pytest.approx(2.5 + 0.5j, rel=1e-8)


def test_period_undefined_on_type_c_fiber():
    field = VerticalFieldZu(S_SIMPLE)
    with pytest.raises(DomainError):
        field.period(0.0)


def test_dominating_map_hits_target_fiberwise():
    f = DominatingMapF(construct_gap(S_SIMPLE))
    z, t = 1.3 - 0.4j, 0.9 + 0.3j
    zz, ww = f(z, t)
    assert zz == z
    # image avoids graph(s) for every t
    assert ww != S_SIMPLE(z)


def test_preimage_round_trip_log_branch():
    f = DominatingMapF(construct_gap(S_TWO_POLE), U_LINEAR)
    z, w = 1.2 + 0.7j, -1.4 + 0.9j
    pre = f.preimage(z, w)
    assert pre.branch == "log"
    _, back = f(z, pre.t)
    assert abs(back - w) < 1e-8 * (1 + abs(w))


def test_preimage_round_trip_linear_branch():
    f = DominatingMapF(construct_gap(S_SIMPLE))
    z, w = 0.0, 2.0 + 1.0j
    pre = f.preimage(z, w)
    assert pre.branch == "linear"
    _, back = f(z, pre.t)
    assert abs(back - w) < 1e-10


def test_preimage_rejects_graph_point():
    f = DominatingMapF(construct_gap(S_SIMPLE))
    with pytest.raises(DomainError):
        f.preimage(2.0, 0.5)  # w = s(2)


def test_exponential_conjugation_identity():
    # f(z, t) = (z, s - e^(g1 + c t)/q1) away from the roots of q1
    cert = construct_gap(S_TWO_POLE)
    f = DominatingMapF(cert)
    for z, t in ((1.5 + 0.2j, 0.4 - 0.1j), (-0.6 + 1.1j, 1.2 + 0.9j)):
        _, w = f(z, t)
        q1v = S_TWO_POLE.den(z)
        closed = S_TWO_POLE(z) - cmath.exp(cert.g1(z) + q1v * t) / q1v
        assert abs(w - closed) < 1e-10 * (1 + abs(w))


def test_jacobian_matches_finite_differences():
    f = DominatingMapF(construct_gap(S_TWO_POLE), U_LINEAR)
    z, t = 0.5 + 0.3j, 0.2 - 0.6j
    h = 1e-5
    # dz column: f1 = z exactly, f2 = w(z, t)
    w = lambda zz, tt: f(zz, tt)[1]
    dw_dz = (w(z + h, t) - w(z - h, t)) / (2 * h)
    dw_dt = (w(z, t + h) - w(z, t - h)) / (2 * h)
    det_fd = 1.0 * dw_dt - 0.0 * dw_dz
    det = f.jacobian(z, t)
    assert abs(det - det_fd) < 1e-5 * (1 + abs(det))
    assert det != 0


def test_jacobian_never_vanishes_on_grid():
    f = DominatingMapF(construct_gap(S_SIMPLE))
    for k in range(24):
        z = 2.0 * cmath.exp(2j * math.pi * k / 24) + 0.1
        assert abs(f.jacobian(z, 0.3j)) > 0.0


def test_rat_eval_and_classify_fiber_agree_next_to_a_root():
    # |q1(z)| = 3e-9 is under the |z|-scaled bound 1e-9 * 2 * |z| = 4e-9
    # but over the unscaled 2e-9: both must apply the same bound
    s = rational([1.0], [-2.0, 1.0])
    z = 2.0 + 3e-9
    assert rat_eval(s, z) is POLE
    assert VerticalFieldZu(s).classify_fiber(z) is FiberType.TYPE_C
