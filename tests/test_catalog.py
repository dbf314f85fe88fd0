"""Field catalog: validation, instantiation, conjugation, closed flows."""

import cmath
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from holodom.catalog import (AffineFiberFamily, FamilyI, FamilyII, FamilyIII,
                             FamilyIV, FiberAutomorphism, MonomialFlowFamily,
                             ScalingField, SuzukiForm1, SuzukiForm3,
                             SuzukiForm4, alpha_conjugate,
                             closed_flow_family, eigenratio, family_from_json,
                             first_integral_check,
                             instantiate_family, lbl_automorphism,
                             linear_pushforward, pole_graph_curve,
                             pushforward, tables_allclose, tangency_check)
from holodom.entire import Const, PolyNode
from holodom.errors import (DomainError, HolodomError, NotHolomorphicError,
                            NumericalError)
from holodom.gap import construct_gap
from holodom.oracle import IntegrationSpec, integrate
from holodom.poly import Poly, RationalFn


# ---------------------------------------------------------------------------
# validation

def test_family_i_rejects_zero_multiplier():
    with pytest.raises(DomainError):
        FamilyI(1.0, 0.0, Poly()).validate()
    FamilyI(1.0, 0.0, Poly([2.0])).validate()


def test_family_ii_requires_coprime_positive_exponents():
    with pytest.raises(DomainError):
        FamilyII(1.0, 2, 4, Poly([1.0])).validate()
    with pytest.raises(DomainError):
        FamilyII(1.0, 0, 3, Poly([1.0])).validate()
    FamilyII(1.0, 2, 3, Poly([1.0])).validate()


def test_family_iii_tail_divisibility():
    with pytest.raises(DomainError):
        FamilyIII(1.0, 2, Poly([0.0, 1.0])).validate()
    FamilyIII(1.0, 2, Poly([0.0, 0.0, 1.0])).validate()


def test_family_iv_exponent_inequality():
    with pytest.raises(DomainError):
        FamilyIV(1.0, 2, 3, 2, Poly([0.0, 0.0, 1.0])).validate()  # m <= n*k
    FamilyIV(1.0, 1, 3, 2, Poly([0.0, 1.0])).validate()


def test_suzuki3_constraints():
    with pytest.raises(DomainError):
        SuzukiForm3(0.0, 1, 2).validate()
    with pytest.raises(DomainError):
        SuzukiForm3(1.0, 2, 4).validate()
    SuzukiForm3(1.0j, 2, 3).validate()


def test_suzuki4_gamma_low_order_zero():
    # ceil(l/m) = 1 forces gamma(0) = 0
    with pytest.raises(DomainError):
        SuzukiForm4(2, 1, 2, Poly([1.0]), Poly([1.0])).validate()
    SuzukiForm4(2, 1, 2, Poly([1.0]), Poly([0.0, 1.0])).validate()


def test_suzuki4_p_constraints():
    with pytest.raises(DomainError):
        SuzukiForm4(2, 1, 0, Poly([1.0]), Poly([0.0, 1.0])).validate()
    with pytest.raises(DomainError):
        SuzukiForm4(2, 1, 1, Poly([0.0, 0.0]), Poly([0.0, 1.0])).validate()


def test_affine_fiber_ratio_restrictions():
    AffineFiberFamily(2.0, Poly([3.0]), Poly([1.0])).validate()  # ratio 2/3
    with pytest.raises(DomainError):
        AffineFiberFamily(2.0, Poly([1.0]), Poly()).validate()  # integer 2
    with pytest.raises(DomainError):
        AffineFiberFamily(1.0, Poly([3.0]), Poly()).validate()  # reciprocal
    with pytest.raises(DomainError):
        AffineFiberFamily(-2.0, Poly([3.0]), Poly()).validate()  # negative


def test_monomial_flow_restrictions():
    MonomialFlowFamily(1, 1, Poly([0.0, 1.0]), -2.0, 3.0).validate()
    with pytest.raises(DomainError):
        MonomialFlowFamily(1, 1, Poly([1.0]), -2.0, 3.0).validate()  # f(0) != 0
    with pytest.raises(DomainError):
        MonomialFlowFamily(1, 1, Poly([0.0, 1.0]), 3.0, 3.0).validate()
    with pytest.raises(DomainError):
        # alpha*m = beta*n
        MonomialFlowFamily(2, 3, Poly([0.0, 1.0]), -3.0, -2.0).validate()


def test_scaling_field_constraints():
    ScalingField(2, 3).validate()
    with pytest.raises(DomainError):
        ScalingField(1, 1).validate()
    with pytest.raises(DomainError):
        ScalingField(2, 4).validate()


# ---------------------------------------------------------------------------
# JSON codecs

def test_family_json_round_trips():
    cases = [
        ({"kind": "i", "a": [1.0, 0.5], "b": [-0.25, 0.0],
          "multiplier": [[2.0, 0.0], [0.0, 1.0]]},
         FamilyI(1.0 + 0.5j, -0.25, Poly([2.0, 1.0j]))),
        ({"kind": "ii", "a": [0.5, 0.0], "m": 2, "n": 3,
          "multiplier": [[1.0, 0.0]]},
         FamilyII(0.5, 2, 3, Poly([1.0]))),
        ({"kind": "iii", "a": [1.0, 0.0], "k": 2,
          "tail": [[0.0, 0.0], [0.0, 0.0], [0.7, 0.0]]},
         FamilyIII(1.0, 2, Poly([0.0, 0.0, 0.7]))),
        ({"kind": "iv", "a": [1.0, 0.0], "k": 1, "m": 3, "n": 2,
          "tail": [[0.0, 0.0], [1.0, 0.0]]},
         FamilyIV(1.0, 1, 3, 2, Poly([0.0, 1.0]))),
        ({"kind": "suzuki3", "lam": [0.0, 1.0], "m": 2, "n": 3},
         SuzukiForm3(1.0j, 2, 3)),
        ({"kind": "scaling", "r": 2, "s": 3}, ScalingField(2, 3)),
        ({"kind": "affine_fiber", "lam": [2.0, 0.0], "a": [[3.0, 0.0]],
          "c": [[1.0, 0.0], [1.0, 0.0]]},
         AffineFiberFamily(2.0, Poly([3.0]), Poly([1.0, 1.0]))),
    ]
    for doc, spec in cases:
        assert family_from_json(json.loads(json.dumps(doc))) == spec


def test_family_json_rejections():
    for doc in ({},
                {"kind": "nope"},
                {"kind": "iii", "a": [1, 0], "k": 2},          # missing tail
                {"kind": "iii", "a": "x", "k": 2, "tail": []},  # malformed a
                {"kind": "scaling", "r": 2, "s": 4}):           # fails validate
        with pytest.raises(DomainError):
            family_from_json(doc)


# ---------------------------------------------------------------------------
# instantiation and tangency

def test_instantiate_family_i_values():
    field = instantiate_family(FamilyI(2.0, 1.0, Poly([3.0, 0.5])))
    z, w = 0.4, 1.2
    p, q = field(z, w)
    assert p == pytest.approx(2.0 * z + 1.0)
    assert q == pytest.approx((3.0 + 0.5 * z) * w)


def test_instantiate_scaling_field():
    field = instantiate_family(ScalingField(2, 3))
    p, q = field(0.5, 0.25)
    assert p == pytest.approx(1.0)
    assert q == pytest.approx(0.75)


def test_instantiate_rejects_invalid():
    with pytest.raises(DomainError):
        instantiate_family(ScalingField(2, 4))


def test_suzuki1_with_poles_is_catalog_only():
    spec = SuzukiForm1(RationalFn(Poly([1.0]), Poly([0.0, 1.0])))
    spec.validate()
    with pytest.raises(DomainError):
        instantiate_family(spec)


def test_suzuki4_instantiates_holomorphically():
    spec = SuzukiForm4(2, 1, 2, Poly([1.0]), Poly([0.0, 1.0]))
    field = instantiate_family(spec)
    p, q = field(0.3 + 0.1j, -0.7)
    assert cmath.isfinite(p) and cmath.isfinite(q)


def test_family_iii_tangent_to_pole_graph():
    spec = FamilyIII(1.0, 2, Poly([0.0, 0.0, 0.5, -0.2]))
    rep = tangency_check(instantiate_family(spec), pole_graph_curve(2),
                         seed=4)
    assert rep.passed
    assert rep.max_residual < 1e-9


def test_tangency_check_fails_for_transverse_field():
    # d/dw is nowhere tangent to the graph of w = 1/z^2
    field = instantiate_family(SuzukiForm1(RationalFn(Poly([1.0]),
                                                      Poly([1.0]))))
    rep = tangency_check(field, pole_graph_curve(2), seed=4)
    assert not rep.passed


# ---------------------------------------------------------------------------
# eigenvalue ratios

def test_eigenratio_worked_values():
    cases = [
        (FamilyI(2.0, 0.0, Poly([3.0, 0.5])), (0j, 0j), 2.0 / 3.0),
        (FamilyII(1.0, 2, 3, Poly([1.0, 0.25])), (0j, 0j), -1.0 / 3.0),
        (FamilyIII(1.0, 2, Poly([0.0, 0.0, 0.7])), (0j, -0.35 + 0j), -0.5),
        (FamilyIV(1.0, 1, 3, 2, Poly([0.0, 1.0])), (0j, 0.5 + 0j), -1.0),
    ]
    for spec, point, expected in cases:
        res = eigenratio(instantiate_family(spec), point)
        assert abs(res.ratio - expected) < 1e-10
        assert abs(res.ratio) <= 1.0 + 1e-12


def test_eigenratio_rejects_regular_point():
    field = instantiate_family(ScalingField(2, 3))
    with pytest.raises(DomainError):
        eigenratio(field, (1.0, 1.0))


def test_eigenratio_classification():
    from holodom.catalog import RatioClass
    res = eigenratio(instantiate_family(FamilyI(2.0, 0.0, Poly([3.0]))),
                     (0j, 0j))
    assert res.kind is RatioClass.POSITIVE_RATIONAL_TYPE_C_STAR
    res = eigenratio(instantiate_family(
        FamilyI(2.0 + 1.0j, 0.0, Poly([1.0]))), (0j, 0j))
    assert res.kind is RatioClass.NON_REAL_TYPE_C


# ---------------------------------------------------------------------------
# conjugation

def test_alpha_conjugate_matches_family_iii():
    conj = alpha_conjugate(FamilyI(1.0, 0.0, Poly([-1.0, 0.5])), 1)
    direct = instantiate_family(FamilyIII(1.0, 1, Poly([0.0, 0.5])))
    assert tables_allclose(conj, direct)


def test_alpha_conjugate_rejects_noncancelling():
    with pytest.raises(NotHolomorphicError):
        alpha_conjugate(FamilyI(1.0, 0.0, Poly([5.0])), 1)


def test_alpha_conjugate_requires_b_zero():
    with pytest.raises(DomainError):
        alpha_conjugate(FamilyI(1.0, 2.0, Poly([-1.0])), 1)


def test_pushforward_transports_trajectories():
    field = instantiate_family(FamilyI(0.5, 0.2, Poly([1.0, -0.3])))
    phi = FiberAutomorphism(PolyNode(Poly([0.0, 0.2])),
                            PolyNode(Poly([0.5, 0.0, -0.1])))
    moved = pushforward(phi, field)
    p0 = (0.4 + 0.1j, -0.6 + 0.3j)
    t = 0.5 + 0j
    res = integrate(field, p0, IntegrationSpec(path=(t,)))
    direct = phi(*res.endpoint)
    res2 = integrate(moved, phi(*p0), IntegrationSpec(path=(t,)))
    assert abs(direct[0] - res2.endpoint[0]) < 1e-7
    assert abs(direct[1] - res2.endpoint[1]) < 1e-6 * (1 + abs(direct[1]))


def test_fiber_automorphism_inverse():
    phi = FiberAutomorphism(PolyNode(Poly([0.1, -0.2])),
                            PolyNode(Poly([1.0, 0.5])))
    both = phi.compose(phi.inverse())
    z, w = 0.7 - 0.2j, 1.3 + 0.9j
    zz, ww = both(z, w)
    assert zz == z
    assert ww == pytest.approx(w, rel=1e-12)


def test_linear_pushforward_rejects_singular():
    field = instantiate_family(ScalingField(2, 3))
    with pytest.raises(DomainError):
        linear_pushforward(((1.0, 2.0), (2.0, 4.0)), field)


def test_linear_pushforward_swap_exchanges_weights():
    swapped = linear_pushforward(((0.0, 1.0), (1.0, 0.0)),
                                 instantiate_family(ScalingField(2, 3)))
    assert tables_allclose(swapped, instantiate_family(ScalingField(3, 2)))


# ---------------------------------------------------------------------------
# closed flows

ORACLE = IntegrationSpec(rtol=1e-12, atol=1e-14)


def _flow_matches_oracle(spec, p0, t):
    closed = closed_flow_family(spec, t, p0)
    res = integrate(instantiate_family(spec), p0,
                    IntegrationSpec(path=(t,), rtol=1e-12, atol=1e-14))
    scale = 1 + abs(closed[0]) + abs(closed[1])
    assert abs(closed[0] - res.endpoint[0]) < 1e-8 * scale
    assert abs(closed[1] - res.endpoint[1]) < 1e-8 * scale


def test_closed_flow_family_i():
    _flow_matches_oracle(FamilyI(0.5, 0.3, Poly([1.0, 0.2])),
                         (0.4, 0.8), 0.6)


def test_closed_flow_family_i_degenerate_a():
    _flow_matches_oracle(FamilyI(0.0, 0.3, Poly([1.0, 0.2, -0.1])),
                         (0.4 + 0.2j, 0.8), 0.7 - 0.2j)


def test_closed_flow_family_ii():
    _flow_matches_oracle(FamilyII(1.0, 2, 3, Poly([1.0, 0.25])),
                         (0.5, 0.4), 0.3)


def test_closed_flow_family_iii():
    _flow_matches_oracle(FamilyIII(0.7, 2, Poly([0.0, 0.0, 0.5, 0.1])),
                         (0.8, 0.6), 0.4)


def test_closed_flow_family_iii_frozen_base():
    _flow_matches_oracle(FamilyIII(0.0, 2, Poly([0.0, 0.0, 0.5])),
                         (0.8 - 0.3j, 0.6 + 0.2j), 0.5)


@pytest.mark.parametrize("a", [10.0 ** -k for k in range(13)]
                         + [0.0, 0.7 - 1.1j])
def test_closed_flows_hold_as_the_rate_goes_to_zero(a):
    # rates that approach 0 without reaching it: a closed form that divides
    # by the rate loses every digit of family (i) with b = 1 here
    t, p0 = 0.9 + 0.3j, (0.4 + 0.1j, 1.0 + 0.5j)
    multiplier = Poly([0.3, 0.5, 0.2, 0.1])
    for spec in (FamilyI(a, 1.0, multiplier), FamilyI(a, 0.0, multiplier),
                 FamilyII(a, 2, 3, Poly([0.3, 0.5, 0.2])),
                 FamilyIII(a, 2, Poly([0.0, 0.0, 0.5, 0.2, 0.1]))):
        _flow_matches_oracle(spec, p0, t)


def test_closed_flow_family_keeps_to_the_float_range():
    # rates, coefficients, times and points of magnitude 10^-3 .. 10^3: a
    # flow either comes back finite or raises a HolodomError
    rng = random.Random(0)

    def cx():
        return cmath.rect(10.0 ** rng.uniform(-3, 3),
                          rng.uniform(0, 2 * math.pi))

    def poly(low=0):
        return Poly([0j] * low + [cx() for _ in range(rng.randint(1, 3))])

    returned = 0
    for draw in range(400):
        if draw % 3 == 0:
            spec = FamilyI(cx(), cx(), poly())
        elif draw % 3 == 1:
            m, n = rng.choice(((1, 2), (2, 3), (3, 1)))
            spec = FamilyII(cx(), m, n, poly())
        else:
            k = rng.randint(1, 2)
            spec = FamilyIII(cx(), k, poly(k))
        try:
            z, w = closed_flow_family(spec, cx(), (cx(), cx()))
        except HolodomError:
            continue
        assert cmath.isfinite(z) and cmath.isfinite(w), (draw, spec)
        returned += 1
    # most draws stay in range: the contract is not met by refusing them
    assert returned > 200


@pytest.mark.parametrize("spec", [
    FamilyI(1.0, 1.0, Poly([0.3])),
    FamilyI(float("nan"), 1.0, Poly([0.3, 0.5])),
    FamilyII(0.5, 2, 3, Poly([0.3, 0.5])),
    FamilyIII(0.5, 2, Poly([0.0, 0.0, 0.5])),
])
def test_closed_flow_family_refuses_nan(spec):
    # a NaN rate or time ends in NumericalError, not in a series that never
    # reaches its stopping test
    with pytest.raises(NumericalError):
        closed_flow_family(spec, complex("nan"), (0.4 + 0.1j, 1.0 + 0.5j))


def test_closed_flow_rejects_other_kinds():
    with pytest.raises(DomainError):
        closed_flow_family(ScalingField(2, 3), 0.1, (1.0, 1.0))


# ---------------------------------------------------------------------------
# relabeling and first integrals

def test_lbl_automorphism_sends_graph_to_pole_graph():
    s = RationalFn(Poly([2.0, 1.0]), Poly.from_roots([0.5, 0.5]))
    cert = construct_gap(s)
    phi = lbl_automorphism(cert)
    for z in (1.5, -0.3 + 0.8j, 2.0 - 1.0j):
        _, image = phi(z, s(z))
        assert abs(image - 1.0 / (z - 0.5) ** 2) < 1e-10 * (
            1 + abs(image))


def test_lbl_automorphism_checks_pole_count_and_order():
    s = RationalFn(Poly([1.0]), Poly.from_roots([0.0, 1.0]))
    with pytest.raises(DomainError):
        lbl_automorphism(construct_gap(s))
    single = construct_gap(RationalFn(Poly([1.0]), Poly.from_roots([0.5])))
    with pytest.raises(DomainError):
        lbl_automorphism(single, k=2)
    lbl_automorphism(single, k=1)


def test_first_integral_check_passes():
    rep = first_integral_check(ScalingField(2, 3),
                               [(1.0, 0.7), (0.5 + 0.2j, 1.1)],
                               [0.3, 0.7j])
    assert rep.passed
    assert rep.max_drift < 1e-10


def test_first_integral_check_rejects_axis():
    with pytest.raises(DomainError):
        first_integral_check(ScalingField(2, 3), [(0.0, 1.0)], [0.1])


small = st.floats(-1.5, 1.5)


@given(small, small, small, small)
@settings(max_examples=30, deadline=None)
def test_fiber_automorphism_compose_associative(g1, d1, g2, d2):
    a = FiberAutomorphism(Const(g1), Const(d1))
    b = FiberAutomorphism(Const(g2), Const(d2))
    z, w = 0.3, 0.7 - 0.4j
    via_compose = a.compose(b)(z, w)
    direct = a(*b(z, w))
    assert via_compose[1] == pytest.approx(direct[1], rel=1e-12, abs=1e-12)
