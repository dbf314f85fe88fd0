"""Riccati fields on C x P1: fiber roots, Mobius flows, sections."""

import cmath
import math

import pytest

from holodom.errors import DegenerateFiberError, DomainError
from holodom.oracle import IntegrationSpec, integrate
from holodom.poly import Poly, RationalFn
from holodom.riccati import (DoubleSection, RiccatiField, Section, SpherePoint,
                             default_section, dominating_map_g,
                             verify_section_avoids)

# D(z, w) = w^2 - z
PARABOLA = DoubleSection.from_polys([1.0], [0.0], [0.0, -1.0])


def test_sphere_point_chordal():
    a = SpherePoint.finite(0.0)
    b = SpherePoint.finite(1.0)
    inf = SpherePoint.infinity()
    assert a.chordal(a) == 0.0
    assert inf.chordal(inf) == 0.0
    assert a.chordal(b) == pytest.approx(2.0 / math.sqrt(2.0))
    assert a.chordal(inf) == pytest.approx(2.0)
    assert inf.chordal(b) == pytest.approx(2.0 / math.sqrt(2.0))


def test_sphere_point_json():
    assert SpherePoint.infinity().to_json() == "inf"
    assert SpherePoint.finite(1.0 + 2.0j).to_json() == [1.0, 2.0]


def test_fiber_roots_distinct_sorted():
    roots = PARABOLA.fiber_roots(4.0)
    vals = [p.value for p in roots.points]
    assert not roots.double
    assert vals == [-2.0, 2.0]


def test_fiber_roots_double():
    roots = PARABOLA.fiber_roots(0.0)
    assert roots.double
    assert roots.points[0].value == 0.0


def test_fiber_roots_degree_drop():
    # a vanishes at z = 0: w (z w + 1) has roots -1/z and infinity
    ds = DoubleSection.from_polys([0.0, 1.0], [1.0], [0.0])
    roots = ds.fiber_roots(0.0)
    assert any(p.is_infinity for p in roots.points)


def test_fiber_roots_degenerate():
    ds = DoubleSection.from_polys([0.0, 1.0], [0.0, 1.0], [0.0, 1.0])
    with pytest.raises(DegenerateFiberError):
        ds.fiber_roots(0.0)


def test_flow_fixes_fiber_roots():
    field = RiccatiField(PARABOLA)
    for z in (4.0, 1.0 + 1.0j):
        for root in PARABOLA.fiber_roots(z).points:
            out = field.flow(0.7 - 0.2j, z, root)
            assert out.chordal(root) < 1e-12


def test_flow_from_infinity_matches_oracle_in_inverse_chart():
    field = RiccatiField(PARABOLA)
    z, t = 2.0 + 1.0j, 0.3 - 0.1j
    out = field.flow(t, z, SpherePoint.infinity())
    assert not out.is_infinity
    res = integrate(field.callback_v(), (z, 0j), IntegrationSpec(path=(t,)))
    assert abs(1.0 / res.endpoint[1] - out.value) < 1e-7 * (1 + abs(out.value))


def test_flow_matches_oracle_finite_chart():
    field = RiccatiField(PARABOLA)
    z, w0, t = 3.0, 0.5 + 0.5j, 0.4 + 0.2j
    out = field.flow(t, z, w0)
    res = integrate(lambda z, w: (0j, PARABOLA.eval(z, w)), (z, w0),
                    IntegrationSpec(path=(t,)))
    assert abs(res.endpoint[1] - out.value) < 1e-7 * (1 + abs(out.value))


def test_flow_group_law_on_sphere():
    field = RiccatiField(PARABOLA)
    z, t1, t2 = 1.0 + 2.0j, 0.3 + 0.1j, -0.2 + 0.4j
    w0 = SpherePoint.infinity()
    once = field.flow(t1 + t2, z, w0)
    twice = field.flow(t2, z, field.flow(t1, z, w0))
    assert once.chordal(twice) < 1e-9


def test_parabolic_fiber_flow():
    # double root at 0 over z=0: w' = w^2, w(t) = w0/(1 - w0 t)
    field = RiccatiField(PARABOLA)
    out = field.flow(0.5, 0.0, 1.0 + 0j)
    assert out.value == pytest.approx(2.0)
    # blow-up time t = 1/w0 lands exactly at infinity
    assert field.flow(1.0, 0.0, 1.0 + 0j).is_infinity


def test_multiplier_lex_order_and_sign():
    field = RiccatiField(PARABOLA)
    # roots at -2, 2 over z=4: lambda = a (w1 - w2) = -4
    assert field.multiplier(4.0) == pytest.approx(-4.0)
    with pytest.raises(DomainError):
        field.multiplier(0.0)


def test_section_constructor_guards():
    with pytest.raises(DomainError):
        Section()
    with pytest.raises(DomainError):
        Section(RationalFn(Poly([1.0]), Poly([0.0, 1.0])), infinite=True)


def test_section_pole_maps_to_infinity():
    sec = Section.of(RationalFn(Poly([1.0]), Poly([0.0, 1.0])))
    assert sec(0.0).is_infinity
    assert sec(2.0).value == pytest.approx(0.5)


def test_default_section_constant_leading_coefficient():
    assert default_section(PARABOLA).infinite
    zdep = DoubleSection.from_polys([0.0, 1.0], [0.0], [1.0])
    assert default_section(zdep) is None


def test_verify_section_avoids_parabola():
    rep = verify_section_avoids(Section.infinity(), PARABOLA, seed=5)
    assert rep.passed
    assert rep.min_distance > 0.0
    # roots grow like sqrt(z) on |z| <= 3; chordal distance to inf stays
    # bounded below by 2/sqrt(1+3)
    assert rep.min_distance > 0.9


def test_dominating_map_g_from_infinity():
    field = RiccatiField(PARABOLA)
    z, t = 2.0, 0.25
    out = dominating_map_g(field, Section.infinity(), z, t)
    # cross-ratio flow from y0 = 1: w = r1 (1 + E)/(1 - E) style Mobius value
    r = math.sqrt(2.0)
    lam = -2.0 * r
    y = cmath.exp(lam * t)
    want = (-r - y * r) / (1.0 - y)
    assert out.value == pytest.approx(want, rel=1e-10)


def test_dominating_map_g_rejects_touching_section():
    field = RiccatiField(PARABOLA)
    graph = Section.of(RationalFn(Poly([2.0]), Poly([1.0])))  # w = 2 hits at z=4
    with pytest.raises(DomainError):
        dominating_map_g(field, graph, 4.0, 0.1)

