"""Adaptive integrator: accuracy, convergence, escapes, monodromy."""

import cmath
import math

import pytest

from holodom.errors import EscapeError, NumericalError
from holodom.oracle import (IntegrationSpec, integrate, monodromy_check)


def exponential(z, w):
    return (0j, w)


def quadratic(z, w):
    return (0j, w * w)


def test_linear_flow_hits_exponential():
    res = integrate(exponential, (0j, 1.0 + 0j), IntegrationSpec())
    assert abs(res.endpoint[1] - math.e) < 1e-9
    assert res.endpoint[0] == 0j
    assert res.steps > 0


def test_default_path_is_unit_time():
    spec = IntegrationSpec()
    assert spec.path == (1.0 + 0j,)


def test_result_fields_native_types():
    res = integrate(exponential, (0j, 1.0 + 0j), IntegrationSpec())
    assert isinstance(res.error_estimate, float)
    assert isinstance(res.steps, int)
    assert isinstance(res.rejected, int)
    assert isinstance(res.endpoint[0], complex)


def test_tightening_rtol_reduces_error():
    errors = []
    for rtol in (1e-4, 1e-6, 1e-8):
        res = integrate(exponential, (0j, 1.0 + 0j),
                        IntegrationSpec(rtol=rtol, atol=rtol * 1e-3))
        errors.append(abs(res.endpoint[1] - math.e))
    assert errors[1] <= errors[0] / 4 + 1e-15
    assert errors[2] <= errors[1] / 4 + 1e-15


def test_multi_segment_path_composes():
    # 0 -> i -> 1+i, total displacement 1+i
    res = integrate(exponential, (0j, 1.0 + 0j),
                    IntegrationSpec(path=(1j, 1.0 + 1j)))
    assert res.endpoint[1] == pytest.approx(cmath.exp(1.0 + 1j), rel=1e-8)


def test_riccati_blow_up_escapes_near_unit_time():
    # w' = w^2 from w=1 blows up at t=1
    with pytest.raises(EscapeError) as exc_info:
        integrate(quadratic, (0j, 1.0 + 0j), IntegrationSpec(path=(1.0 + 0j,)))
    err = exc_info.value
    assert 0.99 <= err.tau_reached <= 1.0
    assert err.segment_index == 0


def test_blow_up_before_escape_is_accurate():
    # closed form w(t) = 1/(1 - t): still finite at t = 0.5
    res = integrate(quadratic, (0j, 1.0 + 0j), IntegrationSpec(path=(0.5 + 0j,)))
    assert abs(res.endpoint[1] - 2.0) < 1e-8


def test_step_budget_exhaustion():
    with pytest.raises(NumericalError):
        integrate(exponential, (0j, 1.0 + 0j),
                  IntegrationSpec(rtol=1e-13, atol=1e-15, max_steps=5))


def test_escape_error_is_numerical_error():
    assert issubclass(EscapeError, NumericalError)


def test_monodromy_closed_loop_of_periodic_flow():
    # w' = i w has period 2*pi; transport around t: 0 -> 2*pi returns w
    field = lambda z, w: (0j, 1j * w)
    period = 2 * math.pi
    loop = (period / 2 + 0j, period + 0j)
    gap = monodromy_check(field, (0j, 1.0 + 0.5j), loop)
    assert gap < 1e-8


def test_monodromy_open_path_reports_displacement():
    field = lambda z, w: (0j, 1j * w)
    gap = monodromy_check(field, (0j, 1.0 + 0j), (math.pi + 0j,))
    # half a period leaves w at -w0, distance 2
    assert gap == pytest.approx(2.0, rel=1e-7)


def test_zero_length_segments_are_skipped():
    res = integrate(exponential, (0j, 1.0 + 0j),
                    IntegrationSpec(path=(0j, 1.0 + 0j, 1.0 + 0j)))
    assert abs(res.endpoint[1] - math.e) < 1e-8


def test_oracle_imports_only_stdlib_numpy_and_errors():
    # the oracle cross-checks the closed forms, so it must share no code
    # with them: stdlib, numpy and the package's error classes only
    import ast
    import sys
    from pathlib import Path

    import holodom.oracle

    tree = ast.parse(Path(holodom.oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom):
            assert (node.level, node.module) == (1, "errors")
            continue
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            assert top == "numpy" or top in sys.stdlib_module_names, name
