"""Closed-form holomorphic flows on complement-of-graph domains.

The package is organised around one construction: given a rational section
s = q/q1, build an entire certificate (g1, h) with h - s nowhere zero, then
flow the vertical fields e^u (q1 w - q) d/dw in closed form and compare
against an independent Runge-Kutta oracle.  Around that core sit the Riccati
fields on C x P1, the cuspidal covering maps, and a catalogue of normal-form
families with their tangency and eigenvalue-ratio diagnostics.

The top level re-exports the README's entry points and the error classes;
everything else is imported from its submodule.
"""

from .errors import (
    DegenerateFiberError,
    DomainError,
    EscapeError,
    HolodomError,
    NotHolomorphicError,
    NumericalError,
    TypeCFiberError,
)
from .poly import Poly, RationalFn
from .gap import construct_gap, verify_gap
from .vertical import DominatingMapF, VerticalFieldZu
from .riccati import DoubleSection, dominating_map_g, verify_section_avoids
from .covering import CuspCurve
from .catalog import alpha_conjugate, closed_flow_family, eigenratio, tangency_check
from .oracle import IntegrationSpec, integrate, monodromy_check

__version__ = "0.1.0"

__all__ = [
    "CuspCurve",
    "DegenerateFiberError",
    "DomainError",
    "DominatingMapF",
    "DoubleSection",
    "EscapeError",
    "HolodomError",
    "IntegrationSpec",
    "NotHolomorphicError",
    "NumericalError",
    "Poly",
    "RationalFn",
    "TypeCFiberError",
    "VerticalFieldZu",
    "alpha_conjugate",
    "closed_flow_family",
    "construct_gap",
    "dominating_map_g",
    "eigenratio",
    "integrate",
    "monodromy_check",
    "tangency_check",
    "verify_gap",
    "verify_section_avoids",
]
