"""Numerical toolkit for interior blow-up in the 1-D fractional absorption equation.

The package studies positive solutions of

    (-Lap)^a u + |u|^(p-1) u = 0   on (-1, 1) \\ {0},   u = 0 outside (-1, 1),

that blow up at the interior point 0, where (-Lap)^a is the integral
fractional Laplacian of order a in (0, 1).  It provides the kernel special
functions and their critical exponents, a graded-mesh collocation
discretization of the operator, explicit sub/super-solutions given by
their node values, a one-level Newton solver, and audit tools for the
nonexistence regimes.

``import fracblow`` loads only ``errors`` and ``quad``.  Every other
public name is imported from its module at its first access (PEP 562), so
code that uses only the closed-form kernel constants never loads numpy or
the grid modules.
"""

import importlib

from . import quad  # noqa: F401  (kept importable by name; see its docstring)
from .errors import (
    AuditFail,
    BadConfig,
    ConfigError,
    FracblowError,
    GridMismatch,
    MonotoneViolation,
    NewtonStall,
    NoAdmissiblePair,
    NumericalError,
    OutOfDomain,
    RegimeError,
    SingularSystem,
    TooFewPoints,
)

# Each lazily exported name and the submodule that defines it.
_MODULE_OF = {
    name: module
    for module, names in (
        ("analysis", "BandReport RateFit ZoneAudit audit_nonexistence "
                     "check_band fit_rate"),
        ("mesh", "Grid GridFunction build_graded distance_D distance_d"),
        ("operator", "OperatorMatrix apply assemble power_tail_gap"),
        ("profiles", "solve_torsion"),
        ("solver", "ProblemSpec SolveReport default_sub_super solve_blowup"),
        ("specfun", "CriticalExponents Regime RegimeKind C_tau T_alpha "
                    "c_second_derivative c_tau classify critical_exponents "
                    "existence_window find_alpha0 find_tau0 find_tau1"),
    )
    for name in names.split()
}

__all__ = [
    "AuditFail", "BadConfig", "ConfigError", "FracblowError", "GridMismatch",
    "MonotoneViolation", "NewtonStall", "NoAdmissiblePair", "NumericalError",
    "OutOfDomain", "RegimeError", "SingularSystem", "TooFewPoints",
    *_MODULE_OF,
]

__version__ = "0.1.0"


def __getattr__(name):
    """The lazily exported ``name``, imported from its module at the first
    access and bound here, so later accesses do not come back."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
