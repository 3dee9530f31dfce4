"""Numerical toolkit for interior blow-up in the 1-D fractional absorption equation.

The package studies positive solutions of

    (-Lap)^a u + |u|^(p-1) u = 0   on (-1, 1) \\ {0},   u = 0 outside (-1, 1),

that blow up at the interior point 0, where (-Lap)^a is the integral
fractional Laplacian of order a in (0, 1).  It provides the kernel special
functions and their critical exponents, a graded-mesh collocation
discretization of the operator, explicit sub/super-solution profiles, a
one-level Newton solver, and audit tools for the nonexistence regimes.
"""

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
from .analysis import (
    BandReport,
    RateFit,
    ZoneAudit,
    audit_nonexistence,
    check_band,
    fit_rate,
)
from .mesh import (
    Exterior,
    Grid,
    GridFunction,
    PowerTail,
    Zero,
    build_graded,
    distance_D,
    distance_d,
)
from .operator import (
    OperatorMatrix,
    apply,
    assemble,
    power_tail_gap,
    power_tail_moment,
)
from .profiles import (
    ProfileSpec,
    build_v_tau,
    evaluate_profile,
    sample_profile,
    solve_torsion,
)
from . import quad  # noqa: F401  (kept importable by name; see its docstring)
from .solver import (
    ProblemSpec,
    SolveReport,
    default_sub_super,
    solve_blowup,
)
from .specfun import (
    CriticalExponents,
    Regime,
    RegimeKind,
    C_tau,
    T_alpha,
    c_second_derivative,
    c_tau,
    classify,
    critical_exponents,
    existence_window,
    find_alpha0,
    find_tau0,
    find_tau1,
)

__version__ = "0.1.0"
