"""Comparison profiles used to sandwich blow-up solutions.

The central object is a one-parameter family of positive, even profiles
that behave like ``D**tau`` near the interior singular point (``D`` is the
distance to 0), like the squared boundary distance ``d**2`` near the ends
of the interval, and join the two regimes with a quintic polynomial chosen
so the whole profile is twice continuously differentiable.  The module
also provides the discrete torsion function (the grid function the
assembled operator maps to the constant 1), the residual of the
comparison functions scale * profile + lift * torsion that both the
sub/super pair and the nonexistence audits test, and the power-of-two
rounding that sizes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, SingularSystem
from .mesh import Grid, GridFunction, Zero, distance_D
from .operator import OperatorMatrix, even_block

__all__ = [
    "ProfileSpec",
    "build_v_tau",
    "comparison_residual",
    "evaluate_profile",
    "sample_profile",
    "solve_torsion",
]

# A node is resolved when its distance to the singular point is at least
# this multiple of the local spacing; the solver, the band reports and the
# audits all trust only resolved nodes.
RESOLUTION_MULTIPLE = 20.0

# Comparison scales are powers of two in [2**-MAX_DOUBLINGS, 2**MAX_DOUBLINGS].
MAX_DOUBLINGS = 40


# ---------------------------------------------------------------------------
# Profile construction.


@dataclass(frozen=True)
class ProfileSpec:
    """Recipe for one even comparison profile.

    ``tau``     -- exponent of the core branch ``D**tau`` (negative).
    ``delta``   -- matching radius: the core branch is used where
                   ``D <= delta`` and the flat branch ``d**2`` where
                   ``d <= delta``.
    ``interpolant_coeffs`` -- length-6 vector of ascending monomial
                   coefficients of the quintic bridge in the normalised
                   coordinate ``s = (D - delta) / (1 - 2*delta)``; the
                   profile is even, so both sides share it.
    """

    tau: float
    delta: float
    interpolant_coeffs: np.ndarray


def _bridge_coeffs(tau: float, delta: float) -> np.ndarray | None:
    """Ascending monomial coefficients of the quintic q(s), s in [0, 1],
    matching value, slope and curvature of ``D**tau`` at ``D = delta``
    (s = 0) and of ``d**2`` at ``d = delta`` (s = 1); None on overflow."""
    span = 1.0 - 2.0 * delta
    # Endpoint data in the physical coordinate D, then rescaled to s.  The
    # curvature is the largest of the three, so it alone can overflow.
    with np.errstate(over="ignore"):
        left_curv = tau * (tau - 1.0) * np.float64(delta) ** (tau - 2.0)
    if not np.isfinite(left_curv):
        return None
    left_val = delta ** tau
    left_slope = tau * delta ** (tau - 1.0)
    right_val = delta ** 2
    right_slope = -2.0 * delta          # d/dD of (1 - D)**2 at D = 1 - delta
    right_curv = 2.0
    rhs = np.array([
        left_val,
        span * left_slope,
        span * span * left_curv,
        right_val,
        span * right_slope,
        span * span * right_curv,
    ])
    system = np.array([
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],    # q(0)
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],    # q'(0)
        [0.0, 0.0, 2.0, 0.0, 0.0, 0.0],    # q''(0)
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],    # q(1)
        [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],    # q'(1)
        [0.0, 0.0, 2.0, 6.0, 12.0, 20.0],  # q''(1)
    ])
    return np.linalg.solve(system, rhs)


def build_v_tau(tau: float, delta: float = 0.25) -> ProfileSpec:
    """Build the positive even profile with core exponent ``tau``.

    ``delta`` is halved (at most 3 times) if the quintic bridge dips to
    zero or below anywhere; a profile that still fails is rejected.  A
    bridge that overflows (its data, or its values on [0, 1]) is rejected
    at once, naming the ``delta`` the caller gave.
    """
    tau = float(tau)
    delta = float(delta)
    if not (-1.0 < tau < 0.0):
        raise BadConfig(f"core exponent must lie in (-1, 0), got {tau}")
    if not (0.0 < delta <= 0.25):
        raise BadConfig(f"matching radius must lie in (0, 1/4], got {delta}")
    s = np.linspace(0.0, 1.0, 4097)
    for radius in (delta, delta / 2, delta / 4, delta / 8):
        coeffs = _bridge_coeffs(tau, radius)
        if coeffs is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                bridge = np.polynomial.polynomial.polyval(s, coeffs)
        if coeffs is None or not np.isfinite(bridge).all():
            raise BadConfig(f"matching radius delta={delta} is too small for "
                            f"core exponent {tau}: D**tau overflows at {radius}")
        if np.min(bridge) > 0.0:
            return ProfileSpec(tau=tau, delta=radius, interpolant_coeffs=coeffs)
    raise BadConfig(
        f"no positive bridge found for core exponent {tau} "
        f"after halving the matching radius 3 times")


def evaluate_profile(spec: ProfileSpec, x) -> np.ndarray:
    """Pointwise values of the profile; 0 outside [-1, 1], and the core
    branch diverges at x = 0 (returned as inf there)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    dist_core = np.abs(x)
    dist_edge = 1.0 - dist_core
    out = np.zeros_like(x)
    inside = dist_core < 1.0
    core = inside & (dist_core <= spec.delta)
    edge = inside & (dist_edge <= spec.delta)
    mid = inside & ~core & ~edge
    with np.errstate(divide="ignore"):
        out[core] = dist_core[core] ** spec.tau
    out[edge] = dist_edge[edge] ** 2
    if np.any(mid):
        s = (dist_core[mid] - spec.delta) / (1.0 - 2.0 * spec.delta)
        out[mid] = np.polynomial.polynomial.polyval(s, spec.interpolant_coeffs)
    return out[0] if scalar else out


def sample_profile(spec: ProfileSpec, grid: Grid) -> GridFunction:
    """Sample the profile at the grid nodes, with the zero exterior the
    profile itself has."""
    return GridFunction(grid, evaluate_profile(spec, grid.nodes), Zero())


# ---------------------------------------------------------------------------
# Discrete torsion function.


def solve_torsion(matrix: OperatorMatrix) -> GridFunction:
    """Solve the dense collocation system  operator(v) = 1  for the
    zero-exterior ``matrix``.  The solution is the discrete torsion
    function, with zero exterior: positive inside the interval, vanishing
    toward the endpoints, and the bounded lift of comparison pairs.

    The grid is mirror-symmetric, so the right-hand side is even, the
    solve is the half system of ``even_block(matrix)`` and the solution
    is exactly even."""
    if not isinstance(matrix.exterior, Zero):
        raise BadConfig("the torsion function needs the zero-exterior operator")
    alpha, grid = matrix.alpha, matrix.grid
    try:
        half = np.linalg.solve(even_block(matrix), 1.0 - matrix.correction)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            f"torsion system is singular for alpha={alpha}") from exc
    values = np.concatenate((half[::-1], half))
    if not np.all(np.isfinite(values)):
        raise SingularSystem(
            f"torsion solve produced non-finite values for alpha={alpha}")
    scale = float(np.max(np.abs(values)))
    if np.min(values) < -1e-10 * scale:
        raise SingularSystem(
            "torsion solve produced negative values; the discretization "
            f"is unusable (min {np.min(values):.3e})")
    return GridFunction(grid, values, Zero())


# ---------------------------------------------------------------------------
# Node sets and scales for comparison pairs.


def resolved_mask(grid: Grid) -> np.ndarray:
    """Nodes at least RESOLUTION_MULTIPLE local spacings away from the
    singular point."""
    D = distance_D(grid.nodes)
    return D >= RESOLUTION_MULTIPLE * grid.local_spacing()


def core_mask(grid: Grid) -> np.ndarray:
    """Resolved nodes inside the matching radius, where the near-core
    inequalities are enforced; BadConfig when there are none."""
    core = resolved_mask(grid) & (distance_D(grid.nodes) <= grid.delta)
    if not np.any(core):
        raise BadConfig(
            "no resolved nodes inside the matching radius; refine the grid "
            "or increase the grading exponent")
    return core


def comparison_residual(applied: np.ndarray, vals: np.ndarray,
                        torsion: np.ndarray, p: float, scale: float,
                        lift: float) -> tuple[np.ndarray, np.ndarray]:
    """Residual  operator(w) + sign(w)|w|**p  of the comparison function
    w = scale * V + lift * T, from ``applied`` = operator(V), the profile
    values ``vals`` and the torsion values ``torsion`` (operator(T) = 1),
    plus the size |scale * applied| + |lift| + |w|**p + 1 of its terms,
    which the callers' sign tolerances multiply."""
    w = scale * vals + lift * torsion
    power = np.abs(w) ** p
    residual = scale * applied + lift + np.copysign(power, w)
    return residual, np.abs(scale * applied) + abs(lift) + power + 1.0


def power_of_two_bracket(x: float) -> tuple[float, float]:
    """Largest power of two <= ``x`` and smallest >= ``x``, for finite
    ``x > 0``; exact."""
    mantissa, exponent = math.frexp(x)
    below = math.ldexp(0.5, exponent)
    return below, below if mantissa == 0.5 else 2.0 * below
