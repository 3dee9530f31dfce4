"""Comparison profiles used to sandwich blow-up solutions.

The central object is a one-parameter family of positive, even profiles
that behave like ``D**tau`` near the interior singular point (``D`` is the
distance to 0), like the squared boundary distance ``d**2`` near the ends
of the interval, and join the two regimes with a quintic polynomial chosen
so the whole profile is twice continuously differentiable.  The module
also provides the discrete torsion function (the grid function the
assembled operator maps to the constant 1), from which sub- and
super-solution candidates are built together with these profiles, and
the scale search that sizes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, SingularSystem
from .mesh import Grid, GridFunction, Zero, distance_D
from .operator import OperatorMatrix, even_block

__all__ = [
    "ProfileSpec",
    "build_v_tau",
    "evaluate_profile",
    "sample_profile",
    "solve_torsion",
]

# A node is resolved when its distance to the singular point is at least
# this multiple of the local spacing; the solver, the band reports and the
# audits all trust only resolved nodes.
RESOLUTION_MULTIPLE = 20.0

# Scale-search budget: steps tried after the start value before giving up.
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
    zero or below anywhere; a profile that still fails is rejected.
    """
    tau = float(tau)
    delta = float(delta)
    if not (-1.0 < tau < 0.0):
        raise BadConfig(f"core exponent must lie in (-1, 0), got {tau}")
    if not (0.0 < delta <= 0.25):
        raise BadConfig(f"matching radius must lie in (0, 1/4], got {delta}")
    for radius in (delta, delta / 2, delta / 4, delta / 8):
        coeffs = _bridge_coeffs(tau, radius)
        if coeffs is None:
            raise BadConfig(f"matching radius delta={delta} is too small for "
                            f"core exponent {tau}: D**tau overflows at {radius}")
        s = np.linspace(0.0, 1.0, 4097)
        bridge = np.polynomial.polynomial.polyval(s, coeffs)
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


def sample_profile(spec: ProfileSpec, grid: Grid,
                   scale: float = 1.0) -> GridFunction:
    """Sample ``scale`` times the profile at the grid nodes, with the
    zero exterior the profile itself has."""
    values = float(scale) * evaluate_profile(spec, grid.nodes)
    return GridFunction(grid, values, Zero())


# ---------------------------------------------------------------------------
# Discrete torsion function.


def solve_torsion(matrix: OperatorMatrix) -> GridFunction:
    """Solve the dense collocation system  operator(v) = 1  for the
    zero-exterior ``matrix``.  The solution is the discrete torsion
    function, with zero exterior: positive inside the interval, vanishing
    toward the endpoints, and the bounded lift of comparison pairs.

    The grid is mirror-symmetric, so the right-hand side is even, the
    solve is the half system of ``even_block`` and the solution is
    exactly even."""
    if not isinstance(matrix.exterior, Zero):
        raise BadConfig("the torsion function needs the zero-exterior operator")
    alpha, grid = matrix.alpha, matrix.grid
    n = grid.n_nodes
    block = even_block(matrix.interior_weights, np.arange(n))
    rhs = 1.0 - matrix.exterior_correction[n // 2:]
    try:
        half = np.linalg.solve(block, rhs)
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
# Scale search for comparison pairs.


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


def search_scale(start: float, next_scale, accept, failure: Exception) -> float:
    """First of ``start``, ``next_scale(start)``, ... for which ``accept``
    holds, trying at most MAX_DOUBLINGS + 1 values; raises ``failure``
    when none is accepted."""
    scale = start
    for _ in range(MAX_DOUBLINGS + 1):
        if accept(scale):
            return scale
        scale = next_scale(scale)
    raise failure
