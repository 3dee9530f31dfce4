"""Comparison profiles used to sandwich blow-up solutions.

The profile with core exponent ``tau`` is positive and even: ``D**tau``
near the interior singular point (``D`` is the distance to 0), the
squared boundary distance ``d**2`` near the ends of the interval, and a
quintic bridge between, chosen so the profile is twice continuously
differentiable.  It exists only as its values at the grid nodes, which
``comparison_arrays`` returns with their operator values for the pair's
sub-solution and the nonexistence audits.  The module also provides the
discrete torsion function (the grid function the assembled operator maps
to the constant 1), the residual of the comparison functions
scale * profile + lift * torsion they test (the pair with no lift), and
the power-of-two rounding that sizes them.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import BadConfig, SingularSystem
from .mesh import Grid, GridFunction, distance_D
from .operator import OperatorMatrix, apply, even_block

__all__ = [
    "comparison_arrays",
    "comparison_residual",
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


# ---------------------------------------------------------------------------
# Discrete torsion function.


# Torsion half vectors, oldest first; the lock keeps evictions exact.
_TORSION_MEMO: dict[tuple[float, bytes], np.ndarray] = {}
_TORSION_MEMO_SIZE = 16
_TORSION_LOCK = threading.Lock()


def solve_torsion(matrix: OperatorMatrix) -> GridFunction:
    """Solve the dense collocation system  operator(v) = 1  for
    ``matrix``.  The solution is the discrete torsion function, with zero
    exterior: positive inside the interval, vanishing toward the
    endpoints, and the bounded lift of the audits.

    The grid is mirror-symmetric, so the right-hand side is even, the
    solve is the half system of ``even_block(matrix)`` and the solution
    is exactly even.  The half solution depends only on the inputs of
    ``assemble``, so it is kept for the last _TORSION_MEMO_SIZE keys
    (alpha and a digest of the grid nodes, the whole input of
    ``assemble``), and a repeated key gets a fresh GridFunction of the
    kept half.  Any later input of ``assemble`` must join the key."""
    try:  # the lean builtin, as in the random module: hashlib loads OpenSSL
        from _blake2 import blake2b
    except ImportError:
        from hashlib import blake2b
    alpha, grid = matrix.alpha, matrix.grid
    nodes = np.ascontiguousarray(grid.nodes)
    key = (alpha, blake2b(nodes, digest_size=32).digest())
    half = _TORSION_MEMO.get(key)
    if half is None:
        try:
            half = np.linalg.solve(even_block(matrix),
                                   np.ones(matrix.rows.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(
                f"torsion system is singular for alpha={alpha}") from exc
        if not np.all(np.isfinite(half)):
            raise SingularSystem(
                f"torsion solve produced non-finite values for alpha={alpha}")
        scale = float(np.max(np.abs(half)))
        if np.min(half) < -1e-10 * scale:
            raise SingularSystem(
                "torsion solve produced negative values; the discretization "
                f"is unusable (min {np.min(half):.3e})")
        with _TORSION_LOCK:
            if len(_TORSION_MEMO) >= _TORSION_MEMO_SIZE:
                del _TORSION_MEMO[next(iter(_TORSION_MEMO))]
            _TORSION_MEMO[key] = half
    return GridFunction(grid, np.concatenate((half[::-1], half)))


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


def comparison_arrays(matrix: OperatorMatrix, tau: float,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The arrays (V, W V) of the pair's sub-solution and the audits: the
    values at the nodes of ``matrix``'s grid of the profile with core
    exponent ``tau``, and their operator values under ``matrix``.

    V is ``D**tau`` where D <= delta, ``d**2`` where d <= delta, and the
    quintic bridge in s = (D - delta) / (1 - 2*delta) between, delta the
    grid's matching radius, halved (at most 3 times) while the bridge dips
    to zero or below on [0, 1]; a profile that still fails is rejected.
    A bridge that overflows (its data, or its values on [0, 1]) is
    rejected at once, naming the grid's delta."""
    tau = float(tau)
    if not (-1.0 < tau < 0.0):
        raise BadConfig(f"core exponent must lie in (-1, 0), got {tau}")
    grid, delta = matrix.grid, matrix.grid.delta
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
            break
    else:
        raise BadConfig(
            f"no positive bridge found for core exponent {tau} "
            f"after halving the matching radius 3 times")
    D = np.abs(grid.nodes)
    d = 1.0 - D
    core, edge = D <= radius, d <= radius
    mid = ~core & ~edge
    vals = np.empty_like(D)
    vals[core] = D[core] ** tau
    vals[edge] = d[edge] ** 2
    vals[mid] = np.polynomial.polynomial.polyval(
        (D[mid] - radius) / (1.0 - 2.0 * radius), coeffs)
    profile = GridFunction(grid, vals)
    return profile.values, apply(matrix, profile)


def comparison_residual(applied: np.ndarray, vals: np.ndarray,
                        torsion: np.ndarray, p: float, scale: float,
                        lift: float) -> tuple[np.ndarray, np.ndarray]:
    """Residual  operator(w) + sign(w)|w|**p  of the comparison function
    w = scale * V + lift * T, from ``applied`` = operator(V), the profile
    values ``vals`` and the torsion values ``torsion`` (operator(T) = 1;
    0.0 where ``lift`` is), plus the size |scale * applied| + |lift| +
    |w|**p + 1 of its terms, which the callers' sign tolerances multiply.
    Both saturate at the largest double, so an overflowing residual
    passes a sign test only when it has the required sign."""
    w = scale * vals + lift * torsion
    with np.errstate(over="ignore"):
        power = np.abs(w) ** p
    residual = scale * applied + lift + np.copysign(power, w)
    size = np.abs(scale * applied) + abs(lift) + power + 1.0
    big = np.finfo(float).max
    return np.clip(residual, -big, big), np.minimum(size, big)


def power_of_two_bracket(x: float) -> tuple[float, float]:
    """Largest power of two <= ``x`` and smallest >= ``x``, for finite
    ``x > 0``; exact."""
    mantissa, exponent = math.frexp(x)
    below = math.ldexp(0.5, exponent)
    return below, below if mantissa == 0.5 else 2.0 * below
