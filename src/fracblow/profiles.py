"""Comparison profiles used to sandwich blow-up solutions.

The profile with core exponent ``tau`` is positive and even: ``D**tau``
near the interior singular point (``D`` is the distance to 0), the
squared boundary distance ``d**2`` near the ends of the interval, and a
quintic bridge between, chosen so the profile is twice continuously
differentiable.  It exists only as its values at the grid nodes
(``comparison_profile``), to which the pair and the nonexistence audits
apply the operator.  The module also solves for the discrete torsion
function (the grid function the operator maps to the constant 1,
``solve_torsion``), keeps per process one entry per (alpha, grid), keyed
by alpha and the exact node bytes, of the assembled operator and its
torsion function together (``kept_operator``), and provides the
residual of the comparison functions scale * profile + lift * torsion
they test (the pair with no lift) and the power-of-two rounding that
sizes them.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import BadConfig, SingularSystem
from .mesh import Grid, GridFunction, distance_D
from .operator import OperatorMatrix, _checked_alpha, assemble

__all__ = [
    "comparison_profile",
    "comparison_residual",
    "kept_operator",
    "solve_torsion",
]

# A node is resolved when its distance to the singular point is at least
# this multiple of the local spacing; the solver and the audits trust only
# resolved nodes.
RESOLUTION_MULTIPLE = 20.0

# Comparison scales are powers of two in [2**-MAX_DOUBLINGS, 2**MAX_DOUBLINGS].
MAX_DOUBLINGS = 40

# The points of [0, 1] where a bridge is checked for overflow and positivity.
_BRIDGE_S = np.linspace(0.0, 1.0, 4097)

# The largest double, where comparison residuals and their sizes saturate.
_BIG = np.finfo(float).max


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
# The discrete torsion function, and the audits' operator kept per process.


def solve_torsion(matrix: OperatorMatrix) -> GridFunction:
    """Solve the dense collocation system  operator(v) = 1  for the
    operator ``matrix``.  The solution is the discrete torsion function,
    with zero exterior: positive inside the interval, vanishing toward
    the endpoints, and the bounded lift of the audits.

    The grid is mirror-symmetric, so the right-hand side is even, the
    solve is the half system of the even fold and the solution is
    exactly even."""
    fold, alpha = matrix.fold, matrix.alpha
    try:
        half = np.linalg.solve(fold, np.ones(fold.shape[0]))
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
    return GridFunction(matrix.grid, np.concatenate((half[::-1], half)))


# Per key (alpha and the bytes of the grid nodes, the whole input of the
# assembly), oldest first: the operator, its fold read-only, and its
# torsion values, read-only, made and dropped together.  The newest keys
# stay while their folds fit in _FOLD_BUDGET bytes (4 at n_per_side 512,
# 1 at 1024, none from 2048 up).  The lock keeps evictions exact.
_MEMO: dict[tuple[float, bytes], tuple[OperatorMatrix, np.ndarray]] = {}
_FOLD_BUDGET = 8 << 20
_LOCK = threading.Lock()


def _make_room(nbytes: int) -> bool:
    """Drop the oldest keys until a fold of ``nbytes`` more fits in the
    budget; False, dropping nothing, when it never fits.  Call under the
    lock."""
    if nbytes > _FOLD_BUDGET:
        return False
    held = sum(matrix.fold.nbytes for matrix, _ in _MEMO.values())
    while held + nbytes > _FOLD_BUDGET:
        held -= _MEMO.pop(next(iter(_MEMO)))[0].fold.nbytes
    return True


def kept_operator(alpha: float,
                  grid: Grid) -> tuple[OperatorMatrix, GridFunction]:
    """``assemble(alpha, grid)``, its fold read-only, and its torsion
    function (``solve_torsion``), its values read-only, as the audits use
    them.

    Both are made once per key while the memo keeps them (see _MEMO) and
    are returned on ``grid``, which may differ from the grid they were
    made on in what the key leaves out (delta).  The oldest keys are
    dropped before a new operator is assembled, so the process holds at
    most _FOLD_BUDGET bytes of kept folds beside the one being assembled.
    Any later input of the assembly must join the key."""
    key = _checked_alpha(alpha, grid), grid.nodes.tobytes()
    nbytes = 8 * (grid.nodes.size // 2) ** 2
    with _LOCK:
        kept = _MEMO.get(key)
        if kept is None:
            _make_room(nbytes)
    if kept is None:
        matrix = assemble(key[0], grid)
        torsion = solve_torsion(matrix).values
        matrix.fold.flags.writeable = torsion.flags.writeable = False
        kept = matrix, torsion
        with _LOCK:  # a concurrent caller may have stored this key meanwhile
            if key not in _MEMO and _make_room(nbytes):
                _MEMO[key] = kept
    matrix, torsion = kept
    if matrix.grid is not grid:
        matrix = OperatorMatrix(matrix.alpha, grid, matrix.fold)
    return matrix, GridFunction(grid, torsion)


# ---------------------------------------------------------------------------
# Node sets and scales for comparison pairs.


def resolved_mask(grid: Grid) -> np.ndarray:
    """Nodes at least RESOLUTION_MULTIPLE local spacings away from the
    singular point."""
    D = distance_D(grid.nodes)
    return D >= RESOLUTION_MULTIPLE * grid.local_spacing()


def core_mask(grid: Grid, resolved: np.ndarray | None = None) -> np.ndarray:
    """Resolved nodes inside the matching radius, where the near-core
    inequalities are enforced; BadConfig when there are none.
    ``resolved`` is ``resolved_mask(grid)`` or its right half, when the
    caller has it, and the result is of its shape."""
    if resolved is None:
        resolved = resolved_mask(grid)
    nodes = grid.nodes[grid.nodes.size - resolved.size:]
    core = resolved & (distance_D(nodes) <= grid.delta)
    if not np.any(core):
        raise BadConfig(
            "no resolved nodes inside the matching radius; refine the grid "
            "or increase the grading exponent")
    return core


def comparison_profile(grid: Grid, tau: float) -> GridFunction:
    """The values V at the nodes of ``grid`` of the comparison profile
    with core exponent ``tau``, the one place the profile is built.

    V is ``D**tau`` where D <= delta, ``d**2`` where d <= delta, and the
    quintic bridge in s = (D - delta) / (1 - 2*delta) between, delta the
    grid's matching radius, halved (at most 3 times) while the bridge dips
    to zero or below on [0, 1]; a profile that still fails is rejected.
    A bridge that overflows (its data, or its values on [0, 1]) is
    rejected at once, naming the grid's delta.  V is built on the
    right-half nodes and mirrored, so it is exactly even."""
    tau = float(tau)
    if not (-1.0 < tau < 0.0):
        raise BadConfig(f"core exponent must lie in (-1, 0), got {tau}")
    delta = grid.delta
    for radius in (delta, delta / 2, delta / 4, delta / 8):
        coeffs = _bridge_coeffs(tau, radius)
        if coeffs is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                bridge = np.polynomial.polynomial.polyval(_BRIDGE_S, coeffs)
        if coeffs is None or not np.isfinite(bridge).all():
            raise BadConfig(f"matching radius delta={delta} is too small for "
                            f"core exponent {tau}: D**tau overflows at {radius}")
        if np.min(bridge) > 0.0:
            break
    else:
        raise BadConfig(
            f"no positive bridge found for core exponent {tau} "
            f"after halving the matching radius 3 times")
    # the right-half nodes, their own distances to 0; V is even
    D = grid.nodes[grid.n_per_side:]
    d = 1.0 - D
    core, edge = D <= radius, d <= radius
    mid = ~core & ~edge
    half = np.empty_like(D)
    half[core] = D[core] ** tau
    half[edge] = d[edge] ** 2
    half[mid] = np.polynomial.polynomial.polyval(
        (D[mid] - radius) / (1.0 - 2.0 * radius), coeffs)
    return GridFunction(grid, np.concatenate((half[::-1], half)))


def comparison_residual(applied: np.ndarray, vals: np.ndarray,
                        torsion: np.ndarray, p: float, scale, lift
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Residual  operator(w) + sign(w)|w|**p  of the comparison function
    w = scale * V + lift * T, from ``applied`` = operator(V), the profile
    values ``vals`` and the torsion values ``torsion`` (operator(T) = 1;
    0.0 where ``lift`` is), plus the size |scale * applied| + |lift| +
    |w|**p + 1 of its terms, which the callers' sign tolerances multiply.
    ``scale`` and ``lift`` are numbers, or arrays whose shapes broadcast
    with the node arrays' (such as (k, 1) columns, or (k, 1, 1) scales and
    (k, j, 1) lifts) to give one row per comparison function, each row
    bit for bit the call with that row's numbers; a scale shared by rows
    is multiplied into the node arrays once.  Both saturate at the
    largest double, so an
    overflowing residual passes a sign test only when it has the
    required sign."""
    w = scale * vals + lift * torsion
    with np.errstate(over="ignore"):
        power = np.abs(w) ** p
    linear = scale * applied
    residual = linear + lift + np.copysign(power, w)
    size = np.abs(linear) + np.abs(lift) + power + 1.0
    return (np.minimum(np.maximum(residual, -_BIG), _BIG),
            np.minimum(size, _BIG))


def power_of_two_bracket(x: float) -> tuple[float, float]:
    """Largest power of two <= ``x`` and smallest >= ``x``, for finite
    ``x > 0``; exact."""
    mantissa, exponent = math.frexp(x)
    below = math.ldexp(0.5, exponent)
    return below, below if mantissa == 0.5 else 2.0 * below
