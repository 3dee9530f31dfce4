"""Newton solver for the interior blow-up problem.

The solver brackets a solution between an ordered sub/super-solution pair
built from the comparison profiles, then solves the collocation system
once, on the domain that excludes the neighbourhood {D <= 1/level} of the
singular point (nodes inside the excluded core stay frozen at the
sub-solution), by Newton with full steps started from the sub-solution
with its band values stretched by the largest factor up to 2 that keeps
the band part alone a sub-solution on the resolved core, which takes back
the power-of-two rounding of the pair's sub-solution scale.
One level and no line search suffice: the assembled weights form a
Z-matrix with positive row sums, so F(u) = W u + |u|^(p-1) u is a convex
M-function on u > 0 (Ortega and Rheinboldt, *Iterative Solution of
Nonlinear Equations*, 1970, ch. 13), with exactly one solution for its
frozen core data, which Newton from a sub-solution reaches monotonically:
the first full step lands above it and the iterates then fall.  The
result is audited for ordering against the pair and for not falling
below the sub-solution.  Every step works with one assembled operator,
the one the problem carries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadConfig,
    GridMismatch,
    MonotoneViolation,
    NewtonStall,
    NoAdmissiblePair,
    RegimeError,
    SingularSystem,
)
from .mesh import Grid, GridFunction, Zero, distance_D
from .operator import OperatorMatrix, apply, even_block
from .profiles import (MAX_DOUBLINGS, comparison_arrays, comparison_residual,
                       core_mask, power_of_two_bracket)
from .specfun import RegimeKind, _check_p, classify

__all__ = [
    "ProblemSpec",
    "SolveReport",
    "default_sub_super",
    "require_unique_existence",
    "solve_blowup",
]

# The sub-solution must reach this value at the innermost nodes to count
# as a blow-up candidate.
_BLOWUP_THRESHOLD = 10.0

# Newton controls.
_NEWTON_RTOL = 1e-9
_MAX_ITER = 60
# Cap of Newton's stretch of the sub-solution (``_stretched_start``).  The
# pair rounds its sub-solution scale down to a power of two, which removes
# less than a factor of 2; the core bound alone can allow far more near the
# bottom of the p-window, which lifts the start far above the solution
# outside the matching radius and costs Newton steps.
_MAX_STRETCH = 2.0

# Audit slacks: the fine slack feeds the ordering/monotonicity report
# flags, the gross slack aborts the run (a drop that large means the
# discrete operator lost its sign structure).
_AUDIT_SLACK = 1e-8
_ABORT_SLACK = 1e-6


# ---------------------------------------------------------------------------
# Problem description.


@dataclass(eq=False)
class ProblemSpec:
    """Blow-up problem on the zero-exterior operator ``matrix``, bracketed
    by an ordered sub/super-solution pair.

    ``sub`` must blow up toward the singular point (checked against
    ``_BLOWUP_THRESHOLD`` at the innermost nodes).  Both bounds take the
    operator's zero exterior and must be exactly even, as the solver keeps
    its iterates.
    """

    matrix: OperatorMatrix
    p: float
    sub: GridFunction
    super: GridFunction

    @property
    def alpha(self) -> float:
        return self.matrix.alpha

    @property
    def grid(self) -> Grid:
        return self.matrix.grid

    def __post_init__(self):
        _check_p(self.p)
        if not (self.sub.grid.same_as(self.grid)
                and self.super.grid.same_as(self.grid)):
            raise GridMismatch("sub/super must live on the problem grid")
        if self.matrix.exterior != Zero():
            raise BadConfig("the operator must vanish outside the interval")
        for bound in (self.sub.values, self.super.values):
            if not np.array_equal(bound, bound[::-1]):
                raise BadConfig("sub/super must be exactly even")
        scale = 1.0 + np.abs(self.sub.values) + np.abs(self.super.values)
        if np.any(self.sub.values > self.super.values + 1e-12 * scale):
            raise BadConfig("sub-solution exceeds super-solution somewhere")
        D = distance_D(self.grid.nodes)
        innermost = self.sub.values[D == D.min()]
        if np.any(innermost < _BLOWUP_THRESHOLD):
            raise BadConfig(
                f"sub-solution reaches only {innermost.min():.3g} at the "
                f"innermost nodes; threshold {_BLOWUP_THRESHOLD} "
                "(not a blow-up candidate, or the grid is too coarse)")

    @property
    def tau(self) -> float:
        """Expected blow-up rate exponent -2*alpha/(p-1)."""
        return -2.0 * self.alpha / (self.p - 1.0)


@dataclass(eq=False)
class SolveReport:
    """Outcome of a solve: final iterate plus the audit flags.  ``levels``,
    ``newton_iters`` and ``active_nodes`` hold one entry, for the one
    level solved.  ``converged`` can only be true: ``solve_blowup``
    returns only after its Newton stop test passed, and ``residual_inf``
    and ``tolerance`` are the two sides of that test; a solve that does
    not meet it raises ``NewtonStall`` instead.  The flag stays in the
    report until a stop test with a meaning of its own (a certified
    forward error) replaces it."""

    final: GridFunction
    newton_iters: list
    levels: list
    active_nodes: list
    residual_inf: float
    tolerance: float
    converged: bool
    ordering_ok: bool
    monotone_ok: bool

    def as_dict(self) -> dict:
        """JSON-ready summary (scalars only; the profile goes to CSV)."""
        return {
            "levels": [int(n) for n in self.levels],
            "newton_iters": [int(k) for k in self.newton_iters],
            "active_nodes": [int(k) for k in self.active_nodes],
            "residual_inf": float(self.residual_inf),
            "tolerance": float(self.tolerance),
            "converged": bool(self.converged),
            "ordering_ok": bool(self.ordering_ok),
            "monotone_ok": bool(self.monotone_ok),
            "max_value": float(np.max(self.final.values)),
        }


# ---------------------------------------------------------------------------
# Default sub/super-solution pair.


def require_unique_existence(alpha: float, p: float) -> float:
    """Predicted blow-up rate of (alpha, p); RegimeError outside the
    unique-existence regime.  The regime guard of ``default_sub_super``,
    cheap enough to run before an operator is assembled."""
    regime = classify(alpha, p)
    if regime.kind is not RegimeKind.UNIQUE_EXISTENCE:
        raise RegimeError(
            f"default pair requires the unique-existence regime, "
            f"got {regime.kind.value} for alpha={alpha}, p={p}")
    return regime.predicted_rate


def default_sub_super(matrix: OperatorMatrix, p: float,
                      ) -> tuple[GridFunction, GridFunction]:
    """Ordered pair bracketing the blow-up solution in the unique-existence
    regime, for the zero-exterior operator ``matrix``.

    The sub-solution is ``lam_small * V_tau``, which must satisfy the
    discrete inequality  operator(W) + W**p <= tol  at every resolved node
    inside the matching radius (the profile is only a sub-solution near
    the singular point; the solver never relies on it elsewhere).  The
    super-solution is ``lam_big * V_tau``, which must satisfy the reverse
    inequality there, plus a torsion-function lift that pushes the
    residual nonnegative on the whole grid.  Both scales
    are closed forms rounded to powers of two, then checked.
    """
    alpha, grid = matrix.alpha, matrix.grid
    vals, applied, tors = comparison_arrays(
        matrix, require_unique_existence(alpha, p))
    core = core_mask(grid)

    # At a core node the residual of lam * V is lam * a + (lam * v)**p:
    # nonpositive exactly for lam up to (-a / v**p)**(1/(p-1)), and for no
    # lam > 0 where a >= 0.
    # Refining the grid does not help: it adds such nodes (258 of 290 at
    # n_per_side 512 for (0.35, 3.17), 522 of 674 at 1024).
    a, v = applied[core], vals[core]
    if np.any(a >= 0.0):
        raise BadConfig(
            f"no positive sub-solution scale for alpha={alpha}, p={p}: the "
            f"profile's operator is nonnegative at {np.count_nonzero(a >= 0.0)} "
            f"of {a.size} resolved core nodes at delta={grid.delta}, "
            f"n_per_side={grid.n_per_side}; refining the grid adds such "
            f"nodes, so try a smaller --delta")
    bounds = (-a / v ** p) ** (1.0 / (p - 1.0))
    lo = float(np.min(bounds, initial=1.0))
    hi = float(np.max(bounds, initial=1.0))
    if not 2.0 ** -MAX_DOUBLINGS <= lo <= hi <= 2.0 ** MAX_DOUBLINGS:
        raise NoAdmissiblePair(f"pair scales {lo:.3g} to {hi:.3g} for alpha={alpha}, "
                               f"p={p} leave [2**-{MAX_DOUBLINGS}, 2**{MAX_DOUBLINGS}]")
    # Powers of two make every multiple of the profile exact.
    lam_small, lam_big = power_of_two_bracket(lo)[0], power_of_two_bracket(hi)[1]
    res_sub, size_sub = comparison_residual(applied, vals, tors, p, lam_small, 0.0)
    res0, size0 = comparison_residual(applied, vals, tors, p, lam_big, 0.0)
    if not (np.all(res_sub[core] <= 1e-8 * size_sub[core])
            and np.all(res0[core] >= -1e-8 * size0[core])):
        raise NoAdmissiblePair(f"pair scales {lam_small}, {lam_big} fail the "
                               f"core residual test for alpha={alpha}, p={p}")

    # Torsion lift: the assembled operator maps the torsion function to 1
    # exactly, so adding lam_c of it raises the linear part of the residual
    # by lam_c everywhere (and the absorption term only grows with it);
    # the most negative residual is therefore the lift.
    lam_c = max(0.0, -float(np.min(res0)))
    res, size = comparison_residual(applied, vals, tors, p, lam_big, lam_c)
    if not np.all(res >= -1e-8 * size):
        raise NoAdmissiblePair(
            f"torsion lift failed to globalize the super-solution for "
            f"alpha={alpha}, p={p}")

    sub = GridFunction(grid, lam_small * vals)
    super_ = GridFunction(grid, lam_big * vals + lam_c * tors)
    return sub, super_


# ---------------------------------------------------------------------------
# Newton solve on one band.


def _even_residual(matrix: OperatorMatrix, p: float, k: int,
                   u: np.ndarray) -> np.ndarray:
    """Residual of  operator(u) + |u|^(p-1) u  at the right-half nodes
    h + k, ..., n - 1, the contiguous trailing range rows[k:] of the
    stored rows; for an exactly even u these rows are the whole system."""
    first = matrix.rows.shape[0] + k
    return (matrix.rows[k:] @ u + matrix.correction[k:]
            + np.abs(u[first:]) ** (p - 1.0) * u[first:])


def _newton(matrix: OperatorMatrix, p: float, start: np.ndarray, k: int,
            ) -> tuple[np.ndarray, int, float, float]:
    """Newton for  operator(u) + |u|^(p-1) u = 0  on the band of
    right-half nodes h + k, ..., n - 1 and their mirrors, started from the
    even vector ``start``, which also holds the frozen core data off the
    band (``solve_blowup`` passes ``_stretched_start``, whose core data is
    the sub-solution's).  Returns (values, iters, residual_inf,
    tolerance), the sides of the stop test that ended it.

    Every step is taken in full (the system is a convex M-function; see
    the module docstring) and every iterate stays even: each step solves
    the half system of ``even_block(matrix, k)``, folded once, with the
    Jacobian diagonal added, and is added to the band's right half and,
    reversed, to its mirror."""
    h = matrix.rows.shape[0]
    u = start.copy()
    block = even_block(matrix, k)
    diag = block.diagonal().copy()
    for iteration in range(_MAX_ITER + 1):
        res = _even_residual(matrix, p, k, u)
        norm = float(np.max(np.abs(res)))
        tolerance = _NEWTON_RTOL * max(1.0, float(np.max(np.abs(u[h + k:]))))
        if norm <= tolerance:
            return u, iteration, norm, tolerance
        if iteration == _MAX_ITER:
            break
        np.fill_diagonal(block, diag + p * np.abs(u[h + k:]) ** (p - 1.0))
        try:
            step = np.linalg.solve(block, -res)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(
                f"Newton Jacobian singular with {2 * (h - k)} active "
                f"nodes") from exc
        u[h + k:] += step
        u[:h - k] += step[::-1]
    raise NewtonStall(
        f"no convergence in {_MAX_ITER} iterations (residual {norm:.3e})")


def _stretched_start(spec: ProblemSpec, k: int) -> np.ndarray:
    """Newton's start on the band of right-half nodes h + k, ..., n - 1
    and their mirrors: the sub-solution s, its band values times
    c = min(_MAX_STRETCH, max(1, min_i (-a_i / s_i**p)**(1/(p-1)))) over
    the band's resolved core nodes i, a the operator of s with the
    excluded core zeroed; c = 1 where some a_i >= 0 or s_i <= 0, or there
    is no such node.  c * s on the band alone is a sub-solution at these
    nodes, so the start is one too (the operator's off-diagonal weights
    are nonpositive).  The excluded core keeps the sub-solution's values,
    so the system and its one solution stay those of the plain start."""
    s = spec.sub.values
    h = s.size // 2
    band = np.zeros(s.size, dtype=bool)
    band[h + k:] = band[:h - k] = True
    try:
        core = core_mask(spec.grid) & band
    except BadConfig:
        return s
    banded = GridFunction(spec.grid, np.where(band, s, 0.0))
    a, v = apply(spec.matrix, banded)[core], s[core]
    if a.size == 0 or np.any(a >= 0.0) or np.any(v <= 0.0):
        return s
    with np.errstate(over="ignore", divide="ignore"):
        bounds = (-a / v ** spec.p) ** (1.0 / (spec.p - 1.0))
    stretch = min(_MAX_STRETCH, max(1.0, float(np.min(bounds))))
    return np.where(band, stretch * s, s)


# ---------------------------------------------------------------------------
# Driver.


def solve_blowup(spec: ProblemSpec, level: int) -> SolveReport:
    """Solve the single domain excluding the core {D <= 1/level}, starting
    from the sub-solution stretched on the band (``_stretched_start``;
    the excluded core stays frozen at the sub-solution), and audit the
    result for ordering against the sub/super pair and for not falling
    below the sub-solution (the comparison principle on that domain)."""
    level = int(level)
    if level < 4:
        raise BadConfig(f"level must be at least 4, got {level}")
    h = spec.grid.n_nodes // 2
    k = int(np.count_nonzero(spec.grid.nodes[h:] <= 1.0 / level))
    if k == h:
        raise BadConfig(f"no active nodes at level {level}")

    sub_vals = spec.sub.values
    super_vals = spec.super.values
    node_scale = 1.0 + np.abs(sub_vals) + np.abs(super_vals)

    u, iters, residual_inf, tolerance = _newton(
        spec.matrix, spec.p, _stretched_start(spec, k), k)
    ordering_ok = not (
        np.any(u < sub_vals - _AUDIT_SLACK * node_scale)
        or np.any(u > super_vals + _AUDIT_SLACK * node_scale))
    drop = sub_vals - u
    drop_scale = 1.0 + np.abs(sub_vals)
    if np.any(drop > _ABORT_SLACK * drop_scale):
        raise MonotoneViolation(
            f"iterate decreased below the sub-solution by "
            f"{np.max(drop):.3e} at level {level}")
    monotone_ok = not np.any(drop > _AUDIT_SLACK * drop_scale)

    return SolveReport(
        final=GridFunction(spec.grid, u),
        newton_iters=[iters],
        levels=[level],
        active_nodes=[2 * (h - k)],
        residual_inf=residual_inf,
        tolerance=tolerance,
        converged=residual_inf <= tolerance,
        ordering_ok=ordering_ok,
        monotone_ok=monotone_ok,
    )
