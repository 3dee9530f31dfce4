"""Monotone exhaustion solver for the interior blow-up problem.

The solver brackets a solution between an ordered sub/super-solution pair
built from the comparison profiles, then solves the collocation system on
the growing family of domains that exclude a shrinking neighbourhood of
the singular point (nodes inside the excluded core stay frozen at the
sub-solution).  Each domain is solved by damped Newton, warm-started from
the previous level, and the levels are audited for ordering and
monotonicity.  Every step works with one assembled operator, the one the
problem carries.
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
from .profiles import (MAX_DOUBLINGS, build_v_tau, core_mask,
                       sample_profile, search_scale, solve_torsion)
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
_DAMPING_FLOOR = 2.0 ** -20
_MAX_ITER = 60

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
    ``_BLOWUP_THRESHOLD`` at the innermost nodes) and both bounds must
    vanish outside the interval, as the operator's exterior does.  Both
    bounds must be exactly even, as the solver keeps its iterates.
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
        if not (self.matrix.exterior == self.sub.exterior
                == self.super.exterior == Zero()):
            raise BadConfig(
                "operator and sub/super must vanish outside the interval")
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
    """Outcome of an exhaustion run: final iterate plus the audit flags."""

    final: GridFunction
    n_exhaustion_levels: int
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
            "n_exhaustion_levels": int(self.n_exhaustion_levels),
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

    The sub-solution is ``lam_small * V_tau`` with the scale halved until
    the discrete inequality  operator(W) + W**p <= tol  holds at every
    resolved node inside the matching radius (the profile is only a
    sub-solution near the singular point; the exhaustion scheme never
    relies on it elsewhere).  The super-solution is ``lam_big * V_tau``
    scaled up until the reverse inequality holds on the same node set,
    plus a torsion-function lift that pushes the residual nonnegative on
    the whole grid.
    """
    alpha, grid = matrix.alpha, matrix.grid
    tau = require_unique_existence(alpha, p)
    profile = build_v_tau(tau, grid.delta)
    V = sample_profile(profile, grid)
    torsion = solve_torsion(matrix)
    applied = apply(matrix, V)
    core = core_mask(grid)
    vals = V.values

    def residual(lam: float, lam_c: float = 0.0,
                 ) -> tuple[np.ndarray, np.ndarray]:
        linear = lam * applied
        power = (lam * vals + lam_c * torsion.values) ** p
        tol = 1e-8 * (np.abs(linear) + lam_c + power + 1.0)
        return linear + lam_c + power, tol

    def core_ok(lam: float, sign: float) -> bool:
        """sign * residual <= tol on the checked core nodes."""
        res, tol = residual(lam)
        return np.all(sign * res[core] <= tol[core])

    lam_small = search_scale(
        1.0, lambda lam: 0.5 * lam, lambda lam: core_ok(lam, 1.0),
        NoAdmissiblePair(
            f"no sub-solution scale found for alpha={alpha}, p={p} "
            f"after {MAX_DOUBLINGS} halvings"))
    lam_big = search_scale(
        1.0, lambda lam: 2.0 * lam, lambda lam: core_ok(lam, -1.0),
        NoAdmissiblePair(
            f"no super-solution scale found for alpha={alpha}, p={p} "
            f"after {MAX_DOUBLINGS} doublings"))
    lam_big = max(lam_big, lam_small)

    # Torsion lift: the assembled operator maps the torsion function to 1
    # exactly, so adding lam_c of it raises the linear part of the residual
    # by lam_c everywhere (and the absorption term only grows with it);
    # the most negative residual is therefore the lift.
    res0, _ = residual(lam_big)
    lam_c = max(0.0, -float(np.min(res0)))
    res, tol = residual(lam_big, lam_c)
    if not np.all(res >= -tol):
        raise NoAdmissiblePair(
            f"torsion lift failed to globalize the super-solution for "
            f"alpha={alpha}, p={p}")

    sub = GridFunction(grid, lam_small * vals, Zero())
    super_ = GridFunction(grid, lam_big * vals + lam_c * torsion.values,
                          Zero())
    return sub, super_


# ---------------------------------------------------------------------------
# Newton solve on one exhaustion domain.


def _even_residual(spec: ProblemSpec, right: np.ndarray,
                   u: np.ndarray) -> np.ndarray:
    """Residual of  operator(u) + |u|^(p-1) u  at the nodes ``right``;
    for an exactly even u these rows are the whole system, since the
    weights commute with the node reversal bit for bit."""
    return (spec.matrix.interior_weights[right] @ u
            + spec.matrix.exterior_correction[right]
            + np.abs(u[right]) ** (spec.p - 1.0) * u[right])


def _newton_on_domain(spec: ProblemSpec, active: np.ndarray,
                      start: np.ndarray) -> tuple[np.ndarray, int]:
    """Damped Newton for  operator(u) + |u|^(p-1) u = 0  on the active
    nodes, the rest frozen at the sub-solution.  Returns (values, iters).

    The active set and the start are even, and so is every iterate:
    each step solves the half system of ``even_block`` on the right half
    of the active nodes, Jacobian diagonal added, and applies the step
    mirrored to both halves.  The block is built once per level, and only
    when the start fails the stop test."""
    p = spec.p
    idx = np.flatnonzero(active)
    right = idx[idx.size // 2:]

    u = start.copy()
    u[~active] = spec.sub.values[~active]

    block = None
    res = _even_residual(spec, right, u)
    for iteration in range(_MAX_ITER + 1):
        norm = np.max(np.abs(res))
        if norm <= _NEWTON_RTOL * max(1.0, float(np.max(np.abs(u[right])))):
            return u, iteration
        if block is None:
            block = even_block(spec.matrix.interior_weights, idx)
            diag = block.diagonal().copy()
        np.fill_diagonal(block, diag + p * np.abs(u[right]) ** (p - 1.0))
        try:
            step = np.linalg.solve(block, -res)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(
                f"Newton Jacobian singular at level with "
                f"{idx.size} active nodes") from exc
        damping = 1.0
        while damping >= _DAMPING_FLOOR:
            trial = u.copy()
            trial[idx] += damping * np.concatenate((step[::-1], step))
            trial_res = _even_residual(spec, right, trial)
            if np.max(np.abs(trial_res)) <= (1.0 - 0.25 * damping) * norm:
                u, res = trial, trial_res
                break
            damping *= 0.5
        else:
            raise NewtonStall(
                f"damping floor reached with residual {norm:.3e} "
                f"after {iteration} iterations")
    raise NewtonStall(
        f"no convergence in {_MAX_ITER} iterations "
        f"(residual {np.max(np.abs(res)):.3e})")


def _active_mask(grid: Grid, n: int) -> np.ndarray:
    return distance_D(grid.nodes) > 1.0 / n


# ---------------------------------------------------------------------------
# Exhaustion driver.


def solve_blowup(spec: ProblemSpec, n_start: int, n_end: int) -> SolveReport:
    """Run the exhaustion scheme on a doubling schedule of levels from
    ``n_start`` to ``n_end``, warm-starting each level from the previous
    one, and audit ordering against the sub/super pair and monotone
    growth across levels.  ``n_start == n_end`` solves the single domain
    excluding the core {D <= 1/n_start}, starting from the sub-solution."""
    n_start, n_end = int(n_start), int(n_end)
    if n_start < 4:
        raise BadConfig(f"starting level must be at least 4, got {n_start}")
    if not n_start <= n_end:
        raise BadConfig(
            f"levels must not decrease, got {n_start} -> {n_end}")
    if not np.any(_active_mask(spec.grid, n_start)):
        raise BadConfig(f"no active nodes at starting level {n_start}")

    levels = [n_start]
    while levels[-1] < n_end:
        levels.append(min(2 * levels[-1], n_end))

    sub_vals = spec.sub.values
    super_vals = spec.super.values
    node_scale = 1.0 + np.abs(sub_vals) + np.abs(super_vals)

    u = sub_vals.copy()
    newton_iters = []
    active_nodes = []
    ordering_ok = True
    monotone_ok = True
    for n in levels:
        active = _active_mask(spec.grid, n)
        u_new, iters = _newton_on_domain(spec, active, u)
        newton_iters.append(iters)
        active_nodes.append(int(np.count_nonzero(active)))
        if np.any(u_new < sub_vals - _AUDIT_SLACK * node_scale) or \
           np.any(u_new > super_vals + _AUDIT_SLACK * node_scale):
            ordering_ok = False
        drop = u - u_new
        drop_scale = 1.0 + np.abs(u)
        if np.any(drop > _ABORT_SLACK * drop_scale):
            raise MonotoneViolation(
                f"iterate decreased by {np.max(drop):.3e} at level {n}")
        if np.any(drop > _AUDIT_SLACK * drop_scale):
            monotone_ok = False
        u = u_new

    idx = np.flatnonzero(_active_mask(spec.grid, levels[-1]))
    right = idx[idx.size // 2:]
    residual_inf = float(np.max(np.abs(_even_residual(spec, right, u))))
    tolerance = _NEWTON_RTOL * max(1.0, float(np.max(np.abs(u[right]))))
    return SolveReport(
        final=GridFunction(spec.grid, u, Zero()),
        n_exhaustion_levels=len(levels),
        newton_iters=newton_iters,
        levels=levels,
        active_nodes=active_nodes,
        residual_inf=residual_inf,
        tolerance=tolerance,
        converged=residual_inf <= tolerance,
        ordering_ok=ordering_ok,
        monotone_ok=monotone_ok,
    )
