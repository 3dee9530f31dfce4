"""Newton solver for the interior blow-up problem.

The solver brackets a solution between an ordered pair, a multiple of the
bridged comparison profile below and one of D**tau above, then solves the
collocation system once, on the domain that excludes the neighbourhood
{D <= 1/level} of the singular point (nodes inside the excluded core stay
frozen at the sub-solution), by Newton with full steps started from the
sub-solution with its band values doubled: the pair rounds its
sub-solution scale down to a power of two, so twice it is the closed-form
scale rounded up.
One level and no line search suffice: the assembled weights form a
Z-matrix with positive row sums, so F(u) = W u + |u|^(p-1) u is a convex
M-function on u > 0 (Ortega and Rheinboldt, *Iterative Solution of
Nonlinear Equations*, 1970, ch. 13), with exactly one solution for its
frozen core data, which Newton from any positive start reaches: the first
full step lands on or above it and the iterates then fall.  The same
structure bounds the forward error: the band block W_band of the
operator is a nonsingular M-matrix, F(u) - F(u*) = (W_band + S)(u - u*)
with S the nonnegative diagonal of secants of the increasing absorption,
and (W_band + S)^-1 <= W_band^-1 entrywise, so |u - u*| <= W_band^-1
|F(u)| componentwise, u* the band solution.  Newton stops when the
residual meets its norm tolerance, or, where rounding keeps it above
that, when this bound is small against u.  The result is audited for
ordering against the pair and for not falling below the sub-solution.
Every step works with one assembled operator, the even fold the problem
carries.
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
from .mesh import Grid, GridFunction, distance_D
from .operator import OperatorMatrix, apply
from .profiles import (MAX_DOUBLINGS, comparison_profile, comparison_residual,
                       core_mask, power_of_two_bracket)
from .specfun import RegimeKind, _check_p, c_tau, classify

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

# Newton controls: the norm stop, and the forward-error stop, tried once
# a step is below _STEP_RTOL of u on the band.
_NEWTON_RTOL = 1e-9
_STEP_RTOL = 1e-7
_FORWARD_RTOL = 1e-10
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
    """Blow-up problem on the operator ``matrix``, bracketed by an
    ordered sub/super-solution pair.

    ``sub`` must blow up toward the singular point (checked against
    ``_BLOWUP_THRESHOLD`` at the innermost nodes).  Both bounds vanish
    outside the interval, as every grid function does, and must be
    exactly even, as the solver keeps its iterates.
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
    returns only after one of Newton's two stops passed, and a solve
    that meets neither raises ``NewtonStall`` instead.  ``residual_inf``
    and ``tolerance`` are the two sides of the norm stop at the final
    iterate, so ``residual_inf > tolerance`` marks a solve that ended at
    the forward-error stop (see ``_newton``)."""

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
    regime, for the operator ``matrix``.

    The sub-solution is ``lam_small * V_tau``, which must satisfy the
    discrete inequality  operator(W) + W**p <= tol  at every resolved node
    inside the matching radius (the profile is only a sub-solution near
    the singular point; the solver never relies on it elsewhere), its
    scale a closed form rounded down to a power of two.  The super-solution
    is ``lam_sup * d``, d = D**tau with zero exterior, lam_sup the largest
    of lam* = c(tau)**(1/(p-1)), the node bounds (-b_i / d_i**p)**(1/(p-1))
    where b = operator(d) < 0, and max(sub / d), checked at every node.
    """
    alpha, grid = matrix.alpha, matrix.grid
    tau = require_unique_existence(alpha, p)
    profile = comparison_profile(grid, tau)
    vals, applied = profile.values, apply(matrix, profile)
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
            f"nodes, and a smaller --delta gives no solve either: the "
            f"bridged profile has no sub-solution scale here, a known "
            f"limit of the default pair")
    bounds = (-a / v ** p) ** (1.0 / (p - 1.0))
    lo = float(np.min(bounds, initial=1.0))
    if not lo >= 2.0 ** -MAX_DOUBLINGS:
        raise NoAdmissiblePair(f"sub-solution scale {lo:.3g} for alpha="
                               f"{alpha}, p={p} is below 2**-{MAX_DOUBLINGS}")
    # A power of two makes the multiple of the profile exact.
    lam_small = power_of_two_bracket(lo)[0]
    sub = lam_small * vals

    # An overflowing d**p makes its node bound 0; a rounding-level
    # negative c must not become a complex power.
    d = distance_D(grid.nodes) ** tau
    b = apply(matrix, GridFunction(grid, d))
    with np.errstate(over="ignore"):
        lam_star = np.float64(max(c_tau(alpha, tau), 0.0)) ** (1.0 / (p - 1.0))
        node = (-b[b < 0.0] / d[b < 0.0] ** p) ** (1.0 / (p - 1.0))
        lam_sup = max(lam_star, np.max(node, initial=0.0), np.max(sub / d))
        super_ = lam_sup * d
    if not np.all(np.isfinite(super_)):
        raise NoAdmissiblePair(f"super-solution scale {lam_sup:.3g} for "
                               f"alpha={alpha}, p={p} overflows at the core")
    res_sub, size_sub = comparison_residual(applied, vals, 0.0, p, lam_small, 0.0)
    res_sup, size_sup = comparison_residual(b, d, 0.0, p, lam_sup, 0.0)
    if not (np.all(res_sub[core] <= 1e-8 * size_sub[core])
            and np.all(res_sup >= -1e-8 * size_sup)):
        raise NoAdmissiblePair(f"pair scales {lam_small}, {lam_sup} fail the "
                               f"residual test for alpha={alpha}, p={p}")
    return GridFunction(grid, sub), GridFunction(grid, super_)


# ---------------------------------------------------------------------------
# Newton solve on one band.


def _newton(matrix: OperatorMatrix, p: float, start: np.ndarray, k: int,
            ) -> tuple[np.ndarray, int, float, float]:
    """Newton for  operator(u) + |u|^(p-1) u = 0  on the band of
    right-half nodes h + k, ..., n - 1 and their mirrors, started from the
    even vector ``start``, which also holds the frozen core data off the
    band.  Returns (values, iters, residual_inf, tolerance), the sides of
    the norm stop at the last iterate.

    Every step is taken in full (the system is a convex M-function; see
    the module docstring) and every iterate stays even: the residual at
    the band's right half is fold[k:] @ u[h:] plus the absorption, and
    each step solves the half system of the band block fold[k:, k:] with
    the Jacobian diagonal added and is added to the band's right half
    and, reversed, to its mirror.  Newton stops when max|F| is at most
    _NEWTON_RTOL * max(1, max|u|); or, once a step is below _STEP_RTOL of
    u at every band node, when the bound W_band^-1 |F| on the forward
    error (one more solve per check) is at most _FORWARD_RTOL of u there."""
    fold = matrix.fold
    h = fold.shape[0]
    u = start.copy()
    band = u[h + k:]
    W_band = fold[k:, k:]
    block = W_band.copy()
    diag = block.diagonal().copy()
    step = None
    try:
        for iteration in range(_MAX_ITER + 1):
            res = fold[k:] @ u[h:] + np.abs(band) ** (p - 1.0) * band
            norm = float(np.max(np.abs(res)))
            tolerance = _NEWTON_RTOL * max(1.0, float(np.max(np.abs(band))))
            if norm <= tolerance:
                return u, iteration, norm, tolerance
            if (step is not None and np.all(band > 0.0)
                    and np.all(np.abs(step) <= _STEP_RTOL * band)):
                bound = np.linalg.solve(W_band, np.abs(res))
                if np.max(bound / band) <= _FORWARD_RTOL:
                    return u, iteration, norm, tolerance
            if iteration == _MAX_ITER:
                break
            np.fill_diagonal(block, diag + p * np.abs(band) ** (p - 1.0))
            step = np.linalg.solve(block, -res)
            band += step
            u[:h - k] += step[::-1]
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            f"Newton Jacobian singular with {2 * (h - k)} active "
            f"nodes") from exc
    raise NewtonStall(
        f"no convergence in {_MAX_ITER} iterations (residual {norm:.3e})")


# ---------------------------------------------------------------------------
# Driver.


def solve_blowup(spec: ProblemSpec, level: int) -> SolveReport:
    """Solve the single domain excluding the core {D <= 1/level}, starting
    from the sub-solution with its band values doubled (the excluded core
    stays frozen at the sub-solution), and audit the result for ordering
    against the sub/super pair and for not falling below the sub-solution
    (the comparison principle on that domain).  BadConfig when the
    excluded core or the domain holds no node."""
    level = int(level)
    if level < 4:
        raise BadConfig(f"level must be at least 4, got {level}")
    h = spec.grid.n_nodes // 2
    k = int(np.count_nonzero(spec.grid.nodes[h:] <= 1.0 / level))
    if k == h:
        raise BadConfig(f"no active nodes at level {level}")
    if k == 0:
        # with no frozen node the band carries no blow-up data, and its
        # one discrete solution is 0
        innermost = float(spec.grid.nodes[h])
        largest = int(1.0 / innermost)
        if innermost > 1.0 / largest:
            largest -= 1
        raise BadConfig(
            f"level {level} leaves no node in the excluded core: the "
            f"innermost node lies at D = {innermost:.3g}, so the level "
            f"can be at most {largest}")

    sub_vals = spec.sub.values
    super_vals = spec.super.values
    node_scale = 1.0 + np.abs(sub_vals) + np.abs(super_vals)

    start = sub_vals.copy()
    start[h + k:] *= 2.0
    start[:h - k] *= 2.0
    u, iters, residual_inf, tolerance = _newton(spec.matrix, spec.p, start, k)
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
        converged=True,
        ordering_ok=ordering_ok,
        monotone_ok=monotone_ok,
    )
