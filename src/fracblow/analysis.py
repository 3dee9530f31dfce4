"""Post-processing: blow-up-rate fits and the residual-sign audits
certifying the nonexistence zones.

Everything here consumes grid functions produced by the solver or the
profile builders and reduces them to small, JSON/CSV-friendly records.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import AuditFail, BadConfig, RegimeError, TooFewPoints
from .mesh import Grid, GridFunction, distance_D
from .operator import _checked_alpha, apply
from .profiles import (MAX_DOUBLINGS, comparison_profile, comparison_residual,
                       core_mask, kept_operator, power_of_two_bracket,
                       resolved_mask)
from .specfun import Regime, RegimeKind, classify

__all__ = [
    "RateFit",
    "ZoneAudit",
    "fit_rate",
    "audit_nonexistence",
    "require_nonexistence",
]

# Scales t of the audited comparison functions.  Powers of two, so that
# t times the zone-1 lift is exact.
T_VALUES = (0.5, 1.0, 2.0, 4.0)

# Doublings a zone-2/3 lift round tries at once.  Fewer cost more rounds,
# more cost rows past most scales' lifts.  Over the audit workload's
# operations (n_per_side 512, lifts 2**0 to 2**7), timed in one process,
# 2 to 6 read alike and 1 and 8 slower.
LIFT_BLOCK = 4

# ---------------------------------------------------------------------------
# Rate fitting.


@dataclass(frozen=True)
class RateFit:
    """Log-log least-squares fit  u ~ amplitude * D**exponent  over a
    distance window, pooling both sides of the singular point (every
    grid is mirror-symmetric and the fitted solutions are even)."""

    exponent: float
    amplitude: float
    window: tuple
    residual_r2: float
    n_nodes: int

    def as_dict(self) -> dict:
        return asdict(self)


def fit_rate(u: GridFunction, window: tuple) -> RateFit:
    """Fit the blow-up exponent of ``u`` against the distance to the
    singular point over ``window = (D_min, D_max)``."""
    lo, hi = float(window[0]), float(window[1])
    if not (0.0 < lo < hi < u.grid.delta):
        raise BadConfig(
            f"window must satisfy 0 < D_min < D_max < {u.grid.delta}, "
            f"got ({lo}, {hi})")
    D = distance_D(u.grid.nodes)
    mask = (D >= lo) & (D <= hi)
    if mask.sum() < 8:
        raise TooFewPoints(
            f"only {int(mask.sum())} nodes in window ({lo}, {hi}); "
            f"need at least 8")
    vals = u.values[mask]
    if np.any(vals <= 0.0):
        raise BadConfig("rate fit needs positive values on the window")
    log_d = np.log(D[mask])
    log_u = np.log(vals)
    design = np.vstack([log_d, np.ones(log_d.size)]).T
    coef, *_ = np.linalg.lstsq(design, log_u, rcond=None)
    predicted = design @ coef
    ss_res = float(np.sum((log_u - predicted) ** 2))
    ss_tot = float(np.sum((log_u - np.mean(log_u)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RateFit(
        exponent=float(coef[0]),
        amplitude=float(np.exp(coef[1])),
        window=(lo, hi),
        residual_r2=r2,
        n_nodes=int(mask.sum()),
    )


# ---------------------------------------------------------------------------
# Nonexistence-zone audits.


@dataclass(frozen=True)
class ZoneAudit:
    """Residual-sign certificate for one nonexistence instance.

    ``zone`` records which comparison construction was used:
      1 -- profile plus a fixed torsion multiple is a super-solution for
           every scale tested at once;
      2 -- profile minus a doubled torsion multiple is a sub-solution;
      3 -- profile plus a doubled torsion multiple is a super-solution.
    ``lift_scales`` holds the torsion multiples per scale of ``t_values``
    (T_VALUES), and ``core_constants`` the per-scale constants of the
    near-core certificate (None when the zone does not require it).
    """

    alpha: float
    p: float
    tau: float
    zone: int
    t_values: tuple
    lift_scales: tuple
    worst_margins: tuple
    core_constants: tuple
    checked_nodes: int
    passed: bool

    def as_dict(self) -> dict:
        return dict(vars(self))


def _zone_of(alpha: float, p: float, tau: float, tau1: float | None) -> int:
    """Comparison construction for rate ``tau``; ``tau1`` is None at or
    above the threshold order."""
    if tau1 is not None and tau1 < tau:
        return 1
    lhs = tau - 2.0 * alpha
    rhs = tau * p
    if abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)):
        raise BadConfig(
            "the exponent balance tau - 2*alpha = tau*p is a zone "
            "boundary; no audit is defined there")
    return 2 if lhs < rhs else 3


def require_nonexistence(alpha: float, p: float, tau: float) -> Regime:
    """Verdict of ``classify`` for the audit; RegimeError unless it is one
    of the nonexistence kinds.  The regime guard ``audit_nonexistence``
    runs before it touches any operator."""
    regime = classify(alpha, p, tau)
    if regime.kind not in (RegimeKind.NONEXISTENCE_A,
                           RegimeKind.NONEXISTENCE_B,
                           RegimeKind.NONEXISTENCE_C):
        raise RegimeError(
            f"audit needs a nonexistence verdict, got {regime.kind.value} "
            f"for alpha={alpha}, p={p}, tau={tau}")
    return regime


def audit_nonexistence(alpha: float, grid: Grid, p: float,
                       tau: float) -> ZoneAudit:
    """Certify discretely, on the operator of order ``alpha`` on ``grid``,
    the comparison-function inequalities that rule out solutions with
    rate ``tau`` for the given (alpha, p): for each scale t of T_VALUES,
    the residual of t * V + sign * mu * T (V the profile, T the torsion
    function; sign = -1 in zone 2, +1 otherwise) must have the sign
    ``sign`` at every resolved node, up to 1e-6 times the local residual
    scale.  mu is t times the least power of two >= 1 that makes the
    linear part nonnegative in zone 1, and the least power of two in
    [1, 2**MAX_DOUBLINGS] that works in zones 2 and 3.

    V, T and the operator applied to V are exactly even and the node
    sets are mirror-symmetric, so each left node's residual is its
    mirror's, bit for bit: the audit reads the right half only (nodes
    h ... n-1), and ``checked_nodes`` counts both halves.

    The search runs in rounds, each one ``comparison_residual`` call on
    the resolved right-half nodes of every scale still without a lift:
    zone 1 has one round, at mu = t * lift, and round r of zones 2 and 3
    tries mu = 2**k for the LIFT_BLOCK doublings k = r * LIFT_BLOCK, ...
    (up to MAX_DOUBLINGS), a scale taking the least k that passes.
    Every smaller k was tried and failed, so the lifts are those of a
    one-doubling-at-a-time search.  The scales are then walked in order,
    each raising its failed near-core certificate or its missing lift,
    so the first failure is the one a scale-by-scale search would meet.

    Every check that needs no operator (the alpha floor, the profile and
    the node counts) runs before one is made.  The audit applies the
    even fold; it and T come from the one entry ``kept_operator`` keeps
    per (alpha, grid) in a process.
    """
    regime = require_nonexistence(alpha, p, tau)
    zone = _zone_of(alpha, p, tau, regime.tau1)
    sign = -1.0 if zone == 2 else 1.0

    _checked_alpha(alpha, grid)
    profile = comparison_profile(grid, tau)
    h = grid.n_per_side
    checked = resolved_mask(grid)[h:]
    if 2 * checked.sum() < 8:
        raise BadConfig("grid too coarse: fewer than 8 resolved nodes")
    # the near-core certificate is needed where tau*p > tau - 2*alpha:
    # always in zone 2, never in zone 3
    core = core_mask(grid, checked) if tau * p > tau - 2.0 * alpha else None
    if core is not None:
        # the right-half nodes are their own distances to 0
        core_power = grid.nodes[h:][core] ** (tau - 2.0 * alpha)

    matrix, torsion = kept_operator(alpha, grid)
    applied = apply(matrix, profile)[h:]
    a = applied[checked]
    vals, tors = profile.values[h:][checked], torsion.values[h:][checked]
    scales = np.array(T_VALUES)
    if zone == 1:
        # a + lift >= -1e-6 (|a| + lift) is linear in the lift
        need = float(np.max((-a - 1e-6 * np.abs(a)) / (1.0 + 1e-6),
                            initial=1.0))
        if not need <= 2.0 ** MAX_DOUBLINGS:
            raise AuditFail(f"no torsion multiple up to 2**{MAX_DOUBLINGS} made the lifted "
                            f"profile operator-nonnegative (alpha={alpha}, tau={tau})")
        rounds = ((scales * power_of_two_bracket(need)[1])[:, None],)
    else:
        doublings = np.ldexp(1.0, np.arange(MAX_DOUBLINGS + 1))
        rounds = (np.tile(doublings[k:k + LIFT_BLOCK], (scales.size, 1))
                  for k in range(0, doublings.size, LIFT_BLOCK))

    # row i of a round holds scale i's candidate lifts in increasing
    # order; the call gives a (pending scales, candidates, nodes) array
    lift_scales = [None] * scales.size
    worst_margins = [None] * scales.size
    pending = np.arange(scales.size)
    for mus in rounds:
        res, size = comparison_residual(a, vals, tors, p,
                                        scales[pending, None, None],
                                        sign * mus[pending, :, None])
        passed = np.all(sign * res >= -1e-6 * size, axis=2)
        found = passed.any(axis=1)
        for j in np.flatnonzero(found):
            i, first = pending[j], int(passed[j].argmax())
            lift_scales[i] = float(mus[i, first])
            worst_margins[i] = sign * float(np.min(sign * res[j, first]))
        pending = pending[~found]
        if not pending.size:
            break

    # the scales before the first one without a lift
    lifted = next((i for i, mu in enumerate(lift_scales) if mu is None),
                  scales.size)
    core_constants = [None] * scales.size
    if core is not None:
        # zone 1: the linear part grows like D**(tau - 2*alpha) near the
        # core; zone 2: it decays like minus that power
        ratio = sign * (scales[:lifted, None] * applied[core]
                        + sign * np.array(lift_scales[:lifted])[:, None]
                        ) / core_power
        failed = np.flatnonzero(~np.all(ratio > 0.0, axis=1))
        if failed.size:
            raise AuditFail(f"zone-{zone} near-core certificate failed "
                            f"at t={T_VALUES[failed[0]]}")
        core_constants = [float(c) for c in np.min(ratio, axis=1)]
    if lifted < scales.size:
        raise AuditFail(
            f"zone-{zone} residual sign not achieved "
            + ("with the closed-form lift" if zone == 1
               else f"within {MAX_DOUBLINGS} doublings")
            + f" at t={T_VALUES[lifted]} (alpha={alpha}, p={p}, tau={tau})")

    return ZoneAudit(
        alpha=float(alpha),
        p=float(p),
        tau=float(tau),
        zone=zone,
        t_values=T_VALUES,
        lift_scales=tuple(lift_scales),
        worst_margins=tuple(worst_margins),
        core_constants=tuple(core_constants),
        checked_nodes=2 * int(checked.sum()),
        passed=True,
    )
