"""Post-processing: blow-up-rate fits, sign-band reports, and the
residual-sign audits certifying the nonexistence zones.

Everything here consumes grid functions produced by the solver or the
profile builders and reduces them to small, JSON/CSV-friendly records.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import AuditFail, BadConfig, RegimeError, TooFewPoints
from .mesh import GridFunction, distance_D
from .operator import OperatorMatrix
from .profiles import (MAX_DOUBLINGS, comparison_arrays, comparison_residual,
                       core_mask, power_of_two_bracket, resolved_mask,
                       solve_torsion)
from .specfun import Regime, RegimeKind, classify

__all__ = [
    "RateFit",
    "BandReport",
    "ZoneAudit",
    "fit_rate",
    "check_band",
    "audit_nonexistence",
    "require_nonexistence",
]

# Scales t of the audited comparison functions.  Powers of two, so that
# t times the zone-1 lift is exact.
T_VALUES = (0.5, 1.0, 2.0, 4.0)

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
# Sign-band reports.


@dataclass(frozen=True)
class BandReport:
    """Extremes and sign changes of values(x)/D(x)**exponent over a
    window of resolved nodes."""

    min_ratio: float
    max_ratio: float
    sign_flips: int
    n_nodes: int

    def as_dict(self) -> dict:
        return asdict(self)


def check_band(values: GridFunction, reference_exponent: float,
               window: tuple) -> BandReport:
    """Ratio band of node values against a reference power of the
    distance to the singular point, restricted to resolved window nodes."""
    lo, hi = float(window[0]), float(window[1])
    if not (0.0 < lo < hi):
        raise BadConfig(f"window must satisfy 0 < D_min < D_max, got ({lo}, {hi})")
    grid = values.grid
    D = distance_D(grid.nodes)
    mask = (D >= lo) & (D <= hi) & resolved_mask(grid)
    if mask.sum() < 8:
        raise TooFewPoints(
            f"only {int(mask.sum())} resolved nodes in window ({lo}, {hi})")
    ratio = values.values[mask] / D[mask] ** float(reference_exponent)
    signs = np.sign(ratio)
    flips = int(np.sum(signs[1:] != signs[:-1]))
    return BandReport(
        min_ratio=float(np.min(ratio)),
        max_ratio=float(np.max(ratio)),
        sign_flips=flips,
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
        return asdict(self)


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
    of the nonexistence kinds.  The regime guard of
    ``audit_nonexistence``, cheap enough to run before an operator is
    assembled."""
    regime = classify(alpha, p, tau)
    if regime.kind not in (RegimeKind.NONEXISTENCE_A,
                           RegimeKind.NONEXISTENCE_B,
                           RegimeKind.NONEXISTENCE_C):
        raise RegimeError(
            f"audit needs a nonexistence verdict, got {regime.kind.value} "
            f"for alpha={alpha}, p={p}, tau={tau}")
    return regime


def audit_nonexistence(matrix: OperatorMatrix, p: float,
                       tau: float) -> ZoneAudit:
    """Certify discretely, on the operator ``matrix``, the
    comparison-function inequalities that rule out solutions with rate
    ``tau`` for the given (alpha, p): for each scale t of T_VALUES, the
    residual of t * V + sign * mu * T (V the profile, T the torsion
    function; sign = -1 in zone 2, +1 otherwise) must have the sign
    ``sign`` at every resolved node, up to 1e-6 times the local residual
    scale.  mu is t times the least power of two >= 1 that makes the
    linear part nonnegative in zone 1, and the least power of two in
    [1, 2**MAX_DOUBLINGS] that works, found by doubling, in zones 2 and 3.
    T comes from ``solve_torsion``, solved once per (alpha, grid) in a
    process.
    """
    alpha, grid = matrix.alpha, matrix.grid
    regime = require_nonexistence(alpha, p, tau)
    zone = _zone_of(alpha, p, tau, regime.tau1)
    sign = -1.0 if zone == 2 else 1.0

    vals, applied = comparison_arrays(matrix, tau)
    tors = solve_torsion(matrix).values
    checked = resolved_mask(grid)
    if checked.sum() < 8:
        raise BadConfig("grid too coarse: fewer than 8 resolved nodes")
    # the near-core certificate is needed where tau*p > tau - 2*alpha:
    # always in zone 2, never in zone 3
    core = core_mask(grid) if tau * p > tau - 2.0 * alpha else None
    if core is not None:
        core_power = distance_D(grid.nodes)[core] ** (tau - 2.0 * alpha)

    if zone == 1:
        # a + lift >= -1e-6 (|a| + lift) is linear in the lift
        a = applied[checked]
        need = float(np.max((-a - 1e-6 * np.abs(a)) / (1.0 + 1e-6),
                            initial=1.0))
        if not need <= 2.0 ** MAX_DOUBLINGS:
            raise AuditFail(f"no torsion multiple up to 2**{MAX_DOUBLINGS} made the lifted "
                            f"profile operator-nonnegative (alpha={alpha}, tau={tau})")
        lift = power_of_two_bracket(need)[1]

    lift_scales = []
    worst_margins = []
    core_constants = []
    for t in T_VALUES:
        mus = ((t * lift,) if zone == 1
               else (2.0 ** k for k in range(MAX_DOUBLINGS + 1)))
        for mu in mus:
            res, size = comparison_residual(applied, vals, tors, p, t, sign * mu)
            if np.all(sign * res[checked] >= -1e-6 * size[checked]):
                break
        else:
            raise AuditFail(
                f"zone-{zone} residual sign not achieved "
                + ("with the closed-form lift" if zone == 1
                   else f"within {MAX_DOUBLINGS} doublings")
                + f" at t={t} (alpha={alpha}, p={p}, tau={tau})")
        lift_scales.append(mu)
        worst_margins.append(sign * float(np.min(sign * res[checked])))
        if core is None:
            core_constants.append(None)
            continue
        # zone 1: the linear part grows like D**(tau - 2*alpha) near the
        # core; zone 2: it decays like minus that power
        ratio = sign * (t * applied[core] + sign * mu) / core_power
        if not np.all(ratio > 0.0):
            raise AuditFail(
                f"zone-{zone} near-core certificate failed at t={t}")
        core_constants.append(float(np.min(ratio)))

    return ZoneAudit(
        alpha=float(alpha),
        p=float(p),
        tau=float(tau),
        zone=zone,
        t_values=T_VALUES,
        lift_scales=tuple(lift_scales),
        worst_margins=tuple(worst_margins),
        core_constants=tuple(core_constants),
        checked_nodes=int(checked.sum()),
        passed=True,
    )
