"""Post-processing: blow-up-rate fits, sign-band reports, and the
residual-sign audits certifying the nonexistence zones.

Everything here consumes grid functions produced by the solver or the
profile builders and reduces them to small, JSON/CSV-friendly records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AuditFail, BadConfig, RegimeError, TooFewPoints
from .mesh import GridFunction, distance_D
from .operator import OperatorMatrix, apply
from .profiles import (MAX_DOUBLINGS, build_v_tau, core_mask, resolved_mask,
                       sample_profile, search_scale, solve_torsion)
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
        return {
            "exponent": float(self.exponent),
            "amplitude": float(self.amplitude),
            "window": [float(self.window[0]), float(self.window[1])],
            "residual_r2": float(self.residual_r2),
            "n_nodes": int(self.n_nodes),
        }


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
        return {
            "min_ratio": float(self.min_ratio),
            "max_ratio": float(self.max_ratio),
            "sign_flips": int(self.sign_flips),
            "n_nodes": int(self.n_nodes),
        }


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
      2 -- profile minus a searched torsion multiple is a sub-solution;
      3 -- profile plus a searched torsion multiple is a super-solution.
    ``lift_scales`` holds the torsion multiples per tested scale, and
    ``core_constants`` the per-scale constants of the near-core growth
    certificate (None when the zone does not require it).
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
        return {
            "alpha": float(self.alpha),
            "p": float(self.p),
            "tau": float(self.tau),
            "zone": int(self.zone),
            "t_values": [float(t) for t in self.t_values],
            "lift_scales": [float(m) for m in self.lift_scales],
            "worst_margins": [float(m) for m in self.worst_margins],
            "core_constants": [None if c is None else float(c)
                               for c in self.core_constants],
            "checked_nodes": int(self.checked_nodes),
            "passed": bool(self.passed),
        }


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


def audit_nonexistence(matrix: OperatorMatrix, p: float, tau: float,
                       t_values: tuple = (0.5, 1.0, 2.0, 4.0)) -> ZoneAudit:
    """Certify discretely, on the zero-exterior operator ``matrix``, the
    comparison-function inequalities that rule out solutions with rate
    ``tau`` for the given (alpha, p).

    The residual signs are enforced at every resolved node with
    tolerance 1e-6 times the local residual scale; the torsion multiple
    is searched by doubling (at most 40 steps) per tested scale.
    """
    alpha, grid = matrix.alpha, matrix.grid
    regime = require_nonexistence(alpha, p, tau)
    zone = _zone_of(alpha, p, tau, regime.tau1)

    profile = sample_profile(build_v_tau(tau, grid.delta), grid)
    applied = apply(matrix, profile)
    vals = profile.values
    tors = solve_torsion(matrix).values
    D = distance_D(grid.nodes)
    checked = resolved_mask(grid)
    if checked.sum() < 8:
        raise BadConfig("grid too coarse: fewer than 8 resolved nodes")
    # the near-core certificate is needed where tau*p > tau - 2*alpha:
    # always in zone 2, never in zone 3
    core = core_mask(grid) if tau * p > tau - 2.0 * alpha else None
    lift_scales = []
    worst_margins = []
    core_constants = []

    if zone == 1:
        # One torsion multiple making the linear part nonnegative works
        # for every scale at once.
        def lifted_ok(lift: float) -> bool:
            linear = applied + lift
            return np.all(linear[checked]
                          >= -1e-6 * (np.abs(applied[checked]) + lift))

        lift = search_scale(1.0, lambda s: 2.0 * s, lifted_ok, AuditFail(
            f"no torsion multiple made the lifted profile "
            f"operator-nonnegative (alpha={alpha}, tau={tau})"))
        for t in t_values:
            upper = t * (vals + lift * tors)
            res = t * (applied + lift) + upper ** p
            tol = 1e-6 * (t * (np.abs(applied) + lift) + upper ** p + 1.0)
            if not np.all(res[checked] >= -tol[checked]):
                raise AuditFail(
                    f"zone-1 super residual failed at t={t} "
                    f"(alpha={alpha}, p={p}, tau={tau})")
            lift_scales.append(t * lift)
            worst_margins.append(float(np.min(res[checked])))
            if core is not None:
                ratio = (t * (applied + lift))[core] / D[core] ** (tau - 2.0 * alpha)
                if not np.all(ratio > 0.0):
                    raise AuditFail(
                        f"zone-1 near-core growth certificate failed at t={t}")
                core_constants.append(float(np.min(ratio)))
            else:
                core_constants.append(None)

    else:
        # Zone 2 subtracts the torsion multiple (sub-solution), zone 3 adds
        # it (super-solution); the residual sign sought follows the same sign.
        direction = -1.0 if zone == 2 else 1.0
        worst = np.max if zone == 2 else np.min

        def residual(t: float, mu: float) -> tuple[np.ndarray, np.ndarray]:
            w = t * vals + (direction * mu) * tors
            res = t * applied + direction * mu + np.abs(w) ** (p - 1.0) * w
            tol = 1e-6 * (np.abs(t * applied) + mu + np.abs(w) ** p + 1.0)
            return res, tol

        for t in t_values:
            def signed_ok(mu: float) -> bool:
                res, tol = residual(t, mu)
                return np.all(direction * res[checked] >= -tol[checked])

            mu = search_scale(1.0, lambda s: 2.0 * s, signed_ok, AuditFail(
                f"zone-{zone} residual sign not achieved within "
                f"{MAX_DOUBLINGS} doublings at t={t} "
                f"(alpha={alpha}, p={p}, tau={tau})"))
            res, _ = residual(t, mu)
            lift_scales.append(mu)
            worst_margins.append(float(worst(res[checked])))
            if core is not None:
                lin = (t * applied - mu)[core]
                ratio = -lin / D[core] ** (tau - 2.0 * alpha)
                if not np.all(ratio > 0.0):
                    raise AuditFail(
                        f"zone-2 near-core decay certificate failed at t={t}")
                core_constants.append(float(np.min(ratio)))
            else:
                core_constants.append(None)

    return ZoneAudit(
        alpha=float(alpha),
        p=float(p),
        tau=float(tau),
        zone=zone,
        t_values=tuple(float(t) for t in t_values),
        lift_scales=tuple(lift_scales),
        worst_margins=tuple(worst_margins),
        core_constants=tuple(core_constants),
        checked_nodes=int(checked.sum()),
        passed=True,
    )
