"""Kernel-difference special functions and parameter-regime classification.

The blow-up analysis of the absorption problem rests on three scalar
functions of the order alpha in (0,1) and a rate exponent tau in (-1,0]:

* ``c_tau``  -- the two-sided kernel-difference integral whose sign at a
  given rate decides whether the nonlocal operator pushes a power profile
  up or down near the singular point;
* ``C_tau``  -- the one-sided variant with the interior branch cut off at
  t = 1, whose unique zero ``tau0`` marks the boundary-blow-up rate;
* ``T_alpha`` -- the logarithmic integral equal to the slope of ``c_tau``
  at tau = 0; its unique zero ``alpha0`` splits the orders into a regime
  where ``c_tau`` keeps one sign and a regime where it crosses zero at a
  unique ``tau1``.

``classify`` combines these thresholds into the existence /
special-existence / nonexistence verdict for a given (alpha, p) pair and
optional prescribed rate.  Whether an order lies below the threshold, and
where its ``tau1`` is, is decided in one place, ``_interior_zero``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .errors import BadConfig, BracketFailure, RegimeError
from .quad import Integrand, integrate_singular

__all__ = [
    "c_tau", "C_tau", "T_alpha", "c_second_derivative",
    "find_alpha0", "find_tau0", "find_tau1",
    "CriticalExponents", "critical_exponents", "existence_window",
    "RegimeKind", "Regime", "classify",
]

_BRACKET_FLOOR = 1e-6
_SIGN_BAND = 1e-8  # |T| below this counts as "at the threshold order"
_EQ_TOL = 1e-9  # relative gap below which p or tau counts as an equality case


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise BadConfig(f"alpha must lie strictly in (0, 1), got {alpha}")
    return alpha


def _check_tau(tau: float, *, allow_zero: bool) -> float:
    tau = float(tau)
    hi_ok = (tau <= 0.0) if allow_zero else (tau < 0.0)
    if not (-1.0 < tau and hi_ok):
        rng = "(-1, 0]" if allow_zero else "(-1, 0)"
        raise BadConfig(f"tau must lie in {rng}, got {tau}")
    return tau


# ---------------------------------------------------------------------------
# Integrand builders.  All integrands share the kernel t**(-1-2*alpha), an
# origin behaviour t**(1-2*alpha) (the numerators vanish quadratically) and
# an algebraic tail.


def _pair_minus_two(t: np.ndarray, tau: float) -> np.ndarray:
    """|1-t|**tau + (1+t)**tau - 2, via the even binomial series for
    t <= 1/2 where direct evaluation would cancel catastrophically.

    For tau in (-1, 0) every even binomial coefficient of (1 +- t)**tau is
    positive, so the series has no cancellation at all; it converges like
    t**(2k) and 200 terms are far more than double precision needs.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = t <= 0.5
    ts = t[small]
    if ts.size:
        t2 = ts * ts
        acc = np.zeros_like(ts)
        power = np.ones_like(ts)
        coef = 1.0
        for k in range(1, 200):
            coef *= (tau - (2 * k - 2)) * (tau - (2 * k - 1)) / ((2 * k - 1) * (2 * k))
            power = power * t2
            term = coef * power
            acc += term
            if np.all(term <= 1e-18 * (acc + 1e-300)):
                break
        out[small] = 2.0 * acc
    tl = t[~small]
    if tl.size:
        with np.errstate(all="ignore"):
            out[~small] = (np.abs(1.0 - tl) ** tau + (1.0 + tl) ** tau - 2.0)
    return out


def _c_integrand(alpha: float, tau: float) -> Integrand:
    k = -1.0 - 2.0 * alpha

    def ev(t):
        t = np.asarray(t, dtype=float)
        return _pair_minus_two(t, tau) * t ** k

    def ev_sing(log_u, sign):
        u = sign * np.exp(log_u)
        return (1.0 + ((2.0 + u) ** tau - 2.0) * np.exp(-tau * log_u)) \
            * (1.0 + u) ** k

    return Integrand(eval=ev, origin_order=1.0 - 2.0 * alpha, sing_order=tau,
                     tail_order=k, eval_sing_scaled=ev_sing)


def _C_integrand(alpha: float, tau: float) -> Integrand:
    k = -1.0 - 2.0 * alpha

    def ev(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            above = (1.0 + t) ** tau - 2.0
        return np.where(t < 1.0, _pair_minus_two(t, tau), above) * t ** k

    def ev_sing(log_u, sign):
        u = sign * np.exp(log_u)
        jump = ((2.0 + u) ** tau - 2.0) * np.exp(-tau * log_u)
        main = np.where(sign < 0.0, 1.0 + jump, jump)
        return main * (1.0 + u) ** k

    return Integrand(eval=ev, origin_order=1.0 - 2.0 * alpha, sing_order=tau,
                     tail_order=k, eval_sing_scaled=ev_sing)


def _T_integrand(alpha: float) -> Integrand:
    k = -1.0 - 2.0 * alpha

    def ev(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            big = np.maximum(t, 1.0)
            lg = np.where(t < 1.0, np.log1p(-t * t),
                          2.0 * np.log(big) + np.log1p(-1.0 / (big * big)))
        return lg * t ** k

    def ev_sing(log_u, sign):
        # logarithmic singularity regularised with declared order -1/2
        u = sign * np.exp(log_u)
        return (log_u + np.log(2.0 + u)) * np.exp(0.5 * log_u) \
            * (1.0 + u) ** k

    return Integrand(eval=ev, origin_order=1.0 - 2.0 * alpha, sing_order=-0.5,
                     tail_order=k, eval_sing_scaled=ev_sing)


def _c2_integrand(alpha: float, tau: float) -> Integrand:
    k = -1.0 - 2.0 * alpha
    # the singular factor is |u|**tau * log^2|u|; any declared order below
    # tau keeps the transformed integrand bounded, staying above -1
    q = max(0.5 * (tau - 1.0), tau - 0.25)

    def ev(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            lgm = np.where(t < 1.0, np.log1p(-t), np.log(np.abs(1.0 - t)))
            lgp = np.log1p(t)
            num = np.exp(tau * lgm) * lgm * lgm + np.exp(tau * lgp) * lgp * lgp
        return num * t ** k

    def ev_sing(log_u, sign):
        u = sign * np.exp(log_u)
        lgp = np.log(2.0 + u)
        main = np.exp((tau - q) * log_u) * log_u * log_u \
            + (2.0 + u) ** tau * lgp * lgp * np.exp(-q * log_u)
        return main * (1.0 + u) ** k

    return Integrand(eval=ev, origin_order=1.0 - 2.0 * alpha, sing_order=q,
                     tail_order=k, eval_sing_scaled=ev_sing)


# ---------------------------------------------------------------------------
# Public evaluators.


def c_tau(alpha: float, tau: float, rel_tol: float = 1e-10) -> float:
    """Two-sided kernel-difference integral at rate tau.

    Exact zero is returned for tau = 0 where the numerator vanishes
    identically.  Raises BadConfig for arguments outside (0,1) x (-1,0]
    and propagates quadrature errors otherwise.
    """
    alpha = _check_alpha(alpha)
    tau = _check_tau(tau, allow_zero=True)
    if tau == 0.0:
        return 0.0
    return integrate_singular(_c_integrand(alpha, tau), rel_tol).value


def C_tau(alpha: float, tau: float, rel_tol: float = 1e-10) -> float:
    """One-sided variant of ``c_tau`` with the |1-t| branch dropped for
    t > 1; its unique zero in (-1,0) is the boundary rate ``tau0``."""
    alpha = _check_alpha(alpha)
    tau = _check_tau(tau, allow_zero=True)
    return integrate_singular(_C_integrand(alpha, tau), rel_tol).value


def T_alpha(alpha: float, rel_tol: float = 1e-10) -> float:
    """Logarithmic integral equal to the slope of ``c_tau`` at tau = 0."""
    alpha = _check_alpha(alpha)
    return integrate_singular(_T_integrand(alpha), rel_tol).value


def c_second_derivative(alpha: float, tau: float, rel_tol: float = 1e-10) -> float:
    """Second tau-derivative of ``c_tau``; strictly positive (convexity)."""
    alpha = _check_alpha(alpha)
    tau = _check_tau(tau, allow_zero=False)
    return integrate_singular(_c2_integrand(alpha, tau), rel_tol).value


# ---------------------------------------------------------------------------
# Root finding.


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (1e-12 < tol < 1e-4):
        raise BadConfig(f"tol must lie in (1e-12, 1e-4), got {tol}")
    return tol


def _bracket_and_solve(fn, lo, hi, lo_limit, hi_limit, tol, what):
    """Grow (lo, hi) geometrically toward the open interval
    (lo_limit, hi_limit), keeping a floor gap, until fn changes sign;
    then solve by Brent's method to |dx| <= tol."""
    flo = fn(lo)
    fhi = fn(hi)
    for _ in range(64):
        if flo == 0.0:
            return lo
        if fhi == 0.0:
            return hi
        if flo * fhi < 0.0:
            break
        moved = False
        new_lo = lo_limit + 0.5 * (lo - lo_limit)
        if new_lo >= lo_limit + _BRACKET_FLOOR and new_lo < lo:
            lo, flo, moved = new_lo, fn(new_lo), True
        new_hi = hi_limit - 0.5 * (hi_limit - hi)
        if new_hi <= hi_limit - _BRACKET_FLOOR and new_hi > hi:
            hi, fhi, moved = new_hi, fn(new_hi), True
        if not moved:
            raise BracketFailure(
                f"no sign change of {what} in "
                f"({lo_limit + _BRACKET_FLOOR}, {hi_limit - _BRACKET_FLOOR})")
    else:
        raise BracketFailure(f"bracket growth for {what} did not terminate")
    return float(brentq(fn, lo, hi, xtol=tol))


def find_alpha0(tol: float = 1e-8) -> float:
    """Unique order in (0,1) where ``T_alpha`` changes sign from + to -.

    Starts from the bracket (0.01, 0.99) and expands toward the open
    endpoints if the signs at the ends ever fail to differ (they cannot,
    unless the quadrature itself is misconfigured, which is exactly what
    BracketFailure is meant to flag).
    """
    tol = _check_tol(tol)

    def f(a):
        return integrate_singular(_T_integrand(a), 1e-11, strict=False).value

    return _bracket_and_solve(f, 0.01, 0.99, 0.0, 1.0, tol,
                              "the threshold integral over (0,1)")


def _tau_root(integrand, alpha: float, tol: float, what: str) -> float:
    """Zero in (-1,0) of the integral ``integrand(alpha, .)`` builds."""

    def f(t):
        return integrate_singular(integrand(alpha, t), 1e-11,
                                  strict=False).value

    return _bracket_and_solve(f, -0.999, -1e-4, -1.0, 0.0, tol, what)


def _interior_zero(alpha: float, tol: float) -> Optional[float]:
    """``tau1`` below the threshold order, None at or above it.  The one
    place where the sign of ``T_alpha`` decides the regime."""
    if T_alpha(alpha, rel_tol=1e-10) <= _SIGN_BAND:
        return None
    return _tau_root(_c_integrand, alpha, tol,
                     "the two-sided integral over (-1,0)")


def find_tau1(alpha: float, tol: float = 1e-8) -> float:
    """Unique zero of ``c_tau(alpha, .)`` in (-1,0); exists only below the
    threshold order.  Raises RegimeError when ``alpha >= alpha0`` (there
    the integral is positive throughout)."""
    alpha = _check_alpha(alpha)
    tau1 = _interior_zero(alpha, _check_tol(tol))
    if tau1 is None:
        raise RegimeError(
            f"alpha={alpha} is at or above the threshold order; the "
            "two-sided integral has no interior zero")
    return tau1


def find_tau0(alpha: float, tol: float = 1e-8) -> float:
    """Unique zero of ``C_tau(alpha, .)`` in (-1,0); exists for every
    alpha in (0,1)."""
    alpha = _check_alpha(alpha)
    return _tau_root(_C_integrand, alpha, _check_tol(tol),
                     "the one-sided integral over (-1,0)")


@dataclass(frozen=True)
class CriticalExponents:
    """Threshold data for one order: the boundary rate ``tau0`` and,
    below the threshold order (``find_alpha0``) only, the interior rate
    ``tau1`` where the two-sided integral vanishes."""

    alpha: float
    tau0: float
    tau1: Optional[float]


def critical_exponents(alpha: float, tol: float = 1e-8) -> CriticalExponents:
    """All critical exponents for one order, with ``tau1`` present iff
    the order sits below the threshold."""
    alpha = _check_alpha(alpha)
    tol = _check_tol(tol)
    tau0 = find_tau0(alpha, tol)
    tau1 = _interior_zero(alpha, tol)
    if tau1 is not None and not (tau0 < tau1):
        raise RegimeError(
            f"critical exponents out of order: tau0={tau0} !< tau1={tau1}")
    return CriticalExponents(alpha=alpha, tau0=tau0, tau1=tau1)


# ---------------------------------------------------------------------------
# Regime classification.


class RegimeKind(Enum):
    """Existence verdict for an (alpha, p) pair and optional rate."""

    UNIQUE_EXISTENCE = "unique-existence"
    SPECIAL_EXISTENCE = "special-existence"
    NONEXISTENCE_A = "nonexistence-a"   # absorption too weak: p at or below 1+2*alpha
    NONEXISTENCE_B = "nonexistence-b"   # p inside the window but the rate is wrong
    NONEXISTENCE_C = "nonexistence-c"   # p at or beyond the window top: no rate works
    BOUNDARY = "boundary"               # equality case not covered by the theory


@dataclass(frozen=True)
class Regime:
    """Classification result; ``predicted_rate`` is the blow-up exponent
    for the existence kinds and None otherwise, and ``tau1`` the interior
    critical rate below the threshold order (None at or above it)."""

    kind: RegimeKind
    predicted_rate: Optional[float] = None
    tau1: Optional[float] = None


def existence_window(alpha: float, tol: float = 1e-8) -> tuple:
    """(p_lo, p_hi) of the unique-existence window; p_hi is +inf at and
    above the threshold order."""
    alpha = _check_alpha(alpha)
    tau1 = _interior_zero(alpha, _check_tol(tol))
    p_hi = math.inf if tau1 is None else 1.0 - 2.0 * alpha / tau1
    return 1.0 + 2.0 * alpha, p_hi


def _isclose(a, b):
    return abs(a - b) <= _EQ_TOL * max(1.0, abs(a), abs(b))


def _verdict(alpha: float, p: float, tau: Optional[float], rate: float,
             tau1: Optional[float]) -> RegimeKind:
    """Verdict of ``classify``; ``tau1`` is None at or above the threshold
    order."""
    p_lo = 1.0 + 2.0 * alpha
    if tau1 is not None:
        p_hi = 1.0 - 2.0 * alpha / tau1
        special_lo = max(p_hi + (tau1 + 1.0) / tau1, 1.0)
        if _isclose(p, p_hi) or p > p_hi:
            # the window-top inequality is non-strict: no rate works at all
            return RegimeKind.NONEXISTENCE_C
        if tau is not None and _isclose(tau, tau1):
            if special_lo < p:
                return RegimeKind.SPECIAL_EXISTENCE
            return RegimeKind.BOUNDARY

    if _isclose(p, p_lo):
        if tau is None:
            return RegimeKind.BOUNDARY
        return RegimeKind.NONEXISTENCE_A
    if p < p_lo:
        # only the rate-tau1 family exists below the window
        if tau is None and tau1 is not None and special_lo < p:
            return RegimeKind.SPECIAL_EXISTENCE
        return RegimeKind.NONEXISTENCE_A

    # now strictly inside the unique-existence window
    if tau is None or _isclose(tau, rate):
        return RegimeKind.UNIQUE_EXISTENCE
    return RegimeKind.NONEXISTENCE_B


def classify(alpha: float, p: float, tau: Optional[float] = None,
             tol: float = 1e-8) -> Regime:
    """Existence verdict for exponent p > 1 and an optional prescribed
    blow-up rate tau in (-1,0).

    Above the threshold order: a unique solution with rate -2*alpha/(p-1)
    exists iff p > 1+2*alpha, and no other rate is possible for any p.
    Below it: the unique solution needs p strictly inside the window
    (1+2*alpha, 1-2*alpha/tau1); the one-parameter family with rate tau1
    lives on its own window; every other rate is impossible, with the
    failure kind recording which inequality excluded it.  Equalities the
    strict inequalities do not cover come back as BOUNDARY.  The result
    carries ``tau1``, so callers need not decide the regime again.
    """
    alpha = _check_alpha(alpha)
    tol = _check_tol(tol)
    p = float(p)
    if not p > 1.0:
        raise BadConfig(f"p must exceed 1, got {p}")
    if tau is not None:
        tau = float(tau)
        if not (-1.0 < tau < 0.0):
            raise BadConfig(f"prescribed rate must lie in (-1,0), got {tau}")

    rate = -2.0 * alpha / (p - 1.0)
    tau1 = _interior_zero(alpha, tol)
    kind = _verdict(alpha, p, tau, rate, tau1)
    predicted = {RegimeKind.UNIQUE_EXISTENCE: rate,
                 RegimeKind.SPECIAL_EXISTENCE: tau1}.get(kind)
    return Regime(kind, predicted_rate=predicted, tau1=tau1)
