"""Adaptive quadrature for kernel-difference integrands on (0, inf).

The integrands this package needs share one shape: an algebraic origin
behaviour t**origin_order as t -> 0+, one algebraic (possibly logarithmic)
singularity at t = 1, and an algebraic tail t**tail_order as t -> inf.
``integrate_singular`` splits the axis at {0, 1/2, 1, 3/2, 2, T_cut},
removes the endpoint singularities by power substitutions, integrates each
panel with an adaptive Gauss rule, and closes the tail beyond T_cut in
closed form from the declared tail order.

The engine never inspects an integrand symbolically; callers declare the
three exponents and provide a vectorized evaluator.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BadConfig, NonIntegrable, NoConvergence

__all__ = ["Integrand", "QuadResult", "integrate_singular", "integrate_tail"]

_ABS_FLOOR = 1e-13
_SPLIT_EPS = 0.5
_T_CUT_START = 64.0
_T_CUT_MAX = 1e250

_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(15)
_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(7)


@dataclass
class Integrand:
    """A declared integrand g on (0, upper) with upper = +inf when None.

    Parameters
    ----------
    eval : callable
        Vectorized map from a positive float array t to g(t).
    origin_order : float
        g(t) = O(t**origin_order) as t -> 0+.  Must exceed -1.
    sing_order : float
        Strength q of the |1 - t|**q singularity at t = 1; the substitution
        s = |1 - t|**(1 + q) is taken verbatim from this declaration.  Must
        exceed -1.  Use 0.0 for no singularity and a negative value for
        logarithmic blow-ups (any q in (-1, 0) keeps the transformed
        integrand bounded).
    tail_order : float
        g(t) = O(t**tail_order) as t -> inf.  Must be below -1 when the
        integration range is unbounded.
    upper : float, optional
        Finite right endpoint.  None (default) integrates to +inf and
        engages the closed-form tail beyond T_cut.
    eval_sing_scaled : callable, optional
        Vectorized map (log_abs_u, sign) -> g(1 + sign*e^{log_abs_u}) *
        e^{-q*log_abs_u}, i.e. the integrand near t = 1 with the declared
        singular factor divided out, parametrized by log|t - 1|.  On the
        panels touching t = 1 the substitution makes the transformed
        integrand exactly this quantity divided by (1 + q); passing log|u|
        keeps the evaluation finite even where |t - 1| itself would
        underflow (q near -1 compresses half the panel into that regime).
        Without it the engine falls back to ``eval`` at 1 + u, which is
        safe only for mild singularities.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    origin_order: float
    sing_order: float
    tail_order: float
    upper: Optional[float] = None
    eval_sing_scaled: Optional[Callable[[np.ndarray, float], np.ndarray]] = None


@dataclass
class QuadResult:
    """Value, error estimate and the number of panel bisections spent."""

    value: float
    abs_err_est: float
    n_subdivisions: int


def integrate_tail(power: float, t_cut: float) -> float:
    """Closed form of int_{t_cut}^inf t**power dt for power < -1.

    Raises
    ------
    NonIntegrable
        If power >= -1, where the tail diverges.
    """
    if power >= -1.0:
        raise NonIntegrable(f"tail exponent {power} >= -1 diverges")
    if t_cut <= 0.0:
        raise BadConfig(f"t_cut must be positive, got {t_cut}")
    return t_cut ** (power + 1.0) / (-power - 1.0)


def _safe_eval(fn, x):
    with np.errstate(all="ignore"):
        out = np.asarray(fn(x), dtype=float)
    return np.where(np.isfinite(out), out, 0.0)


class _Panel:
    """One integration panel in a transformed coordinate s.

    Plain panels carry a map s -> t with its measure dt/ds.  Singular
    panels (sign = +-1) sit in the coordinate s = |t - 1|**(1 + q), where
    the transformed integrand is g(t(s)) * |u|**(-q) / (1 + q) with
    u = t - 1; it is evaluated through eval_sing_scaled from log|u| =
    log(s)/(1 + q) so no intermediate quantity over- or underflows.
    """

    __slots__ = ("f", "map_t", "jac", "sign")

    def __init__(self, f, map_t=None, jac=None, sign=0.0):
        self.f = f
        self.map_t = map_t
        self.jac = jac
        self.sign = sign

    def integrand(self, s: np.ndarray) -> np.ndarray:
        if self.sign == 0.0:
            return _safe_eval(self.f.eval, self.map_t(s)) * self.jac(s)
        q = self.f.sing_order
        log_u = np.log(s) / (1.0 + q)
        if self.f.eval_sing_scaled is not None:
            with np.errstate(all="ignore"):
                vals = np.asarray(self.f.eval_sing_scaled(log_u, self.sign),
                                  dtype=float)
            vals = np.where(np.isfinite(vals), vals, 0.0)
        else:
            u = self.sign * np.exp(log_u)
            with np.errstate(all="ignore"):
                scale = np.exp(-q * log_u)
            vals = _safe_eval(self.f.eval, 1.0 + u) * scale
            vals = np.where(np.isfinite(vals), vals, 0.0)
        return vals / (1.0 + q)

    def rule(self, a: float, b: float):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        hi = half * np.dot(_WEIGHTS_HI, self.integrand(mid + half * _NODES_HI))
        lo = half * np.dot(_WEIGHTS_LO, self.integrand(mid + half * _NODES_LO))
        return hi, abs(hi - lo)


def _origin_map(exponent: float):
    """t = s**(1/exponent) with measure dt/ds, for the panel leaving 0."""
    inv = 1.0 / exponent

    def map_t(s):
        return s ** inv

    def jac(s):
        return inv * s ** (inv - 1.0)

    return map_t, jac


def _identity_panel(f):
    return _Panel(f, map_t=lambda s: s, jac=lambda s: np.ones_like(s))


def _log_panel(f):
    return _Panel(f, map_t=np.exp, jac=np.exp)


def _build_panels(f: Integrand) -> list:
    """Panels over (0, min(upper, 2)] plus (if unbounded) [2, t] in log t."""
    upper = f.upper if f.upper is not None else math.inf
    panels = []

    a0 = f.origin_order
    q = f.sing_order
    b1 = min(_SPLIT_EPS, upper)
    map_t, jac = _origin_map(1.0 + a0)
    panels.append((_Panel(f, map_t=map_t, jac=jac), 0.0, b1 ** (1.0 + a0)))

    if upper > _SPLIT_EPS:
        if upper < 1.0:
            panels.append((_identity_panel(f), _SPLIT_EPS, upper))
        else:
            panels.append((_Panel(f, sign=-1.0), 0.0, _SPLIT_EPS ** (1.0 + q)))
    if upper > 1.0:
        reach = min(upper - 1.0, _SPLIT_EPS)
        panels.append((_Panel(f, sign=1.0), 0.0, reach ** (1.0 + q)))
    if upper > 1.0 + _SPLIT_EPS:
        panels.append((_identity_panel(f), 1.0 + _SPLIT_EPS, min(2.0, upper)))
    if upper > 2.0 and math.isfinite(upper):
        panels.append((_log_panel(f), math.log(2.0), math.log(upper)))
    return panels


def _tail_setup(f: Integrand):
    """Choose T_cut so the sampled tail bound sits below the absolute floor.

    The target is absolute (a tenth of the 1e-13 floor) rather than
    relative: integrals of this family are evaluated inside root finders
    where the value itself cancels to ~0, and the tail truncation must not
    poison those digits.  Returns (t_cut, tail_correction, tail_err); the
    correction is the closed-form integral of the amplitude sampled at
    T_cut, and the bound from the largest sample is charged to the error.
    """
    beta = f.tail_order
    target = _ABS_FLOOR / 10.0
    t_cut = _T_CUT_START
    while True:
        ts = np.array([t_cut, 2.0 * t_cut, 4.0 * t_cut])
        amps = _safe_eval(f.eval, ts) * ts ** (-beta)
        bound = 1.5 * float(np.max(np.abs(amps))) * integrate_tail(beta, t_cut)
        if bound <= target or t_cut >= _T_CUT_MAX:
            break
        t_cut *= 4.0
    corr = float(amps[0]) * integrate_tail(beta, t_cut)
    return t_cut, corr, bound


def integrate_singular(f: Integrand, rel_tol: float = 1e-10, *,
                       max_subdivisions: int = 2 ** 20,
                       strict: bool = True) -> QuadResult:
    """Integrate a declared integrand over (0, upper).

    Parameters
    ----------
    f : Integrand
        Declared integrand; ``f.eval`` must accept numpy arrays.
    rel_tol : float
        Relative tolerance in (1e-14, 1e-2).  The accuracy goal is
        ``max(rel_tol * |value|, 1e-13)`` absolute.
    max_subdivisions : int
        Cap on panel bisections.
    strict : bool
        When True (default) raise NoConvergence if the budget runs out
        above tolerance; when False return the best estimate reached, which
        is what refinement-monotonicity studies need.

    Returns
    -------
    QuadResult

    Raises
    ------
    NonIntegrable
        If a declared order makes the integral diverge.
    NoConvergence
        See ``strict``.
    """
    if not (1e-14 < rel_tol < 1e-2):
        raise BadConfig(f"rel_tol {rel_tol} outside (1e-14, 1e-2)")
    if f.origin_order <= -1.0:
        raise NonIntegrable(f"origin_order {f.origin_order} <= -1")
    if f.sing_order <= -1.0:
        raise NonIntegrable(f"sing_order {f.sing_order} <= -1")
    unbounded = f.upper is None
    if unbounded and f.tail_order >= -1.0:
        raise NonIntegrable(f"tail_order {f.tail_order} >= -1")
    if not unbounded and f.upper <= 0.0:
        raise BadConfig(f"upper must be positive, got {f.upper}")

    heap = []
    counter = 0
    total_value = 0.0
    total_err = 0.0

    def push(panel, a, b):
        nonlocal counter, total_value, total_err
        if b <= a:
            return
        val, err = panel.rule(a, b)
        total_value += val
        total_err += err
        heapq.heappush(heap, (-err, counter, panel, a, b, val, err))
        counter += 1

    for panel, a, b in _build_panels(f):
        push(panel, a, b)

    tail_corr = 0.0
    tail_err = 0.0
    if unbounded:
        t_cut, tail_corr, tail_err = _tail_setup(f)
        if t_cut > 2.0:
            push(_log_panel(f), math.log(2.0), math.log(t_cut))

    n_splits = 0
    while heap:
        budget = max(rel_tol * abs(total_value + tail_corr), _ABS_FLOOR)
        if total_err + tail_err <= budget:
            break
        if tail_err > 0.0 and total_err <= 0.01 * tail_err:
            # the fixed tail bound dominates; splitting interior panels
            # further cannot reduce the total estimate below it
            break
        if n_splits >= max_subdivisions:
            break
        neg_err, _, panel, a, b, val, err = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if err == 0.0 or mid <= a or mid >= b:
            # unsplittable at working precision; retire the panel
            continue
        total_value -= val
        total_err -= err
        push(panel, a, mid)
        push(panel, mid, b)
        n_splits += 1

    value = total_value + tail_corr
    err = total_err + tail_err
    if strict and err > max(rel_tol * abs(value), _ABS_FLOOR):
        raise NoConvergence(
            f"error estimate {err:.3e} above tolerance after "
            f"{n_splits} subdivisions")
    return QuadResult(value=value, abs_err_est=err, n_subdivisions=n_splits)
