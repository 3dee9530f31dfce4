"""Adaptive quadrature for kernel-difference integrands on (0, inf).

The integrands this package needs share one shape: an algebraic origin
behaviour t**origin_order as t -> 0+, one algebraic (possibly logarithmic)
singularity at t = 1, and an algebraic tail t**tail_order as t -> inf.
``integrate_singular`` splits the axis at {0, 1/2, 1, 3/2, 2, T_cut},
removes the endpoint singularities by power substitutions, integrates each
panel with an adaptive Gauss rule, and closes the tail beyond T_cut in
closed form from the declared tail order.

The engine never inspects an integrand symbolically; callers declare the
three exponents and provide two vectorized evaluators, one of them scaled
at the singular point.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadConfig, NonIntegrable, NoConvergence

__all__ = ["Integrand", "QuadResult", "integrate_singular", "integrate_tail"]

_ABS_FLOOR = 1e-13
_SPLIT_EPS = 0.5
_T_CUT_START = 64.0
_T_CUT_MAX = 1e250
_MAX_SUBDIVISIONS = 2 ** 20

_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(15)
_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(7)


@dataclass
class Integrand:
    """A declared integrand g on (0, inf).

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
        g(t) = O(t**tail_order) as t -> inf.  Must be below -1.
    eval_sing_scaled : callable
        Vectorized map (log_abs_u, sign) -> g(1 + sign*e^{log_abs_u}) *
        e^{-q*log_abs_u}, i.e. the integrand near t = 1 with the declared
        singular factor divided out, parametrized by log|t - 1|.  On the
        panels touching t = 1 the substitution makes the transformed
        integrand exactly this quantity divided by (1 + q); passing log|u|
        keeps the evaluation finite even where |t - 1| itself would
        underflow (q near -1 compresses half the panel into that regime).
    """

    eval: Callable[[np.ndarray], np.ndarray]
    origin_order: float
    sing_order: float
    tail_order: float
    eval_sing_scaled: Callable[[np.ndarray, float], np.ndarray]


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


def _safe_eval(fn, *args):
    with np.errstate(all="ignore"):
        out = np.asarray(fn(*args), dtype=float)
    return np.where(np.isfinite(out), out, 0.0)


def _panels(f: Integrand, t_cut: float) -> list:
    """The five panels as (integrand in s, s_lo, s_hi), in heap order.

    The origin panel t = s**(1/(1 + origin_order)) covers (0, 1/2]; the two
    singular panels sit in s = |t - 1|**(1 + q) on either side of t = 1,
    where the transformed integrand is eval_sing_scaled(log|u|) / (1 + q)
    with log|u| = log(s)/(1 + q), so no intermediate quantity over- or
    underflows; [3/2, 2] is integrated in t itself and [2, T_cut] in log t.
    """
    inv = 1.0 / (1.0 + f.origin_order)
    q = f.sing_order

    def origin(s):
        return _safe_eval(f.eval, s ** inv) * (inv * s ** (inv - 1.0))

    def near_one(sign):
        def scaled(s):
            log_u = np.log(s) / (1.0 + q)
            return _safe_eval(f.eval_sing_scaled, log_u, sign) / (1.0 + q)
        return scaled

    def plain(s):
        return _safe_eval(f.eval, s)

    def log_t(s):
        t = np.exp(s)
        return _safe_eval(f.eval, t) * t

    reach = _SPLIT_EPS ** (1.0 + q)
    return [
        (origin, 0.0, _SPLIT_EPS ** (1.0 + f.origin_order)),
        (near_one(-1.0), 0.0, reach),
        (near_one(1.0), 0.0, reach),
        (plain, 1.0 + _SPLIT_EPS, 2.0),
        (log_t, math.log(2.0), math.log(t_cut)),
    ]


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
                       strict: bool = True) -> QuadResult:
    """Integrate a declared integrand over (0, inf).

    Parameters
    ----------
    f : Integrand
        Declared integrand; ``f.eval`` and ``f.eval_sing_scaled`` must
        accept numpy arrays.
    rel_tol : float
        Relative tolerance in (1e-14, 1e-2).  The accuracy goal is
        ``max(rel_tol * |value|, 1e-13)`` absolute.
    strict : bool
        When True (default) raise NoConvergence if the budget of
        ``_MAX_SUBDIVISIONS`` panel bisections runs out above tolerance;
        when False return the best estimate reached, which is what
        refinement-monotonicity studies and root finders need.

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
    if f.tail_order >= -1.0:
        raise NonIntegrable(f"tail_order {f.tail_order} >= -1")

    heap = []
    counter = 0
    total_value = 0.0
    total_err = 0.0

    def push(g, a, b):
        # 15-point Gauss-Legendre value, error against the 7-point rule
        nonlocal counter, total_value, total_err
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        val = half * np.dot(_WEIGHTS_HI, g(mid + half * _NODES_HI))
        err = abs(val - half * np.dot(_WEIGHTS_LO, g(mid + half * _NODES_LO)))
        total_value += val
        total_err += err
        heapq.heappush(heap, (-err, counter, g, a, b, val, err))
        counter += 1

    t_cut, tail_corr, tail_err = _tail_setup(f)
    for g, a, b in _panels(f, t_cut):
        if b > a:
            push(g, a, b)

    n_splits = 0
    while heap:
        budget = max(rel_tol * abs(total_value + tail_corr), _ABS_FLOOR)
        if total_err + tail_err <= budget:
            break
        if tail_err > 0.0 and total_err <= 0.01 * tail_err:
            # the fixed tail bound dominates; splitting interior panels
            # further cannot reduce the total estimate below it
            break
        if n_splits >= _MAX_SUBDIVISIONS:
            break
        neg_err, _, g, a, b, val, err = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if err == 0.0 or mid <= a or mid >= b:
            # unsplittable at working precision; retire the panel
            continue
        total_value -= val
        total_err -= err
        push(g, a, mid)
        push(g, mid, b)
        n_splits += 1

    value = total_value + tail_corr
    err = total_err + tail_err
    if strict and err > max(rel_tol * abs(value), _ABS_FLOOR):
        raise NoConvergence(
            f"error estimate {err:.3e} above tolerance after "
            f"{n_splits} subdivisions")
    return QuadResult(value=value, abs_err_est=err, n_subdivisions=n_splits)
