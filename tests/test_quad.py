"""Unit tests for the adaptive singular quadrature engine.

Expected values are either textbook closed forms (power integrals, Beta
integrals, geometric tails) or constants frozen from the independent
reference integrator in oracles.py.
"""

import math

import numpy as np
import pytest

from fracblow import quad
from fracblow.errors import BadConfig, NoConvergence, NonIntegrable
from fracblow.quad import Integrand, QuadResult, integrate_singular, integrate_tail


def _power_pair(tau):
    """Two-sided kernel numerator |1-t|**tau + (1+t)**tau - 2, using the
    positive even-binomial series below t = 1/2."""
    def ev(t):
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        small = t <= 0.5
        ts = t[small]
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
        with np.errstate(all="ignore"):
            out[~small] = np.abs(1.0 - tl) ** tau + (1.0 + tl) ** tau - 2.0
        return out
    return ev


def _kernel_case(alpha, tau):
    k = -1.0 - 2.0 * alpha
    pair = _power_pair(tau)

    def ev(t):
        t = np.asarray(t, dtype=float)
        return pair(t) * t ** k

    def ev_sing(log_u, sign):
        u = sign * np.exp(log_u)
        return (1.0 + ((2.0 + u) ** tau - 2.0) * np.exp(-tau * log_u)) * (1.0 + u) ** k

    return Integrand(eval=ev, origin_order=1.0 - 2.0 * alpha, sing_order=tau,
                     tail_order=k, eval_sing_scaled=ev_sing)


# ---------------------------------------------------------------------------
# closed-form checks


def _plain(g, origin_order, tail_order, sing_order=0.0):
    """Integrand declared without a singular factor at t = 1, so that its
    scaled evaluator is g itself at t = 1 + u."""
    def ev_sing(log_u, sign):
        return g(1.0 + sign * np.exp(log_u))

    return Integrand(eval=g, origin_order=origin_order, sing_order=sing_order,
                     tail_order=tail_order, eval_sing_scaled=ev_sing)


def _beta(a, b):
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def test_plain_power_on_unit_interval():
    # integral of sqrt(t) (1+t)**(-3) over (0, inf), which t = s/(1-s)
    # maps to the unit-interval integral of sqrt(s (1-s)): Beta(3/2, 3/2) = pi/8
    def g(t):
        t = np.asarray(t, dtype=float)
        return np.sqrt(t) * (1.0 + t) ** -3.0

    res = integrate_singular(_plain(g, origin_order=0.5, tail_order=-2.5), 1e-12)
    assert isinstance(res, QuadResult)
    assert abs(res.value - math.pi / 8.0) <= 1e-12 * (math.pi / 8.0)


def test_beta_integral_two_singular_endpoints():
    # integral of t**(a-1) |1-t|**(b-1) over (0, inf)
    # = Beta(a, b) + Beta(b, 1-a-b)  (the second from t -> 1/t beyond 1)
    a, b = 0.3, 0.4
    want = _beta(a, b) + _beta(b, 1.0 - a - b)

    def ev(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            return t ** (a - 1.0) * np.abs(1.0 - t) ** (b - 1.0)

    def ev_sing(log_u, sign):
        u = sign * np.exp(log_u)
        return (1.0 + u) ** (a - 1.0)

    f = Integrand(eval=ev, origin_order=a - 1.0, sing_order=b - 1.0,
                  tail_order=a + b - 2.0, eval_sing_scaled=ev_sing)
    res = integrate_singular(f, 1e-12)
    assert abs(res.value - want) <= 1e-11 * want


def test_unbounded_slow_tail_beta():
    # integral of t^2 (1+t)^(-3.1) over (0, inf) = Beta(3, 0.1);
    # tail order -1.1 forces the cutoff growth loop to work hard
    want = _beta(3.0, 0.1)

    def ev(t):
        t = np.asarray(t, dtype=float)
        return t * t * (1.0 + t) ** (-3.1)

    res = integrate_singular(_plain(ev, origin_order=2.0, tail_order=-1.1), 1e-10)
    assert abs(res.value - want) <= 1e-9 * want


# ---------------------------------------------------------------------------
# substitution correctness around the interior singular point


@pytest.mark.parametrize("tau", [-0.1, -0.5, -0.9])
def test_singular_substitution_exact_power(tau):
    # integral of |1-t|**tau restricted to (1/2, 3/2)
    # = 2 (1/2)**(tau+1) / (tau+1); the integrand is zero elsewhere, so
    # panel edges line up exactly
    def ev(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            inside = (t > 0.5) & (t < 1.5)
            return np.where(inside, np.abs(1.0 - t) ** tau, 0.0)

    def ev_sing(log_u, sign):
        # |u|**tau * |u|**(-tau) = 1 on both sides
        return np.ones_like(np.asarray(log_u, dtype=float))

    want = 2.0 * 0.5 ** (tau + 1.0) / (tau + 1.0)
    f = Integrand(eval=ev, origin_order=0.0, sing_order=tau, tail_order=-2.0,
                  eval_sing_scaled=ev_sing)
    res = integrate_singular(f, 1e-12)
    assert abs(res.value - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# kernel-difference integrals against frozen reference values


def test_kernel_case_frozen_values():
    # frozen from the reference integrator (oracles.py); the alpha = 1/2,
    # tau = -1/2 entry is exactly pi/2
    cases = [
        (0.3, -0.5, 0.516063789902987387),
        (0.25, -0.2, -0.676645295541722019),
        (0.5, -0.5, math.pi / 2.0),
        (0.75, -0.8, 9.6572203524081886444),
    ]
    for alpha, tau, want in cases:
        res = integrate_singular(_kernel_case(alpha, tau), 1e-11)
        assert abs(res.value - want) <= 1e-10 * max(1.0, abs(want)), (alpha, tau)
        assert res.abs_err_est <= 1e-9 * max(1.0, abs(want))


def test_kernel_case_near_minus_one_rate():
    # tau -> -1 is the hardest corner: the scaled evaluation keeps it stable
    res = integrate_singular(_kernel_case(0.25, -0.999), 1e-11)
    want = 1995.6309470176410954
    assert abs(res.value - want) <= 1e-9 * want


# ---------------------------------------------------------------------------
# tail closed form


def test_tail_closed_forms():
    assert abs(integrate_tail(-2.0, 1.0) - 1.0) <= 1e-15
    assert abs(integrate_tail(-3.0, 2.0) - 0.125) <= 1e-15
    assert abs(integrate_tail(-1.5, 4.0) - 1.0) <= 1e-15


def test_tail_rejects_divergent_power():
    with pytest.raises(NonIntegrable):
        integrate_tail(-1.0, 2.0)
    with pytest.raises(NonIntegrable):
        integrate_tail(-0.5, 2.0)


def test_tail_rejects_bad_cut():
    with pytest.raises(BadConfig):
        integrate_tail(-2.0, 0.0)
    with pytest.raises(BadConfig):
        integrate_tail(-2.0, -1.0)


# ---------------------------------------------------------------------------
# refinement behaviour


def test_error_estimate_decreases_under_refinement(monkeypatch):
    f = _kernel_case(0.3, -0.5)
    estimates = []
    for cap in (2, 4, 8, 16, 32, 64):
        monkeypatch.setattr(quad, "_MAX_SUBDIVISIONS", cap)
        res = integrate_singular(f, 2e-14, strict=False)
        estimates.append(res.abs_err_est)
    for coarse, fine in zip(estimates, estimates[1:]):
        assert fine <= coarse * (1.0 + 1e-12)
    # and the refined value is the true one
    monkeypatch.undo()
    res = integrate_singular(f, 2e-14, strict=False)
    assert abs(res.value - 0.516063789902987387) <= 1e-12


def test_strict_mode_raises_when_capped(monkeypatch):
    f = _kernel_case(0.3, -0.5)
    monkeypatch.setattr(quad, "_MAX_SUBDIVISIONS", 4)
    with pytest.raises(NoConvergence):
        integrate_singular(f, 1e-12, strict=True)
    # the same request in reporting mode returns the honest estimate
    res = integrate_singular(f, 1e-12, strict=False)
    assert res.abs_err_est > 1e-12 * abs(res.value)


# ---------------------------------------------------------------------------
# validation


def _dummy(**overrides):
    kw = dict(origin_order=0.0, tail_order=-2.0)
    kw.update(overrides)
    return _plain(lambda t: np.zeros_like(np.asarray(t, float)), **kw)


def test_rejects_non_integrable_declarations():
    with pytest.raises(NonIntegrable):
        integrate_singular(_dummy(origin_order=-1.0), 1e-10)
    with pytest.raises(NonIntegrable):
        integrate_singular(_dummy(sing_order=-1.2), 1e-10)
    with pytest.raises(NonIntegrable):
        integrate_singular(_dummy(tail_order=-0.9), 1e-10)


def test_rejects_bad_configuration():
    with pytest.raises(BadConfig):
        integrate_singular(_dummy(), 0.5)
    with pytest.raises(BadConfig):
        integrate_singular(_dummy(), 1e-15)
