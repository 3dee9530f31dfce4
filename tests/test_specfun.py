"""Tests for the kernel special functions, critical exponents, and the
regime classifier.

Numeric expectations come from four independent sources: constants frozen
from the reference integrator in oracles.py, live re-integration with that
reference, a 30-digit mpmath evaluation of the defining integrals (below),
and textbook Beta/Gamma closed forms.
"""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracblow.specfun
import oracles
from fracblow.errors import BadConfig, RegimeError
from fracblow.specfun import (
    C_tau,
    CriticalExponents,
    Regime,
    RegimeKind,
    T_alpha,
    c_second_derivative,
    c_tau,
    classify,
    critical_exponents,
    existence_window,
    find_alpha0,
    find_tau0,
    find_tau1,
)

# ---------------------------------------------------------------------------
# evaluators against frozen reference values


def test_two_sided_integral_frozen_values():
    cases = [
        (0.3, -0.5, 0.516063789902987387),
        (0.25, -0.999, 1995.6309470176410954),
        (0.75, -0.8, 9.6572203524081886444),
        (0.25, -0.2, -0.676645295541722019),
        (0.45, -0.05, -0.0137888000852163587),
        (0.5, -0.5, math.pi / 2.0),
    ]
    for alpha, tau, want in cases:
        got = c_tau(alpha, tau)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (alpha, tau)


def test_two_sided_integral_zero_rate_is_exact_zero():
    assert c_tau(0.3, 0.0) == 0.0
    assert c_tau(0.75, 0.0) == 0.0


def test_one_sided_integral_frozen_values():
    cases = [
        (0.3, -0.5, -1.3711173726329715892),
        (0.25, -0.2, -2.3818909216050533896),
        (0.6, -0.5, 0.47493969686705127415),
    ]
    for alpha, tau, want in cases:
        got = C_tau(alpha, tau)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (alpha, tau)
    # the boundary rate alpha - 1 is the exact zero of the one-sided integral
    assert abs(C_tau(0.25, -0.75)) <= 1e-10


def test_log_integral_frozen_values():
    assert abs(T_alpha(0.1) - 48.344139952320127) <= 1e-8
    assert abs(T_alpha(0.9) - (-5.37157110581334745)) <= 1e-9
    # zero crossing at the threshold order
    assert abs(T_alpha(0.5)) <= 1e-10
    # closed form pi cot(pi alpha) / (2 alpha) across the range, including
    # the slope of about pi**2 (1/2 - alpha) on both sides of alpha0 = 1/2
    for alpha in (0.03, 0.2, 0.499, 0.4999, 0.5, 0.5001, 0.501, 0.7, 0.97):
        want = math.pi / math.tan(math.pi * alpha) / (2.0 * alpha)
        assert abs(T_alpha(alpha) - want) <= 1e-9 * abs(want) + 1e-13, alpha
    # (the factor 1/(2 alpha) moves the slope by about 2 |alpha - 1/2|)
    for alpha in (0.499, 0.4999, 0.5001, 0.501):
        slope = T_alpha(alpha) / (0.5 - alpha)
        assert abs(slope / math.pi ** 2 - 1.0) <= 3.0 * abs(alpha - 0.5), alpha


def test_second_derivative_frozen_values():
    assert abs(c_second_derivative(0.3, -0.5) - 36.299899914812198349) <= 1e-7
    assert abs(c_second_derivative(0.7, -0.2) - 12.156580592670495809) <= 1e-6


# ---------------------------------------------------------------------------
# live cross-checks against the independent reference integrator


@pytest.mark.parametrize("alpha,tau", [(0.3, -0.5), (0.6, -0.5), (0.25, -0.2)])
def test_two_sided_integral_matches_reference(alpha, tau):
    ref, est = oracles.reference_improper(**oracles.c_reference(alpha, tau))
    got = c_tau(alpha, tau)
    assert abs(got - ref) <= max(10.0 * est, 1e-10 * max(1.0, abs(ref)))


def test_one_sided_integral_matches_reference():
    ref, est = oracles.reference_improper(**oracles.C_reference(0.4, -0.35))
    got = C_tau(0.4, -0.35)
    assert abs(got - ref) <= max(10.0 * est, 1e-10 * max(1.0, abs(ref)))


def test_log_integral_matches_reference():
    ref, est = oracles.reference_improper(**oracles.T_reference(0.35))
    got = T_alpha(0.35)
    assert abs(got - ref) <= max(10.0 * est, 1e-10 * max(1.0, abs(ref)))


# ---------------------------------------------------------------------------
# structural identities


def test_two_minus_one_sided_gap_is_beta_integral():
    # dropping the interior indicator removes exactly the one-sided piece
    # integral_0^inf z^tau (1+z)^(-1-2a) dz = Beta(tau+1, 2a-tau)
    for alpha, tau in [(0.3, -0.5), (0.45, -0.2), (0.7, -0.6)]:
        gap = c_tau(alpha, tau) - C_tau(alpha, tau)
        want = (math.gamma(tau + 1.0) * math.gamma(2.0 * alpha - tau)
                / math.gamma(2.0 * alpha + 1.0))
        assert abs(gap - want) <= 1e-9 * max(1.0, abs(want)), (alpha, tau)
    # frozen reference value for one of them
    assert abs((c_tau(0.3, -0.5) - C_tau(0.3, -0.5)) - 1.887181162535959) <= 1e-9


def test_convexity_in_rate():
    # the integral is strictly convex in tau: positive second derivative
    # and positive discrete second differences on a grid
    for alpha in (0.25, 0.5, 0.8):
        taus = [-0.9 + 0.02 * i for i in range(1, 44)]
        vals = [c_tau(alpha, t) for t in taus]
        second = [vals[i - 1] - 2.0 * vals[i] + vals[i + 1]
                  for i in range(1, len(vals) - 1)]
        assert all(d > 0.0 for d in second), alpha
        assert c_second_derivative(alpha, -0.5) > 0.0


def test_sign_pattern_below_threshold():
    # below the threshold order the integral is positive left of its zero
    # and negative right of it
    alpha = 0.25
    tau1 = find_tau1(alpha)
    for tau in (-0.95, -0.8, -0.6):
        assert c_tau(alpha, tau) > 0.0
    for tau in (-0.45, -0.3, -0.1, -0.02):
        assert c_tau(alpha, tau) < 0.0
    assert -0.6 < tau1 < -0.45


def test_single_sign_above_threshold():
    # at or above the threshold order the integral is positive throughout
    for alpha in (0.5, 0.75):
        for tau in (-0.95, -0.6, -0.3, -0.05):
            assert c_tau(alpha, tau) > 0.0, (alpha, tau)


def test_log_integral_decreasing_in_order():
    alphas = [0.05 + 0.05 * i for i in range(19)]
    vals = [T_alpha(a) for a in alphas]
    for lo, hi in zip(vals, vals[1:]):
        assert hi < lo


def test_second_derivative_matches_finite_difference():
    h = 1e-3
    for alpha, tau in [(0.3, -0.5), (0.7, -0.2)]:
        fd = (c_tau(alpha, tau + h) - 2.0 * c_tau(alpha, tau)
              + c_tau(alpha, tau - h)) / (h * h)
        got = c_second_derivative(alpha, tau)
        assert abs(got - fd) <= 1e-4 * abs(got), (alpha, tau)


# ---------------------------------------------------------------------------
# critical exponents


def test_threshold_order_is_one_half():
    alpha0 = find_alpha0()
    assert 0.0 < alpha0 < 1.0
    assert abs(alpha0 - 0.5) <= 1e-7


def test_interior_rate_zero_tracks_known_line():
    # numerically the interior zero sits on tau = 2*alpha - 1
    for alpha in (0.05, 0.25, 0.45):
        assert abs(find_tau1(alpha) - (2.0 * alpha - 1.0)) <= 1e-7


def test_boundary_rate_zero_tracks_known_line():
    # numerically the one-sided zero sits on tau = alpha - 1
    for alpha in (0.1, 0.25, 0.6, 0.9):
        assert abs(find_tau0(alpha) - (alpha - 1.0)) <= 1e-6


def test_interior_zero_absent_above_threshold():
    with pytest.raises(RegimeError):
        find_tau1(0.75)
    with pytest.raises(RegimeError):
        find_tau1(0.5)


def test_interior_zero_trends():
    assert find_tau1(0.49) > -0.2
    assert find_tau1(0.05) < -0.8


def test_critical_exponents_bundle():
    low = critical_exponents(0.25)
    assert isinstance(low, CriticalExponents)
    assert low.tau1 is not None and -1.0 < low.tau0 < low.tau1 < 0.0
    high = critical_exponents(0.75)
    assert high.tau1 is None
    assert -1.0 < high.tau0 < 0.0


def test_existence_window():
    lo, hi = existence_window(0.5)
    assert lo == 2.0 and hi == math.inf
    lo, hi = existence_window(0.25)
    assert lo == 1.5
    assert abs(hi - 2.0) <= 1e-6


# ---------------------------------------------------------------------------
# regime classification


K = RegimeKind


@pytest.mark.parametrize("alpha,p,tau,kind,rate", [
    # at/above the threshold order
    (0.5, 3.0, None, K.UNIQUE_EXISTENCE, -0.5),
    (0.5, 3.0, -0.5, K.UNIQUE_EXISTENCE, -0.5),
    (0.5, 3.0, -0.4, K.NONEXISTENCE_B, None),
    (0.5, 2.0, None, K.BOUNDARY, None),
    (0.5, 2.0, -0.9, K.NONEXISTENCE_A, None),
    (0.5, 1.5, None, K.NONEXISTENCE_A, None),
    (0.5, 1.5, -0.5, K.NONEXISTENCE_A, None),
    (0.75, 4.0, None, K.UNIQUE_EXISTENCE, -0.5),
    # below the threshold order (alpha = 1/4: window (1.5, 2), special rate -1/2)
    (0.25, 1.75, None, K.UNIQUE_EXISTENCE, -2.0 / 3.0),
    (0.25, 1.75, -2.0 / 3.0, K.UNIQUE_EXISTENCE, -2.0 / 3.0),
    (0.25, 1.75, -0.5, K.SPECIAL_EXISTENCE, -0.5),
    (0.25, 1.75, -0.4, K.NONEXISTENCE_B, None),
    (0.25, 1.6, -0.5, K.SPECIAL_EXISTENCE, -0.5),
    (0.25, 1.3, None, K.SPECIAL_EXISTENCE, -0.5),
    (0.25, 1.3, -0.3, K.NONEXISTENCE_A, None),
    (0.25, 1.3, -0.5, K.SPECIAL_EXISTENCE, -0.5),
    (0.25, 2.0, None, K.NONEXISTENCE_C, None),
    (0.25, 2.0, -0.5, K.NONEXISTENCE_C, None),
    (0.25, 2.3, -0.5, K.NONEXISTENCE_C, None),
    (0.25, 1.5, None, K.BOUNDARY, None),
    (0.25, 1.5, -0.5, K.SPECIAL_EXISTENCE, -0.5),
    (0.25, 1.5, -0.9, K.NONEXISTENCE_A, None),
    # acceptance-adjacent audit instances
    (0.6, 3.0, -0.4, K.NONEXISTENCE_B, None),
    (0.6, 3.0, -0.8, K.NONEXISTENCE_B, None),
    (0.6, 3.0, -0.6, K.UNIQUE_EXISTENCE, -0.6),
])
def test_classify(alpha, p, tau, kind, rate):
    result = classify(alpha, p, tau)
    assert isinstance(result, Regime)
    assert result.kind is kind
    if rate is None:
        assert result.predicted_rate is None
    else:
        assert result.predicted_rate is not None
        assert abs(result.predicted_rate - rate) <= 1e-6
    if alpha < 0.5:
        assert abs(result.tau1 - (2.0 * alpha - 1.0)) <= 1e-7
    else:
        assert result.tau1 is None


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(fracblow.specfun, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fracblow.specfun, name, counting)
    return calls


def test_classify_decides_the_regime_once(monkeypatch):
    calls = _count_calls(monkeypatch, "_interior_zero")
    regime = classify(0.25, 1.75)
    assert calls == [(0.25,)]
    assert regime.tau1 == find_tau1(0.25) == -0.5
    # the thresholds are formulas: specfun binds no integrator or root
    # finder, neither a function nor a module
    origins = [getattr(obj, "__module__", None) or getattr(obj, "__name__", "")
               for obj in vars(fracblow.specfun).values()]
    assert not [o for o in origins if isinstance(o, str) and o.startswith(
        ("fracblow.quad", "scipy.integrate", "scipy.optimize"))]


def test_classify_rejects_bad_arguments():
    with pytest.raises(BadConfig):
        classify(0.5, 1.0)
    with pytest.raises(BadConfig):
        classify(0.5, 3.0, tau=0.0)
    with pytest.raises(BadConfig):
        classify(0.5, 3.0, tau=-1.0)
    with pytest.raises(BadConfig):
        classify(1.2, 3.0)


@pytest.mark.parametrize("p", [math.inf, float("1e309"), math.nan])
def test_classify_refuses_non_finite_p(p):
    with pytest.raises(BadConfig, match="p must exceed 1 and be finite"):
        classify(0.3, p)


def test_evaluators_reject_bad_arguments():
    with pytest.raises(BadConfig):
        c_tau(0.0, -0.5)
    with pytest.raises(BadConfig):
        c_tau(0.5, -1.0)
    with pytest.raises(BadConfig):
        c_tau(0.5, 0.1)
    with pytest.raises(BadConfig):
        c_second_derivative(0.5, 0.0)
    with pytest.raises(BadConfig):
        find_tau0(1.0)
    with pytest.raises(BadConfig):
        find_tau1(0.0)


# ---------------------------------------------------------------------------
# closed forms against the oracle over the interior of the domain

ORACLE_ALPHAS = [round(0.05 + 0.1 * k, 10) for k in range(10)]  # 0.05 .. 0.95


def _oracle_bound(ref, diff):
    # criterion 1's 1e-8 relative tolerance plus twice the oracle's own
    # refinement difference and the 1e-13 absolute floor, as the benchmark
    # checker applies it to the same cells
    return 1e-8 * abs(ref) + 2.0 * diff + 1e-13


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_closed_forms_match_oracle(alpha):
    for tau in (-0.9, -0.6, -0.3, -0.1):
        for fn, reference in ((c_tau, oracles.c_reference),
                              (C_tau, oracles.C_reference),
                              (c_second_derivative, oracles.c2_reference)):
            ref, diff = oracles.reference_improper(**reference(alpha, tau))
            got = fn(alpha, tau)
            assert abs(got - ref) <= _oracle_bound(ref, diff), (fn.__name__, tau)
    ref, diff = oracles.reference_improper(**oracles.T_reference(alpha))
    assert abs(T_alpha(alpha) - ref) <= _oracle_bound(ref, diff)


# ---------------------------------------------------------------------------
# closed forms against a 30-digit evaluation of the defining integrals at
# the edges of the domain, where the quadrature could not go


def _power_log_integral(e, b, m):
    """integral_0^b s**e log(s)**m ds for m in {0, 2} and e > -1."""
    f, lb = e + 1, mp.log(b)
    if m == 0:
        return b ** f / f
    return b ** f * (lb * lb / f - 2 * lb / f ** 2 + 2 / f ** 3)


def mp_reference(kind, alpha, tau):
    """c, C or c2 ("c2" is the second tau-derivative of c) as the integral
    over t in (0, inf) of the pair |1-t|**tau + (1+t)**tau (times log**2 of
    its bases for c2, minus 2 for c and C; C drops |1-t|**tau beyond
    t = 1) against t**(-1-2*alpha).

    (0, 1/2) is the even binomial series summed termwise; [1/2, 2] is
    integrated in u = |t - 1| with the singular u**tau log(u)**m at u = 0
    taken in closed form; beyond t = 2 the integral runs in s = 1/t, where
    the s**e log(s)**m leading part, and the -2 of c and C, are closed
    forms too.  mp.quad sees only bounded remainders.
    """
    with mp.workdps(30):
        a, tau = mp.mpf(alpha), mp.mpf(tau)
        k, half = -1 - 2 * a, mp.mpf(1) / 2
        m = 2 if kind == "c2" else 0
        shift = 0 if m else -2

        def coef(n):
            # binomial(tau, n), or its second tau-derivative for c2
            b = mp.binomial(tau, n)
            if m == 0:
                return b
            s1 = mp.fsum(1 / (tau - i) for i in range(n))
            s2 = mp.fsum(1 / (tau - i) ** 2 for i in range(n))
            return b * (s1 * s1 - s2)

        def pw(x, lg=None):
            return x ** tau * (mp.log(x) if lg is None else lg) ** m

        total = mp.nsum(lambda j: 2 * coef(int(2 * j)) * half ** (2 * j - 2 * a)
                        / (2 * j - 2 * a), [1, mp.inf])
        total += _power_log_integral(tau, half, m) + mp.quad(
            lambda u: pw(u) * ((1 - u) ** k - 1) + (pw(2 - u) + shift) * (1 - u) ** k,
            [0, half])
        sides = (-1, 1) if kind != "C" else (1,)
        if kind != "C":
            total += _power_log_integral(tau, 1, m) + mp.quad(
                lambda u: pw(u) * ((1 + u) ** k - 1), [0, 1])
        total += mp.quad(lambda u: (pw(2 + u) + shift) * (1 + u) ** k, [0, 1])
        e = 2 * a - 1 - tau

        def tail(s):
            ls = mp.log(s)
            return s ** e * mp.fsum(pw(1 + sg * s, mp.log(1 + sg * s) - ls) - ls ** m
                                    for sg in sides)

        total += len(sides) * _power_log_integral(e, half, m) + mp.quad(tail, [0, half])
        if m == 0:
            total -= 2 * 2 ** (-2 * a) / (2 * a)
        return float(total)


@pytest.mark.parametrize("alpha", [0.01, 0.5 - 1e-9, 0.5 + 1e-9, 0.99])
@pytest.mark.parametrize("tau", [-0.999, -0.5, -0.05])
def test_closed_forms_match_mpmath_at_the_edges(alpha, tau):
    for kind, fn in (("c", c_tau), ("C", C_tau), ("c2", c_second_derivative)):
        ref = mp_reference(kind, alpha, tau)
        assert abs(fn(alpha, tau) - ref) <= 1e-12 * max(1.0, abs(ref)), kind


def test_mpmath_reference_reproduces_frozen_values():
    # the reference itself against the oracle-frozen constants above
    assert abs(mp_reference("c", 0.3, -0.5) - 0.516063789902987387) <= 1e-12
    assert abs(mp_reference("C", 0.3, -0.5) + 1.3711173726329715892) <= 1e-12
    assert abs(mp_reference("c2", 0.3, -0.5) - 36.299899914812198349) <= 1e-10


def test_two_sided_integral_is_exactly_zero_at_tau1():
    for alpha in (0.05, 0.25, 0.3, 0.45, 0.5 - 1e-9):
        assert c_tau(alpha, 2.0 * alpha - 1.0) == 0.0
        assert c_second_derivative(alpha, 2.0 * alpha - 1.0) > 0.0


# ---------------------------------------------------------------------------
# properties over the documented domain

ORDERS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                   exclude_max=True)
RATES = st.floats(min_value=-1.0, max_value=0.0, exclude_min=True,
                  exclude_max=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(i=st.integers(min_value=1, max_value=2 ** 15 - 1),
       j=st.integers(min_value=1, max_value=2 ** 16 - 1))
def test_two_sided_integral_symmetric_about_its_zero(i, j):
    # c(tau) = c(2*alpha - 1 - tau): the Gamma form swaps its factors.
    # Dyadic alpha and tau keep 2*alpha - 1, tau and the mirror point
    # exact, so the two evaluations see exactly mirrored arguments.
    alpha = i / 2.0 ** 16
    tau = (2.0 * alpha - 1.0) * (j / 2.0 ** 16)
    mirror = 2.0 * alpha - 1.0 - tau
    a, b = c_tau(alpha, tau), c_tau(alpha, mirror)
    assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(alpha=ORDERS, tau=RATES)
def test_two_sided_integral_convex(alpha, tau):
    assert c_second_derivative(alpha, tau) > 0.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(alpha=st.floats(allow_nan=True), p=st.floats(allow_nan=True),
       tau=st.none() | st.floats(allow_nan=True))
def test_classify_raises_only_chosen_errors(alpha, p, tau):
    try:
        regime = classify(alpha, p, tau)
    except (BadConfig, RegimeError):
        return
    assert isinstance(regime, Regime)
    assert (regime.tau1 is None) == (alpha >= 0.5)
