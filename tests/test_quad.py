"""The integrals the former quadrature layer evaluated, now closed forms.

``fracblow.quad`` stays as an empty, importable module.  The kernel
integrals it used to compute are the closed forms of ``specfun`` and the
exterior tail moments of ``operator``; they are checked here against the
same frozen reference values (from the independent reference integrator
in oracles.py) and textbook integrals, with the same argument checks.
"""

import math
import subprocess
import sys

import pytest
from scipy.integrate import quad as scipy_quad

import fracblow.quad
from fracblow.errors import BadConfig
from fracblow.operator import power_tail_gap, power_tail_moment
from fracblow.specfun import C_tau, c_second_derivative, c_tau


def test_module_is_kept_as_a_named_layer(child_env):
    # tools that address the package layer by layer find it by name once
    # the package is imported; it defines nothing
    assert not [name for name in vars(fracblow.quad) if not name.startswith("__")]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fracblow; print('fracblow.quad' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.stdout == "True\n"


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
        got = c_tau(alpha, tau)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (alpha, tau)


def test_kernel_case_near_minus_one_rate():
    # tau -> -1 is the hardest corner of the integral, where |1-t|**tau is
    # barely integrable; the closed form has no trouble there
    want = 1995.6309470176410954
    assert abs(c_tau(0.25, -0.999) - want) <= 1e-9 * want


def test_beta_integral_two_singular_endpoints():
    # the branch C_tau drops, integral_1^inf (t-1)**tau t**(-1-2*alpha) dt,
    # is under t = 1/s the integral of s**(2a-tau-1) (1-s)**tau over (0,1),
    # singular at both ends; QUADPACK's algebraic-weight rule integrates it
    for alpha, tau in [(0.35, -0.6), (0.3, -0.3), (0.8, -0.9)]:
        want, _ = scipy_quad(lambda s: 1.0, 0.0, 1.0, weight="alg",
                             wvar=(2.0 * alpha - tau - 1.0, tau),
                             epsabs=0.0, epsrel=1e-13)
        got = c_tau(alpha, tau) - C_tau(alpha, tau)
        assert abs(got - want) <= 1e-11 * want, (alpha, tau)


# ---------------------------------------------------------------------------
# exterior tail moments, integral_1^inf z**tau (z - x)**(-1-2*alpha) dz


def test_tail_closed_forms():
    # x = 0: integral_1^inf z**(tau-1-2a) dz = 1/(2a - tau)
    for alpha, tau in [(0.25, -0.5), (0.5, 0.0), (0.75, -1.0), (0.1, -0.9)]:
        want = 1.0 / (2.0 * alpha - tau)
        got = power_tail_moment(alpha, tau, 0.0)
        assert abs(got - want) <= 1e-15 * want, (alpha, tau)
    # tau = 0: integral_1^inf (z - x)**(-1-2a) dz = (1-x)**(-2a) / (2a)
    for alpha, x in [(0.25, 0.5), (0.5, -0.9), (0.8, 0.99)]:
        want = (1.0 - x) ** (-2.0 * alpha) / (2.0 * alpha)
        got = power_tail_moment(alpha, 0.0, x)
        assert abs(got - want) <= 1e-15 * want, (alpha, x)
    # a = 1/2, tau = -1: partial fractions give log(1-x)/x**2 + 1/(x(1-x));
    # x = 0.75 and 0.9 take the logarithmic case of the Gauss function
    for x in (-0.5, 0.2, 0.5, 0.75, 0.9):
        want = math.log1p(-x) / (x * x) + 1.0 / (x * (1.0 - x))
        got = power_tail_moment(0.5, -1.0, x)
        assert abs(got - want) <= 1e-15 * want, x


def test_tail_rejects_divergent_power():
    # z**tau (z - x)**(-1-2a) decays like z**(tau-1-2a): no tail for tau >= 2a
    with pytest.raises(BadConfig):
        power_tail_moment(0.25, 0.5, 0.0)
    with pytest.raises(BadConfig):
        power_tail_gap(0.25, 0.6, 0.3)


def test_tail_rejects_bad_cut():
    # the tail starts at z = 1, so the point must lie strictly inside it
    with pytest.raises(BadConfig):
        power_tail_moment(0.25, -0.5, 1.0)
    with pytest.raises(BadConfig):
        power_tail_gap(0.25, -0.5, -1.0)
    with pytest.raises(BadConfig):
        power_tail_gap(0.25, -0.5, 2.0)


# ---------------------------------------------------------------------------
# validation


def test_rejects_non_integrable_declarations():
    # |1-t|**tau is not integrable at t = 1 for tau <= -1, and the
    # numerator's t**2 against t**(-1-2a) not at t = 0 for alpha >= 1
    for f in (c_tau, C_tau, c_second_derivative):
        with pytest.raises(BadConfig):
            f(0.3, -1.0)
        with pytest.raises(BadConfig):
            f(0.3, -1.2)
        with pytest.raises(BadConfig):
            f(1.0, -0.5)


def test_rejects_bad_configuration():
    for f in (c_tau, C_tau, c_second_derivative):
        with pytest.raises(BadConfig):
            f(0.0, -0.5)
        with pytest.raises(BadConfig):
            f(-0.2, -0.5)
        with pytest.raises(BadConfig):
            f(0.3, 0.1)
    # c'' is taken on the open rate range only
    with pytest.raises(BadConfig):
        c_second_derivative(0.3, 0.0)
