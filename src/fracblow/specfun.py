"""Kernel-difference special functions and parameter-regime classification.

The blow-up analysis of the absorption problem rests on three scalar
functions of the order alpha in (0,1) and a rate exponent tau in (-1,0]:

* ``c_tau``  -- the two-sided kernel-difference integral
  int_0^inf (|1-t|**tau + (1+t)**tau - 2) t**(-1-2*alpha) dt, whose sign at
  a given rate decides whether the nonlocal operator pushes a power
  profile up or down near the singular point;
* ``C_tau``  -- the one-sided variant with the interior branch cut off at
  t = 1, whose unique zero ``tau0`` marks the boundary-blow-up rate;
* ``T_alpha`` -- the logarithmic integral equal to the slope of ``c_tau``
  at tau = 0; its unique zero ``alpha0`` splits the orders into a regime
  where ``c_tau`` keeps one sign and a regime where it crosses zero at a
  unique ``tau1``.

All of them are closed forms.  ``c_tau`` is the 1-D Riesz identity for
(-Lap)**alpha |x|**tau (Dyda, Fract. Calc. Appl. Anal. 15, 2012):

    c(tau) = K(alpha) Gamma(alpha - tau/2) Gamma((1+tau)/2)
             / (Gamma(-tau/2) Gamma((1+tau)/2 - alpha)),
    K(alpha) = -sqrt(pi) |Gamma(-alpha)| / Gamma(1/2 + alpha);

the dropped branch of ``C_tau`` is a Beta integral,
C(tau) = c(tau) - B(2*alpha - tau, 1 + tau); and
T(alpha) = pi cot(pi*alpha) / (2*alpha).  So the thresholds are formulas
too: alpha0 = 1/2, tau1 = 2*alpha - 1 (the zero of 1/Gamma((1+tau)/2 -
alpha)) and tau0 = alpha - 1, the boundary blow-up rate of Chen, Felmer
and Quaas (Ann. IHP (C) 32, 2015).

The exterior of a power, ``operator.power_tail_gap``, needs one more
special function, the Gauss function F(a, b; b+1; z) on (-1, 1);
``_gauss_2f1`` evaluates it with no branch at a = 1 (alpha = 1/2), where
its connection formula has a logarithmic limit.  Everything here uses
Python's ``math`` module alone.

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

from .errors import BadConfig, RegimeError

__all__ = [
    "c_tau", "C_tau", "T_alpha", "c_second_derivative",
    "find_alpha0", "find_tau0", "find_tau1",
    "CriticalExponents", "critical_exponents", "existence_window",
    "RegimeKind", "Regime", "classify",
]

_EQ_TOL = 1e-9  # relative gap below which p or tau counts as an equality case


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise BadConfig(f"alpha must lie strictly in (0, 1), got {alpha}")
    return alpha


def _check_p(p: float) -> float:
    if not 1.0 < float(p) < math.inf:
        raise BadConfig(f"p must exceed 1 and be finite, got {p}")
    return float(p)


def _check_tau(tau: float, *, allow_zero: bool) -> float:
    tau = float(tau)
    hi_ok = (tau <= 0.0) if allow_zero else (tau < 0.0)
    if not (-1.0 < tau and hi_ok):
        rng = "(-1, 0]" if allow_zero else "(-1, 0)"
        raise BadConfig(f"tau must lie in {rng}, got {tau}")
    return tau


# ---------------------------------------------------------------------------
# Closed forms.  With d = -tau/2 and z = (1+tau)/2 - alpha the Gamma form
# reads c(tau) = K(alpha) A(d) A(z), A(x) = Gamma(x + alpha) / Gamma(x),
# because alpha - tau/2 = d + alpha and (1+tau)/2 = z + alpha.  A vanishes
# at x = 0, that is at tau = 0 and at tau1, and K grows like -1/alpha
# while c'' stays bounded as alpha -> 0; so the forms below write
# 1/Gamma(x) as x (x+1) / Gamma(x+2) and Gamma(u) as Gamma(u+1) / u, carry
# K*alpha, and take the digamma and trigamma differences of A', A''
# divided by alpha.  math.gamma then never overflows (it raises where a
# library gamma would return inf); a vanishing u or alpha makes the
# quotients overflow to infinities instead.

_STEPS = 16  # recurrence steps before the asymptotic series of psi
_B2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)  # B_2 .. B_12


def _exprel(x: float) -> float:
    """expm1(x) / x, which is 1 at x = 0."""
    return math.expm1(x) / x if x else 1.0


def _k_alpha(alpha: float) -> float:
    """K(alpha) * alpha = -sqrt(pi) Gamma(1-alpha) / Gamma(1/2+alpha)."""
    return -math.sqrt(math.pi) * math.gamma(1.0 - alpha) / math.gamma(0.5 + alpha)


def _beta(x: float, y: float) -> float:
    """B(x, y) for x, y > 0 as (1/x + 1/y) Gamma(x+1) Gamma(y+1) /
    Gamma(x+y+1); +inf where 1/x overflows."""
    return ((1.0 / x + 1.0 / y) * math.gamma(x + 1.0) * math.gamma(y + 1.0)
            / math.gamma(x + y + 1.0))


def _psi_steps(y: float, alpha: float) -> tuple:
    """(psi(y+alpha) - psi(y)) / alpha and (psi'(y+alpha) - psi'(y)) / alpha
    for y >= 1, without the cancellation of the plain differences at small
    alpha: ``_STEPS`` terms of psi(y+1) = psi(y) + 1/y, then the asymptotic
    series at Y = y + _STEPS (error below 1e-16 relative), each difference
    of powers written through log1p and exprel."""
    s0 = s1 = 0.0
    for n in range(_STEPS):
        x = y + n
        s0 += 1.0 / (x * (x + alpha))
        s1 -= (2.0 * x + alpha) / (x * x * (x + alpha) ** 2)
    big = y + _STEPS
    log_step = math.log1p(alpha / big)
    scale = _exprel(log_step) * big  # alpha / log_step, finite as alpha -> 0
    s0 += 1.0 / scale + 0.5 / (big * (big + alpha))
    s1 -= 1.0 / (big * (big + alpha)) + _exprel(-2.0 * log_step) / (scale * big * big)
    for k, b in enumerate(_B2K, 1):
        s0 += b * _exprel(-2.0 * k * log_step) / (scale * big ** (2 * k))
        s1 -= (b * (2 * k + 1) * _exprel(-(2 * k + 1) * log_step)
               / (scale * big ** (2 * k + 1)))
    return s0, s1


def _ratio(x: float, u: float, alpha: float) -> float:
    """A(x) = Gamma(u) / Gamma(x) for x in (-1, 1/2] and u = x + alpha > 0,
    passed in so that it keeps its digits where x is close to -alpha (as
    x + 1 = u + 1 - alpha does near x = -1); exactly 0 at x = 0."""
    x1 = u + (1.0 - alpha)
    return math.gamma(u + 1.0) / math.gamma(x1 + 1.0) * (x / u) * x1


def _ratio_jet(x: float, u: float, alpha: float) -> tuple:
    """A(x), A'(x)/alpha and A''(x)/alpha, arguments as for ``_ratio``.
    With w = 1 - alpha the poles of psi at x and x + 1 are summed by hand,
    and the remaining terms have one sign each."""
    w = 1.0 - alpha
    x1 = u + w  # x + 1
    g = math.gamma(u + 1.0) / math.gamma(x1 + 1.0) / u  # inf as u -> 0
    d1, d2 = _psi_steps(x1 + 1.0, alpha)
    xx = x * x1
    p = (2.0 * u * (u + w) + w) / (u * (u + 1.0))  # (x+1)/u + x/(u+1)
    # -2 (x+1)/u**2 - 2 x/(u+1)**2 + 2 alpha/(u (u+1)), without u**2
    e = -2.0 * (2.0 * u + 3.0 * w + (3.0 * w + w / u) / u) / (u + 1.0) ** 2
    return (g * xx, g * (p + xx * d1),
            g * (e + 2.0 * alpha * d1 * p + xx * (alpha * d1 * d1 + d2)))


def _arguments(alpha: float, tau: float) -> tuple:
    """(d, d + alpha, z, z + alpha); z is written as (tau - tau1)/2, so
    it is exactly zero at tau1 = 2*alpha - 1."""
    return (-0.5 * tau, alpha - 0.5 * tau,
            0.5 * (tau - (2.0 * alpha - 1.0)), 0.5 * (1.0 + tau))


def c_tau(alpha: float, tau: float) -> float:
    """Two-sided kernel-difference integral at rate tau.

    Exactly zero at tau = 0, where the numerator vanishes identically, and
    at tau1 = 2*alpha - 1 below the threshold order.  It grows like
    -1/alpha as alpha -> 0 and so overflows to -inf for alpha below about
    1e-308.  Raises BadConfig for arguments outside (0,1) x (-1,0].
    """
    alpha = _check_alpha(alpha)
    tau = _check_tau(tau, allow_zero=True)
    d, a, z, b = _arguments(alpha, tau)
    r_d, r_z = _ratio(d, a, alpha), _ratio(z, b, alpha)
    if r_d == 0.0 or r_z == 0.0:
        return 0.0  # before K/alpha, which overflows to -inf as alpha -> 0
    # K < 0, so an underflow gives -0.0; adding 0.0 makes it 0.0
    return float(_k_alpha(alpha) / alpha * r_d * r_z) + 0.0


def C_tau(alpha: float, tau: float) -> float:
    """One-sided variant of ``c_tau`` with the |1-t| branch dropped for
    t > 1; its unique zero in (-1,0) is the boundary rate ``tau0``."""
    alpha = _check_alpha(alpha)
    tau = _check_tau(tau, allow_zero=True)
    return c_tau(alpha, tau) - _beta(2.0 * alpha - tau, 1.0 + tau)


def T_alpha(alpha: float) -> float:
    """Logarithmic integral equal to the slope of ``c_tau`` at tau = 0,
    pi cot(pi*alpha) / (2*alpha).  The cotangent is reduced to the nearest
    of 0, 1/2 and 1, where the reduced argument is exact, so T keeps its
    relative accuracy at both ends and is exactly zero at alpha = 1/2."""
    alpha = _check_alpha(alpha)
    if alpha < 0.25:
        cot = 1.0 / math.tan(math.pi * alpha)
    elif alpha <= 0.75:
        cot = math.tan(math.pi * (0.5 - alpha))
    else:
        cot = -1.0 / math.tan(math.pi * (1.0 - alpha))
    return math.pi * cot / (2.0 * alpha)


def c_second_derivative(alpha: float, tau: float) -> float:
    """Second tau-derivative of ``c_tau``; strictly positive (convexity).

    c = K A(d) A(z) with d' = -1/2 and z' = 1/2, so
    c'' = K/4 (A''(d) A(z) - 2 A'(d) A'(z) + A(d) A''(z)).
    """
    alpha = _check_alpha(alpha)
    tau = _check_tau(tau, allow_zero=False)
    d, a, z, b = _arguments(alpha, tau)
    p0, p1, p2 = _ratio_jet(d, a, alpha)
    q0, q1, q2 = _ratio_jet(z, b, alpha)
    value = 0.25 * _k_alpha(alpha) * (p2 * q0 - 2.0 * alpha * p1 * q1 + p0 * q2)
    # the terms overflow only where alpha - tau/2 < 1e-154, and there c''
    # grows like (alpha - tau/2)**-2 beyond the double range
    return value if math.isfinite(value) else math.inf


# ---------------------------------------------------------------------------
# The Gauss function F(a, b; b+1; z) = b z^(-b) B_z(b, 1-a), the family of
# the exterior moments of a power, ``operator.power_tail_gap``.


def _series(a: float, b: float, c: float, z: float) -> float:
    """Gauss series of F(a, b; c; z) for positive a, b, c and z in
    [0, 1/2]: every term is positive and the ratio tends to z."""
    total = term = 1.0
    n = 0.0
    while term > 1e-17 * total:
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        n += 1.0
    return total


def _lgamma_slope(y: float, eps: float) -> float:
    """(lgamma(y + eps) - lgamma(y)) / eps for y >= _STEPS and |eps| < 1,
    by Stirling's series (error below 1e-17) with every difference of
    powers written through log1p and exprel; at eps = 0 it is psi(y)."""
    lift = math.log1p(eps / y)
    r = lift / (eps / y) if eps else 1.0
    tail = sum(b / (2 * k) * y ** (-2 * k) * _exprel((1 - 2 * k) * lift)
               for k, b in enumerate(_B2K, 1))
    return r * ((y - 0.5) / y - tail) + math.log(y + eps) - 1.0


def _gamma_quotient_m1(b: float, eps: float) -> float:
    """(G - 1) / eps for G = Gamma(1+eps) Gamma(b) / Gamma(b+eps), b > 0
    and |eps| < 1; at eps = 0 it is psi(1) - psi(b).  G is the product of
    the factors (1+n)(b+n+eps) / ((1+n+eps)(b+n)) = 1 + eps*q_n, n <
    _STEPS, and of a Stirling quotient, and each factor minus 1 is taken
    over eps in closed form, so nothing cancels as eps -> 0."""
    gm1 = 0.0
    for n in range(_STEPS):
        q = (1.0 - b) / ((1.0 + n + eps) * (b + n))
        gm1 = gm1 * (1.0 + eps * q) + q
    slope = (_lgamma_slope(1.0 + _STEPS, eps)
             - _lgamma_slope(b + _STEPS, eps))
    tail_m1 = slope * _exprel(eps * slope)
    return gm1 * (1.0 + eps * tail_m1) + tail_m1


def _gauss_2f1(a: float, b: float, z: float) -> float:
    """F(a, b; b+1; z) for 0 < a < 2, b > 0 and -1 < z < 1, the family
    b z^(-b) B_z(b, 1-a) of incomplete Beta functions.

    * z < 0: Pfaff's transformation (1-z)^(-a) F(a, 1; b+1; z/(z-1)),
      a positive series in an argument below 1/2;
    * 0 <= z <= 1/2: the Gauss series itself;
    * z > 1/2: the connection to w = 1 - z (A&S 15.3.6, DLMF 15.8.4),
      F = Gamma(b+1) Gamma(1-a) / Gamma(b+1-a) z^(-b)
          + b/(a-1) w^(1-a) F(1, b+1-a; 2-a; w),
      whose two terms have a pole pair at a = 1 and another at a = 2.
      Above a = 3/2 the recurrence B_z(b, 1-a) = ((b+1-a) B_z(b, 2-a)
      - z^b w^(1-a)) / (1-a) first moves a down by one, away from the
      pair at a = 2.  The pair at a = 1 (alpha = 1/2) cancels in closed
      form: with eps = 1 - a and F(1, b+eps; 1+eps; w) = sum_n T_n(eps)
      w^n, where sum_n T_n(0) w^n = z^(-b),
      F = b z^(-b) ((G - 1)/eps - (w^eps - 1)/eps) - b w^eps S,
      S = sum_n (T_n(eps) - T_n(0))/eps w^n, with G as in
      ``_gamma_quotient_m1``.  Every quotient by eps is evaluated as its
      own series or through expm1, so the logarithmic case a = 1
      (A&S 15.3.10) is the limit of the formula, not a branch of it.
    """
    if z < 0.0:
        return (1.0 - z) ** -a * _series(a, 1.0, b + 1.0, z / (z - 1.0))
    if z <= 0.5:
        return _series(a, b, b + 1.0, z)
    w = 1.0 - z
    if a > 1.5:
        return ((b + 1.0 - a) * _gauss_2f1(a - 1.0, b, z)
                - b * w ** (1.0 - a)) / (1.0 - a)
    eps = 1.0 - a
    log_w = math.log(w)
    # d_n = (T_n(eps) - T_n(0)) / eps, by the product rule on the factors
    # (b+eps+n)/(1+eps+n) of T_n, whose own quotient is exact
    t = 1.0        # T_n(0) = (b)_n / n!
    d = total = n = 0.0
    w_pow = term = 1.0
    while abs(term) > 1e-17 * abs(total):
        d = (d * (b + eps + n) + t * (1.0 - b) / (1.0 + n)) / (1.0 + eps + n)
        t *= (b + n) / (1.0 + n)
        w_pow *= w
        term = d * w_pow
        total += term
        n += 1.0
    return b * (z ** -b * (_gamma_quotient_m1(b, eps)
                           - log_w * _exprel(eps * log_w))
                - w ** eps * total)


# ---------------------------------------------------------------------------
# Critical exponents.


def find_alpha0() -> float:
    """Threshold order: the zero of ``T_alpha``, which is 1/2."""
    return 0.5


def _interior_zero(alpha: float) -> Optional[float]:
    """``tau1`` below the threshold order, None at or above it.  The one
    place where the regime is decided."""
    return 2.0 * alpha - 1.0 if alpha < 0.5 else None


def find_tau1(alpha: float) -> float:
    """Zero of ``c_tau(alpha, .)`` in (-1,0), 2*alpha - 1; exists only
    below the threshold order.  Raises RegimeError when ``alpha >= alpha0``
    (there the integral is positive throughout)."""
    alpha = _check_alpha(alpha)
    tau1 = _interior_zero(alpha)
    if tau1 is None:
        raise RegimeError(
            f"alpha={alpha} is at or above the threshold order; the "
            "two-sided integral has no interior zero")
    return tau1


def find_tau0(alpha: float) -> float:
    """Zero of ``C_tau(alpha, .)`` in (-1,0), alpha - 1; exists for every
    alpha in (0,1)."""
    return _check_alpha(alpha) - 1.0


@dataclass(frozen=True)
class CriticalExponents:
    """Threshold data for one order: the boundary rate ``tau0`` and,
    below the threshold order (``find_alpha0``) only, the interior rate
    ``tau1`` where the two-sided integral vanishes."""

    alpha: float
    tau0: float
    tau1: Optional[float]


def critical_exponents(alpha: float) -> CriticalExponents:
    """All critical exponents for one order, with ``tau1`` present iff
    the order sits below the threshold."""
    alpha = _check_alpha(alpha)
    return CriticalExponents(alpha=alpha, tau0=find_tau0(alpha),
                             tau1=_interior_zero(alpha))


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


def existence_window(alpha: float) -> tuple:
    """(p_lo, p_hi) of the unique-existence window; p_hi is +inf at and
    above the threshold order."""
    alpha = _check_alpha(alpha)
    tau1 = _interior_zero(alpha)
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


def classify(alpha: float, p: float, tau: Optional[float] = None) -> Regime:
    """Existence verdict for a finite exponent p > 1 and an optional
    prescribed blow-up rate tau in (-1,0).

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
    p = _check_p(p)
    if tau is not None:
        tau = float(tau)
        if not (-1.0 < tau < 0.0):
            raise BadConfig(f"prescribed rate must lie in (-1,0), got {tau}")

    rate = -2.0 * alpha / (p - 1.0)
    tau1 = _interior_zero(alpha)
    kind = _verdict(alpha, p, tau, rate, tau1)
    predicted = {RegimeKind.UNIQUE_EXISTENCE: rate,
                 RegimeKind.SPECIAL_EXISTENCE: tau1}.get(kind)
    return Regime(kind, predicted_rate=predicted, tau1=tau1)
