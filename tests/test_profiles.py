"""Tests for the comparison profiles and the discrete torsion function."""

import warnings

import numpy as np
import pytest

from fracblow.errors import BadConfig
from fracblow.mesh import (Grid, GridFunction, PowerTail, Zero, build_graded,
                           distance_D, distance_d)
from fracblow.operator import apply, assemble
from fracblow.profiles import (
    build_v_tau,
    comparison_residual,
    evaluate_profile,
    power_of_two_bracket,
    sample_profile,
    solve_torsion,
)
from fracblow.specfun import c_tau


# ---------------------------------------------------------------------------
# Profile construction.


@pytest.mark.parametrize("tau", [-1.5, -1.0, 0.0, 0.5])
def test_build_profile_rejects_bad_exponent(tau):
    with pytest.raises(BadConfig):
        build_v_tau(tau)


@pytest.mark.parametrize("delta", [0.0, -0.1, 0.3, 1.0])
def test_build_profile_rejects_bad_radius(delta):
    with pytest.raises(BadConfig):
        build_v_tau(-0.5, delta)


@pytest.mark.parametrize("tau,delta", [(-0.99, 1e-120), (-0.5, 1e-130),
                                       (-0.1, 1e-200), (-0.5, 1e-300)])
def test_build_profile_names_a_radius_too_small(tau, delta):
    # inside (0, 1/4], but the curvature of D**tau at D = delta overflows
    with pytest.raises(BadConfig, match=f"matching radius delta={delta!r}"):
        build_v_tau(tau, delta)


def test_radius_too_small_after_halving_names_the_given_radius():
    # at 1e-134 the data of the bridge for tau = -0.3 are finite but its
    # values on [0, 1] overflow: that is the overflow case at the given
    # radius, not a dip that halving could cure (and numpy does not warn;
    # the suite turns no warnings into errors, so check that explicitly)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadConfig,
                           match="delta=1e-134 .* overflows at 1e-134$"):
            build_v_tau(-0.3, 1e-134)


@pytest.mark.parametrize("tau", [-0.2, -0.5, -0.9])
def test_core_branch_exact(tau):
    spec = build_v_tau(tau, 0.25)
    assert spec.delta == 0.25
    x = spec.delta / 2.0
    assert evaluate_profile(spec, x) == x ** tau
    assert evaluate_profile(spec, -x) == x ** tau


@pytest.mark.parametrize("tau", [-0.2, -0.5, -0.9])
def test_edge_branch_exact(tau):
    spec = build_v_tau(tau, 0.25)
    d = spec.delta / 2.0
    assert evaluate_profile(spec, 1.0 - d) == d ** 2
    assert evaluate_profile(spec, -(1.0 - d)) == d ** 2


def test_zero_outside_interval():
    spec = build_v_tau(-0.5)
    assert np.all(evaluate_profile(spec, np.array([-2.0, -1.0, 1.0, 1.3])) == 0.0)


def test_profile_positive_everywhere_inside():
    xs = np.linspace(-0.9995, 0.9995, 20001)
    xs = xs[xs != 0.0]
    for tau in np.linspace(-0.95, -0.05, 10):
        spec = build_v_tau(tau)
        assert np.min(evaluate_profile(spec, xs)) > 0.0


def test_interpolant_coefficients_shape_and_symmetry():
    spec = build_v_tau(-0.4)
    assert spec.interpolant_coeffs.shape == (6,)
    # one bridge serves both sides: the profile is even in x
    xs = np.linspace(spec.delta, 1.0 - spec.delta, 101)
    assert np.array_equal(evaluate_profile(spec, -xs), evaluate_profile(spec, xs))


def test_branch_continuity():
    spec = build_v_tau(-0.5)
    eps = 1e-12
    for x0 in (spec.delta, 1.0 - spec.delta):
        left = evaluate_profile(spec, x0 - eps)
        right = evaluate_profile(spec, x0 + eps)
        assert abs(left - right) <= 1e-9


def test_junction_second_differences_converge():
    # C^2 matching: one-sided second differences agree to O(h) across both
    # junction points.
    spec = build_v_tau(-0.5, 0.25)

    def gap(x0, h):
        f = lambda t: evaluate_profile(spec, t)
        fwd = (f(x0 + 2 * h) - 2 * f(x0 + h) + f(x0)) / h ** 2
        bwd = (f(x0) - 2 * f(x0 - h) + f(x0 - 2 * h)) / h ** 2
        return abs(fwd - bwd)

    for x0 in (spec.delta, 1.0 - spec.delta):
        coarse = gap(x0, 1e-3)
        fine = gap(x0, 1e-4)
        assert coarse < 2.0
        assert fine <= 0.15 * coarse


# ---------------------------------------------------------------------------
# Sampling.


def test_sample_profile_values_at_the_nodes():
    grid = build_graded(32, 2.0)
    spec = build_v_tau(-0.5)
    sample = sample_profile(spec, grid)
    assert np.array_equal(sample.values, evaluate_profile(spec, grid.nodes))


# ---------------------------------------------------------------------------
# Torsion function.


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_torsion_residual_is_one(alpha):
    grid = build_graded(128, 2.0)
    matrix = assemble(alpha, grid, Zero())
    torsion = solve_torsion(matrix)
    residual = apply(matrix, torsion) - 1.0
    away = distance_d(grid.nodes) >= 0.1
    assert np.max(np.abs(residual[away])) <= 0.02
    assert np.max(np.abs(residual[away])) <= 1e-6  # dense solve is exact


def test_torsion_needs_zero_exterior_operator():
    grid = build_graded(32, 2.0)
    with pytest.raises(BadConfig):
        solve_torsion(assemble(0.5, grid, PowerTail(0.0)))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_torsion_symmetric_and_nonnegative(alpha):
    grid = build_graded(128, 2.0)
    v = solve_torsion(assemble(alpha, grid, Zero())).values
    assert np.max(np.abs(v - v[::-1])) <= 1e-10 * np.max(v)
    assert np.array_equal(v, v[::-1])  # the even half solve is exactly even
    assert np.min(v) > 0.0


def test_torsion_needs_mirror_symmetric_grid():
    # the even half solve needs the symmetry, which every Grid carries:
    # an asymmetric node set is refused where the grid is made, and on a
    # hand-made symmetric grid the torsion function is exactly even
    with pytest.raises(BadConfig, match="mirror-symmetric"):
        Grid(nodes=np.array([-0.9, -0.2, 0.001, 0.4, 0.41, 0.99]),
             grading_exponent=1.0, n_per_side=1, delta=0.25)
    grid = Grid(nodes=np.array([-0.99, -0.41, -0.4, -0.001,
                                0.001, 0.4, 0.41, 0.99]),
                grading_exponent=1.0, n_per_side=1, delta=0.25)
    v = solve_torsion(assemble(0.5, grid, Zero())).values
    assert np.array_equal(v, v[::-1]) and np.min(v) > 0.0


@pytest.mark.parametrize("alpha,tol", [(0.25, 0.01), (0.5, 0.02), (0.75, 0.04)])
def test_torsion_matches_closed_form(alpha, tol):
    # The exact solution of  operator(v) = 1  on the interval with the
    # bare second-difference kernel is  sin(pi*alpha)/pi * (1 - x^2)^alpha.
    grid = build_graded(256, 2.4)
    v = solve_torsion(assemble(alpha, grid, Zero())).values
    x = grid.nodes
    exact = np.sin(np.pi * alpha) / np.pi * (1.0 - x ** 2) ** alpha
    away = distance_d(x) >= 0.01
    rel = np.abs(v - exact) / exact
    assert np.max(rel[away]) <= tol


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_torsion_boundary_decay_exponent(alpha):
    grid = build_graded(256, 2.4)
    v = solve_torsion(assemble(alpha, grid, Zero())).values
    x = grid.nodes
    d = distance_d(x)
    mask = (x > 0) & (d > 1e-3) & (d < 3e-2)
    design = np.vstack([np.log(d[mask]), np.ones(mask.sum())]).T
    exponent = np.linalg.lstsq(design, np.log(v[mask]), rcond=None)[0][0]
    assert abs(exponent - alpha) <= 0.1


# ---------------------------------------------------------------------------
# Near-core sign bands of the applied operator.


def _band_ratios(alpha, tau, n):
    grid = build_graded(n, 2.4)
    profile = sample_profile(build_v_tau(tau, grid.delta), grid)
    matrix = assemble(alpha, grid, Zero())
    out = apply(matrix, profile)
    D = distance_D(grid.nodes)
    window = (D > 20.0 * grid.local_spacing()) & (D < grid.delta / 4.0)
    assert window.sum() >= 8
    return out[window], D[window]


@pytest.mark.parametrize("alpha,tau", [(0.6, -0.5), (0.25, -0.8)])
def test_band_positive_when_kernel_constant_positive(alpha, tau):
    # -operator(V_tau)/D^(tau-2*alpha) stays in a tight positive band
    # around the kernel power constant, stable under grid doubling.
    for n in (512, 1024):
        out, D = _band_ratios(alpha, tau, n)
        ratio = -out / D ** (tau - 2.0 * alpha)
        assert np.min(ratio) > 0.0
        assert np.max(ratio) / np.min(ratio) <= 10.0
        mid = np.median(ratio)
        assert abs(mid - c_tau(alpha, tau)) <= 0.1 * abs(c_tau(alpha, tau))


@pytest.mark.parametrize("alpha,tau", [(0.25, -0.3), (0.4, -0.15)])
def test_band_negative_between_critical_exponents(alpha, tau):
    for n in (512, 1024):
        out, D = _band_ratios(alpha, tau, n)
        ratio = -out / D ** (tau - 2.0 * alpha)
        assert np.max(ratio) < 0.0


@pytest.mark.parametrize("alpha", [0.25, 0.4])
def test_band_growth_bound_at_kernel_zero(alpha):
    # At the zero of the kernel power constant the applied operator is an
    # order smaller; its growth constant stays stable under refinement.
    tau1 = 2.0 * alpha - 1.0
    exponent = min(tau1, 2.0 * tau1 - 2.0 * alpha + 1.0)
    constants = []
    for n in (512, 1024):
        out, D = _band_ratios(alpha, tau1, n)
        constants.append(np.max(np.abs(out) / D ** exponent))
    assert constants[0] <= 3.0
    assert constants[1] <= 3.0
    assert abs(constants[1] / constants[0] - 1.0) <= 0.25


# ---------------------------------------------------------------------------
# Comparison residual.


@pytest.mark.parametrize("scale,lift", [(2.0, 0.0), (0.5, 3.0), (1.0, -4.0)])
def test_comparison_residual_of_a_lifted_profile(scale, lift):
    # the residual of w = scale V + lift T is operator(w) + sign(w)|w|**p,
    # with operator(w) read off apply; the lift T is the torsion function
    grid = build_graded(128, 2.4)
    matrix = assemble(0.6, grid, Zero())
    profile = sample_profile(build_v_tau(-0.4, grid.delta), grid)
    torsion = solve_torsion(matrix)
    w = scale * profile.values + lift * torsion.values
    a = apply(matrix, profile)
    res, size = comparison_residual(a, profile.values, torsion.values, 3.0,
                                    scale, lift)
    direct = apply(matrix, GridFunction(grid, w)) + np.sign(w) * np.abs(w) ** 3
    assert np.allclose(res, direct, rtol=1e-9, atol=1e-9 * np.max(size))
    assert np.array_equal(size, np.abs(scale * a) + abs(lift) + np.abs(w) ** 3 + 1.0)
    if lift < 0.0:
        assert np.any(w < 0.0)     # the power term keeps the sign of w


def test_comparison_residual_beyond_double_range_keeps_its_sign():
    # |w|**3 overflows at w = +-1e200: residual and size saturate at the
    # largest double, so neither the sub test (res <= 1e-8 size) nor the
    # zone-2 test (-res >= -1e-6 size) passes a +inf residual, and the
    # super test (res >= -1e-8 size) refuses a -inf one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res, size = comparison_residual(
            np.array([0.0, -1.0, 0.0]), np.array([1e200, 1.0, -1e200]),
            np.zeros(3), p=3.0, scale=1.0, lift=0.0)
    big = np.finfo(float).max
    assert np.array_equal(res, [big, 0.0, -big])
    assert np.array_equal(size, [big, 3.0, big])
    assert not res[0] <= 1e-8 * size[0]
    assert not -res[0] >= -1e-6 * size[0]
    assert not res[2] >= -1e-8 * size[2]


# ---------------------------------------------------------------------------
# Power-of-two scales.


@pytest.mark.parametrize("x,below,above", [
    (1.0, 1.0, 1.0),
    (0.75, 0.5, 1.0),
    (3.0, 2.0, 4.0),
    (2.0 ** -40, 2.0 ** -40, 2.0 ** -40),
    (np.nextafter(8.0, 9.0), 8.0, 16.0),
    (np.nextafter(8.0, 7.0), 4.0, 8.0),
    (5e-324, 5e-324, 5e-324),
])
def test_powers_of_two_bracket_x(x, below, above):
    assert power_of_two_bracket(x) == (below, above)
