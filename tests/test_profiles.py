"""Tests for the comparison profiles and the discrete torsion function."""

import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fracblow import profiles
from fracblow.errors import BadConfig
from fracblow.mesh import (Grid, GridFunction, build_graded, distance_D,
                           distance_d)
from fracblow.operator import apply, assemble, even_block
from fracblow.profiles import (
    _bridge_coeffs,
    comparison_arrays,
    comparison_residual,
    power_of_two_bracket,
    solve_torsion,
)
from fracblow.specfun import c_tau

GRID = build_graded(32, 2.0)
MATRIX = assemble(0.5, GRID)


def _bridged(tau, delta, x):
    """The profile at 0 < |x| < 1 with matching radius ``delta``, written
    out from the bridge coefficients: D**tau where D <= delta, d**2 where
    d <= delta, and the quintic in (D - delta) / (1 - 2 delta) between."""
    D = np.abs(x)
    d = 1.0 - D
    s = (D - delta) / (1.0 - 2.0 * delta)
    bridge = np.polynomial.polynomial.polyval(s, _bridge_coeffs(tau, delta))
    return np.where(D <= delta, D ** tau, np.where(d <= delta, d ** 2, bridge))


# ---------------------------------------------------------------------------
# Profile construction.


@pytest.mark.parametrize("tau", [-1.5, -1.0, 0.0, 0.5])
def test_build_profile_rejects_bad_exponent(tau):
    with pytest.raises(BadConfig, match="core exponent must lie in"):
        comparison_arrays(MATRIX, tau)


@pytest.mark.parametrize("delta", [0.0, -0.1, 0.3, 1.0])
def test_build_profile_rejects_bad_radius(delta):
    # the profile takes the grid's matching radius, which the grid checks
    with pytest.raises(BadConfig, match="delta must lie in"):
        build_graded(32, 2.0, delta)


def _matrix_with_radius(delta):
    return assemble(0.5, build_graded(16, 1.0, delta))


@pytest.mark.parametrize("tau,delta", [(-0.99, 1e-120), (-0.5, 1e-130),
                                       (-0.1, 1e-200), (-0.5, 1e-300)])
def test_build_profile_names_a_radius_too_small(tau, delta):
    # inside (0, 1/4], but the curvature of D**tau at D = delta overflows
    with pytest.raises(BadConfig, match=f"matching radius delta={delta!r}"):
        comparison_arrays(_matrix_with_radius(delta), tau)


def test_radius_too_small_after_halving_names_the_given_radius():
    # at 1e-134 the data of the bridge for tau = -0.3 are finite but its
    # values on [0, 1] overflow: that is the overflow case at the given
    # radius, not a dip that halving could cure (and numpy does not warn;
    # the suite turns no warnings into errors, so check that explicitly)
    matrix = _matrix_with_radius(1e-134)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadConfig,
                           match="delta=1e-134 .* overflows at 1e-134$"):
            comparison_arrays(matrix, -0.3)


def test_radius_halves_where_the_bridge_dips():
    # at delta = 5e-4 the bridge for tau = -0.81 dips below 0 on [0, 1],
    # and at delta / 2 too, so V is built with radius delta / 4: D**tau
    # exactly up to it, the bridge of that radius beyond it
    tau, delta = -0.81, 5e-4
    s = np.linspace(0.0, 1.0, 4097)
    for radius in (delta, delta / 2):
        assert np.min(np.polynomial.polynomial.polyval(
            s, _bridge_coeffs(tau, radius))) <= 0.0
    grid = build_graded(32, 3.0, delta)
    V = comparison_arrays(assemble(0.5, grid), tau)[0]
    D = distance_D(grid.nodes)
    core = D <= delta / 4
    between = (D > delta / 4) & (D <= delta)
    assert np.any(core) and np.any(between)
    assert np.array_equal(V[core], D[core] ** tau)
    assert np.array_equal(V, _bridged(tau, delta / 4, grid.nodes))
    assert np.all(V[between] != D[between] ** tau)


@pytest.mark.parametrize("tau", [-0.2, -0.5, -0.9])
def test_core_branch_exact(tau):
    V = comparison_arrays(MATRIX, tau)[0]
    D = distance_D(GRID.nodes)
    core = D <= GRID.delta
    assert np.count_nonzero(core[:32]) == np.count_nonzero(core[32:]) > 0
    assert np.array_equal(V[core], D[core] ** tau)


@pytest.mark.parametrize("tau", [-0.2, -0.5, -0.9])
def test_edge_branch_exact(tau):
    V = comparison_arrays(MATRIX, tau)[0]
    d = distance_d(GRID.nodes)
    edge = d <= GRID.delta
    assert np.count_nonzero(edge[:32]) == np.count_nonzero(edge[32:]) > 0
    assert np.array_equal(V[edge], d[edge] ** 2)


def test_profile_positive_everywhere_inside():
    matrix = assemble(0.5, build_graded(512, 1.0))
    for tau in np.linspace(-0.95, -0.05, 10):
        assert np.min(comparison_arrays(matrix, tau)[0]) > 0.0


def test_interpolant_coefficients_shape_and_symmetry():
    assert _bridge_coeffs(-0.4, GRID.delta).shape == (6,)
    # one bridge serves both sides: the profile is even in x
    V = comparison_arrays(MATRIX, -0.4)[0]
    assert np.array_equal(V, V[::-1])


def test_branch_continuity():
    eps = 1e-12
    for x0 in (0.25, 0.75):
        left = _bridged(-0.5, 0.25, x0 - eps)
        right = _bridged(-0.5, 0.25, x0 + eps)
        assert abs(left - right) <= 1e-9


def test_junction_second_differences_converge():
    # C^2 matching: one-sided second differences agree to O(h) across both
    # junction points.
    def gap(x0, h):
        f = lambda t: _bridged(-0.5, 0.25, t)
        fwd = (f(x0 + 2 * h) - 2 * f(x0 + h) + f(x0)) / h ** 2
        bwd = (f(x0) - 2 * f(x0 - h) + f(x0 - 2 * h)) / h ** 2
        return abs(fwd - bwd)

    for x0 in (0.25, 0.75):
        coarse = gap(x0, 1e-3)
        fine = gap(x0, 1e-4)
        assert coarse < 2.0
        assert fine <= 0.15 * coarse


# ---------------------------------------------------------------------------
# Sampling.


def test_sample_profile_values_at_the_nodes():
    # V is the profile at the nodes, and W V its operator values
    V, applied = comparison_arrays(MATRIX, -0.5)
    assert np.array_equal(V, _bridged(-0.5, GRID.delta, GRID.nodes))
    assert np.array_equal(applied, apply(MATRIX, GridFunction(GRID, V)))


# ---------------------------------------------------------------------------
# Torsion function.


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_torsion_residual_is_one(alpha):
    grid = build_graded(128, 2.0)
    matrix = assemble(alpha, grid)
    torsion = solve_torsion(matrix)
    residual = apply(matrix, torsion) - 1.0
    away = distance_d(grid.nodes) >= 0.1
    assert np.max(np.abs(residual[away])) <= 0.02
    assert np.max(np.abs(residual[away])) <= 1e-6  # dense solve is exact


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_torsion_symmetric_and_nonnegative(alpha):
    grid = build_graded(128, 2.0)
    v = solve_torsion(assemble(alpha, grid)).values
    assert np.max(np.abs(v - v[::-1])) <= 1e-10 * np.max(v)
    assert np.array_equal(v, v[::-1])  # the even half solve is exactly even
    assert np.min(v) > 0.0


def test_torsion_needs_mirror_symmetric_grid():
    # the even half solve needs the symmetry, which every Grid carries:
    # an asymmetric node set is refused where the grid is made, and on a
    # hand-made symmetric grid the torsion function is exactly even
    with pytest.raises(BadConfig, match="mirror-symmetric"):
        Grid(nodes=np.array([-0.9, -0.2, 0.001, 0.4, 0.41, 0.99]),
             grading_exponent=1.0, delta=0.25)
    grid = Grid(nodes=np.array([-0.99, -0.41, -0.4, -0.001,
                                0.001, 0.4, 0.41, 0.99]),
                grading_exponent=1.0, delta=0.25)
    v = solve_torsion(assemble(0.5, grid)).values
    assert np.array_equal(v, v[::-1]) and np.min(v) > 0.0


@pytest.mark.parametrize("alpha,tol", [(0.25, 0.01), (0.5, 0.02), (0.75, 0.04)])
def test_torsion_matches_closed_form(alpha, tol):
    # The exact solution of  operator(v) = 1  on the interval with the
    # bare second-difference kernel is  sin(pi*alpha)/pi * (1 - x^2)^alpha.
    grid = build_graded(256, 2.4)
    v = solve_torsion(assemble(alpha, grid)).values
    x = grid.nodes
    exact = np.sin(np.pi * alpha) / np.pi * (1.0 - x ** 2) ** alpha
    away = distance_d(x) >= 0.01
    rel = np.abs(v - exact) / exact
    assert np.max(rel[away]) <= tol


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_torsion_boundary_decay_exponent(alpha):
    grid = build_graded(256, 2.4)
    v = solve_torsion(assemble(alpha, grid)).values
    x = grid.nodes
    d = distance_d(x)
    mask = (x > 0) & (d > 1e-3) & (d < 3e-2)
    design = np.vstack([np.log(d[mask]), np.ones(mask.sum())]).T
    exponent = np.linalg.lstsq(design, np.log(v[mask]), rcond=None)[0][0]
    assert abs(exponent - alpha) <= 0.1


# ---------------------------------------------------------------------------
# The torsion memo: one half solve per (alpha, grid nodes) in a process.


@pytest.fixture
def memo(monkeypatch):
    """An empty torsion memo for one test; the process's own is put back
    afterwards."""
    fresh = {}
    monkeypatch.setattr(profiles, "_TORSION_MEMO", fresh)
    return fresh


def _count_solves(monkeypatch):
    """Shapes of the systems handed to ``np.linalg.solve`` from now on."""
    shapes = []
    original = np.linalg.solve

    def counting(a, b):
        shapes.append(np.shape(a))
        return original(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return shapes


def _direct_torsion(matrix):
    half = np.linalg.solve(even_block(matrix), np.ones(matrix.rows.shape[0]))
    return np.concatenate((half[::-1], half))


def test_torsion_memo_hit_is_the_solve_bit_for_bit(memo, monkeypatch):
    matrix = assemble(0.6, build_graded(64, 2.4))
    want = _direct_torsion(matrix)
    first = solve_torsion(matrix).values
    solves = _count_solves(monkeypatch)
    # a fresh assembly of the same (alpha, grid) is the same key
    again = solve_torsion(assemble(0.6, build_graded(64, 2.4)))
    assert solves == []
    assert len(memo) == 1
    assert np.array_equal(first, want)
    assert np.array_equal(again.values, want)


def test_torsion_memo_misses_on_another_alpha_or_grid(memo, monkeypatch):
    grid = build_graded(64, 2.4)
    solve_torsion(assemble(0.6, grid))
    others = [assemble(np.nextafter(0.6, 1.0), grid),
              assemble(0.6, build_graded(64, 2.0))]  # same n_per_side
    wants = [_direct_torsion(matrix) for matrix in others]
    solves = _count_solves(monkeypatch)
    for matrix, want in zip(others, wants):
        assert np.array_equal(solve_torsion(matrix).values, want)
    assert solves == [(64, 64), (64, 64)]
    assert len(memo) == 3



def test_mutating_a_returned_torsion_leaves_the_memo(memo):
    matrix = assemble(0.6, build_graded(64, 2.4))
    want = _direct_torsion(matrix)
    solve_torsion(matrix).values[:] = -1.0    # the miss's result
    hit = solve_torsion(matrix)
    assert np.array_equal(hit.values, want)
    hit.values[::2] = np.nan                 # a hit's result
    assert np.array_equal(solve_torsion(matrix).values, want)


def test_torsion_memo_keeps_its_bound_first_in_first_out(memo):
    grid = build_graded(16, 2.0)
    bound = profiles._TORSION_MEMO_SIZE
    alphas = [float(a) for a in np.linspace(0.1, 0.9, 2 * bound)]
    for k, alpha in enumerate(alphas):
        solve_torsion(assemble(alpha, grid))
        assert len(memo) == min(k + 1, bound)
    assert [alpha for alpha, _ in memo] == alphas[-bound:]


def test_torsion_memo_keeps_its_bound_under_concurrent_callers(memo):
    # more threads than cores, switching as often as the interpreter
    # allows, over eight times the bound of keys, each solved twice, from
    # an empty memo 60 times; an eviction without the lock raised a
    # KeyError within these rounds in 8 runs of 8
    grid = build_graded(16, 2.0)
    bound = profiles._TORSION_MEMO_SIZE
    matrices = [assemble(alpha, grid)
                for alpha in np.linspace(0.1, 0.9, 8 * bound)]
    wants = [_direct_torsion(matrix) for matrix in matrices]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(60):
            memo.clear()
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda m: solve_torsion(m).values,
                                    matrices + matrices, timeout=60))
            assert all(np.array_equal(g, w)
                       for g, w in zip(got, wants + wants))
            assert len(memo) <= bound
    finally:
        sys.setswitchinterval(interval)


def test_torsion_memo_retains_at_most_its_bound_of_half_vectors(memo):
    # twice the bound of distinct alphas: what stays allocated afterwards
    # is at most the bound's worth of n/2 doubles, plus a little per
    # entry (the array header, the key and its dict slot)
    grid = build_graded(64, 2.4)
    bound = profiles._TORSION_MEMO_SIZE
    matrices = [assemble(alpha, grid)
                for alpha in np.linspace(0.1, 0.9, 2 * bound)]
    solve_torsion(matrices[0])       # any first-call import happens here
    memo.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for matrix in matrices:
            solve_torsion(matrix)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(memo) == bound
    assert retained <= bound * (grid.n_per_side * 8 + 512)


# ---------------------------------------------------------------------------
# Near-core sign bands of the applied operator.


def _band_ratios(alpha, tau, n):
    grid = build_graded(n, 2.4)
    out = comparison_arrays(assemble(alpha, grid), tau)[1]
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
    matrix = assemble(0.6, grid)
    V, a = comparison_arrays(matrix, -0.4)
    torsion = solve_torsion(matrix)
    w = scale * V + lift * torsion.values
    res, size = comparison_residual(a, V, torsion.values, 3.0, scale, lift)
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
