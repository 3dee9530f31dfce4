"""Tests for the comparison profiles and the discrete torsion function."""

import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fracblow import profiles
from fracblow.errors import BadConfig
from fracblow.mesh import Grid, GridFunction, build_graded, distance_D
from fracblow.operator import OperatorMatrix, apply, assemble
from fracblow.profiles import (
    _bridge_coeffs,
    comparison_profile,
    comparison_residual,
    power_of_two_bracket,
    solve_torsion,
)
from fracblow.specfun import c_tau

GRID = build_graded(32, 2.0)


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
        comparison_profile(GRID, tau)


@pytest.mark.parametrize("delta", [0.0, -0.1, 0.3, 1.0])
def test_build_profile_rejects_bad_radius(delta):
    # the profile takes the grid's matching radius, which the grid checks
    with pytest.raises(BadConfig, match="delta must lie in"):
        build_graded(32, 2.0, delta)


@pytest.mark.parametrize("tau,delta", [(-0.99, 1e-120), (-0.5, 1e-130),
                                       (-0.1, 1e-200), (-0.5, 1e-300)])
def test_build_profile_names_a_radius_too_small(tau, delta):
    # inside (0, 1/4], but the curvature of D**tau at D = delta overflows
    with pytest.raises(BadConfig, match=f"matching radius delta={delta!r}"):
        comparison_profile(build_graded(16, 1.0, delta), tau)


def test_radius_too_small_after_halving_names_the_given_radius():
    # at 1e-134 the data of the bridge for tau = -0.3 are finite but its
    # values on [0, 1] overflow: that is the overflow case at the given
    # radius, not a dip that halving could cure (and numpy does not warn;
    # the suite turns no warnings into errors, so check that explicitly)
    grid = build_graded(16, 1.0, 1e-134)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadConfig,
                           match="delta=1e-134 .* overflows at 1e-134$"):
            comparison_profile(grid, -0.3)


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
    V = comparison_profile(grid, tau).values
    D = distance_D(grid.nodes)
    core = D <= delta / 4
    between = (D > delta / 4) & (D <= delta)
    assert np.any(core) and np.any(between)
    assert np.array_equal(V[core], D[core] ** tau)
    assert np.array_equal(V, _bridged(tau, delta / 4, grid.nodes))
    assert np.all(V[between] != D[between] ** tau)


@pytest.mark.parametrize("tau", [-0.2, -0.5, -0.9])
def test_core_branch_exact(tau):
    V = comparison_profile(GRID, tau).values
    D = distance_D(GRID.nodes)
    core = D <= GRID.delta
    assert np.count_nonzero(core[:32]) == np.count_nonzero(core[32:]) > 0
    assert np.array_equal(V[core], D[core] ** tau)


@pytest.mark.parametrize("tau", [-0.2, -0.5, -0.9])
def test_edge_branch_exact(tau):
    V = comparison_profile(GRID, tau).values
    d = 1.0 - np.abs(GRID.nodes)
    edge = d <= GRID.delta
    assert np.count_nonzero(edge[:32]) == np.count_nonzero(edge[32:]) > 0
    assert np.array_equal(V[edge], d[edge] ** 2)


def test_profile_positive_everywhere_inside():
    grid = build_graded(512, 1.0)
    for tau in np.linspace(-0.95, -0.05, 10):
        assert np.min(comparison_profile(grid, tau).values) > 0.0


def test_interpolant_coefficients_shape_and_symmetry():
    assert _bridge_coeffs(-0.4, GRID.delta).shape == (6,)
    # one bridge serves both sides: the profile is even in x
    V = comparison_profile(GRID, -0.4).values
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
    # V is the profile at the nodes
    V = comparison_profile(GRID, -0.5).values
    assert np.array_equal(V, _bridged(-0.5, GRID.delta, GRID.nodes))


# ---------------------------------------------------------------------------
# Torsion function.


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_torsion_residual_is_one(alpha):
    grid = build_graded(128, 2.0)
    matrix = assemble(alpha, grid)
    torsion = solve_torsion(matrix)
    residual = apply(matrix, torsion) - 1.0
    away = 1.0 - np.abs(grid.nodes) >= 0.1
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
    away = 1.0 - np.abs(x) >= 0.01
    rel = np.abs(v - exact) / exact
    assert np.max(rel[away]) <= tol


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_torsion_boundary_decay_exponent(alpha):
    grid = build_graded(256, 2.4)
    v = solve_torsion(assemble(alpha, grid)).values
    x = grid.nodes
    d = 1.0 - np.abs(x)
    mask = (x > 0) & (d > 1e-3) & (d < 3e-2)
    design = np.vstack([np.log(d[mask]), np.ones(mask.sum())]).T
    exponent = np.linalg.lstsq(design, np.log(v[mask]), rcond=None)[0][0]
    assert abs(exponent - alpha) <= 0.1


# ---------------------------------------------------------------------------
# The memo: one entry per (alpha, grid nodes) in a process, the operator
# and its torsion function together.


@pytest.fixture
def memo(monkeypatch):
    """An empty memo for one test; the process's own is put back
    afterwards."""
    fresh = {}
    monkeypatch.setattr(profiles, "_MEMO", fresh)
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


def _count_folds(monkeypatch):
    """The alphas of the folds assembled from now on, with the bytes of
    folds the memo held as each assembly began."""
    calls = []
    original = profiles.assemble

    def counting(alpha, grid):
        calls.append((alpha, _held()))
        return original(alpha, grid)

    monkeypatch.setattr(profiles, "assemble", counting)
    return calls


def _held():
    return sum(matrix.fold.nbytes for matrix, _ in profiles._MEMO.values())


def _direct_torsion(matrix):
    half = np.linalg.solve(matrix.fold, np.ones(matrix.fold.shape[0]))
    return np.concatenate((half[::-1], half))


def test_torsion_memo_hit_is_the_solve_bit_for_bit(memo, monkeypatch):
    want = _direct_torsion(assemble(0.6, build_graded(64, 2.4)))
    first = profiles.kept_operator(0.6, build_graded(64, 2.4))[1].values
    solves = _count_solves(monkeypatch)
    folds = _count_folds(monkeypatch)
    # a fresh grid with the same nodes is the same key
    again = profiles.kept_operator(0.6, build_graded(64, 2.4))[1]
    assert solves == [] and folds == []
    assert len(memo) == 1
    assert first.tobytes() == want.tobytes()
    assert again.values.tobytes() == want.tobytes()


def test_torsion_memo_misses_on_another_alpha_or_grid(memo, monkeypatch):
    grid = build_graded(64, 2.4)
    profiles.kept_operator(0.6, grid)
    # the same nodes but the innermost mirror pair, one ulp further out
    nodes = grid.nodes.copy()
    nodes[64] = np.nextafter(nodes[64], 1.0)
    nodes[63] = -nodes[64]
    moved = Grid(nodes=nodes, grading_exponent=grid.grading_exponent,
                 delta=grid.delta)
    others = [(np.nextafter(0.6, 1.0), grid),
              (0.6, build_graded(64, 2.0)),  # same n_per_side
              (0.6, moved)]
    wants = [_direct_torsion(assemble(*key)) for key in others]
    solves = _count_solves(monkeypatch)
    for key, want in zip(others, wants):
        assert np.array_equal(profiles.kept_operator(*key)[1].values, want)
    assert solves == [(64, 64)] * 3
    assert len(memo) == 4


def test_a_kept_torsion_is_the_solve_of_its_own_operator(memo):
    # a torsion solve on another alpha's operator leaves the entry of
    # (0.6, grid) alone: its torsion is that of assemble(0.6, grid)
    grid = build_graded(256, 2.4)
    solve_torsion(assemble(0.3, grid))
    kept = profiles.kept_operator(0.6, grid)[1]
    want = solve_torsion(assemble(0.6, grid))
    assert kept.values.tobytes() == want.values.tobytes()


def test_writing_into_a_kept_fold_or_torsion_raises(memo):
    grid = build_graded(64, 2.4)
    want = _direct_torsion(assemble(0.6, grid))
    for _ in range(2):                 # the miss's result, then a hit's
        matrix, torsion = profiles.kept_operator(0.6, grid)
        with pytest.raises(ValueError):
            matrix.fold[0, 0] = 0.0
        with pytest.raises(ValueError):
            torsion.values[::2] = np.nan
    assert np.array_equal(profiles.kept_operator(0.6, grid)[1].values, want)


def test_kept_operator_is_the_read_only_fold_kept_per_key(memo, monkeypatch):
    grid = build_graded(64, 2.4)
    matrix, torsion = profiles.kept_operator(0.6, grid)
    fold = matrix.fold
    assert fold.tobytes() == assemble(0.6, grid).fold.tobytes()
    assert not fold.flags.writeable
    folds = _count_folds(monkeypatch)
    solves = _count_solves(monkeypatch)
    assert profiles.kept_operator(0.6, grid)[0] is matrix
    # a fresh grid with the same nodes and another delta gets the kept
    # fold and torsion on its own grid
    other = build_graded(64, 2.4, delta=0.125)
    again, moved = profiles.kept_operator(0.6, other)
    assert again.fold is fold and again.grid is other
    assert moved.values is torsion.values and moved.grid is other
    assert folds == [] and solves == []
    # the kept torsion is the solve on the kept fold
    assert torsion.values.tobytes() == _direct_torsion(matrix).tobytes()


def test_a_fifth_fold_at_512_drops_the_oldest_fold_before_assembling(
        memo, monkeypatch):
    # 8 MiB keeps four 512 x 512 folds: the fifth alpha's fold is
    # assembled only after the oldest key is dropped, with its torsion
    grid = build_graded(512, 2.4)
    nbytes = 8 * 512 * 512
    alphas = [0.3, 0.4, 0.6, 0.7, 0.8]
    folds = _count_folds(monkeypatch)
    for alpha in alphas:
        profiles.kept_operator(alpha, grid)
    assert [a for a, _ in folds] == alphas
    assert [held for _, held in folds] == [k * nbytes for k in (0, 1, 2, 3, 3)]
    assert _held() == profiles._FOLD_BUDGET == 4 * nbytes
    assert [alpha for alpha, _ in memo] == alphas[1:]


@pytest.mark.parametrize("n_per_side,kept", [(512, 4), (1024, 1), (2048, 0)])
def test_the_fold_budget_keeps_the_newest_folds_that_fit(
        n_per_side, kept, memo, monkeypatch):
    # the budget arithmetic alone, on stand-in folds of the right size
    grid = build_graded(n_per_side, 2.4)
    monkeypatch.setattr(
        profiles, "assemble",
        lambda alpha, grid: OperatorMatrix(alpha, grid,
                                           np.zeros((n_per_side,) * 2)))
    monkeypatch.setattr(
        profiles, "solve_torsion",
        lambda matrix: GridFunction(matrix.grid, np.ones(2 * n_per_side)))
    alphas = [0.2, 0.3, 0.4, 0.6, 0.7, 0.8]
    for alpha in alphas:
        profiles.kept_operator(alpha, grid)
    assert [alpha for alpha, _ in memo] == alphas[len(alphas) - kept:]
    assert _held() <= profiles._FOLD_BUDGET


def test_kept_operator_keeps_its_budget_under_concurrent_callers(
        memo, monkeypatch):
    # a budget of three 16 x 16 folds, twelve keys each asked for three
    # times by eight threads: every caller gets the fold and torsion of
    # its key, and the memo never holds more than the budget once the
    # callers are done; without the lock, a caller raised a RuntimeError
    # or KeyError within these rounds in 8 runs of 8
    grid = build_graded(16, 2.0)
    monkeypatch.setattr(profiles, "_FOLD_BUDGET", 3 * 8 * 16 * 16)
    alphas = [float(a) for a in np.linspace(0.1, 0.9, 12)]
    matrices = [assemble(alpha, grid) for alpha in alphas]
    wants = [(m.fold, _direct_torsion(m)) for m in matrices]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            memo.clear()
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(
                    lambda a: profiles.kept_operator(a, grid), 3 * alphas,
                    timeout=60))
            assert all(np.array_equal(m.fold, fold)
                       and np.array_equal(t.values, torsion)
                       for (m, t), (fold, torsion) in zip(got, 3 * wants))
            assert _held() <= profiles._FOLD_BUDGET
            assert len(memo) <= 3
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# Near-core sign bands of the applied operator.


def _band_ratios(alpha, tau, n):
    grid = build_graded(n, 2.4)
    out = apply(assemble(alpha, grid), comparison_profile(grid, tau))
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
    profile = comparison_profile(grid, -0.4)
    V, a = profile.values, apply(matrix, profile)
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


@pytest.mark.parametrize("alpha,p,tau,lifts", [
    (0.6, 3.0, -0.4, (-4.0, -8.0, -16.0, -32.0)),
    (0.7, 100.0, -0.9, (1.0, 2.0, 4.0, 8.0)),   # |w|**100 overflows
])
def test_comparison_residual_of_a_column_of_scales(alpha, p, tau, lifts):
    # one (4, m) call is four single-scale calls, bit for bit, also where
    # the residual and its size saturate
    grid = build_graded(128, 2.4)
    matrix = assemble(alpha, grid)
    profile = comparison_profile(grid, tau)
    V, a = profile.values, apply(matrix, profile)
    T = solve_torsion(matrix).values
    scales = (0.5, 1.0, 2.0, 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res, size = comparison_residual(a, V, T, p, np.array(scales)[:, None],
                                        np.array(lifts)[:, None])
        rows = [comparison_residual(a, V, T, p, t, mu)
                for t, mu in zip(scales, lifts)]
    assert res.shape == size.shape == (4, V.size)
    assert np.array_equal(res, [r for r, _ in rows])
    assert np.array_equal(size, [s for _, s in rows])
    if p == 100.0:
        assert np.any(size == np.finfo(float).max)


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
