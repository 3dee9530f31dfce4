"""Tests for the default sub/super-solution pair and the one-level solver."""

import dataclasses
import json

import numpy as np
import pytest

import fracblow.solver
from fracblow.errors import (BadConfig, GridMismatch, NewtonStall,
                             NoAdmissiblePair, RegimeError)
from fracblow.mesh import Grid, GridFunction, build_graded, distance_D
from fracblow.operator import apply, assemble
from fracblow.profiles import comparison_profile, core_mask
from fracblow.solver import (
    ProblemSpec,
    _newton,
    default_sub_super,
    require_unique_existence,
    solve_blowup,
)
from fracblow.specfun import c_tau, find_tau1


GRID = build_graded(256, 2.4)


def _pair_and_spec(alpha, p, grid=GRID):
    matrix = assemble(alpha, grid)
    sub, sup = default_sub_super(matrix, p)
    return sub, sup, ProblemSpec(matrix, p, sub, sup)


def _level(spec, n):
    """Solution of the single level n."""
    return solve_blowup(spec, n).final


def _band(grid, level):
    """k and the mask of the band {D > 1/level} of ``level``."""
    h = grid.n_nodes // 2
    k = int(np.count_nonzero(grid.nodes[h:] <= 1.0 / level))
    band = np.zeros(grid.n_nodes, dtype=bool)
    band[h + k:] = band[:h - k] = True
    return k, band


def _recorded(spec):
    """``spec`` on a copy of its operator whose fold records the right
    half u[h:] of every iterate that Newton's residual, fold[k:] @ u[h:]
    plus the absorption, reads; and the list they go to."""
    iterates = []

    class Recording(np.ndarray):
        def __matmul__(self, other):
            iterates.append(other.copy())
            return np.asarray(self) @ other

    matrix = dataclasses.replace(spec.matrix,
                                 fold=spec.matrix.fold.view(Recording))
    return ProblemSpec(matrix, spec.p, spec.sub, spec.super), iterates


def _residual(fold, p, k, right):
    """Newton's residual at the band nodes h + k, ..., n - 1 of the even
    iterate whose right half is ``right``."""
    fold = np.asarray(fold)
    return fold[k:] @ right + np.abs(right[k:]) ** (p - 1.0) * right[k:]


# ---------------------------------------------------------------------------
# Default sub/super pair.


@pytest.mark.parametrize("alpha,p", [(0.5, 3.0), (0.25, 1.75), (0.6, 3.2)])
def test_default_pair_is_ordered_and_positive(alpha, p):
    sub, sup, _ = _pair_and_spec(alpha, p)
    assert np.all(sub.values > 0.0)
    assert np.all(sub.values <= sup.values)


@pytest.mark.parametrize("alpha,p", [(0.5, 3.0), (0.25, 1.75)])
def test_default_pair_residual_signs(alpha, p):
    # Sub-inequality on the resolved near-core nodes, super-inequality
    # on the whole grid.
    sub, sup, _ = _pair_and_spec(alpha, p)
    matrix = assemble(alpha, GRID)
    core = core_mask(GRID)
    assert np.any(core)

    res_sub = apply(matrix, sub) + sub.values ** p
    tol = 1e-8 * (np.abs(apply(matrix, sub)) + sub.values ** p + 1.0)
    assert np.all(res_sub[core] <= tol[core])

    res_sup = apply(matrix, sup) + sup.values ** p
    tol = 1e-8 * (np.abs(apply(matrix, sup)) + sup.values ** p + 1.0)
    assert np.all(res_sup >= -tol)


def _super_scales(spec):
    """(d, b, lam_star, node bound, ordering bound) of the closed-form
    super-solution lam * d, d = D**tau, b = operator(d)."""
    alpha, p, tau = spec.alpha, spec.p, spec.tau
    d = distance_D(GRID.nodes) ** tau
    b = apply(spec.matrix, GridFunction(GRID, d))
    neg = b < 0.0
    node = np.max((-b[neg] / d[neg] ** p) ** (1.0 / (p - 1.0)))
    return (d, b, c_tau(alpha, tau) ** (1.0 / (p - 1.0)), node,
            np.max(spec.sub.values / d))


@pytest.mark.parametrize("alpha,p", [(0.5, 3.0), (0.25, 1.75), (0.6, 3.2)])
def test_default_pair_scales_bracket_the_node_bounds(alpha, p):
    # lam * V meets the sub-inequality at core node i exactly for
    # lam <= (-a_i / v_i**p)**(1/(p-1)), a = operator(V): the sub scale is
    # the power of two at or below min(1, least bound).  lam * d, d =
    # D**tau, meets the super-inequality at node i for every lam > 0 where
    # b_i = operator(d)_i >= 0, and for lam >= (-b_i / d_i**p)**(1/(p-1))
    # elsewhere: the super scale is the largest of lam* = c(tau)**(1/(p-1)),
    # those bounds, and max sub / d, which orders the pair
    sub, sup, spec = _pair_and_spec(alpha, p)
    profile = comparison_profile(spec.matrix.grid,
                                 require_unique_existence(alpha, p))
    V, a = profile.values, apply(spec.matrix, profile)
    core = core_mask(GRID)
    a = a[core]
    bounds = (-a / V[core] ** p) ** (1.0 / (p - 1.0))
    lam_small = 1.0
    while lam_small > bounds.min():
        lam_small /= 2.0
    assert np.array_equal(sub.values, lam_small * V)
    d, _, lam_star, node, ordering = _super_scales(spec)
    assert np.array_equal(sup.values, max(lam_star, node, ordering) * d)


@pytest.mark.parametrize("alpha,p", [(0.5, 3.0), (0.25, 1.75), (0.6, 3.2)])
@pytest.mark.parametrize("level", [2 ** 16, 2 ** 20])
def test_closed_form_super_stays_within_10_of_the_solution(alpha, p, level):
    # the super-solution is the paper's asymptotics lam * D**tau with lam
    # near lam*, so over the fit window it is a small multiple of u
    _, sup, spec = _pair_and_spec(alpha, p)
    u = solve_blowup(spec, level).final.values
    D = distance_D(GRID.nodes)
    window = (D >= 0.02) & (D <= 0.1)
    ratio = sup.values[window] / u[window]
    assert np.all(ratio >= 1.0) and np.max(ratio) <= 10.0


@pytest.mark.parametrize("alpha,p", [(0.5, 3.0), (0.25, 1.75)])
def test_super_scale_is_the_least_that_meets_a_binding_node_bound(alpha, p):
    # where the discrete node bound sets the super scale, a scale 1e-6
    # below it breaks the super-inequality: at the node that set it and
    # at its mirror
    _, sup, spec = _pair_and_spec(alpha, p)
    _, _, lam_star, node, ordering = _super_scales(spec)
    assert node > max(lam_star, ordering)
    w = GridFunction(GRID, (1.0 - 1e-6) * sup.values)
    a = apply(spec.matrix, w)
    res = a + w.values ** p
    failing = np.flatnonzero(res < -1e-8 * (np.abs(a) + w.values ** p + 1.0))
    assert failing.size == 2
    assert failing[0] + failing[1] == GRID.n_nodes - 1


def test_super_scale_takes_a_negative_c_as_zero(monkeypatch):
    # c(tau) can round below 0 near tau1; a negative base to the power
    # 1/(p-1) is no real number, so lam* counts as 0
    monkeypatch.setattr(fracblow.solver, "c_tau", lambda alpha, tau: -1e-300)
    _, sup, spec = _pair_and_spec(0.25, 1.75)
    d, _, _, node, ordering = _super_scales(spec)
    assert np.array_equal(sup.values, max(node, ordering) * d)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_super_scale_beyond_the_double_range_is_no_pair(monkeypatch):
    # lam* = (1e300)**(1/0.75) overflows: no pair, and no warning
    monkeypatch.setattr(fracblow.solver, "c_tau", lambda alpha, tau: 1e300)
    with pytest.raises(NoAdmissiblePair, match="super-solution scale inf"):
        default_sub_super(assemble(0.25, GRID), 1.75)


@pytest.mark.parametrize("alpha,p", [(0.5, 3.0), (0.25, 1.75)])
def test_scaling_up_sub_breaks_inequality_near_core(alpha, p):
    # The absorption and operator powers balance exactly at the blow-up
    # rate, so a large enough multiple of the sub-solution must violate
    # the sub-inequality at some resolved near-core node.
    sub, _, _ = _pair_and_spec(alpha, p)
    matrix = assemble(alpha, GRID)
    core = core_mask(GRID)
    for factor in (2.0, 4.0, 8.0, 16.0, 32.0):
        big = GridFunction(GRID, factor * sub.values)
        res = apply(matrix, big) + big.values ** p
        tol = 1e-8 * (np.abs(apply(matrix, big)) + big.values ** p + 1.0)
        if np.any(res[core] > tol[core]):
            return
    pytest.fail("sub-inequality survived scaling up by 32")


@pytest.mark.parametrize("alpha,p", [(0.6, 2.1), (0.25, 2.5), (0.25, 1.2)])
def test_default_pair_regime_guard(alpha, p):
    with pytest.raises(RegimeError):
        default_sub_super(assemble(alpha, GRID), p)


def test_default_pair_needs_resolved_core():
    coarse = build_graded(16, 1.0)
    with pytest.raises(BadConfig):
        default_sub_super(assemble(0.5, coarse), 3.0)


# ---------------------------------------------------------------------------
# Problem validation.


def test_problem_spec_validation():
    sub, sup, spec = _pair_and_spec(0.5, 3.0)
    assert spec.tau == -0.5
    assert spec.alpha == 0.5 and spec.grid is GRID
    matrix = spec.matrix

    other = build_graded(256, 2.0)
    with pytest.raises(GridMismatch):
        ProblemSpec(assemble(0.5, other), 3.0, sub, sup)

    with pytest.raises(BadConfig):
        ProblemSpec(matrix, 3.0, sup, sub)  # reversed ordering

    flat = GridFunction(GRID, np.full(GRID.n_nodes, 0.5))
    big = GridFunction(GRID, np.full(GRID.n_nodes, 1.0))
    with pytest.raises(BadConfig):
        ProblemSpec(matrix, 3.0, flat, big)  # no blow-up at the core

    with pytest.raises(BadConfig):
        ProblemSpec(matrix, 0.9, sub, sup)


def test_problem_spec_needs_mirror_symmetric_grid():
    # the even half system needs the symmetry, which every Grid carries:
    # an asymmetric node set is refused where the grid is made
    with pytest.raises(BadConfig, match="mirror-symmetric"):
        Grid(nodes=np.array([-0.9, -0.2, 0.001, 0.4, 0.41, 0.99]),
             grading_exponent=1.0, delta=0.25)
    grid = Grid(nodes=np.array([-0.99, -0.41, -0.4, -0.001,
                                0.001, 0.4, 0.41, 0.99]),
                grading_exponent=1.0, delta=0.25)
    sub = GridFunction(grid, np.full(grid.n_nodes, 20.0))
    sup = GridFunction(grid, np.full(grid.n_nodes, 30.0))
    spec = ProblemSpec(assemble(0.5, grid), 3.0, sub, sup)
    assert spec.grid.same_as(grid)


def test_problem_spec_needs_even_bounds():
    # the solver keeps its iterates even, so the bounds it freezes the
    # excluded core at must be even too
    sub, sup, spec = _pair_and_spec(0.5, 3.0)
    lopsided = sub.values.copy()
    lopsided[0] *= 0.5
    with pytest.raises(BadConfig, match="exactly even"):
        ProblemSpec(spec.matrix, 3.0,
                    GridFunction(GRID, lopsided), sup)
    with pytest.raises(BadConfig, match="exactly even"):
        ProblemSpec(spec.matrix, 3.0, sub,
                    GridFunction(GRID, sup.values * (1.0 + 1e-9 * GRID.nodes)))


# ---------------------------------------------------------------------------
# Single-level solves.


def test_level_guards():
    _, _, spec = _pair_and_spec(0.5, 3.0)
    with pytest.raises(BadConfig):
        solve_blowup(spec, 3)


def test_level_solution_is_fixed_point():
    # a level's own solution is an exact root of its system: Newton started
    # there returns it unchanged after 0 steps, and the solve with it as
    # the sub-solution, started at twice it on the band, falls back to it
    # within the stop test's reach
    sub, sup, spec = _pair_and_spec(0.5, 3.0)
    first = _level(spec, 32).values
    k, band = _band(GRID, 32)
    u, iters, _, _ = _newton(spec.matrix, 3.0, first, k)
    assert iters == 0 and np.array_equal(u, first)
    again = _level(ProblemSpec(spec.matrix, 3.0, GridFunction(GRID, first),
                               sup), 32).values
    assert np.max(np.abs(again - first)[band] / first[band]) <= 1e-7
    assert np.array_equal(again[~band], first[~band])


def test_level_solution_ordered_and_frozen():
    sub, sup, spec = _pair_and_spec(0.25, 1.75)
    u = _level(spec, 32)
    D = distance_D(GRID.nodes)
    frozen = D <= 1.0 / 32
    assert np.any(frozen)
    assert np.array_equal(u.values[frozen], sub.values[frozen])
    scale = 1.0 + np.abs(sub.values) + np.abs(sup.values)
    assert np.all(u.values >= sub.values - 1e-8 * scale)
    assert np.all(u.values <= sup.values + 1e-8 * scale)


def test_levels_increase_monotonically():
    _, _, spec = _pair_and_spec(0.5, 3.0)
    u32 = _level(spec, 32)
    u128 = _level(spec, 128)
    scale = 1.0 + np.abs(u32.values)
    assert np.all(u128.values >= u32.values - 1e-8 * scale)
    # strictly larger somewhere: deeper levels release more nodes
    assert np.max(u128.values - u32.values) > 0.0


def test_stationarity_once_no_new_nodes():
    # Two levels whose excluded cores hold the same nodes solve the
    # identical system.
    _, _, spec = _pair_and_spec(0.5, 3.0)
    lo, hi = 2 ** 17, 2 ** 18
    D = distance_D(GRID.nodes)
    assert not np.any((D > 1.0 / hi) & (D <= 1.0 / lo))
    u_lo = _level(spec, lo)
    u_hi = _level(spec, hi)
    scale = np.max(np.abs(u_lo.values))
    assert np.max(np.abs(u_lo.values - u_hi.values)) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# Driver.


def test_solve_blowup_report_fields_and_audits():
    _, _, spec = _pair_and_spec(0.5, 3.0)
    report = solve_blowup(spec, 4096)
    assert report.levels == [4096]
    assert len(report.newton_iters) == 1 and report.newton_iters[0] > 0
    # the active set {D > 1/level} comes in mirror pairs
    D = distance_D(GRID.nodes)
    assert report.active_nodes == [int(np.count_nonzero(D > 1.0 / 4096))]
    assert report.active_nodes[0] % 2 == 0
    assert report.converged
    assert report.residual_inf <= report.tolerance
    assert report.ordering_ok
    assert report.monotone_ok
    payload = report.as_dict()
    assert payload["levels"] == [4096]
    assert payload["active_nodes"] == report.active_nodes
    assert payload["newton_iters"] == report.newton_iters
    assert "n_exhaustion_levels" not in json.dumps(payload)


def test_solve_blowup_iterates_are_exactly_even():
    grid = build_graded(128, 2.4)
    _, _, spec = _pair_and_spec(0.5, 3.0, grid)
    values = solve_blowup(spec, 4096).final.values
    assert np.array_equal(values, values[::-1])


def test_newton_solves_one_half_system_per_iteration(monkeypatch):
    # one half-size LU per Newton step: the even block alone
    grid = build_graded(128, 2.4)
    _, _, spec = _pair_and_spec(0.5, 3.0, grid)
    shapes = []
    solve = np.linalg.solve

    def counted(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    report = solve_blowup(spec, 4096)
    # one solve per iteration, each of the level's half size
    assert len(shapes) == report.newton_iters[0] > 0
    half = report.active_nodes[0] // 2
    assert all(shape == (half, half) for shape in shapes)


@pytest.mark.parametrize("alpha,p", [(0.25, 1.75), (0.5, 3.0), (0.75, 3.0)])
def test_residual_on_the_trailing_fold_rows_matches_the_indexed_rows(alpha, p):
    # Newton's residual reads the contiguous trailing range fold[k:] of
    # the fold; at every level the report's residual_inf, its size at the
    # solution, is that of the residual computed on the fancy-indexed
    # copy of those rows, bit for bit
    grid = build_graded(128, 2.4)
    _, _, spec = _pair_and_spec(alpha, p, grid)
    fold = spec.matrix.fold
    h = grid.n_nodes // 2
    level = 8
    while level <= 2 ** 17:   # the innermost node lies at D = 4.4e-6
        idx = np.flatnonzero(distance_D(grid.nodes) > 1.0 / level)
        right = idx[idx.size // 2:]
        report = solve_blowup(spec, level)
        u = report.final.values
        want = (fold[right - h] @ u[h:]
                + np.abs(u[right]) ** (p - 1.0) * u[right])
        assert float(np.max(np.abs(want))) == report.residual_inf
        level *= 2


@pytest.mark.parametrize("alpha,p", [(0.5, 3.0), (0.25, 1.75)])
@pytest.mark.parametrize("level", [2 ** 10, 2 ** 14, 2 ** 20])
def test_raising_the_frozen_core_data_raises_the_solution(alpha, p, level):
    # the band system is an M-function, so its solution is monotone in
    # the frozen core data: doubling the core of the start raises the
    # solution on every band node, strictly somewhere
    sub, _, spec = _pair_and_spec(alpha, p)
    h = GRID.n_nodes // 2
    k = int(np.count_nonzero(GRID.nodes[h:] <= 1.0 / level))
    assert 0 < k < h
    raised = sub.values.copy()
    raised[h - k:h + k] *= 2.0
    low = _newton(spec.matrix, p, sub.values, k)[0]
    high = _newton(spec.matrix, p, raised, k)[0]
    band = np.r_[:h - k, h + k:GRID.n_nodes]
    assert np.all(high[band] >= low[band])
    assert np.any(high[band] > low[band])


def test_solve_blowup_validation():
    _, _, spec = _pair_and_spec(0.5, 3.0)
    with pytest.raises(BadConfig, match="at least 4"):
        solve_blowup(spec, 3)
    # every node of this grid lies in the core {D <= 1/4}
    inner = Grid(nodes=np.array([-0.2, 0.2]), grading_exponent=1.0, delta=0.25)
    inner_spec = ProblemSpec(assemble(0.5, inner), 3.0,
                             GridFunction(inner, np.full(2, 20.0)),
                             GridFunction(inner, np.full(2, 30.0)))
    with pytest.raises(BadConfig, match="no active nodes"):
        solve_blowup(inner_spec, 4)
    single = solve_blowup(spec, 64)  # one level, from the sub-solution
    assert single.levels == [64]
    assert len(single.newton_iters) == 1 and single.converged


def test_level_past_the_innermost_node_is_refused():
    # with no node in the excluded core the band carries no blow-up data
    # and its one discrete solution is 0; here the innermost node sits at
    # exactly 2**-17, so level 2**17 freezes it and 2**17 + 1 freezes none
    grid = build_graded(256, 2.0)
    assert grid.nodes[256] == 2.0 ** -17
    _, _, spec = _pair_and_spec(0.5, 3.0, grid)
    with pytest.raises(BadConfig, match=r"level 131073 leaves no node in the "
                       r"excluded core: the innermost node lies at "
                       r"D = 7\.63e-06, so the level can be at most 131072$"):
        solve_blowup(spec, 2 ** 17 + 1)
    assert solve_blowup(spec, 2 ** 17).active_nodes == [2 * 255]


@pytest.mark.parametrize("alpha,p", [(0.5, 3.0), (0.25, 1.75)])
def test_criterion_6_anchors_solve_in_few_newton_steps(alpha, p):
    # the one-level solve from the sub-solution doubled on the band needs
    # no continuation: 3-4 steps on the acceptance anchors at their settings
    _, _, spec = _pair_and_spec(alpha, p, build_graded(512, 2.4))
    report = solve_blowup(spec, 2 ** 20)
    assert report.converged
    assert report.newton_iters[0] <= 6


# census case (0.45, 10%): p 10% of the way through the window (1.9, 10)
CENSUS_P = 1.0 + 2.0 * 0.45 + 0.1 * (1.0 - 0.9 / (0.9 - 1.0) - 1.9)


@pytest.mark.parametrize("alpha,p", [(0.5, 3.0), (0.25, 1.75),
                                     (0.15, 1.3129), (0.45, CENSUS_P)])
def test_full_newton_steps_contract_the_residual_on_the_anchors(alpha, p):
    # the system is a convex M-function, so Newton from any positive start
    # needs no line search: the first full step lands on or above the
    # solution, after which no band node rises, and every step lowers
    # max|F| to at most 3/4 of its previous value, the decrease the
    # deleted search demanded
    grid = build_graded(512, 2.4)
    _, _, spec = _pair_and_spec(alpha, p, grid)
    spec, iterates = _recorded(spec)
    report = solve_blowup(spec, 2 ** 20)
    k, _ = _band(grid, 2 ** 20)
    norms = [float(np.max(np.abs(_residual(spec.matrix.fold, p, k, u))))
             for u in iterates]
    assert report.converged
    assert len(norms) == report.newton_iters[0] + 1
    assert all(np.all(after <= before)
               for before, after in zip(iterates[1:], iterates[2:]))
    assert all(after <= 0.75 * before
               for before, after in zip(norms, norms[1:])), norms


def test_newton_without_a_reachable_stop_ends_in_one_stall(monkeypatch):
    # with stop tests that cannot be met, Newton keeps taking full steps,
    # one half-size LU per loop pass (beside the forward-error checks,
    # which solve on the fold's band block itself), and stalls at its
    # iteration limit: _MAX_ITER steps, each followed by the stop tests,
    # and the message quotes the residual of the last test
    grid = build_graded(128, 2.4)
    _, _, spec = _pair_and_spec(0.5, 3.0, grid)
    spec, iterates = _recorded(spec)
    steps = []
    solve = np.linalg.solve

    def counted(a, b):
        if not np.shares_memory(a, spec.matrix.fold):
            steps.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    monkeypatch.setattr(fracblow.solver, "_NEWTON_RTOL", 0.0)
    monkeypatch.setattr(fracblow.solver, "_FORWARD_RTOL", 0.0)
    with pytest.raises(NewtonStall, match="no convergence in ") as stall:
        solve_blowup(spec, 4096)
    k, _ = _band(grid, 4096)
    last = float(np.max(np.abs(_residual(spec.matrix.fold, 3.0, k,
                                         iterates[-1]))))
    assert len(steps) == fracblow.solver._MAX_ITER
    assert len(iterates) == fracblow.solver._MAX_ITER + 1
    assert f"(residual {last:.3e})" in str(stall.value)


def test_newton_stops_at_the_forward_error_bound_below_the_norm_floor():
    # at (0.6, 3.2) rounding keeps max|F| above the norm tolerance, and
    # Newton stops once W_band^-1 |F|, the bound on |u - u*| with W_band
    # = fold[k:, k:], is at most 1e-10 of u at every band node; the
    # report marks that exit with residual_inf > tolerance
    grid = build_graded(512, 2.4)
    p, level = 3.2, 2 ** 20
    _, _, spec = _pair_and_spec(0.6, p, grid)
    report = solve_blowup(spec, level)
    assert report.converged and report.ordering_ok and report.monotone_ok
    assert report.residual_inf > report.tolerance
    assert report.newton_iters[0] <= 6
    h = grid.n_nodes // 2
    k, _ = _band(grid, level)
    right = report.final.values[h:]
    F = _residual(spec.matrix.fold, p, k, right)
    assert float(np.max(np.abs(F))) == report.residual_inf
    bound = np.linalg.solve(spec.matrix.fold[k:, k:], np.abs(F))
    assert np.max(bound / right[k:]) <= 1e-10


# ---------------------------------------------------------------------------
# Newton's start: the sub-solution doubled on the band.


@pytest.mark.parametrize("alpha,p", [(0.5, 3.0), (0.25, 1.75),
                                     (0.45, CENSUS_P)])
@pytest.mark.parametrize("level", [2 ** 10, 2 ** 20])
def test_start_doubles_the_band_of_the_sub(alpha, p, level, monkeypatch):
    # Newton starts at 2 * sub on the band and at the sub, bit for bit, on
    # the excluded core; a factor of 2 is exact, so the start stays
    # exactly even
    grid = build_graded(512, 2.4)
    sub, _, spec = _pair_and_spec(alpha, p, grid)
    k, band = _band(grid, level)
    calls = []
    newton = fracblow.solver._newton

    def recorded(matrix, p, start, k):
        calls.append((start.copy(), k))
        return newton(matrix, p, start, k)

    monkeypatch.setattr(fracblow.solver, "_newton", recorded)
    solve_blowup(spec, level)
    [(start, k_used)] = calls
    assert k_used == k
    assert np.array_equal(start[band], 2.0 * sub.values[band])
    assert np.array_equal(start[~band], sub.values[~band])
    assert np.array_equal(start, start[::-1])


def test_solve_runs_without_resolved_core_nodes():
    # a hand-made grid with no resolved node inside the matching radius
    # still solves
    grid = Grid(nodes=np.array([-0.6, -0.2, 0.2, 0.6]), grading_exponent=1.0,
                delta=0.25)
    spec = ProblemSpec(assemble(0.5, grid), 3.0,
                       GridFunction(grid, np.array([0.1, 20.0, 20.0, 0.1])),
                       GridFunction(grid, np.full(4, 30.0)))
    with pytest.raises(BadConfig, match="no resolved nodes"):
        core_mask(grid)
    assert solve_blowup(spec, 4).levels == [4]


@pytest.mark.parametrize("alpha,p", [(0.5, 3.0), (0.25, 1.75)])
def test_doubled_and_plain_starts_reach_the_same_solution(alpha, p):
    # the start leaves the system and its one solution alone: on the
    # criterion-6 anchors the band values agree within the stop test's
    # reach, and the excluded core is the sub-solution's in both
    grid = build_graded(512, 2.4)
    sub, _, spec = _pair_and_spec(alpha, p, grid)
    k, band = _band(grid, 2 ** 20)
    plain = _newton(spec.matrix, p, sub.values, k)[0]
    doubled = solve_blowup(spec, 2 ** 20).final.values
    assert np.max(np.abs(doubled - plain)[band] / plain[band]) <= 1e-7
    assert np.array_equal(doubled[~band], plain[~band])


def test_solve_blowup_rate_recovery():
    # With the excluded core shrunk to the grid's resolution floor, a
    # log-log fit over a mid-range window recovers the blow-up rate.
    _, _, spec = _pair_and_spec(0.5, 3.0)
    report = solve_blowup(spec, 65536)
    D = distance_D(GRID.nodes)
    window = (D >= 0.02) & (D <= 0.1)
    design = np.vstack([np.log(D[window]), np.ones(window.sum())]).T
    exponent = np.linalg.lstsq(design, np.log(report.final.values[window]),
                               rcond=None)[0][0]
    assert abs(exponent - spec.tau) <= 0.02


# ---------------------------------------------------------------------------
# Special-existence regime: residual signs of the rate-tau1 pair.


def test_special_regime_pair_residual_signs():
    # In the special-existence regime the profile at the kernel-zero rate
    # is a super-solution on the resolved core by itself, and subtracting
    # a unit of the intermediate-rate profile gives a sub-solution.
    alpha, p = 0.25, 1.3
    tau1 = find_tau1(alpha)
    taubar = min(tau1 * p + 2.0 * alpha, tau1 / 2.0)
    assert tau1 < taubar < 0.0

    core = core_mask(GRID)
    matrix = assemble(alpha, GRID)
    prof1, profb = comparison_profile(GRID, tau1), comparison_profile(GRID, taubar)
    v1, applied1 = prof1.values, apply(matrix, prof1)
    vb, appliedb = profb.values, apply(matrix, profb)

    res_super = applied1 + v1 ** p
    tol = 1e-8 * (np.abs(applied1) + v1 ** p + 1.0)
    assert np.all(res_super[core] >= -tol[core])

    for mu in (1.0, 2.0, 4.0, 8.0):
        w = v1 - mu * vb
        res_sub = applied1 - mu * appliedb + np.abs(w) ** (p - 1.0) * w
        tol = 1e-8 * (np.abs(applied1) + mu * np.abs(appliedb)
                       + np.abs(w) ** p + 1.0)
        if np.all(res_sub[core] <= tol[core]):
            return
    pytest.fail("no admissible subtraction scale up to 8")
