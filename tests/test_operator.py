"""Tests for the dense collocation discretization of the fractional
Laplacian: exact annihilation of constants, mirror symmetry, linearity,
the power-function identity against the kernel-constant oracle, and the
closed-form exterior moments."""

import dataclasses
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import fracblow.operator
import fracblow.specfun
from fracblow.errors import BadConfig, GridMismatch
from fracblow.mesh import (Grid, GridFunction, PowerTail, Zero,
                           build_graded, distance_D)
from fracblow.operator import (OperatorMatrix, _kernel_moments, apply,
                               assemble, even_block, power_tail_gap,
                               power_tail_moment)
from fracblow.specfun import c_tau

BATTERY_ALPHAS = (0.25, 0.5, 0.75)
BATTERY_TAUS = (-0.2, -0.5, -0.8)

# Hand-made grids: one node per side, so that the bridge and the inner
# gap meet at the same node, and an irregular grid with a node next to
# 0, a close pair and a node next to the boundary.
HAND_GRIDS = tuple(
    Grid(nodes=np.array(nodes), grading_exponent=1.0, delta=0.25)
    for nodes in ([-0.3, 0.3],
                  [-0.99, -0.41, -0.4, -0.001, 0.001, 0.4, 0.41, 0.99]))


def identity_errors(grid, alpha, tau):
    """Normalized error of the discrete power identity at every node.

    The scheme applied to |x|^tau (with the matching power-tail exterior)
    should reproduce -c(tau)*|x|^(tau-2a).  The error is normalized by
    max(|expected|, D^(tau-2a)): the plain relative error is undefined at
    parameters where the kernel constant vanishes (it does at alpha=0.25,
    tau=-0.5), and D^(tau-2a) is the natural local scale of the identity.
    """
    x = grid.nodes
    M = assemble(alpha, grid, PowerTail(tau))
    u = GridFunction(grid, np.abs(x) ** tau)
    out = apply(M, u)
    want = -c_tau(alpha, tau) * np.abs(x) ** (tau - 2.0 * alpha)
    denom = np.maximum(np.abs(want), distance_D(x) ** (tau - 2.0 * alpha))
    return np.abs(out - want) / denom


def full_weights(M):
    """The full n x n weights, the stored right-half rows below their
    mirror image: the row of node h - 1 - j is row h + j reversed."""
    return np.vstack((M.rows[::-1, ::-1], M.rows))


def resolved_mask(grid, spacing_grid=None, multiple=20.0):
    """Nodes at distance >= multiple * local spacing from the blow-up
    point; the spacing may be taken from a coarser reference grid to
    compare errors over a fixed physical window."""
    ref = grid if spacing_grid is None else spacing_grid
    xr = ref.nodes[ref.nodes > 0]
    hr = ref.local_spacing()[ref.nodes > 0]
    order = np.argsort(xr)
    spacing = np.interp(np.abs(grid.nodes), xr[order], hr[order])
    return distance_D(grid.nodes) >= multiple * spacing


# ---------------------------------------------------------------------------
# Row property: constants are annihilated.


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_constant_annihilation_uniform(alpha):
    for grid in (build_graded(64, 1.0),) + HAND_GRIDS:
        M = assemble(alpha, grid, PowerTail(0.0, 3.7))
        u = GridFunction(grid, np.full(grid.n_nodes, 3.7))
        assert np.max(np.abs(apply(M, u))) <= 1e-10, grid.nodes


@pytest.mark.parametrize("alpha,gamma", [(0.25, 2.4), (0.5, 2.0)])
def test_constant_annihilation_graded(alpha, gamma):
    # strong grading at high alpha pushes the innermost row scale past
    # what float64 can cancel in a dense contraction, so each order is
    # paired with a grading whose row scale keeps rounding below the bar
    grid = build_graded(64, gamma)
    M = assemble(alpha, grid, PowerTail(0.0, -1.25))
    u = GridFunction(grid, np.full(grid.n_nodes, -1.25))
    assert np.max(np.abs(apply(M, u))) <= 1e-10


def test_zero_function_zero_exterior_is_zero():
    grid = build_graded(32, 2.0)
    M = assemble(0.4, grid, Zero())
    u = GridFunction(grid, np.zeros(grid.n_nodes))
    assert np.max(np.abs(apply(M, u))) == 0.0


# ---------------------------------------------------------------------------
# Structural invariants of the weights.


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
def test_weight_mirror_symmetry(alpha):
    # the left half of the operator is the reflection of the right half:
    # applying it to a reversed function reverses the result, bit for
    # bit, under every exterior
    rng = np.random.default_rng(3)
    for grid in (build_graded(48, 2.0),) + HAND_GRIDS:
        for exterior in (Zero(), PowerTail(0.0, -1.25), PowerTail(-0.4, 1.3)):
            M = assemble(alpha, grid, exterior)
            u = rng.normal(size=grid.n_nodes)
            out = apply(M, GridFunction(grid, u))
            mirrored = apply(M, GridFunction(grid, u[::-1]))
            assert np.array_equal(mirrored, out[::-1]), grid.nodes


@pytest.mark.parametrize("exterior", [Zero(), PowerTail(-0.5)])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_apply_maps_an_even_function_to_an_exactly_even_one(alpha, exterior):
    # both halves of the result are the same row sums in the same order
    grid = build_graded(512, 2.4)
    u = np.abs(grid.nodes) ** -0.5
    assert np.array_equal(u, u[::-1])
    out = apply(assemble(alpha, grid, exterior),
                GridFunction(grid, u))
    assert np.array_equal(out, out[::-1])


def test_assemble_computes_each_mirror_pair_once(monkeypatch):
    # the kernel moments are evaluated for the right-half rows only, each
    # once: in row i the far end of piece 0, which starts at -1, is 1 + x_i
    nodes = []
    moments = fracblow.operator._kernel_moments

    def recorded(A, B, alpha):
        nodes.append(B[:, 0] - 1.0)
        return moments(A, B, alpha)

    monkeypatch.setattr(fracblow.operator, "_kernel_moments", recorded)
    grid = build_graded(64, 2.0)
    assemble(0.4, grid, Zero())
    nodes = np.concatenate(nodes)
    assert nodes.size == 64
    assert np.all(nodes > 0.0)
    np.testing.assert_allclose(nodes, grid.nodes[64:], rtol=0, atol=1e-15)


def assemble_by_rows(alpha, grid, exterior):
    """Reference oracle: the right-half rows and corrections evaluated
    one row at a time, each piece weight added into its slot by
    np.add.at.  ``assemble`` must give these bits."""
    x = grid.nodes
    n = x.size
    h = n // 2
    twoa = 2.0 * alpha
    breaks = np.concatenate(([-1.0], x[:h], [0.0], x[h:], [1.0]))
    ends = np.concatenate(([-1], np.arange(n), [-1]))
    pa, pb = breaks[:-1], breaks[1:]
    jl = np.insert(ends[:-1], h + 1, h)
    jr = np.insert(ends[1:], h, h - 1)
    radii = np.minimum(grid.local_spacing(),
                       np.minimum(np.abs(x) / 2.0, (1.0 - np.abs(x)) / 2.0))
    E = 0.0 if isinstance(exterior, Zero) else float(exterior.amplitude)
    W = np.zeros((n - h, n))
    corr = np.zeros(n - h)
    for i in range(h, n):
        xi = x[i]
        r = radii[i]
        close = i + 1
        ta = pa.copy()
        tb = pb.copy()
        ta[close + 1] = xi + r
        tb[close] = xi - r
        keep = tb - ta > 1e-300
        ta, tb = ta[keep], tb[keep]
        oa, ob = pa[keep], pb[keep]
        right_of = oa >= xi
        dn = np.where(right_of, ta - xi, xi - tb)
        df = np.where(right_of, tb - xi, xi - ta)
        An = np.where(right_of, oa - xi, xi - ob)
        Af = np.where(right_of, ob - xi, xi - oa)
        J0, J1 = _kernel_moments(dn, df, alpha)
        width = Af - An
        w_near = (Af * J0 - J1) / width
        w_far = (J1 - An * J0) / width
        w_a = np.where(right_of, w_near, w_far)
        w_b = np.where(right_of, w_far, w_near)
        mass = ((1.0 - xi) ** (-twoa) + (1.0 + xi) ** (-twoa)) / twoa
        row = np.zeros(n + 1)
        np.add.at(row, jl[keep], -w_a)
        np.add.at(row, jr[keep], -w_b)
        diag = mass + w_a.sum() + w_b.sum()
        c_self = r ** (-twoa) / (2.0 - twoa)
        for k, slot in ((close, jl[close]), (close + 1, jr[close + 1])):
            if slot != i:
                t = c_self * (r / (pb[k] - pa[k]))
                diag += t
                row[slot] -= t
        corr[i - h] = row[n] * E
        if isinstance(exterior, PowerTail):
            gap_sum = (power_tail_gap(alpha, exterior.tau, xi)
                       + power_tail_gap(alpha, exterior.tau, -xi))
            corr[i - h] -= exterior.amplitude * (mass - gap_sum)
        row[i] += diag
        W[i - h] = row[:n]
    return W, corr


# graded grids of a whole and a partial last row block, and the hand-made
# grids, whose one-node-per-side case has a single row
ORACLE_GRIDS = tuple(build_graded(n_per_side, gamma)
                     for n_per_side in (16, 48, 128)
                     for gamma in (1.0, 2.4, 4.0)) + HAND_GRIDS
ORACLE_ALPHAS = (0.05, 0.25, 0.5 - 1e-7, 0.5, 0.5 + 1e-7, 0.75, 0.95)


@pytest.mark.parametrize("exterior", [Zero(), PowerTail(-0.4, 1.3)])
@pytest.mark.parametrize("grid", ORACLE_GRIDS,
                         ids=lambda g: f"{g.n_nodes}@{g.grading_exponent}")
def test_assemble_matches_the_row_by_row_oracle_bit_for_bit(grid, exterior):
    for alpha in ORACLE_ALPHAS:
        M = assemble(alpha, grid, exterior)
        W, corr = assemble_by_rows(alpha, grid, exterior)
        assert np.array_equal(M.rows, W), alpha
        assert np.array_equal(M.correction, corr), alpha


@pytest.mark.parametrize("block_rows", [1, 5, 10 ** 6])
@pytest.mark.parametrize("exterior", [Zero(), PowerTail(-0.4, 1.3)])
def test_assemble_matches_the_oracle_at_every_block_size(block_rows, exterior,
                                                        monkeypatch):
    # one-row blocks, partial blocks whose rows keep different piece
    # counts, and one block holding every right-half row: the near/far
    # split and the kept sums hold at every block boundary, to the byte
    monkeypatch.setattr(fracblow.operator, "_BLOCK_ROWS", block_rows)
    for grid in ORACLE_GRIDS:
        for alpha in (0.25, 0.5):
            M = assemble(alpha, grid, exterior)
            W, corr = assemble_by_rows(alpha, grid, exterior)
            assert M.rows.tobytes() == W.tobytes(), (grid.n_nodes, alpha)
            assert M.correction.tobytes() == corr.tobytes(), (grid.n_nodes,
                                                              alpha)


def test_assemble_keeps_its_scratch_small():
    # the block buffers stay a fixed multiple of one row block: at
    # n_per_side 512 they peak at about 2.8 MB beside the 4.19 MB of rows
    grid = build_graded(512, 2.4)
    assemble(0.5, grid, Zero())
    tracemalloc.start()
    try:
        M = assemble(0.5, grid, Zero())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= M.rows.nbytes + 4.5e6


@pytest.mark.parametrize("exterior", [Zero(), PowerTail(-0.4, 1.3)])
def test_assemble_raises_no_warning(exterior):
    # moments on the pieces the self panel empties stay inside assemble
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grid in ORACLE_GRIDS:
            for alpha in ORACLE_ALPHAS:
                assemble(alpha, grid, exterior)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_even_block_solves_the_full_system(alpha):
    # Jacobian-shaped system W_aa + diag(d) with an even positive d and an
    # even right-hand side: the even half solve on the even block,
    # mirrored, reproduces the full dense solve, on the whole grid and on
    # a mirror-symmetric active subset
    grid = build_graded(64, 2.4)
    M = assemble(alpha, grid, Zero())
    W = full_weights(M)
    rng = np.random.default_rng(11)
    for idx in (np.arange(grid.n_nodes),
                np.flatnonzero(distance_D(grid.nodes) > 1.0 / 64)):
        half = idx.size // 2
        d_right = rng.uniform(0.1, 10.0, size=half)
        rhs_right = rng.normal(size=half)
        full = W[np.ix_(idx, idx)] + np.diag(
            np.concatenate((d_right[::-1], d_right)))
        want = np.linalg.solve(full, np.concatenate((rhs_right[::-1],
                                                     rhs_right)))

        k = idx[half] - grid.n_nodes // 2
        block = even_block(M, k)
        assert block.shape == (half, half)
        x_right = np.linalg.solve(block + np.diag(d_right), rhs_right)
        got = np.concatenate((x_right[::-1], x_right))
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_even_block_holds_every_level_block_exactly(alpha):
    # every level's active set {D > 1/n} is a symmetric band around 0,
    # and its even block W_RR + W_RM, folded from the full mirrored
    # weights, is the even block of its first right-half node, bit for bit
    grid = build_graded(128, 2.4)
    M = assemble(alpha, grid, PowerTail(-0.4, 1.3))
    W, n = full_weights(M), grid.n_nodes
    assert np.array_equal(even_block(M), even_block(M, 0))
    level = 8
    while level <= 2 ** 20:
        idx = np.flatnonzero(distance_D(grid.nodes) > 1.0 / level)
        right = idx[idx.size // 2:]
        k = right[0] - n // 2
        want = W[np.ix_(right, right)] + W[np.ix_(right, n - 1 - right)]
        assert np.array_equal(even_block(M, k), want), level
        level *= 2


@pytest.mark.parametrize("alpha", [0.5 - 1e-9, 0.5 + 1e-9, 0.5 - 1e-13,
                                   0.5 + 1e-13, 0.5, 0.49, 0.25, 0.75])
@pytest.mark.parametrize("A,B", [(0.013, 0.4), (0.375, 0.375 + 2.0 ** -20)])
def test_kernel_moments_keep_their_digits(alpha, A, B):
    # J0 and J1 against a 40-point Gauss-Legendre sum in log s, where
    # the integrands s^(-2a) ds/s and s^(1-2a) ds/s are smooth
    # exponentials; the narrow piece (exactly representable ends) is the
    # case where the plain difference quotient cancels
    nodes, weights = np.polynomial.legendre.leggauss(40)
    half_width = 0.5 * math.log1p((B - A) / A)
    t = math.log(A) + half_width * (nodes + 1.0)
    J0, J1 = _kernel_moments(np.array([A]), np.array([B]), alpha)
    for got, e in ((J0[0], -2.0 * alpha), (J1[0], 1.0 - 2.0 * alpha)):
        ref = half_width * math.fsum(weights * np.exp(e * t))
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_off_diagonal_sign(alpha):
    # off-diagonal weights of the operator matrix are <= 0, so the
    # negated operator has the non-negative off-diagonals a discrete
    # maximum principle needs
    for grid in (build_graded(48, 2.4),) + HAND_GRIDS:
        W = full_weights(assemble(alpha, grid, Zero()))
        diag = np.diag(W).copy()
        np.fill_diagonal(W, 0.0)
        assert np.max(W) <= 0.0, grid.nodes
        assert np.min(diag) > 0.0, grid.nodes


def test_linearity_and_reflection():
    grid = build_graded(48, 2.0)
    M = assemble(0.6, grid, Zero())
    rng = np.random.default_rng(7)
    u = GridFunction(grid, rng.normal(size=grid.n_nodes))
    v = GridFunction(grid, rng.normal(size=grid.n_nodes))
    comb = GridFunction(grid, 2.5 * u.values - 1.25 * v.values)
    lhs = apply(M, comb)
    rhs = 2.5 * apply(M, u) - 1.25 * apply(M, v)
    scale = np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(scale, 1.0)

    mirrored = GridFunction(grid, u.values[::-1])
    assert np.max(np.abs(apply(M, mirrored) - apply(M, u)[::-1])) \
        <= 1e-12 * max(scale, 1.0)


# ---------------------------------------------------------------------------
# Power identity: the discrete operator reproduces the closed-form action
# on plain powers, with the kernel constant from the special-function
# module as the oracle.


def test_power_identity_spec_cell():
    # alpha=0.25, tau=-0.5 sits exactly at the vanishing kernel constant;
    # the identity then says the discrete output is small against the
    # local scale D^(tau-2a)
    grid = build_graded(256, 2.4)
    rel = identity_errors(grid, 0.25, -0.5)
    assert np.max(rel[resolved_mask(grid)]) <= 0.05


@pytest.mark.parametrize("alpha", BATTERY_ALPHAS)
@pytest.mark.parametrize("tau", BATTERY_TAUS)
def test_power_identity_battery(alpha, tau):
    grid = build_graded(256, 2.4)
    rel = identity_errors(grid, alpha, tau)
    assert np.max(rel[resolved_mask(grid)]) <= 0.05


def test_power_identity_improves_under_doubling():
    # max error over the window resolved on the coarse grid must drop
    # when the mesh doubles; the hardest battery cells are checked
    coarse = build_graded(128, 2.4)
    fine = build_graded(256, 2.4)
    for (alpha, tau) in ((0.25, -0.8), (0.5, -0.5), (0.75, -0.2)):
        ec = identity_errors(coarse, alpha, tau)
        ef = identity_errors(fine, alpha, tau)
        worst_c = np.max(ec[resolved_mask(coarse)])
        worst_f = np.max(ef[resolved_mask(fine, spacing_grid=coarse)])
        assert worst_f < worst_c, (alpha, tau, worst_c, worst_f)


# ---------------------------------------------------------------------------
# Exterior closed forms against adaptive quadrature.


def quad_exterior_moment(alpha, tau, x):
    """integral_1^inf z^tau (z-x)^(-1-2a) dz by scipy's adaptive
    quadrature in t = z - 1, split where the kernel factor
    (t + 1 - x)^(-1-2a) changes scale."""
    def g(t):
        return (1.0 + t) ** tau * (1.0 + t - x) ** (-1.0 - 2.0 * alpha)

    edges = sorted({0.0, 1.0 - x, 10.0 * (1.0 - x), 1.0}) + [np.inf]
    return math.fsum(integrate.quad(g, lo, hi, epsabs=0.0, epsrel=1e-13,
                                    limit=200)[0]
                     for lo, hi in zip(edges, edges[1:]))


@pytest.mark.parametrize("alpha,tau", [(0.25, -0.5), (0.5, -0.2),
                                       (0.5, -0.8), (0.75, -0.2)])
@pytest.mark.parametrize("x", [-0.999, -0.4, 0.0, 0.6, 0.999])
def test_power_tail_moment_matches_quad(alpha, tau, x):
    closed = power_tail_moment(alpha, tau, x)
    ref = quad_exterior_moment(alpha, tau, x)
    assert closed == pytest.approx(ref, rel=1e-10)


def test_power_tail_gap_identity():
    # gap + moment = kernel mass, and the tau=0 gap vanishes identically
    for alpha, tau, x in ((0.3, -0.6, 0.97), (0.5, -0.35, -0.5)):
        mass = (1.0 - x) ** (-2.0 * alpha) / (2.0 * alpha)
        total = power_tail_gap(alpha, tau, x) + power_tail_moment(alpha, tau, x)
        assert total == pytest.approx(mass, rel=1e-13)
    assert power_tail_gap(0.4, 0.0, 0.9) == 0.0


# The full grid of the gap's accuracy gate: across alpha = 1/2, where the
# hypergeometric connection formula has its logarithmic limit, and up to
# x = 1 - 1e-12 on both sides.
GAP_ALPHAS = (0.05, 0.25, 0.5 - 1e-6, 0.5 + 1e-6, 0.5 - 1e-9, 0.5 + 1e-9,
              0.5, 0.75, 0.95)
GAP_XS = tuple(s * v for v in (0.3, 0.6, 0.9, 0.999, 1 - 1e-6, 1 - 1e-9,
                               1 - 1e-12) for s in (1, -1))


def mp_power_tail_gap(alpha, tau, x):
    """(-tau / 2a) 2F1(2a, c; c+1; x) / c, c = 2a - tau, at 50 digits."""
    with mp.workdps(50):
        a, t, z = mp.mpf(alpha), mp.mpf(tau), mp.mpf(x)
        c = 2 * a - t
        return float(-t / (2 * a) * mp.hyp2f1(2 * a, c, c + 1, z) / c)


@pytest.mark.parametrize("alpha", GAP_ALPHAS)
def test_power_tail_gap_matches_mpmath(alpha):
    for tau in (-0.95, -0.5, -0.1):
        for x in GAP_XS:
            want = mp_power_tail_gap(alpha, tau, x)
            got = power_tail_gap(alpha, tau, x)
            assert abs(got - want) <= 1e-13 * abs(want), (tau, x, got, want)


def test_power_tail_gap_matches_mpmath_near_alpha_one():
    # a = 2*alpha -> 2 is the connection formula's second pole pair
    for alpha in (0.99, 0.999999):
        for tau in (-0.95, -0.1):
            for x in (0.51, 0.6, 0.9, 1 - 1e-9):
                want = mp_power_tail_gap(alpha, tau, x)
                got = power_tail_gap(alpha, tau, x)
                assert abs(got - want) <= 1e-13 * abs(want), (tau, x)


# Continuity in alpha across 1/2.  K is about twice the relative slope
# measured at delta = +-1e-4, where the library 2F1 was still accurate:
# 19.6 for the gap at these x, 21.7 for W and 22.1 for the correction of
# the PowerTail operator at n_per_side 64.
CONTINUITY_K = 45.0
HALF_OFFSETS = st.builds(lambda sign, e: sign * 10.0 ** e,
                         st.sampled_from((-1.0, 1.0)),
                         st.floats(min_value=-12.0, max_value=-6.0))
CORE_RATES = st.floats(min_value=-0.95, max_value=-0.1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(delta=HALF_OFFSETS, tau=CORE_RATES)
def test_power_tail_gap_continuous_across_one_half(delta, tau):
    for x in (0.9, 1 - 1e-6, 1 - 1e-9, -0.9, -(1 - 1e-6), -(1 - 1e-9)):
        at_half = power_tail_gap(0.5, tau, x)
        moved = power_tail_gap(0.5 + delta, tau, x)
        assert abs(moved - at_half) <= CONTINUITY_K * abs(delta) * abs(at_half)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(delta=HALF_OFFSETS, tau=CORE_RATES)
def test_power_tail_operator_continuous_across_one_half(delta, tau):
    grid = build_graded(64, 2.4)
    at_half = assemble(0.5, grid, PowerTail(tau))
    moved = assemble(0.5 + delta, grid, PowerTail(tau))
    bound = CONTINUITY_K * abs(delta)
    for old, new in ((at_half.rows, moved.rows),
                     (at_half.correction, moved.correction)):
        assert np.all(np.abs(new - old) <= bound * np.abs(old))


def test_exterior_band_mass_matches_quad():
    # the closed-form kernel mass of the exterior band |y| >= 1 (the
    # coefficient the zero extension puts on the diagonal) agrees with
    # the adaptive engine
    for alpha in (0.25, 0.5, 0.75):
        for xv in (-0.984375, -0.3, 0.0, 0.62, 0.9990234375):
            closed = ((1.0 - xv) ** (-2.0 * alpha)
                      + (1.0 + xv) ** (-2.0 * alpha)) / (2.0 * alpha)
            ref = (quad_exterior_moment(alpha, 0.0, xv)
                   + quad_exterior_moment(alpha, 0.0, -xv))
            assert closed == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------------------
# Validation and bookkeeping.


def test_assemble_validation():
    grid = build_graded(32, 2.0)
    with pytest.raises(BadConfig):
        assemble(0.0, grid, Zero())
    with pytest.raises(BadConfig):
        assemble(1.0, grid, Zero())
    with pytest.raises(BadConfig):
        assemble(0.5, "not a grid", Zero())
    with pytest.raises(BadConfig):
        assemble(0.5, grid, "not an exterior")
    with pytest.raises(BadConfig):
        # power tail must be dominated by the kernel decay
        assemble(0.25, grid, PowerTail(0.7))


def test_assemble_refuses_orders_without_headroom():
    # the diagonal grows like 1/alpha: below 2**-960 the operator applied
    # to the comparison data overflowed (apply warned at alpha = 1e-302,
    # n_per_side 512), and below about 5.6e-309 the kernel mass itself did
    grid = build_graded(512, 2.4)
    for alpha in (5e-324, 1e-302, 2.0 ** -961):
        with pytest.raises(BadConfig, match="below 2\\*\\*-960"):
            assemble(alpha, grid, Zero())
    M = assemble(2.0 ** -960, grid, Zero())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply(M, GridFunction(grid, distance_D(grid.nodes) ** -0.999))
    assert np.all(np.isfinite(out)) and np.max(np.abs(out)) < 2.0 ** 1000


def test_apply_grid_mismatch():
    grid = build_graded(32, 2.0)
    other = build_graded(32, 2.5)
    M = assemble(0.5, grid, Zero())
    with pytest.raises(GridMismatch):
        apply(M, GridFunction(other, np.zeros(other.n_nodes)))


def test_operator_matrix_fields():
    grid = build_graded(16, 1.0)
    M = assemble(0.3, grid, Zero())
    assert isinstance(M, OperatorMatrix)
    assert M.alpha == 0.3
    assert M.grid.same_as(grid)
    # one weight array: the right-half rows, and their correction
    assert [f.name for f in dataclasses.fields(M)] == [
        "alpha", "grid", "rows", "correction", "exterior"]
    assert M.rows.shape == (grid.n_nodes // 2, grid.n_nodes)
    assert M.correction.shape == (grid.n_nodes // 2,)
    assert M.exterior == Zero()


@pytest.mark.parametrize("n_per_side", [128, 512])
@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_weights_are_a_z_matrix_with_positive_row_sums(alpha, n_per_side):
    # the certificate behind the one-level solve: a Z-matrix with positive
    # row sums plus the monotone absorption makes u -> W u + |u|^(p-1) u
    # an M-function, so each level's system has exactly one solution;
    # checked on the stored rows, whose diagonal sits h columns right, and
    # on the even block of every level
    grid = build_graded(n_per_side, 2.4)
    M = assemble(alpha, grid, Zero())
    h = grid.n_nodes // 2
    D_right = distance_D(grid.nodes)[h:]
    blocks = [(M.rows, h)]
    level = 8
    while level <= 2 ** 20:
        k = int(np.count_nonzero(D_right <= 1.0 / level))
        blocks.append((even_block(M, k), 0))
        level *= 2
    for block, offset in blocks:
        diag = np.diag(np.diagonal(block, offset), offset)[:block.shape[0]]
        assert np.max(block - diag) <= 0.0, block.shape
        assert np.min(block.sum(axis=1)) > 0.0, block.shape


def test_assemble_refuses_an_overflowing_exterior_correction():
    # finite but huge exterior data overflow the correction to -inf; the
    # refusal is the BadConfig, with no numpy warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadConfig,
                           match="overflows the exterior correction"):
            assemble(0.5, build_graded(16, 2.4), PowerTail(-0.4, 1e308))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_power_tail_assembly_shares_one_gamma_quotient(alpha, monkeypatch):
    # the z-independent quotient of the 2F1 connection formula is computed
    # once per power-tail assembly, and the matrix is bit for bit the one
    # computed with the quotient evaluated afresh on every row
    grid = build_graded(64, 2.4)
    exterior = PowerTail(-0.4, 1.3)
    cached = fracblow.specfun._gamma_quotient_m1
    cached.cache_clear()
    M = assemble(alpha, grid, exterior)
    assert cached.cache_info().misses == 1 and cached.cache_info().hits > 0
    monkeypatch.setattr(fracblow.specfun, "_gamma_quotient_m1",
                        cached.__wrapped__)
    fresh = assemble(alpha, grid, exterior)
    assert np.array_equal(M.rows, fresh.rows)
    assert np.array_equal(M.correction, fresh.correction)
