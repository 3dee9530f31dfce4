"""Tests for the dense collocation discretization of the fractional
Laplacian: the difference form on constants, mirror symmetry, linearity,
the power-function identity against the kernel-constant oracle, and the
closed-form exterior moments of a power."""

import dataclasses
import functools
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
from fracblow.errors import BadConfig, GridMismatch
from fracblow.mesh import Grid, GridFunction, build_graded, distance_D
from fracblow.operator import (OperatorMatrix, _kernel_moments, apply,
                               assemble, power_tail_gap)
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

    The fractional Laplacian of |x|^tau is -c(tau)*|x|^(tau-2a).  The
    scheme applies to w = |x|^tau - 1, which vanishes outside (-1,1), so
    it should reproduce that value less the exterior of the power,
    g(x) + g(-x) with g = ``power_tail_gap``.  The error is normalized by
    max(|power value|, D^(tau-2a)): the plain relative error is undefined
    at parameters where the kernel constant vanishes (it does at
    alpha=0.25, tau=-0.5), and D^(tau-2a) is the natural local scale of
    the identity.
    """
    x = grid.nodes
    M = assemble(alpha, grid)
    w = GridFunction(grid, np.abs(x) ** tau - 1.0)
    out = apply(M, w)
    power = -c_tau(alpha, tau) * np.abs(x) ** (tau - 2.0 * alpha)
    gaps = np.array([power_tail_gap(alpha, tau, xv)
                     + power_tail_gap(alpha, tau, -xv) for xv in x.tolist()])
    denom = np.maximum(np.abs(power), distance_D(x) ** (tau - 2.0 * alpha))
    return np.abs(out - (power - gaps)) / denom


def full_weights(alpha, grid):
    """The full n x n weights, the oracle's right-half rows below their
    mirror image: the row of node h - 1 - j is row h + j reversed."""
    W, _ = assemble_by_rows(alpha, grid)
    return np.vstack((W[::-1, ::-1], W))


@functools.lru_cache(maxsize=None)
def oracle_fold(alpha, grid):
    """The oracle's right-half rows folded in the test, W_RR + W_RM: the
    operator on even vectors read on the right-half nodes."""
    W, _ = assemble_by_rows(alpha, grid)
    h = grid.n_nodes // 2
    return W[:, h:] + W[:, :h][:, ::-1]


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
# Row property: the difference form annihilates constants.


def constant_residual(alpha, grid, c):
    """The operator of the constant c less c * (mass - b) at every node,
    with mass the closed-form kernel mass of the exterior |y| >= 1 and b
    the oracle's boundary slot: the weight, negated, that the outer
    bridges and the self panel put on the boundary value 0.

    Every piece is weighted in difference form, so a row and its boundary
    slot sum to the mass, and this residual is 0 up to dot-product
    rounding.  Without the slot the rows sum to more than the mass (6.5
    times it at the outermost node of a uniform grid, alpha = 0.75)."""
    _, boundary = assemble_by_rows(alpha, grid)
    twoa = 2.0 * alpha
    mass = np.array([((1.0 - xi) ** (-twoa) + (1.0 + xi) ** (-twoa)) / twoa
                     for xi in grid.nodes[grid.n_nodes // 2:].tolist()])
    rest = boundary * c - c * mass
    out = apply(assemble(alpha, grid),
                GridFunction(grid, np.full(grid.n_nodes, c)))
    return out + np.concatenate((rest[::-1], rest))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_constant_annihilation_uniform(alpha):
    for grid in (build_graded(64, 1.0),) + HAND_GRIDS:
        assert np.max(np.abs(constant_residual(alpha, grid, 3.7))) <= 1e-10, \
            grid.nodes


@pytest.mark.parametrize("alpha,gamma", [(0.25, 2.4), (0.5, 2.0)])
def test_constant_annihilation_graded(alpha, gamma):
    # strong grading at high alpha pushes the innermost row scale past
    # what float64 can cancel in a dense contraction, so each order is
    # paired with a grading whose row scale keeps rounding below the bar
    grid = build_graded(64, gamma)
    assert np.max(np.abs(constant_residual(alpha, grid, -1.25))) <= 1e-10


def test_zero_function_zero_exterior_is_zero():
    grid = build_graded(32, 2.0)
    M = assemble(0.4, grid)
    u = GridFunction(grid, np.zeros(grid.n_nodes))
    assert np.max(np.abs(apply(M, u))) == 0.0


# ---------------------------------------------------------------------------
# Structural invariants of the weights.


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
def test_weight_mirror_symmetry(alpha):
    # the left half of the operator is the reflection of the right half,
    # so on an even function the fold does the work of the full weights:
    # the result is exactly even and is the full product up to rounding
    rng = np.random.default_rng(3)
    for grid in (build_graded(48, 2.0),) + HAND_GRIDS:
        W = full_weights(alpha, grid)
        half = rng.normal(size=grid.n_nodes // 2)
        u = np.concatenate((half[::-1], half))
        out = apply(assemble(alpha, grid), GridFunction(grid, u))
        assert np.array_equal(out, out[::-1]), grid.nodes
        scale = np.abs(W) @ np.abs(u)
        assert np.all(np.abs(out - W @ u) <= 1e-13 * scale), grid.nodes


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_apply_maps_an_even_function_to_an_exactly_even_one(alpha):
    # both halves of the result are the same row sums in the same order
    grid = build_graded(512, 2.4)
    u = np.abs(grid.nodes) ** -0.5
    assert np.array_equal(u, u[::-1])
    out = apply(assemble(alpha, grid), GridFunction(grid, u))
    assert np.array_equal(out, out[::-1])


def test_apply_takes_one_product_for_an_even_operand():
    # both halves of the result come from one product, the fold times
    # the operand's right half, mirrored
    grid = build_graded(64, 2.4)
    M = assemble(0.6, grid)
    h = grid.n_nodes // 2
    even = np.abs(grid.nodes) ** -0.5
    half = M.fold @ even[h:]
    want = np.concatenate((half[::-1], half))
    assert apply(M, GridFunction(grid, even)).tobytes() == want.tobytes()
    fold = M.fold
    products = []

    class Counting(np.ndarray):
        def __matmul__(self, other):
            products.append(other)
            return fold @ other

    M = dataclasses.replace(M, fold=fold.view(Counting))
    apply(M, GridFunction(grid, even))
    assert len(products) == 1


def test_apply_refuses_an_operand_that_is_not_even():
    # even means equal to its reversal by value: a -0.0 mirrored by +0.0
    # is even, an odd function or one node off its mirror is not
    grid = build_graded(64, 2.4)
    M = assemble(0.6, grid)
    signed_zero = np.zeros(grid.n_nodes)
    signed_zero[0] = -0.0
    assert np.array_equal(apply(M, GridFunction(grid, signed_zero)),
                          np.zeros(grid.n_nodes))
    nudged = np.abs(grid.nodes) ** -0.5
    nudged[3] = np.nextafter(nudged[3], np.inf)
    for u in (grid.nodes, nudged):
        with pytest.raises(BadConfig, match="even grid functions only"):
            apply(M, GridFunction(grid, u))


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
    assemble(0.4, grid)
    nodes = np.concatenate(nodes)
    assert nodes.size == 64
    assert np.all(nodes > 0.0)
    np.testing.assert_allclose(nodes, grid.nodes[64:], rtol=0, atol=1e-15)


def assemble_by_rows(alpha, grid):
    """Reference oracle: the right-half rows evaluated one row at a time,
    each piece weight added into its slot by np.add.at, and each row's
    weight on the boundary value 0 (slot n), which ``assemble`` drops.
    ``assemble``'s fold must give the bits of these rows folded."""
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
    W = np.zeros((n - h, n))
    boundary = np.zeros(n - h)
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
        boundary[i - h] = row[n]
        row[i] += diag
        W[i - h] = row[:n]
    return W, boundary


# graded grids of a whole and a partial last row block, and the hand-made
# grids, whose one-node-per-side case has a single row
ORACLE_GRIDS = tuple(build_graded(n_per_side, gamma)
                     for n_per_side in (16, 48, 128)
                     for gamma in (1.0, 2.4, 4.0)) + HAND_GRIDS
ORACLE_ALPHAS = (0.05, 0.25, 0.5 - 1e-7, 0.5, 0.5 + 1e-7, 0.75, 0.95)


@pytest.mark.parametrize("grid", ORACLE_GRIDS,
                         ids=lambda g: f"{g.n_nodes}@{g.grading_exponent}")
def test_assemble_matches_the_row_by_row_oracle_bit_for_bit(grid):
    for alpha in ORACLE_ALPHAS:
        M = assemble(alpha, grid)
        assert np.array_equal(M.fold, oracle_fold(alpha, grid)), alpha


@pytest.mark.parametrize("block_rows", [1, 5, 32, 10 ** 6])
def test_assemble_matches_the_oracle_at_every_block_size(block_rows,
                                                        monkeypatch):
    # one-row blocks, partial blocks whose rows keep different piece
    # counts, the default size, and one block holding every right-half
    # row: the near/far split, the kept sums and the fold of each block
    # hold at every block boundary, to the byte
    monkeypatch.setattr(fracblow.operator, "_BLOCK_ROWS", block_rows)
    for grid in ORACLE_GRIDS:
        for alpha in (0.05, 0.25, 0.5, 0.75):
            M = assemble(alpha, grid)
            want = oracle_fold(alpha, grid)
            assert M.fold.tobytes() == want.tobytes(), (grid.n_nodes, alpha)


@pytest.mark.parametrize("block_rows", [1, 5, 32, 10 ** 6])
def test_every_block_size_gives_the_one_block_fold_byte_for_byte(
        block_rows, monkeypatch):
    # the block-by-block fold against the fold of every right-half row
    # held at once, one block of all rows: the block size changes no byte
    # at any oracle alpha
    monkeypatch.setattr(fracblow.operator, "_BLOCK_ROWS", 10 ** 6)
    want = [[assemble(a, g).fold for a in ORACLE_ALPHAS]
            for g in ORACLE_GRIDS]
    monkeypatch.setattr(fracblow.operator, "_BLOCK_ROWS", block_rows)
    for grid, folds in zip(ORACLE_GRIDS, want):
        for alpha, fold in zip(ORACLE_ALPHAS, folds):
            got = assemble(alpha, grid).fold
            assert got.tobytes() == fold.tobytes(), (grid.n_nodes, alpha)


def test_assemble_never_holds_the_rows(monkeypatch):
    # at n_per_side 512 the 4.19 MB of right-half rows plus the 2.10 MB
    # fold bound the peak of the block-by-block fold, and one block of all
    # rows, which holds them before folding, exceeds that bound
    grid = build_graded(512, 1.0)
    bound = 8 * (512 * 1024 + 512 * 512)
    peaks = {}
    for block_rows in (32, 10 ** 6):
        monkeypatch.setattr(fracblow.operator, "_BLOCK_ROWS", block_rows)
        assemble(0.25, grid)
        tracemalloc.start()
        try:
            assemble(0.25, grid)
            peaks[block_rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[32] < bound
    assert peaks[10 ** 6] > bound


def test_assemble_keeps_its_scratch_small():
    # each row block is folded as it is produced, so the n/2 x n rows are
    # never held: at n_per_side 512 the peak stays below the 4.19 MB of
    # rows plus the 2.10 MB fold that folding stored rows would hold, and
    # the block buffers beside the fold stay a fixed multiple of one block
    grid = build_graded(512, 2.4)
    assemble(0.5, grid)
    tracemalloc.start()
    try:
        M = assemble(0.5, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (512 * 1024 + 512 * 512)
    assert peak < M.fold.nbytes + 4.5e6


def test_assemble_raises_no_warning():
    # moments on the pieces the self panel empties stay inside assemble
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grid in ORACLE_GRIDS:
            for alpha in ORACLE_ALPHAS:
                assemble(alpha, grid)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_a_trailing_fold_block_solves_the_full_system(alpha):
    # Jacobian-shaped system W_aa + diag(d) with an even positive d and an
    # even right-hand side: the even half solve on the trailing fold block,
    # mirrored, reproduces the full dense solve, on the whole grid and on
    # a mirror-symmetric active subset
    grid = build_graded(64, 2.4)
    M = assemble(alpha, grid)
    W = full_weights(alpha, grid)
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
        block = M.fold[k:, k:]
        assert block.shape == (half, half)
        x_right = np.linalg.solve(block + np.diag(d_right), rhs_right)
        got = np.concatenate((x_right[::-1], x_right))
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 0.9])
def test_the_fold_holds_every_level_block_exactly(alpha):
    # every level's active set {D > 1/n} is a symmetric band around 0,
    # and its even block W_RR + W_RM, folded from the full mirrored
    # weights, is the trailing block fold[k:, k:] of its first right-half
    # node h + k, bit for bit; so is the band block folded from the
    # right-half rows W[h:] of those weights, reversed left part added
    grid = build_graded(128, 2.4)
    M = assemble(alpha, grid)
    W, n = full_weights(alpha, grid), grid.n_nodes
    h = n // 2
    level = 8
    while level <= 2 ** 20:
        idx = np.flatnonzero(distance_D(grid.nodes) > 1.0 / level)
        right = idx[idx.size // 2:]
        k = right[0] - h
        want = W[np.ix_(right, right)] + W[np.ix_(right, n - 1 - right)]
        assert np.array_equal(M.fold[k:, k:], want), level
        level *= 2
    rows = W[h:]
    for k in (0, 1, 3, 17):
        want = rows[k:, h + k:] + rows[k:, :h - k][:, ::-1]
        assert M.fold[k:, k:].tobytes() == want.tobytes(), k


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
    # maximum principle needs; so has the fold, a sum of two of them off
    # its diagonal
    for grid in (build_graded(48, 2.4),) + HAND_GRIDS:
        for W in (full_weights(alpha, grid), assemble(alpha, grid).fold.copy()):
            diag = np.diag(W).copy()
            np.fill_diagonal(W, 0.0)
            assert np.max(W) <= 0.0, grid.nodes
            assert np.min(diag) > 0.0, grid.nodes


def test_linearity_and_reflection():
    # linear on even functions, each mapped to its own reflection
    grid = build_graded(48, 2.0)
    M = assemble(0.6, grid)
    rng = np.random.default_rng(7)
    u, v = (GridFunction(grid, np.concatenate((half[::-1], half)))
            for half in rng.normal(size=(2, grid.n_nodes // 2)))
    comb = GridFunction(grid, 2.5 * u.values - 1.25 * v.values)
    lhs = apply(M, comb)
    rhs = 2.5 * apply(M, u) - 1.25 * apply(M, v)
    scale = np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(scale, 1.0)
    assert np.array_equal(lhs, lhs[::-1])


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


def tail_moment(alpha, tau, x):
    """integral_1^inf z^tau (z-x)^(-1-2a) dz in closed form: the kernel
    mass of the right exterior less the gap."""
    return (1.0 - x) ** (-2.0 * alpha) / (2.0 * alpha) - power_tail_gap(
        alpha, tau, x)


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
    closed = tail_moment(alpha, tau, x)
    ref = quad_exterior_moment(alpha, tau, x)
    assert closed == pytest.approx(ref, rel=1e-10)


def test_power_tail_gap_identity():
    # gap + moment = kernel mass, the moment by adaptive quadrature, and
    # the tau=0 gap vanishes identically
    for alpha, tau, x in ((0.3, -0.6, 0.97), (0.5, -0.35, -0.5)):
        mass = (1.0 - x) ** (-2.0 * alpha) / (2.0 * alpha)
        total = power_tail_gap(alpha, tau, x) + quad_exterior_moment(alpha,
                                                                     tau, x)
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
# 19.6 for the gap at these x and 21.7 for the weights W at n_per_side 64.
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
@given(delta=HALF_OFFSETS)
def test_operator_continuous_across_one_half(delta):
    # the weights of the operator the power identity applies
    grid = build_graded(64, 2.4)
    at_half = assemble(0.5, grid).fold
    moved = assemble(0.5 + delta, grid).fold
    bound = CONTINUITY_K * abs(delta)
    assert np.all(np.abs(moved - at_half) <= bound * np.abs(at_half))


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
    for alpha, bad in ((0.0, grid), (1.0, grid), (0.5, "not a grid"),
                       (2.0 ** -961, grid)):
        with pytest.raises(BadConfig):
            assemble(alpha, bad)


def test_assemble_refuses_orders_without_headroom():
    # the diagonal grows like 1/alpha: below 2**-960 the operator applied
    # to the comparison data overflowed (apply warned at alpha = 1e-302,
    # n_per_side 512), and below about 5.6e-309 the kernel mass itself did
    grid = build_graded(512, 2.4)
    for alpha in (5e-324, 1e-302, 2.0 ** -961):
        with pytest.raises(BadConfig, match="below 2\\*\\*-960"):
            assemble(alpha, grid)
    M = assemble(2.0 ** -960, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply(M, GridFunction(grid, distance_D(grid.nodes) ** -0.999))
    assert np.all(np.isfinite(out)) and np.max(np.abs(out)) < 2.0 ** 1000


def test_apply_grid_mismatch():
    grid = build_graded(32, 2.0)
    other = build_graded(32, 2.5)
    M = assemble(0.5, grid)
    with pytest.raises(GridMismatch):
        apply(M, GridFunction(other, np.zeros(other.n_nodes)))


def test_operator_matrix_fields():
    grid = build_graded(16, 1.0)
    M = assemble(0.3, grid)
    assert isinstance(M, OperatorMatrix)
    assert M.alpha == 0.3
    assert M.grid.same_as(grid)
    # one weight array: the even fold
    assert [f.name for f in dataclasses.fields(M)] == ["alpha", "grid", "fold"]
    assert M.fold.shape == (grid.n_nodes // 2, grid.n_nodes // 2)


@pytest.mark.parametrize("n_per_side", [128, 512])
@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_weights_are_a_z_matrix_with_positive_row_sums(alpha, n_per_side):
    # the certificate behind the one-level solve: a Z-matrix with positive
    # row sums plus the monotone absorption makes u -> W u + |u|^(p-1) u
    # an M-function, so each level's system has exactly one solution;
    # checked on the oracle's right-half rows, whose diagonal sits h
    # columns right, and on the band block fold[k:, k:] of every level,
    # the W_band of the forward-error bound
    grid = build_graded(n_per_side, 2.4)
    M = assemble(alpha, grid)
    h = grid.n_nodes // 2
    D_right = distance_D(grid.nodes)[h:]
    blocks = [(assemble_by_rows(alpha, grid)[0], h), (M.fold, 0)]
    level = 8
    while level <= 2 ** 20:
        k = int(np.count_nonzero(D_right <= 1.0 / level))
        blocks.append((M.fold[k:, k:], 0))
        level *= 2
    for block, offset in blocks:
        diag = np.diag(np.diagonal(block, offset), offset)[:block.shape[0]]
        assert np.max(block - diag) <= 0.0, block.shape
        assert np.min(block.sum(axis=1)) > 0.0, block.shape
