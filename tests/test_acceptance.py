"""Acceptance suite: one test per criterion, each enforcing its stated
tolerances and runtime budget.  Run with -v for one pass/fail line per
criterion."""

import json
import math
import time

import numpy as np

import oracles
from fracblow.analysis import audit_nonexistence, check_band, fit_rate
from fracblow.cli import EXIT_OK, main
from fracblow.mesh import GridFunction, build_graded, distance_D, distance_d
from fracblow.operator import apply, assemble, power_tail_gap
from fracblow.profiles import comparison_arrays, solve_torsion
from fracblow.solver import ProblemSpec, default_sub_super, solve_blowup
from fracblow.specfun import (
    C_tau,
    T_alpha,
    c_tau,
    existence_window,
    find_alpha0,
    find_tau0,
    find_tau1,
)

# Oracle zero of the kernel-derivative integral T, located by the
# independent reference integrator in oracles.py (|T_ref(1/2)| < 5e-13,
# with sign change across it).
ORACLE_ALPHA0 = 0.5

NINE_ALPHAS = [round(0.1 * k, 10) for k in range(1, 10)]
NINE_TAUS = [round(-0.1 * k, 10) for k in range(1, 10)]


def test_criterion_1_kernel_constant_identities():
    start = time.monotonic()
    for alpha in NINE_ALPHAS:
        assert abs(c_tau(alpha, 0.0)) <= 1e-10
    for alpha in NINE_ALPHAS:
        for tau in NINE_TAUS:
            gap = c_tau(alpha, tau) - C_tau(alpha, tau)
            ref = oracles.reference_improper(**oracles.one_sided_gap(alpha, tau))[0]
            assert abs(gap - ref) <= 1e-8 * abs(ref), (alpha, tau)
    assert time.monotonic() - start < 10.0


def test_criterion_2_convexity_and_sign_structure():
    start = time.monotonic()
    # offset tau grid (step 0.02) so no cell sits exactly on a zero of c
    taus = [round(-0.97 + 0.02 * k, 10) for k in range(48)]
    for alpha in NINE_ALPHAS:
        vals = np.array([c_tau(alpha, t) for t in taus])
        second = vals[:-2] + vals[2:] - 2.0 * vals[1:-1]
        assert np.all(second > 0.0), alpha
        if alpha < ORACLE_ALPHA0:
            assert np.min(np.abs(vals)) > 1e-12  # grid avoids the zero itself
            flips = int(np.sum(np.sign(vals[1:]) != np.sign(vals[:-1])))
            assert flips == 1, (alpha, flips)
    t_vals = [T_alpha(round(0.05 * k, 10)) for k in range(1, 20)]
    assert all(a > b for a, b in zip(t_vals, t_vals[1:]))
    assert time.monotonic() - start < 30.0


def test_criterion_3_critical_exponents():
    start = time.monotonic()
    alpha0 = find_alpha0()
    assert abs(alpha0 - ORACLE_ALPHA0) <= 1e-6
    for alpha in (0.1, 0.2, alpha0 - 0.05):
        assert find_tau0(alpha) < find_tau1(alpha)
    assert find_tau1(alpha0 - 0.01) > -0.2
    assert find_tau1(0.05) < -0.8
    assert time.monotonic() - start < 60.0


def _identity_errors(grid, alpha, tau):
    # error of the discrete power identity, normalized by the local scale
    # so it stays defined where the kernel constant vanishes: the operator
    # of w = |x|**tau - 1, which vanishes outside (-1,1), against the
    # power's value -c(tau)|x|**(tau-2a) less its exterior g(x) + g(-x)
    x = grid.nodes
    matrix = assemble(alpha, grid)
    w = GridFunction(grid, np.abs(x) ** tau - 1.0)
    power = -c_tau(alpha, tau) * np.abs(x) ** (tau - 2.0 * alpha)
    gaps = np.array([power_tail_gap(alpha, tau, xv)
                     + power_tail_gap(alpha, tau, -xv) for xv in x.tolist()])
    denom = np.maximum(np.abs(power), distance_D(x) ** (tau - 2.0 * alpha))
    return np.abs(apply(matrix, w) - (power - gaps)) / denom


def _resolved_mask(grid, spacing_grid=None, multiple=20.0):
    ref = grid if spacing_grid is None else spacing_grid
    xr = ref.nodes[ref.nodes > 0]
    hr = ref.local_spacing()[ref.nodes > 0]
    order = np.argsort(xr)
    spacing = np.interp(np.abs(grid.nodes), xr[order], hr[order])
    return distance_D(grid.nodes) >= multiple * spacing


def test_criterion_4_operator_fidelity():
    start = time.monotonic()
    for alpha in (0.25, 0.5, 0.75):
        for tau in (-0.2, -0.5, -0.8):
            grid = build_graded(256, 2.4)
            rel = _identity_errors(grid, alpha, tau)
            assert np.max(rel[_resolved_mask(grid)]) <= 0.05, (alpha, tau)
    # refinement improves the error over the window the coarse grid resolves
    coarse, fine = build_graded(128, 2.4), build_graded(256, 2.4)
    for alpha, tau in ((0.25, -0.8), (0.5, -0.5), (0.75, -0.2)):
        worst_coarse = np.max(_identity_errors(coarse, alpha, tau)[_resolved_mask(coarse)])
        worst_fine = np.max(
            _identity_errors(fine, alpha, tau)[_resolved_mask(fine, spacing_grid=coarse)])
        assert worst_fine < worst_coarse, (alpha, tau)
    # torsion residual: discrete solve is exact, closed-form samples
    # reproduce the unit right-hand side away from the boundary
    for alpha in (0.25, 0.5, 0.75):
        grid = build_graded(256, 2.4)
        matrix = assemble(alpha, grid)
        away = distance_d(grid.nodes) >= 0.1
        solved = solve_torsion(matrix)
        assert np.max(np.abs(apply(matrix, solved) - 1.0)[away]) <= 1e-6
        x = grid.nodes
        closed = GridFunction(
            grid, math.sin(math.pi * alpha) / math.pi * (1.0 - x * x) ** alpha)
        assert np.max(np.abs(apply(matrix, closed) - 1.0)[away]) <= 0.02, alpha
    assert time.monotonic() - start < 120.0


def test_criterion_5_comparison_bands():
    start = time.monotonic()
    alpha = 0.25
    tau1 = find_tau1(alpha)  # -0.5
    growth_constants = {}
    for n in (512, 1024):
        grid = build_graded(n, 2.4)
        matrix = assemble(alpha, grid)
        window = (1e-6, grid.delta / 4.0)

        def band_of(tau):
            applied = comparison_arrays(matrix, tau)[1]
            return check_band(GridFunction(grid, -applied),
                              tau - 2.0 * alpha, window)

        steep = band_of(-0.8)        # below tau1: operator output negative
        assert steep.min_ratio > 0.0
        assert steep.max_ratio / steep.min_ratio <= 10.0
        assert steep.sign_flips == 0

        shallow = band_of(-0.3)      # inside (tau1, 0): sign reverses
        assert shallow.max_ratio < 0.0
        assert shallow.sign_flips == 0

        applied = comparison_arrays(matrix, tau1)[1]
        D = distance_D(grid.nodes)
        mask = (D >= 20.0 * grid.local_spacing()) & (D <= grid.delta / 4.0)
        exponent = min(tau1, 2.0 * tau1 - 2.0 * alpha + 1.0)
        growth_constants[n] = float(
            np.max(np.abs(applied[mask]) / D[mask] ** exponent))
        assert growth_constants[n] <= 3.0
    assert abs(growth_constants[1024] / growth_constants[512] - 1.0) <= 0.25
    assert time.monotonic() - start < 120.0


def test_criterion_6_end_to_end_blowup_solve():
    start = time.monotonic()
    for alpha in (0.5, 0.25):
        p_lo, p_hi = existence_window(alpha)
        p = p_lo + 1.0 if math.isinf(p_hi) else 0.5 * (p_lo + p_hi)
        grid = build_graded(512, 2.4)
        matrix = assemble(alpha, grid)
        sub, sup = default_sub_super(matrix, p)
        spec = ProblemSpec(matrix=matrix, p=p, sub=sub, super=sup)
        report = solve_blowup(spec, 2 ** 20)
        assert report.ordering_ok, alpha
        assert report.monotone_ok, alpha
        assert report.converged, alpha
        fit = fit_rate(report.final, (0.02, 0.1))
        target = -2.0 * alpha / (p - 1.0)
        assert abs(fit.exponent - target) <= 0.05, (alpha, fit.exponent, target)
        halved = fit_rate(report.final, (0.01, 0.05))
        assert abs(halved.exponent - fit.exponent) <= 0.02, alpha
    assert time.monotonic() - start < 300.0


def test_criterion_7_nonexistence_zone_audits():
    start = time.monotonic()
    grid = build_graded(512, 2.4)
    zones = {}
    for alpha, p, tau in ((0.25, 1.3, -0.3), (0.6, 3.0, -0.4), (0.6, 3.0, -0.8)):
        audit = audit_nonexistence(assemble(alpha, grid), p, tau)
        assert audit.passed, (alpha, p, tau)
        zones[audit.zone] = audit
    assert sorted(zones) == [1, 2, 3]
    assert all(m > 0.0 for m in zones[1].worst_margins)   # super residuals
    assert all(m < 0.0 for m in zones[2].worst_margins)   # sub residuals
    assert all(m > 0.0 for m in zones[3].worst_margins)   # super residuals
    assert time.monotonic() - start < 180.0


def test_criterion_8_cli_determinism(tmp_path, capsys):
    def run_twice(args, *outputs):
        first = [tmp_path / f"a_{name}" for name in outputs]
        second = [tmp_path / f"b_{name}" for name in outputs]
        for prefix, paths in (("a", first), ("b", second)):
            out = str(tmp_path / f"{prefix}_{outputs[0]}")
            if outputs[0].endswith("run"):   # solve writes PREFIX.*
                out = str(tmp_path / f"{prefix}_run")
            assert main(args + ["--out", out]) == EXIT_OK
        for one, two in zip(first, second):
            names = (str(one), str(two))
            if one.name.endswith("run"):
                for suffix in (".report.json", ".profile.csv"):
                    a = (tmp_path / (one.name + suffix)).read_bytes()
                    b = (tmp_path / (two.name + suffix)).read_bytes()
                    assert a == b, names
            else:
                assert one.read_bytes() == two.read_bytes(), names

    run_twice(["specfun", "--alpha", "0.3:0.5", "--tau=-0.5:-0.1",
               "--step", "0.2", "--no-timestamp"], "sweep.csv")
    run_twice(["critical", "--alpha", "0.3", "--no-timestamp"], "crit.json")
    run_twice(["solve", "--alpha", "0.5", "--p", "3", "--n-per-side", "128",
               "--grading", "2.4", "--schedule", "8:256", "--no-timestamp"],
              "run")
    run_twice(["audit", "--alpha", "0.6", "--p", "3", "--tau=-0.4",
               "--n-per-side", "256", "--no-timestamp"], "audit.json")

    assert main(["classify", "--alpha", "0.5", "--p", "3"]) == EXIT_OK
    text_one = capsys.readouterr().out
    assert main(["classify", "--alpha", "0.5", "--p", "3"]) == EXIT_OK
    assert capsys.readouterr().out == text_one != ""

    payload = json.loads((tmp_path / "a_crit.json").read_text())
    assert "timestamp" not in payload
