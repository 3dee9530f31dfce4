"""Tests for rate fitting and nonexistence-zone audits."""

import json

import numpy as np
import pytest

import fracblow.analysis
import fracblow.specfun
from fracblow.analysis import RateFit, ZoneAudit, audit_nonexistence, fit_rate
from fracblow.errors import AuditFail, BadConfig, RegimeError, TooFewPoints
from fracblow.mesh import GridFunction, build_graded, distance_D
from fracblow.operator import apply, assemble
from fracblow.profiles import (MAX_DOUBLINGS, comparison_profile,
                               comparison_residual, core_mask,
                               power_of_two_bracket, resolved_mask,
                               solve_torsion)

GRID = build_graded(512, 2.4)
D = distance_D(GRID.nodes)


def _power_sample(amplitude, exponent, grid=GRID):
    dist = distance_D(grid.nodes)
    return GridFunction(grid, amplitude * dist ** exponent)


# ---------------------------------------------------------------------------
# fit_rate


def test_fit_rate_exact_power_is_exact():
    u = _power_sample(3.7, -0.43)
    fit = fit_rate(u, (0.01, 0.2))
    assert abs(fit.exponent - (-0.43)) <= 1e-10
    assert abs(fit.amplitude - 3.7) <= 1e-9
    assert fit.residual_r2 == 1.0
    assert fit.n_nodes >= 8


def test_fit_rate_exact_power_independent_of_grading():
    for grading in (1.0, 2.0, 3.5):
        grid = build_graded(128, grading)
        u = _power_sample(0.9, -0.6, grid)
        fit = fit_rate(u, (0.05, 0.2))
        assert abs(fit.exponent - (-0.6)) <= 1e-10
        assert abs(fit.amplitude - 0.9) <= 1e-10


def test_fit_rate_perturbed_power_stays_close():
    rng = np.random.default_rng(7)
    noise = 1.0 + 0.01 * rng.standard_normal(D.size)
    u = GridFunction(GRID, 2.0 * D ** -0.5 * noise)
    fit = fit_rate(u, (0.01, 0.2))
    assert abs(fit.exponent - (-0.5)) <= 0.01
    assert 0.9 < fit.residual_r2 <= 1.0


def test_fit_rate_rejects_bad_windows():
    u = _power_sample(1.0, -0.5)
    for window in [(0.0, 0.1), (-0.01, 0.1), (0.1, 0.05), (0.1, 0.3), (0.1, 0.25)]:
        with pytest.raises(BadConfig):
            fit_rate(u, window)


def test_fit_rate_rejects_nonpositive_values():
    vals = D ** -0.5
    vals[GRID.nodes > 0.05] *= -1.0
    u = GridFunction(GRID, vals)
    with pytest.raises(BadConfig):
        fit_rate(u, (0.01, 0.2))


def test_fit_rate_too_few_points():
    grid = build_graded(16, 1.0)
    u = _power_sample(1.0, -0.5, grid)
    with pytest.raises(TooFewPoints):
        fit_rate(u, (0.2, 0.24))


def test_fit_rate_as_dict_serializes():
    fit = fit_rate(_power_sample(1.0, -0.5), (0.01, 0.2))
    payload = json.loads(json.dumps(fit.as_dict()))
    assert "side" not in payload
    assert payload["window"] == [0.01, 0.2]
    assert isinstance(fit, RateFit)


# ---------------------------------------------------------------------------
# audit_nonexistence


def test_zone1_audit_small_alpha_shallow_rate():
    audit = audit_nonexistence(0.25, GRID, 1.3, -0.3)
    assert audit.zone == 1
    assert audit.passed
    assert audit.t_values == (0.5, 1.0, 2.0, 4.0)
    # one shared torsion multiple, so the lift scales exactly with t
    ratios = np.array(audit.lift_scales) / np.array(audit.t_values)
    assert np.all(ratios == ratios[0])
    assert all(m > 0.0 for m in audit.worst_margins)
    # the shallow-rate case requires the near-core growth certificate
    assert all(c is not None and c > 0.0 for c in audit.core_constants)
    assert audit.checked_nodes >= 8


def test_zone1_lift_is_the_closed_form_power_of_two():
    # a + lift >= -1e-6 (|a| + lift), a = operator(V), holds on the checked
    # nodes exactly from lift = max (-a - 1e-6 |a|) / (1 + 1e-6) up; the
    # audit takes the least power of two >= 1 there, which doubling from 1
    # finds too
    audit = audit_nonexistence(0.25, GRID, 1.3, -0.3)
    a = apply(assemble(0.25, GRID),
              comparison_profile(GRID, -0.3))[resolved_mask(GRID)]
    need = np.max((-a - 1e-6 * np.abs(a)) / (1.0 + 1e-6))
    lift = 1.0
    while not np.all(a + lift >= -1e-6 * (np.abs(a) + lift)):
        lift *= 2.0
    assert lift / 2.0 < need <= lift
    assert audit.lift_scales == tuple(t * lift for t in audit.t_values)


def test_zone2_audit_sub_solution_family():
    audit = audit_nonexistence(0.6, GRID, 3.0, -0.4)
    assert audit.zone == 2
    assert audit.passed
    assert all(m < 0.0 for m in audit.worst_margins)
    assert all(c is not None and c > 0.0 for c in audit.core_constants)


def test_zone3_audit_super_solution_family():
    audit = audit_nonexistence(0.6, GRID, 3.0, -0.8)
    assert audit.zone == 3
    assert audit.passed
    assert all(m > 0.0 for m in audit.worst_margins)
    # steep-rate case: no extra near-core certificate required
    assert all(c is None for c in audit.core_constants)


@pytest.mark.parametrize("alpha,p,tau", [
    (0.25, 1.3, -0.3),
    (0.6, 3.0, -0.4),
    (0.6, 3.0, -0.8),
])
def test_audit_lift_growth_at_most_linear(alpha, p, tau):
    audit = audit_nonexistence(alpha, GRID, p, tau)
    lifts = dict(zip(audit.t_values, audit.lift_scales))
    for t in (2.0, 4.0):
        assert lifts[t] <= 2.0 * t * lifts[1.0]


@pytest.mark.parametrize("tau,zone", [(-0.4, 2), (-0.8, 3)])
def test_zone23_lift_is_the_least_doubling(tau, zone):
    # each stored torsion multiple mu passes the residual sign test of
    # t V + sign mu T, and mu / 2 fails it unless mu = 1; the residual is
    # written out here from the operator, not taken from the package
    matrix = assemble(0.6, GRID)
    p = 3.0
    audit = audit_nonexistence(0.6, GRID, p, tau)
    assert audit.zone == zone
    sign = -1.0 if zone == 2 else 1.0
    profile = comparison_profile(GRID, tau)
    v, a = profile.values, apply(matrix, profile)
    T = solve_torsion(matrix).values
    checked = resolved_mask(GRID)

    def passes(t, mu):
        w = t * v + sign * mu * T
        res = t * a + sign * mu + np.sign(w) * np.abs(w) ** p
        tol = 1e-6 * (np.abs(t * a) + mu + np.abs(w) ** p + 1.0)
        return bool(np.all(sign * res[checked] >= -tol[checked]))

    for t, mu in zip(audit.t_values, audit.lift_scales):
        assert passes(t, mu)
        assert mu == 1.0 or not passes(t, mu / 2.0)
    assert max(audit.lift_scales) > 1.0


def test_audit_lift_beyond_the_scale_bound_fails(monkeypatch):
    # zone 2 at (0.6, 3, -0.4) needs torsion multiples 4 to 32
    monkeypatch.setattr(fracblow.analysis, "MAX_DOUBLINGS", 1)
    with pytest.raises(AuditFail, match="within 1 doublings at t=0.5"):
        audit_nonexistence(0.6, GRID, 3.0, -0.4)


def test_audit_raises_the_first_failing_scale_first(monkeypatch):
    # zone 2 at (0.6, 3, -0.4) finds t = 0.5's lift 4 within 2 doublings
    # but not t = 1's 8; with the near-core set widened to every node, the
    # unresolved innermost nodes fail t = 0.5's certificate, which a
    # scale-by-scale search meets before t = 1's missing lift
    monkeypatch.setattr(fracblow.analysis, "MAX_DOUBLINGS", 2)
    monkeypatch.setattr(fracblow.analysis, "core_mask",
                        lambda grid, resolved: np.ones(resolved.size, dtype=bool))
    with pytest.raises(AuditFail,
                       match="zone-2 near-core certificate failed at t=0.5"):
        audit_nonexistence(0.6, GRID, 3.0, -0.4)


def _scale_by_scale(alpha, grid, p, tau, zone):
    """The audit's lifts, worst margins and core constants as a search
    that doubles mu one scale at a time on the full residual finds them."""
    sign = -1.0 if zone == 2 else 1.0
    matrix = assemble(alpha, grid)
    profile = comparison_profile(grid, tau)
    vals, applied = profile.values, apply(matrix, profile)
    tors = solve_torsion(matrix).values
    checked = resolved_mask(grid)
    core = core_mask(grid) if tau * p > tau - 2.0 * alpha else None
    if zone == 1:
        a = applied[checked]
        lift = power_of_two_bracket(float(np.max(
            (-a - 1e-6 * np.abs(a)) / (1.0 + 1e-6), initial=1.0)))[1]
    lifts, margins, constants = [], [], []
    for t in (0.5, 1.0, 2.0, 4.0):
        mus = ((t * lift,) if zone == 1
               else (2.0 ** k for k in range(MAX_DOUBLINGS + 1)))
        for mu in mus:
            res, size = comparison_residual(applied, vals, tors, p, t,
                                            sign * mu)
            if np.all(sign * res[checked] >= -1e-6 * size[checked]):
                break
        lifts.append(mu)
        margins.append(sign * float(np.min(sign * res[checked])))
        if core is None:
            constants.append(None)
        else:
            power = distance_D(grid.nodes)[core] ** (tau - 2.0 * alpha)
            constants.append(float(np.min(
                sign * (t * applied[core] + sign * mu) / power)))
    return tuple(lifts), tuple(margins), tuple(constants)


@pytest.mark.parametrize("alpha,p,tau,zone", [
    (0.25, 1.3, -0.3, 1),
    (0.6, 3.0, -0.4, 2),
    (0.25, 1.75, -0.6, 2),
    (0.6, 3.0, -0.8, 3),
])
def test_batched_lift_search_matches_the_scale_by_scale_one(
        monkeypatch, alpha, p, tau, zone):
    calls = []

    def counting(*args):
        calls.append(np.shape(args[5]))
        return comparison_residual(*args)

    monkeypatch.setattr(fracblow.analysis, "comparison_residual", counting)
    audit = audit_nonexistence(alpha, GRID, p, tau)
    assert audit.zone == zone
    got = audit.lift_scales, audit.worst_margins, audit.core_constants
    assert [[x if x is None else x.hex() for x in row] for row in got] == \
        [[x if x is None else x.hex() for x in row]
         for row in _scale_by_scale(alpha, GRID, p, tau, zone)]
    # one round per LIFT_BLOCK powers of two tried, the last holding the
    # largest lift's; the first round tries every scale
    block = fracblow.analysis.LIFT_BLOCK
    doublings = 0 if zone == 1 else int(np.log2(max(audit.lift_scales)))
    assert len(calls) == doublings // block + 1
    assert calls[0] == ((4, 1, 1) if zone == 1 else (4, block, 1))


@pytest.mark.parametrize("tau,zone", [(-0.4, 2), (-0.8, 3)])
def test_zone23_audit_reads_the_right_half_in_blocks_of_doublings(
        monkeypatch, tau, zone):
    # the residual rows are as wide as the resolved right-half nodes, one
    # call per block of LIFT_BLOCK doublings up to the largest lift's,
    # and checked_nodes still counts both halves
    calls = []

    def recording(*args):
        calls.append([np.shape(x) for x in args[:3]])
        return comparison_residual(*args)

    monkeypatch.setattr(fracblow.analysis, "comparison_residual", recording)
    audit = audit_nonexistence(0.6, GRID, 3.0, tau)
    assert audit.zone == zone
    checked = resolved_mask(GRID)
    half = int(checked[GRID.n_per_side:].sum())
    assert 2 * half == int(checked.sum()) == audit.checked_nodes
    assert calls and all(shapes == [(half,)] * 3 for shapes in calls)
    largest = int(np.log2(max(audit.lift_scales)))
    assert largest >= fracblow.analysis.LIFT_BLOCK
    assert len(calls) == -(-(largest + 1) // fracblow.analysis.LIFT_BLOCK)


def test_audit_below_threshold_decides_the_regime_once(monkeypatch):
    grid = build_graded(128, 2.4)
    calls = []
    original = fracblow.specfun._interior_zero

    def counting(alpha):
        calls.append(alpha)
        return original(alpha)

    monkeypatch.setattr(fracblow.specfun, "_interior_zero", counting)
    audit = audit_nonexistence(0.25, grid, 1.75, -0.6)
    assert audit.zone == 2
    assert calls == [0.25]


def test_audit_rejects_existence_regimes():
    with pytest.raises(RegimeError):
        audit_nonexistence(0.5, GRID, 3.0, -0.5)
    with pytest.raises(RegimeError):
        audit_nonexistence(0.25, GRID, 1.75, -2.0 * 0.25 / 0.75)


def test_audit_rejects_coarse_grid():
    grid = build_graded(16, 1.0)
    with pytest.raises(BadConfig):
        audit_nonexistence(0.6, grid, 3.0, -0.4)


def test_audit_as_dict_serializes():
    audit = audit_nonexistence(0.6, GRID, 3.0, -0.8)
    payload = json.loads(json.dumps(audit.as_dict()))
    assert payload["zone"] == 3
    assert payload["passed"] is True
    assert payload["t_values"] == [0.5, 1.0, 2.0, 4.0]
    assert payload["core_constants"] == [None] * 4
    assert isinstance(audit, ZoneAudit)
