"""Tests for rate fitting, band reports, and nonexistence-zone audits."""

import json

import numpy as np
import pytest

import fracblow.analysis
import fracblow.specfun
from fracblow.analysis import (
    BandReport,
    RateFit,
    ZoneAudit,
    audit_nonexistence,
    check_band,
    fit_rate,
)
from fracblow.errors import AuditFail, BadConfig, RegimeError, TooFewPoints
from fracblow.mesh import GridFunction, build_graded, distance_D
from fracblow.operator import assemble
from fracblow.profiles import comparison_arrays, resolved_mask, solve_torsion

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
# check_band


def test_check_band_exact_power_collapses():
    u = _power_sample(3.7, -0.43)
    report = check_band(u, -0.43, (0.01, 0.2))
    assert abs(report.min_ratio - 3.7) <= 1e-9
    assert abs(report.max_ratio - 3.7) <= 1e-9
    assert report.sign_flips == 0
    assert report.n_nodes >= 8
    assert isinstance(report, BandReport)


def test_check_band_counts_sign_changes():
    u = GridFunction(GRID, GRID.nodes.copy())
    report = check_band(u, 0.0, (0.05, 0.8))
    assert report.sign_flips == 1
    assert report.min_ratio < 0.0 < report.max_ratio


def test_check_band_too_few_points_when_window_unresolved():
    u = _power_sample(1.0, -0.5)
    with pytest.raises(TooFewPoints):
        check_band(u, -0.5, (1e-6, 1e-5))


def test_check_band_rejects_bad_window():
    u = _power_sample(1.0, -0.5)
    with pytest.raises(BadConfig):
        check_band(u, -0.5, (0.1, 0.05))


def test_check_band_as_dict_serializes():
    report = check_band(_power_sample(2.0, -0.3), -0.3, (0.01, 0.2))
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["sign_flips"] == 0


# ---------------------------------------------------------------------------
# audit_nonexistence


def test_zone1_audit_small_alpha_shallow_rate():
    audit = audit_nonexistence(assemble(0.25, GRID), 1.3, -0.3)
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
    matrix = assemble(0.25, GRID)
    audit = audit_nonexistence(matrix, 1.3, -0.3)
    a = comparison_arrays(matrix, -0.3)[1][resolved_mask(GRID)]
    need = np.max((-a - 1e-6 * np.abs(a)) / (1.0 + 1e-6))
    lift = 1.0
    while not np.all(a + lift >= -1e-6 * (np.abs(a) + lift)):
        lift *= 2.0
    assert lift / 2.0 < need <= lift
    assert audit.lift_scales == tuple(t * lift for t in audit.t_values)


def test_zone2_audit_sub_solution_family():
    audit = audit_nonexistence(assemble(0.6, GRID), 3.0, -0.4)
    assert audit.zone == 2
    assert audit.passed
    assert all(m < 0.0 for m in audit.worst_margins)
    assert all(c is not None and c > 0.0 for c in audit.core_constants)


def test_zone3_audit_super_solution_family():
    audit = audit_nonexistence(assemble(0.6, GRID), 3.0, -0.8)
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
    audit = audit_nonexistence(assemble(alpha, GRID), p, tau)
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
    audit = audit_nonexistence(matrix, p, tau)
    assert audit.zone == zone
    sign = -1.0 if zone == 2 else 1.0
    v, a = comparison_arrays(matrix, tau)
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
        audit_nonexistence(assemble(0.6, GRID), 3.0, -0.4)


def test_audit_below_threshold_decides_the_regime_once(monkeypatch):
    matrix = assemble(0.25, build_graded(128, 2.4))
    calls = []
    original = fracblow.specfun._interior_zero

    def counting(alpha):
        calls.append(alpha)
        return original(alpha)

    monkeypatch.setattr(fracblow.specfun, "_interior_zero", counting)
    audit = audit_nonexistence(matrix, 1.75, -0.6)
    assert audit.zone == 2
    assert calls == [0.25]


def test_audit_rejects_existence_regimes():
    with pytest.raises(RegimeError):
        audit_nonexistence(assemble(0.5, GRID), 3.0, -0.5)
    with pytest.raises(RegimeError):
        audit_nonexistence(assemble(0.25, GRID), 1.75, -2.0 * 0.25 / 0.75)


def test_audit_rejects_coarse_grid():
    grid = build_graded(16, 1.0)
    with pytest.raises(BadConfig):
        audit_nonexistence(assemble(0.6, grid), 3.0, -0.4)


def test_audit_as_dict_serializes():
    audit = audit_nonexistence(assemble(0.6, GRID), 3.0, -0.8)
    payload = json.loads(json.dumps(audit.as_dict()))
    assert payload["zone"] == 3
    assert payload["passed"] is True
    assert payload["t_values"] == [0.5, 1.0, 2.0, 4.0]
    assert payload["core_constants"] == [None] * 4
    assert isinstance(audit, ZoneAudit)
