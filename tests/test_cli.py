"""Tests for the command-line front end: outputs, exit codes, config."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fracblow.analysis
import fracblow.cli
import fracblow.errors
import fracblow.operator
import fracblow.profiles
import fracblow.solver
from fracblow.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_REGIME, main
from fracblow.mesh import build_graded, distance_D
from fracblow.operator import assemble
from fracblow.solver import ProblemSpec, default_sub_super, solve_blowup
from fracblow.specfun import T_alpha, existence_window

# ---------------------------------------------------------------------------
# classify


def test_classify_unique_existence(capsys):
    assert main(["classify", "--alpha", "0.5", "--p", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "regime: unique-existence" in out
    assert "predicted_rate: -0.5" in out


def test_classify_prescribed_wrong_rate(capsys):
    assert main(["classify", "--alpha", "0.6", "--p", "3", "--tau", "-0.4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "regime: nonexistence-b" in out
    assert "predicted_rate: none" in out


def test_classify_bad_exponent_is_config_error():
    assert main(["classify", "--alpha", "0.5", "--p", "0.9"]) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["classify", "--alpha", "0.3", "--p", "inf"],
    ["classify", "--alpha", "0.3", "--p", "1e309"],
    ["solve", "--alpha", "0.5", "--p", "inf"],
    ["audit", "--alpha", "0.6", "--p", "inf", "--tau=-0.4"],
], ids=["classify-inf", "classify-overflow", "solve", "audit"])
def test_infinite_p_is_config_error(argv, monkeypatch, capsys):
    # refused by the regime guard, before anything is assembled
    calls = _count_assembles(monkeypatch)
    assert main(argv + ["--no-timestamp"]) == EXIT_CONFIG
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p must exceed 1 and be finite, got inf" in captured.err


@pytest.mark.parametrize("alpha,p,kind", [
    # was NoConvergence (exit 3) in the quadrature of the kernel tail
    ("0.01", "2", "nonexistence-c"),
    # was BracketFailure (exit 3) just below the threshold order
    (repr(0.5 - 1e-7), "3", "unique-existence"),
])
def test_classify_at_former_failure_orders(alpha, p, kind, capsys):
    assert main(["classify", "--alpha", alpha, "--p", p]) == EXIT_OK
    assert capsys.readouterr().out.startswith(f"regime: {kind}\n")


def test_classify_missing_required_flag():
    assert main(["classify", "--alpha", "0.5"]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# specfun sweep


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_specfun_sweep_shape_and_identities(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["specfun", "--alpha", "0.1:0.9", "--tau=-0.6:0.0",
                 "--step", "0.3", "--out", str(out)])
    assert code == EXIT_OK
    header, rows = _read_csv(out)
    assert header == ["alpha", "tau", "c", "C", "T", "c2"]
    alphas = sorted({row[0] for row in rows})
    taus = sorted({row[1] for row in rows})
    assert len(rows) == len(alphas) * len(taus) == 3 * 3
    for row in rows:
        alpha, tau = float(row[0]), float(row[1])
        assert 0.0 < alpha < 1.0
        assert -1.0 < tau <= 0.0
        t_ref = T_alpha(alpha)
        assert abs(float(row[4]) - t_ref) <= 1e-10 * max(1.0, abs(t_ref))
        if tau == 0.0:
            assert abs(float(row[2])) <= 1e-10  # c vanishes at rate 0
            assert row[5] == ""                 # curvature needs tau < 0
        else:
            assert row[5] != ""


def _csv_writer_bytes(path):
    """The file's cells read back, as floats where not empty, and
    rendered again by ``csv.writer``."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([float(cell) if cell else cell for cell in row]
                     for row in rows)
    return buffer.getvalue().encode()


def test_specfun_csv_is_what_csv_writer_writes(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["specfun", "--out", str(out)]) == EXIT_OK  # tau from -0.9 to 0
    data = out.read_bytes()
    assert data.count(b",\n") == 9  # the empty c2 cell of each alpha at tau = 0
    assert _csv_writer_bytes(out) == data


def test_csv_lines_match_csv_writer_on_float_reprs():
    values = [np.float64(0.1), -0.0, math.inf, -math.inf, math.nan, 1e-300]
    cells = [float.__repr__(v) for v in values]
    assert cells[:5] == ["0.1", "-0.0", "inf", "-inf", "nan"]
    assert repr(values[0]) != "0.1"  # numpy's repr names the type
    header = ("a", "b", "c", "d", "e", "f")
    rows = [cells, cells[::-1], cells[:5] + [""]]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows([header, values, values[::-1], values[:5] + [""]])
    lines = fracblow.cli._csv_lines(header, iter(rows))
    assert "".join(lines) == buffer.getvalue()
    assert list(fracblow.cli._csv_lines(header, [])) == ["a,b,c,d,e,f\n"]


def test_specfun_rerun_is_byte_identical(tmp_path):
    args = ["specfun", "--alpha", "0.25:0.45", "--tau=-0.5:-0.1",
            "--step", "0.2"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == EXIT_OK
    assert main(args + ["--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_specfun_rejects_out_of_domain_sweep():
    assert main(["specfun", "--alpha", "0.5:1.5", "--step", "0.5"]) == EXIT_CONFIG
    assert main(["specfun", "--tau=0.2:0.4", "--step", "0.1"]) == EXIT_CONFIG
    assert main(["specfun", "--alpha", "0.5", "--step", "-0.1"]) == EXIT_CONFIG


def test_specfun_refuses_oversized_sweep_before_any_row(monkeypatch, capsys):
    # 1 alpha x 1000001 taus is one cell over the cap, 1001 x 1126 cells
    # are over it on neither axis alone, and a subnormal step makes the
    # count overflow; the refusal comes before any list is built or any
    # constant evaluated
    def no_rows(alpha):
        raise AssertionError("specfun evaluated a row")

    monkeypatch.setattr(fracblow.cli, "T_alpha", no_rows)
    for alpha, step in (("0.5", repr(0.9 / 10**6)), ("0.1:0.9", "0.0008"),
                        ("0.5", "1e-320")):
        code = main(["specfun", "--alpha", alpha, "--tau=-0.9:0.0",
                     "--step", step])
        assert code == EXIT_CONFIG
        assert "--step" in capsys.readouterr().err


def test_specfun_tolerance_out_of_range_is_config_error(tmp_path, capsys):
    # a configuration error, not one numerical failure per cell; the kernel
    # constants are closed forms, so no tolerance is in range: neither a
    # --tol flag nor a "tol" config key exists, and both are refused
    # before any output
    code = main(["specfun", "--alpha", "0.3", "--tau=-0.5:0", "--step", "0.5",
                 "--tol", "0.5"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().out == ""
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"tol": 1e-8}))
    code = main(["critical", "--alpha", "0.3", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: unknown config keys: ['tol']\n"


# ---------------------------------------------------------------------------
# critical exponents


def test_critical_report_contents(tmp_path):
    out = tmp_path / "crit.json"
    code = main(["critical", "--alpha", "0.25,0.6", "--no-timestamp",
                 "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert "timestamp" not in payload
    assert 0.49 < payload["alpha0"] < 0.51
    low = payload["per_alpha"]["0.25"]
    high = payload["per_alpha"]["0.6"]
    assert low["tau0"] < low["tau1"] < 0.0
    assert "tau1" not in high  # above the critical order the sign never flips
    assert high["tau0"] < 0.0
    # the exponents are the closed forms alpha0 = 1/2, tau0 = alpha - 1 and
    # tau1 = 2*alpha - 1, and no tolerance is reported
    assert payload == {"alpha0": 0.5,
                       "per_alpha": {"0.25": {"tau0": -0.75, "tau1": -0.5},
                                     "0.6": {"tau0": 0.6 - 1.0}}}


def test_critical_rerun_bit_identical_and_timestamp(tmp_path):
    args = ["critical", "--alpha", "0.3", "--no-timestamp"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    stamped = tmp_path / "c.json"
    assert main(["critical", "--alpha", "0.3", "--out", str(stamped)]) == EXIT_OK
    assert "timestamp" in json.loads(stamped.read_text())


def test_critical_small_order_is_immediate(capsys):
    # the root finder used to spend minutes near alpha = 0.029
    start = time.perf_counter()
    code = main(["critical", "--alpha", "0.029", "--no-timestamp"])
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_OK
    entry = json.loads(capsys.readouterr().out)["per_alpha"]["0.029"]
    assert entry == {"tau0": 0.029 - 1.0, "tau1": 2.0 * 0.029 - 1.0}


def test_critical_requires_alpha_list():
    assert main(["critical"]) == EXIT_CONFIG
    assert main(["critical", "--alpha", "abc"]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# solve


def _solve_args(prefix, extra=()):
    return ["solve", "--alpha", "0.5", "--p", "3", "--n-per-side", "128",
            "--grading", "2.4", "--schedule", "8:1024",
            "--out", str(prefix), *extra]


def test_solve_writes_report_and_profile(tmp_path):
    prefix = tmp_path / "run"
    assert main(_solve_args(prefix, ["--no-timestamp"])) == EXIT_OK
    payload = json.loads((tmp_path / "run.report.json").read_text())
    assert payload["report"]["ordering_ok"] is True
    assert payload["report"]["monotone_ok"] is True
    assert payload["report"]["converged"] is True
    assert payload["report"]["levels"] == [1024]
    assert "timestamp" not in payload
    header, rows = _read_csv(tmp_path / "run.profile.csv")
    assert header == ["x", "D", "u", "sub", "super"]
    assert len(rows) == 256  # one row per node
    for row in rows[:5]:
        x, dist = float(row[0]), float(row[1])
        assert abs(abs(x) - dist) <= 1e-15
        assert float(row[3]) <= float(row[2]) + 1e-9
        assert float(row[2]) <= float(row[4]) + 1e-9


def test_solve_profile_is_every_node_as_csv_writer_writes_it(tmp_path):
    assert main(_solve_args(tmp_path / "run", ["--no-timestamp"])) == EXIT_OK
    profile = tmp_path / "run.profile.csv"
    assert _csv_writer_bytes(profile) == profile.read_bytes()
    grid = build_graded(128, 2.4, 0.25)
    matrix = assemble(0.5, grid)
    sub, sup = default_sub_super(matrix, 3.0)
    report = solve_blowup(
        ProblemSpec(matrix=matrix, p=3.0, sub=sub, super=sup), 1024)
    columns = (grid.nodes, distance_D(grid.nodes), report.final.values,
               sub.values, sup.values)
    _, rows = _read_csv(profile)
    assert rows == [list(map(float.__repr__, row))
                    for row in zip(*(c.tolist() for c in columns))]


def test_profile_rows_read_the_left_half_off_the_right():
    right = np.array([0.25, 0.5, 0.75])
    x = np.concatenate((-right[::-1], right))
    even = [np.concatenate((v[::-1], v)) for v in (
        np.array([1e-300, np.inf, 3.0]), np.array([0.0, 1.0 / 3.0, np.nan]))]
    columns = (x, np.abs(x), *even)
    expected = list(zip(*(map(float.__repr__, c.tolist()) for c in columns)))
    assert list(fracblow.cli._profile_rows(x, *even)) == expected


def test_solve_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_solve_args(a, ["--no-timestamp"])) == EXIT_OK
    assert main(_solve_args(b, ["--no-timestamp"])) == EXIT_OK
    assert (tmp_path / "a.report.json").read_bytes() == \
        (tmp_path / "b.report.json").read_bytes()
    assert (tmp_path / "a.profile.csv").read_bytes() == \
        (tmp_path / "b.profile.csv").read_bytes()


def test_solve_stdout_when_no_out(capsys):
    code = main(["solve", "--alpha", "0.5", "--p", "3", "--n-per-side", "128",
                 "--grading", "2.4", "--schedule", "8:256", "--no-timestamp"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["converged"] is True


def test_solve_regime_guard_exits_4(tmp_path):
    prefix = tmp_path / "guarded"
    code = main(["solve", "--alpha", "0.25", "--p", "1.3",
                 "--n-per-side", "128", "--schedule", "8:64",
                 "--out", str(prefix)])
    assert code == EXIT_REGIME
    assert not (tmp_path / "guarded.report.json").exists()


def test_solve_bad_schedule_is_config_error():
    base = ["solve", "--alpha", "0.5", "--p", "3", "--n-per-side", "128"]
    assert main(base + ["--schedule", "abc"]) == EXIT_CONFIG
    assert main(base + ["--schedule", "64:8"]) == EXIT_CONFIG
    assert main(base + ["--schedule", "3:64"]) == EXIT_CONFIG


def test_solve_level_past_the_innermost_node_is_config_error(capsys):
    # the innermost of 128 nodes per side sits at D = 4.38e-6, so level
    # 2**20 leaves the excluded core empty: the band would carry no
    # blow-up data, and its one discrete solution is 0
    assert main(["solve", "--alpha", "0.5", "--p", "3", "--n-per-side", "128",
                 "--schedule", "8:1048576"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: level 1048576 leaves no node in the excluded "
        "core: the innermost node lies at D = 4.38e-06, so the level can be "
        "at most 228209\n")


def test_solve_unresolvable_grading_names_the_grid(capsys):
    # 512 nodes per side at exponent 6 crowd the outer nodes onto 1
    assert main(["solve", "--alpha", "0.5", "--p", "3", "--grading", "6"]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: n_per_side 512 with "
                          "grading_exponent 6.0")


def test_solve_tiny_delta_is_config_error(capsys):
    # the profile's curvature at D = delta overflows a double
    assert main(["solve", "--alpha", "0.5", "--p", "3", "--n-per-side", "64",
                 "--delta", "1e-300"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: matching radius delta=1e-300")


def test_solve_overflowing_bridge_is_one_config_error_line(child_env):
    # the bridge's data are finite at 1e-134 but its values overflow; a
    # fresh process shows everything that reaches stderr, warnings included
    proc = subprocess.run(
        [sys.executable, "-m", "fracblow.cli", "solve", "--alpha", "0.6",
         "--p", "5", "--n-per-side", "64", "--delta", "1e-134"],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr == (
        "configuration error: matching radius delta=1e-134 is too small for "
        "core exponent -0.3: D**tau overflows at 1e-134\n")


def test_solve_nonnegative_core_operator_names_the_grid(tmp_path, capsys):
    # the profile's operator is nonnegative at resolved core nodes here, so
    # no positive multiple of the profile is a sub-solution
    prefix = tmp_path / "panel"
    assert main(["solve", "--alpha", "0.35", "--p", "3.17",
                 "--out", str(prefix)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: no positive sub-solution "
                          "scale for alpha=0.35, p=3.17")
    assert "delta" in err and "n_per_side" in err
    assert "at 258 of 290 resolved core nodes" in err
    assert "at delta=0.25, n_per_side=512;" in err
    assert err.rstrip("\n").endswith(
        "refining the grid adds such nodes, and a smaller --delta gives no "
        "solve either: the bridged profile has no sub-solution scale here, a "
        "known limit of the default pair")
    assert not (tmp_path / "panel.report.json").exists()


# ---------------------------------------------------------------------------
# audit


def test_audit_json_zone2(tmp_path):
    out = tmp_path / "audit.json"
    code = main(["audit", "--alpha", "0.6", "--p", "3", "--tau=-0.4",
                 "--n-per-side", "256", "--no-timestamp", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    audit = payload["audit"]
    assert audit["zone"] == 2
    assert audit["passed"] is True
    assert len(audit["lift_scales"]) == len(audit["t_values"]) == 4
    assert all(m < 0.0 for m in audit["worst_margins"])


def test_audit_regime_guard_exits_4():
    code = main(["audit", "--alpha", "0.6", "--p", "3", "--tau=-0.6",
                 "--n-per-side", "256"])
    assert code == EXIT_REGIME


def test_audit_without_core_nodes_is_config_error(capsys):
    # zone 2 needs the near-core certificate, and at 64 nodes per side no
    # resolved node lies inside the matching radius
    code = main(["audit", "--alpha", "0.6", "--p", "3", "--tau=-0.4",
                 "--n-per-side", "64"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "matching radius" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", "0.5", "--p", "3"],
    ["audit", "--alpha", "0.6", "--p", "3", "--tau=-0.4"],
], ids=["solve", "audit"])
def test_huge_grid_is_config_error(argv, capsys):
    # refused as the grid is built, before any array of that size
    assert main(argv + ["--n-per-side", "1000000000000000"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("configuration error: n_per_side must be at most "
                            "8192, got 1000000000000000\n")


def test_audit_zone_follows_classify_just_below_threshold(capsys):
    # 1e-10 below the threshold order tau1 = 2*alpha - 1 is -2e-10, so the
    # prescribed rate lies below it and the audit, like classify, sees a
    # rate-mismatch nonexistence in zone 2
    argv = ["--alpha", "0.4999999999", "--p", "3", "--tau=-0.4"]
    assert main(["classify", *argv]) == EXIT_OK
    assert capsys.readouterr().out.startswith("regime: nonexistence-b\n")
    code = main(["audit", *argv, "--n-per-side", "128", "--no-timestamp"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["audit"]["zone"] == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha,p,tau", [
    ("0.7", "100", "-0.9"),
    # every checked residual of t = 4 overflows, so the worst margin did too
    ("0.3", "1e6", "-0.9999999999999999"),
])
def test_audit_at_a_huge_exponent_keeps_finite_margins(alpha, p, tau, capsys):
    # |w|**p overflows on the lifted comparison functions: the residual
    # is still tested by its sign, without a floating-point warning
    code = main(["audit", "--alpha", alpha, "--p", p, f"--tau={tau}",
                 "--n-per-side", "128", "--no-timestamp"])
    assert code == EXIT_OK
    audit = json.loads(capsys.readouterr().out)["audit"]
    assert audit["passed"] is True
    assert all(math.isfinite(m) for m in audit["worst_margins"])


# ---------------------------------------------------------------------------
# exits over the documented domain

ORDERS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                   exclude_max=True)
EXPONENTS = st.floats(min_value=1.0, max_value=1e6, exclude_min=True)
RATES = st.floats(min_value=-1.0, max_value=0.0, exclude_min=True,
                  exclude_max=True)
WINDOW_FRACTIONS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                             exclude_max=True)


def _exit_of(argv):
    """Exit code and stdout of one in-process CLI run, stderr dropped; an
    exception escaping ``main`` fails the calling test."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--no-timestamp"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_REGIME)
    if code == EXIT_OK:
        text = out.getvalue()
        assert "Infinity" not in text and "NaN" not in text
    return code


@settings(max_examples=60, deadline=None, derandomize=True)
@given(alpha=ORDERS, p=EXPONENTS, tau=RATES)
def test_audit_chooses_its_exit(alpha, p, tau):
    _exit_of(["audit", "--alpha", repr(alpha), "--p", repr(p),
              f"--tau={tau!r}", "--n-per-side", "128"])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(alpha=ORDERS, fraction=WINDOW_FRACTIONS)
def test_solve_chooses_its_exit(alpha, fraction):
    # p inside the existence window (1 + 2 alpha, 1 + 2 alpha/(1 - 2 alpha)),
    # unbounded above from alpha = 1/2 on, capped at 1e6
    low = 1.0 + 2.0 * alpha
    high = 1.0 + 2.0 * alpha / (1.0 - 2.0 * alpha) if alpha < 0.5 else 1e6
    p = low + fraction * (min(high, 1e6) - low)
    _exit_of(["solve", "--alpha", repr(alpha), "--p", repr(p),
              "--n-per-side", "128", "--schedule", "4:256"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha,p", [
    (0.45, existence_window(0.45)[1] * (1.0 - 1e-6)),
    (0.05, existence_window(0.05)[0] * (1.0 + 1e-6)),
    (0.7, 1e6),
], ids=["below-p_hi", "above-p_lo", "huge-p"])
def test_solve_at_the_window_edges_chooses_its_exit(alpha, p):
    # c(tau) -> 0 below p_hi, lam* = c**(1/(p-1)) is 4e52 above p_lo, and
    # p = 1e6: the default pair warns at none of them
    _exit_of(["solve", "--alpha", repr(alpha), "--p", repr(p)])


# ---------------------------------------------------------------------------
# one assembled operator per command


def _count_assembles(monkeypatch):
    # the commands import assemble from the operator module when they run
    calls = []
    original = fracblow.operator.assemble

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fracblow.operator, "assemble", counting)
    return calls


def test_only_the_cli_binds_assemble():
    for module in (fracblow.profiles, fracblow.solver, fracblow.analysis):
        assert not hasattr(module, "assemble"), module.__name__


def test_analysis_reads_the_regime_from_classify():
    for name in ("T_alpha", "find_tau1"):
        assert not hasattr(fracblow.analysis, name), name


def test_solve_assembles_once(monkeypatch, capsys):
    calls = _count_assembles(monkeypatch)
    code = main(["solve", "--alpha", "0.5", "--p", "3", "--n-per-side", "128",
                 "--schedule", "8:256", "--no-timestamp"])
    assert code == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", "0.25", "--p", "1.3"],
    ["audit", "--alpha", "0.6", "--p", "3", "--tau=-0.6"],
], ids=["solve", "audit"])
def test_regime_guard_runs_before_assembly(argv, monkeypatch, capsys):
    calls = _count_assembles(monkeypatch)
    assert main(argv) == EXIT_REGIME
    assert calls == []
    assert capsys.readouterr().err.startswith("regime guard: ")


@pytest.mark.parametrize("argv,solves", [
    (["solve", "--alpha", "0.5", "--p", "3", "--schedule", "8:256"], 0),
    (["audit", "--alpha", "0.6", "--p", "3", "--tau=-0.8"], 1),
], ids=["solve", "audit"])
def test_only_the_audit_solves_the_torsion_function(argv, solves, monkeypatch,
                                                    capsys):
    calls = []
    original = fracblow.profiles.solve_torsion

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (fracblow.profiles, fracblow.solver, fracblow.analysis):
        if hasattr(module, "solve_torsion"):
            monkeypatch.setattr(module, "solve_torsion", counting)
    assert main(argv + ["--n-per-side", "128", "--no-timestamp"]) == EXIT_OK
    assert len(calls) == solves


def test_a_repeated_audit_reuses_its_torsion_solve(monkeypatch, capsys,
                                                   child_env):
    # the second audit on the same (alpha, grid) in one process solves no
    # half-size system (the profile's 6 x 6 bridge system is still solved
    # per audit), and prints what a fresh process prints
    monkeypatch.setattr(fracblow.profiles, "_TORSION_MEMO", {})
    argv = ["audit", "--alpha", "0.6", "--p", "3", "--tau=-0.8",
            "--n-per-side", "128", "--no-timestamp"]
    shapes = []
    original = np.linalg.solve

    def counting(a, b):
        shapes.append(np.shape(a))
        return original(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    half_solves, outs = [], []
    for _ in range(2):
        shapes.clear()
        assert main(argv) == EXIT_OK
        half_solves.append(shapes.count((128, 128)))
        outs.append(capsys.readouterr().out.encode())
    assert half_solves == [1, 0]
    fresh = subprocess.run([sys.executable, "-m", "fracblow.cli", *argv],
                           capture_output=True, timeout=120, env=child_env)
    assert fresh.returncode == 0, fresh.stderr
    assert outs[0] == outs[1] == fresh.stdout


def test_audit_assembles_once(monkeypatch, capsys):
    calls = _count_assembles(monkeypatch)
    code = main(["audit", "--alpha", "0.6", "--p", "3", "--tau=-0.8",
                 "--n-per-side", "64", "--no-timestamp"])
    assert code == EXIT_OK
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# error kinds and exit codes


# (exit code, stderr prefix) for every package error class.
_ERROR_EXITS = {
    "FracblowError": (EXIT_NUMERICAL, "error: "),
    "ConfigError": (EXIT_CONFIG, "configuration error: "),
    "BadConfig": (EXIT_CONFIG, "configuration error: "),
    "OutOfDomain": (EXIT_CONFIG, "configuration error: "),
    "NumericalError": (EXIT_NUMERICAL, "numerical failure: "),
    "SingularSystem": (EXIT_NUMERICAL, "numerical failure: "),
    "NoAdmissiblePair": (EXIT_NUMERICAL, "numerical failure: "),
    "NewtonStall": (EXIT_NUMERICAL, "numerical failure: "),
    "MonotoneViolation": (EXIT_NUMERICAL, "numerical failure: "),
    "AuditFail": (EXIT_NUMERICAL, "numerical failure: "),
    "TooFewPoints": (EXIT_NUMERICAL, "numerical failure: "),
    "RegimeError": (EXIT_REGIME, "regime guard: "),
    "GridMismatch": (EXIT_CONFIG, "configuration error: "),
}


def _error_classes(root=fracblow.errors.FracblowError):
    found = [root]
    for sub in root.__subclasses__():
        found.extend(_error_classes(sub))
    return found


def test_exit_table_covers_every_error_class():
    assert sorted(cls.__name__ for cls in _error_classes()) == sorted(_ERROR_EXITS)


@pytest.mark.parametrize("name", sorted(_ERROR_EXITS))
def test_error_class_maps_to_exit_code(name, monkeypatch, capsys):
    def failing(ns):
        raise getattr(fracblow.errors, name)("boom")

    monkeypatch.setattr(fracblow.cli, "cmd_classify", failing)
    code = main(["classify", "--alpha", "0.5", "--p", "3"])
    expected_code, prefix = _ERROR_EXITS[name]
    assert code == expected_code
    assert capsys.readouterr().err == f"{prefix}boom\n"


# ---------------------------------------------------------------------------
# config file and parser plumbing


def test_config_file_supplies_parameters(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "p": 3.0}))
    assert main(["classify", "--config", str(cfg)]) == EXIT_OK
    assert "unique-existence" in capsys.readouterr().out


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "p": 3.0}))
    assert main(["classify", "--config", str(cfg), "--p", "1.2"]) == EXIT_OK
    assert "nonexistence-a" in capsys.readouterr().out


def test_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["classify", "--config", str(missing)]) == EXIT_CONFIG
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"alhpa": 0.5}))
    assert main(["classify", "--config", str(bad_key),
                 "--alpha", "0.5", "--p", "3"]) == EXIT_CONFIG
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["classify", "--config", str(not_object)]) == EXIT_CONFIG
    not_json = tmp_path / "broken.json"
    not_json.write_text("{oops")
    assert main(["classify", "--config", str(not_json)]) == EXIT_CONFIG


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    # a UTF-16 byte-order mark does not decode as UTF-8
    cfg = tmp_path / "utf16.json"
    cfg.write_bytes(b"\xff\xfe" + '{"alpha": 0.5}'.encode("utf-16-le"))
    assert main(["classify", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"configuration error: config file {cfg} is not valid JSON: ")


@pytest.mark.parametrize("argv", [
    ["specfun", "--alpha", "0.3", "--tau=-0.5"],
    ["critical", "--alpha", "0.3"],
    ["classify", "--alpha", "0.5", "--p", "3"],
    ["solve", "--alpha", "0.5", "--p", "3", "--n-per-side", "128"],
    ["audit", "--alpha", "0.6", "--p", "3", "--tau=-0.4",
     "--n-per-side", "128"],
], ids=["specfun", "critical", "classify", "solve", "audit"])
def test_unwritable_out_is_config_error(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "x"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"configuration error: cannot write output {out}"), captured.err
    # open() refuses a path with a NUL in it by ValueError, not OSError
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": "a\u0000b"}))
    assert main(argv + ["--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "configuration error: cannot write output a\u0000b"), captured.err


@pytest.mark.parametrize("argv,config,flag", [
    (["classify", "--alpha", "0.5", "--p", "x"], None, "--p"),
    (["solve", "--alpha", "abc", "--p", "3"], None, "--alpha"),
    (["audit", "--alpha", "0.6", "--p", "3", "--tau=x"], None, "--tau"),
    (["classify"], {"p": "x", "alpha": 0.5}, "--p"),
    (["classify"], {"p": [0.3], "alpha": 0.5}, "--p"),
    (["critical", "--alpha", "0.6"], {"no_timestamp": "false"},
     "--no-timestamp"),
    (["solve", "--alpha", "0.5", "--p", "3"], {"n_per_side": 64.9},
     "--n-per-side"),
    (["solve", "--alpha", "0.5", "--p", "3", "--n-per-side", "x"], None,
     "--n-per-side"),
    (["audit", "--alpha", "0.6", "--p", "3", "--tau=-0.4", "--grading", "x"],
     None, "--grading"),
    (["audit", "--alpha", "0.6", "--p", "3", "--tau=-0.4", "--delta", "x"],
     None, "--delta"),
    (["specfun", "--step", "x"], None, "--step"),
    (["audit", "--alpha", "0.6", "--p", "3", "--tau=-0.4", "--n-per-side",
      "64"], {"grading": True}, "--grading"),
    (["classify", "--alpha", "0.5", "--p", "3"], {"out": True}, "--out"),
    (["classify", "--alpha", "0.5", "--p", "3"], {"out": 2}, "--out"),
    (["critical", "--alpha", "0.6"], {"out": []}, "--out"),
    (["classify", "--alpha", "0.5"], {"p": 10**400}, "--p"),
], ids=["classify-flag", "solve-flag", "audit-flag", "config-text",
        "config-list", "config-bool-text", "config-fractional-int",
        "n-per-side-flag", "grading-flag", "delta-flag", "step-flag",
        "config-bool-grading", "config-bool-out", "config-int-out",
        "config-list-out", "config-int-past-float"])
def test_non_numeric_values_are_config_errors(argv, config, flag, tmp_path,
                                              capsys):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: bad {flag} value "), err


@pytest.mark.parametrize("argv,config", [
    (["solve", "--alpha", "0.5", "--p", "3", "--schedule", "8:256"],
     {"n_per_side": None}),
    (["solve", "--alpha", "0.5", "--p", "3", "--schedule", "8:256",
      "--n-per-side", "128"], {"grading": None, "delta": None}),
    (["audit", "--alpha", "0.6", "--p", "3", "--tau=-0.4"],
     {"n_per_side": None}),
    (["audit", "--alpha", "0.6", "--p", "3", "--tau=-0.4", "--n-per-side",
      "128"], {"grading": None, "delta": None}),
    (["specfun", "--alpha", "0.3", "--tau=-0.5:0"], {"step": None}),
], ids=["solve-n", "solve-grading-delta", "audit-n", "audit-grading-delta",
        "specfun-step"])
def test_null_config_value_is_a_missing_key(argv, config, tmp_path, capsys):
    argv = argv + ["--no-timestamp"]
    assert main(argv) == EXIT_OK
    alone = capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(argv + ["--config", str(cfg)]) == EXIT_OK
    assert capsys.readouterr() == alone


@contextlib.contextmanager
def _closed_std_fds():
    """Yield a list that, after the block, names the standard fds (0-2)
    the block closed.  Each is then restored from a copy, so a command
    that closes one does not take the test run's output with it."""
    copies = [os.dup(fd) for fd in range(3)]
    closed = []
    try:
        yield closed
    finally:
        for fd, copy in enumerate(copies):
            try:
                os.fstat(fd)
            except OSError:
                closed.append(fd)
            os.dup2(copy, fd)
            os.close(copy)


@pytest.mark.parametrize("out", [True, 2], ids=["true", "two"])
def test_refused_out_leaves_the_standard_fds_open(out, tmp_path, capsys):
    # open(True) and open(2) would open fds 1 and 2, and close them after
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": out}))
    with _closed_std_fds() as closed:
        code = main(["classify", "--alpha", "0.5", "--p", "3",
                     "--config", str(cfg)])
    assert closed == []
    assert code == EXIT_CONFIG


# Any JSON value a config key may hold.  Texts hold no "/", so an out
# path names a file in the working directory.
CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(st.characters(exclude_characters="/"), max_size=6),
    st.lists(st.integers() | st.floats() | st.text(max_size=3), max_size=3))
CONFIGS = st.dictionaries(st.sampled_from(sorted(fracblow.cli._KNOWN_KEYS)),
                          CONFIG_VALUES, max_size=3)
CONFIG_COMMANDS = (["classify"], ["critical"], ["specfun"],
                   ["solve", "--n-per-side", "128", "--schedule", "4:256"],
                   ["audit", "--n-per-side", "128"])


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=CONFIGS)
def test_any_config_ends_in_a_chosen_exit(config, tmp_path, monkeypatch):
    # every command exits 0, 2, 3 or 4 on any config object over the known
    # keys, raises nothing and leaves the standard fds open; the drawn keys
    # replace those of a config every command runs on, so a value is
    # reached past the parameters read before it
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "config" / "cfg.json"
    cfg.parent.mkdir(exist_ok=True)
    cfg.write_text(json.dumps({"alpha": 0.6, "p": 3.0, "tau": -0.4, **config}))
    for argv in CONFIG_COMMANDS:
        with _closed_std_fds() as closed, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--config", str(cfg)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_REGIME)
        assert closed == [], (argv, config)


@pytest.mark.parametrize("argv,dropped", [
    (["specfun"], "--p 3 --n-per-side 64 --grading 2 --delta 0.1 "
                  "--schedule 8:64"),
    (["critical", "--alpha", "0.3"], "--tau -0.4 --p 3 --n-per-side 64 "
                                     "--grading 2 --delta 0.1 --schedule 8:64"),
    (["classify", "--alpha", "0.5", "--p", "3"],
     "--n-per-side 64 --grading 2 --delta 0.1 --schedule 8:64"),
    (["solve", "--alpha", "0.5", "--p", "3"], "--tau -0.4"),
    (["audit", "--alpha", "0.6", "--p", "3", "--tau=-0.4"], "--schedule 8:64"),
], ids=["specfun", "critical", "classify", "solve", "audit"])
def test_subcommands_refuse_the_flags_they_do_not_read(argv, dropped, capsys):
    # each subcommand takes only the parameter flags its command reads, so
    # a flag it would ignore is a parser error, refused before any work
    tokens = dropped.split()
    for flag, value in zip(tokens[::2], tokens[1::2]):
        assert main(argv + [f"{flag}={value}"]) == EXIT_CONFIG, flag
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err, flag


def test_parser_level_errors_map_to_config_exit():
    assert main([]) == EXIT_CONFIG
    assert main(["bogus"]) == EXIT_CONFIG


def test_repeated_calls_build_the_parser_once(monkeypatch, capsys):
    # every subcommand parser gets the common flags once per build
    built = []
    add_common = fracblow.cli._add_common

    def counted(sub):
        built.append(sub.prog)
        add_common(sub)

    monkeypatch.setattr(fracblow.cli, "_add_common", counted)
    fracblow.cli._build_parser.cache_clear()
    try:
        assert main(["classify", "--alpha", "0.5", "--p", "3"]) == EXIT_OK
        first = len(built)
        assert main(["classify", "--alpha", "0.6", "--p", "3"]) == EXIT_OK
        assert main(["critical", "--alpha", "0.3"]) == EXIT_OK
        assert main(["bogus"]) == EXIT_CONFIG
    finally:
        fracblow.cli._build_parser.cache_clear()
    assert first > 0
    assert len(built) == first


# The words of a command line: every command and an unknown one, help,
# every flag, two abbreviations, a flag with its value attached, values
# (one negative, one not a number) and the end-of-options marker.
# Half the lines start with a command, and half of those go on in
# flag-value pairs, so that many parse.
COMMANDS = ("specfun", "critical", "classify", "solve", "audit")
FLAG_WORDS = ("--alpha", "--tau", "--p", "--n-per-side", "--grading",
              "--delta", "--schedule", "--step", "--out", "--no-timestamp",
              "--config", "--alph", "--no-t")
VALUE_WORDS = ("0.3", "-0.4", "x")
ARGV_WORDS = st.sampled_from([*COMMANDS, "bogus", "-h", "--help",
                              *FLAG_WORDS, "--tau=-0.5", *VALUE_WORDS, "--"])
FLAG_PAIRS = st.lists(st.tuples(st.sampled_from(FLAG_WORDS),
                                st.sampled_from(VALUE_WORDS)),
                      max_size=4).map(lambda pairs: [w for p in pairs
                                                     for w in p])
ARGVS = (st.lists(ARGV_WORDS, max_size=8)
         | st.builds(lambda command, rest: [command, *rest],
                     st.sampled_from(COMMANDS),
                     st.lists(ARGV_WORDS, max_size=7) | FLAG_PAIRS))


def _parse_outcome(parse, argv):
    """The fields of the namespace ``parse(argv)`` returns, or the code it
    exits with, and what it wrote to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=ARGVS)
def test_dispatch_parses_as_the_top_level_parser(argv):
    # a command-first line skips the top-level parser, and every line
    # still gives its namespace, or its exit code, help and error bytes
    parser, _ = fracblow.cli._build_parser()
    assert (_parse_outcome(fracblow.cli._parse, argv)
            == _parse_outcome(parser.parse_args, argv))


def test_command_first_lines_skip_the_top_level_parser(monkeypatch, capsys):
    # the top-level parser would only find the command and hand it the
    # rest, so only the command's own parser reads a command-first line
    progs = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        progs.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert main(["classify", "--alpha", "0.5", "--p", "3"]) == EXIT_OK
    assert main(["critical", "--alpha", "0.3", "--no-timestamp"]) == EXIT_OK
    assert main(["classify", "--alpha", "0.5", "--p", "3", "x"]) == EXIT_CONFIG
    assert capsys.readouterr().err.endswith(
        "\nfracblow: error: unrecognized arguments: x\n")
    assert progs == ["fracblow classify", "fracblow critical",
                     "fracblow classify"]
    # any other line goes to the top-level parser
    assert main(["--help"]) == EXIT_OK
    assert progs[3:] == ["fracblow"]


def test_flags_do_not_leak_between_calls(tmp_path, capsys):
    # one parser serves every call, and each call parses into its own
    # namespace: nothing a call was given reaches the next one
    critical = ["critical", "--alpha", "0.3"]
    assert main(critical + ["--no-timestamp"]) == EXIT_OK
    assert "timestamp" not in json.loads(capsys.readouterr().out)
    assert main(critical) == EXIT_OK
    assert "timestamp" in json.loads(capsys.readouterr().out)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "p": 3.0}))
    assert main(["classify", "--config", str(cfg)]) == EXIT_OK
    assert "unique-existence" in capsys.readouterr().out
    assert main(["classify"]) == EXIT_CONFIG
    assert "missing required parameter --alpha" in capsys.readouterr().err

    classify = ["classify", "--alpha", "0.25", "--p", "1.75"]
    assert main(classify) == EXIT_OK
    alone = capsys.readouterr().out
    assert main(["solve", "--alpha", "0.5", "--p", "3", "--n-per-side", "128",
                 "--schedule", "8:64", "--no-timestamp"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["report"]["converged"] is True
    assert main(classify) == EXIT_OK
    assert capsys.readouterr().out == alone
    assert main(["classify", "--alpha", "0.5"]) == EXIT_CONFIG
    assert "missing required parameter --p" in capsys.readouterr().err


def test_help_exits_zero():
    assert main(["--help"]) == EXIT_OK


def test_importing_the_cli_loads_no_scipy(child_env):
    # scipy is a test-only dependency: no command may pay for importing it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fracblow.cli; print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_importing_the_cli_loads_no_digest_module(child_env):
    # the torsion memo imports its digest on the first torsion solve, so
    # commands that solve none do not load it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fracblow.cli; print(sorted(m for m in sys.modules "
         "if m in ('hashlib', '_hashlib', '_blake2')))"],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


GRID_MODULES = ["fracblow.analysis", "fracblow.mesh", "fracblow.operator",
                "fracblow.profiles", "fracblow.solver", "numpy"]

# Runs main on each argv of the JSON list argv[1] in one fresh process and
# prints, per run, its exit code and the GRID_MODULES loaded after it.
_LOADED_AFTER = """
import contextlib, io, json, sys
from fracblow.cli import main
grid = json.loads(sys.argv[2])
runs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    runs.append([code, [m for m in grid if m in sys.modules]])
print(json.dumps(runs))
"""


def test_only_the_grid_commands_load_numpy_and_the_grid(child_env):
    # classify, critical and specfun load none of them; solve loads all
    # but the audit's module, and audit the rest
    argvs = [["classify", "--alpha", "0.3", "--p", "2"],
             ["critical", "--alpha", "0.3", "--no-timestamp"],
             ["specfun"],
             ["solve", "--alpha", "0.5", "--p", "3", "--n-per-side", "128",
              "--schedule", "8:256", "--no-timestamp"],
             ["audit", "--alpha", "0.6", "--p", "3", "--tau=-0.4",
              "--n-per-side", "128", "--no-timestamp"]]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, json.dumps(argvs),
         json.dumps(GRID_MODULES)],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, []]] * 3 + [
        [0, GRID_MODULES[1:]], [0, GRID_MODULES]]


def test_module_entry_point_runs(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "fracblow.cli", "classify",
         "--alpha", "0.5", "--p", "3"],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0
    assert "unique-existence" in proc.stdout
