"""Correctness checks for benchmark operations, applied after timing.

Each check reads what the command printed or wrote and compares it
with values derived without the package: the quadrature oracle in
``tests/oracles.py`` for the kernel constants c, C and c'', the closed
form pi*cot(pi*alpha)/(2*alpha) for T, alpha0 = 1/2, the closed form
tau1 = 2*alpha - 1 for verdicts and zones, and a log-log least-squares
fit written here for blow-up rates.  The tolerances are
those of the acceptance suite (``tests/test_acceptance.py``).
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np

import workloads

ALPHA0_TOL = 1e-6          # criterion 3
CELL_REL_TOL = 1e-8        # criterion 1
RATE_TOL = 0.05            # criterion 6
WINDOW_AGREE_TOL = 0.02    # criterion 6
FIT_WINDOW = (0.02, 0.1)
HALF_WINDOW = (0.01, 0.05)
ABS_FLOOR = 1e-13          # the package's absolute quadrature floor


class CheckFailed(Exception):
    """An output exists but is wrong or outside tolerance."""


def load_oracles(root: Path):
    """Import ``tests/oracles.py`` of the checkout under test."""
    spec = importlib.util.spec_from_file_location(
        "oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def cell_tolerance(ref: float, oracle_diff: float) -> float:
    """Allowed |value - oracle|: the relative tolerance of criterion 1
    plus twice the oracle's own refinement difference (its error
    estimate, about 6e-9 absolute at tau = -0.1) and the package's
    absolute floor."""
    return CELL_REL_TOL * abs(ref) + 2.0 * oracle_diff + ABS_FLOOR


# ---------------------------------------------------------------------------
# Grid-free commands.


def check_classify(op, stdout: str) -> None:
    lines = dict(line.split(": ", 1) for line in stdout.strip().splitlines())
    kind = lines.get("regime")
    rate_text = lines.get("predicted_rate")
    want_kind, want_rate = workloads.expected_regime(
        op.params["alpha"], op.params["p"], op.params["tau"])
    _require(kind == want_kind, f"verdict {kind}, expected {want_kind}")
    if want_rate is None:
        _require(rate_text == "none", f"predicted rate {rate_text}, expected none")
        return
    rate = float(rate_text)
    # the unique-existence rate is a formula; the special rate is tau1
    # from the root finder, whose tolerance is 1e-8
    tol = 1e-12 if want_kind == "unique-existence" else 1e-6
    _require(abs(rate - want_rate) <= tol * max(1.0, abs(want_rate)),
             f"predicted rate {rate}, expected {want_rate}")


def check_critical(op, stdout: str) -> None:
    report = json.loads(stdout)
    alpha = op.params["alpha"]
    _require(abs(report["alpha0"] - workloads.ALPHA0) <= ALPHA0_TOL,
             f"alpha0 {report['alpha0']}")
    (entry,) = report["per_alpha"].values()
    if abs(alpha - workloads.ALPHA0) >= 1e-3:
        _require(("tau1" in entry) == (alpha < workloads.ALPHA0),
                 f"tau1 presence wrong for alpha {alpha}")
    if "tau1" in entry:
        _require(entry["tau0"] < entry["tau1"],
                 f"tau0 {entry['tau0']} !< tau1 {entry['tau1']}")


def check_specfun_row(op, stdout: str, oracles) -> None:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    _require(len(rows) == 10, f"{len(rows)} rows, expected 10")
    alpha = op.params["alpha"]

    def compare(name, value_text, ref_args):
        ref, diff = oracles.reference_improper(**ref_args)
        value = float(value_text)
        _require(abs(value - ref) <= cell_tolerance(ref, diff),
                 f"{name} = {value!r}, oracle {ref!r} (diff {diff:.1e})")

    # T against its closed form pi*cot(pi*alpha)/(2*alpha), the anchor the
    # oracle module itself cites: the oracle's quadrature of T is off by up
    # to 1e-2 for alpha near 1, well beyond its own refinement difference
    t_exact = math.pi / math.tan(math.pi * alpha) / (2.0 * alpha)
    t_value = float(rows[0]["T"])
    _require(abs(t_value - t_exact) <= cell_tolerance(t_exact, 0.0),
             f"T({alpha}) = {t_value!r}, closed form {t_exact!r}")
    for row in rows:
        _require(float(row["alpha"]) == alpha, "alpha column")
        _require(row["T"] == rows[0]["T"], "T column not constant")
        tau = float(row["tau"])
        compare(f"c({alpha}, {tau})", row["c"], oracles.c_reference(alpha, tau))
        compare(f"C({alpha}, {tau})", row["C"], oracles.C_reference(alpha, tau))
        if tau < 0.0:
            compare(f"c2({alpha}, {tau})", row["c2"],
                    oracles.c2_reference(alpha, tau))
        else:
            _require(row["c2"] == "", "c2 must be empty at tau = 0")


# ---------------------------------------------------------------------------
# Grid commands.


def fit_exponent(D: np.ndarray, u: np.ndarray, window: tuple) -> float:
    """Least-squares slope of log u against log D over the window."""
    mask = (D >= window[0]) & (D <= window[1])
    _require(int(mask.sum()) >= 8, f"only {int(mask.sum())} nodes in {window}")
    _require(bool(np.all(u[mask] > 0.0)), "non-positive values in fit window")
    design = np.vstack([np.log(D[mask]), np.ones(int(mask.sum()))]).T
    coef, *_ = np.linalg.lstsq(design, np.log(u[mask]), rcond=None)
    return float(coef[0])


def check_solve(op, report_text: str, profile_text: str) -> float:
    """Check a solve; return |fitted - predicted| rate, which is also
    attached to a CheckFailed raised for an out-of-tolerance result."""
    report = json.loads(report_text)["report"]
    for flag in ("converged", "ordering_ok", "monotone_ok"):
        _require(report[flag] is True, f"{flag} is {report[flag]}")
    table = np.loadtxt(io.StringIO(profile_text), delimiter=",", skiprows=1,
                       ndmin=2)
    D, u = table[:, 1], table[:, 2]
    alpha, p = op.params["alpha"], op.params["p"]
    target = -2.0 * alpha / (p - 1.0)
    rate = fit_exponent(D, u, FIT_WINDOW)
    halved = fit_exponent(D, u, HALF_WINDOW)
    error = abs(rate - target)
    try:
        _require(abs(halved - rate) <= WINDOW_AGREE_TOL,
                 f"windows disagree: {rate:.4f} vs {halved:.4f}")
        _require(error <= RATE_TOL, f"rate {rate:.4f}, expected {target:.4f}")
    except CheckFailed as exc:
        exc.rate_error = error
        raise
    return error


def check_audit(op, stdout: str) -> None:
    audit = json.loads(stdout)["audit"]
    want = workloads.expected_zone(op.params["alpha"], op.params["p"],
                                   op.params["tau"])
    _require(audit["passed"] is True, "audit not passed")
    _require(audit["zone"] == want, f"zone {audit['zone']}, expected {want}")
    margins = audit["worst_margins"]
    _require(len(margins) == 4, f"{len(margins)} margins")
    if want == 2:      # sub-solution residuals
        _require(all(m < 0.0 for m in margins), f"zone-2 margins {margins}")
    else:              # super-solution residuals
        _require(all(m > 0.0 for m in margins), f"zone-{want} margins {margins}")


def check(op, outcome, oracles) -> tuple:
    """(failure, rate_error) for one finished operation.

    ``failure`` is None for a pass, else "exit<code>", "crash:<type>" or
    "check: <message>"; ``rate_error`` is set for checked solves."""
    if outcome.crash is not None:
        return f"crash:{outcome.crash}", None
    if outcome.rc != 0:
        return f"exit{outcome.rc}", None
    rate_error = None
    try:
        if op.kind == "classify":
            check_classify(op, outcome.stdout)
        elif op.kind == "critical":
            check_critical(op, outcome.stdout)
        elif op.kind == "specfun":
            check_specfun_row(op, outcome.stdout, oracles)
        elif op.kind == "audit":
            check_audit(op, outcome.stdout)
        elif op.kind == "solve":
            rate_error = check_solve(op, outcome.files["report.json"],
                                     outcome.files["profile.csv"])
    except (CheckFailed, KeyError, ValueError, TypeError) as exc:
        return f"check: {exc}", getattr(exc, "rate_error", None)
    return None, rate_error


def is_known(op, failure: str) -> bool:
    """Whether ``failure`` is a documented defect for the op's stratum."""
    if failure.startswith("check"):
        return "check" in op.may_fail
    if failure.startswith("exit"):
        return int(failure[4:]) in op.may_fail
    return False
