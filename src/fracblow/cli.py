"""Command-line front end: kernel-constant sweeps, critical exponents,
regime classification, blow-up solves, and nonexistence audits.

Output conventions: CSV for per-node or per-cell tables, JSON for
structured reports.  JSON reports carry a ``timestamp`` field unless
``--no-timestamp`` is given; with it, identical invocations produce
byte-identical outputs.  A JSON config file (``--config``) may set any
parameter; explicit flags override the file.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 regime guard.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone

from .analysis import audit_nonexistence, require_nonexistence
from .errors import (
    BadConfig,
    ConfigError,
    FracblowError,
    NumericalError,
    RegimeError,
)
from .mesh import Zero, build_graded, distance_D
from .operator import assemble
from .solver import (
    ProblemSpec,
    default_sub_super,
    require_unique_existence,
    solve_blowup,
)
from .specfun import (
    C_tau,
    T_alpha,
    c_second_derivative,
    c_tau,
    classify,
    critical_exponents,
    find_alpha0,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REGIME = 4

# Most alpha x tau cells a specfun sweep may ask for (the default has 90).
_MAX_SWEEP_CELLS = 10**6


# ---------------------------------------------------------------------------
# Parameter plumbing.


_KNOWN_KEYS = {
    "alpha", "p", "tau", "n_per_side", "grading", "delta",
    "schedule", "out", "no_timestamp", "step",
}


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise BadConfig(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BadConfig(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise BadConfig(f"config file {path} must hold a JSON object")
    unknown = set(config) - _KNOWN_KEYS
    if unknown:
        raise BadConfig(f"unknown config keys: {sorted(unknown)}")
    return config


def _resolve(ns, config, name, kind=None, *, default=None, required=False):
    """Flag value if given, else config-file value, else default; converted
    by ``kind`` (float, int, bool) when one is given and a value is set.
    A conversion that would change the value's meaning is refused: only a
    true boolean is a bool, and int() must not truncate a fraction."""
    flag = "--" + name.replace("_", "-")
    value = getattr(ns, name, None)
    if value is None:
        value = config.get(name, default)
    if value is None:
        if required:
            raise BadConfig(f"missing required parameter {flag}")
        return None
    if kind is None:
        return value
    if (kind is bool and not isinstance(value, bool)) or (
            kind is int and isinstance(value, float)
            and not value.is_integer()):
        raise BadConfig(f"bad {flag} value {value!r}")
    try:
        return kind(value)
    except (ValueError, TypeError) as exc:
        raise BadConfig(f"bad {flag} value {value!r}") from exc


def _parse_range(text, what):
    """Either a single float or an inclusive 'lo:hi' range token."""
    text = str(text)
    if ":" in text:
        lo_s, hi_s = text.split(":", 1)
        try:
            lo, hi = float(lo_s), float(hi_s)
        except ValueError as exc:
            raise BadConfig(f"bad {what} range {text!r}") from exc
        if not lo <= hi:
            raise BadConfig(f"{what} range must be increasing, got {text!r}")
        return lo, hi
    try:
        value = float(text)
    except ValueError as exc:
        raise BadConfig(f"bad {what} value {text!r}") from exc
    return value, value


def _range_count(lo, hi, step):
    """Number of values lo, lo + step, ... up to hi; inf once one axis
    alone passes the cell cap, so a tiny step reaches no int() or list."""
    if not step > 0.0:
        raise BadConfig(f"step must be positive, got {step}")
    span = (hi - lo) / step
    return round(span) + 1 if span <= _MAX_SWEEP_CELLS else math.inf


def _range_values(lo, hi, step, count):
    values = [lo + k * step for k in range(count)]
    return [v for v in values if v <= hi + 1e-12]


def _parse_schedule(text):
    """The level END of a START:END schedule, the one level solved; START
    is checked (at least 4, at most END) but no longer changes the
    answer."""
    try:
        start_s, end_s = str(text).split(":", 1)
        start, end = int(start_s), int(end_s)
    except ValueError as exc:
        raise BadConfig(f"schedule must look like START:END, got {text!r}") from exc
    if start < 4:
        raise BadConfig(f"starting level must be at least 4, got {start}")
    if not start <= end:
        raise BadConfig(f"levels must not decrease, got {start} -> {end}")
    return end


def _timestamp_field(payload, no_timestamp):
    if not no_timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    return payload


def _write_text(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_specfun(ns, config):
    """CSV sweep of the kernel constants: alpha,tau,c,C,T,c2.

    The c2 cell is left empty at tau=0 (the curvature integral is defined
    for tau<0 only).  A configuration error ends the command before it
    writes anything.
    """
    alpha_lo, alpha_hi = _parse_range(
        _resolve(ns, config, "alpha", default="0.1:0.9"), "alpha")
    tau_lo, tau_hi = _parse_range(
        _resolve(ns, config, "tau", default="-0.9:0.0"), "tau")
    step = _resolve(ns, config, "step", float, default=0.1)
    out = _resolve(ns, config, "out")

    n_alpha = _range_count(alpha_lo, alpha_hi, step)
    n_tau = _range_count(tau_lo, tau_hi, step)
    if n_alpha * n_tau > _MAX_SWEEP_CELLS:
        raise BadConfig(
            f"--step {step} asks for more than {_MAX_SWEEP_CELLS} alpha x tau "
            f"cells; use a larger --step or narrower --alpha/--tau ranges")
    alphas = _range_values(alpha_lo, alpha_hi, step, n_alpha)
    taus = _range_values(tau_lo, tau_hi, step, n_tau)
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise BadConfig(f"alpha sweep value {a} outside (0,1)")
    for t in taus:
        if not -1.0 < t <= 1e-12:
            raise BadConfig(f"tau sweep value {t} outside (-1,0]")
    taus = [0.0 if abs(t) <= 1e-12 else t for t in taus]

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["alpha", "tau", "c", "C", "T", "c2"])
    for a in alphas:
        t_value = T_alpha(a)
        for t in taus:
            c2 = c_second_derivative(a, t) if t < 0.0 else ""
            writer.writerow([a, t, c_tau(a, t), C_tau(a, t), t_value, c2])
    _write_text(buffer.getvalue(), out)
    return EXIT_OK


def cmd_critical(ns, config):
    """JSON report of the critical order and per-alpha critical rates."""
    alpha_arg = _resolve(ns, config, "alpha", required=True)
    out = _resolve(ns, config, "out")
    no_timestamp = _resolve(ns, config, "no_timestamp", bool, default=False)

    try:
        alphas = [float(tok) for tok in str(alpha_arg).split(",") if tok.strip()]
    except ValueError as exc:
        raise BadConfig(f"bad alpha list {alpha_arg!r}") from exc
    if not alphas:
        raise BadConfig("alpha list is empty")

    per_alpha = {}
    for a in alphas:
        ce = critical_exponents(a)
        entry = {"tau0": ce.tau0}
        if ce.tau1 is not None:
            entry["tau1"] = ce.tau1
        per_alpha[repr(float(a))] = entry

    payload = _timestamp_field(
        {"alpha0": find_alpha0(), "per_alpha": per_alpha},
        no_timestamp)
    _write_text(_json_text(payload), out)
    return EXIT_OK


def cmd_classify(ns, config):
    """Regime line and predicted blow-up rate for (alpha, p[, tau])."""
    alpha = _resolve(ns, config, "alpha", float, required=True)
    p = _resolve(ns, config, "p", float, required=True)
    tau = _resolve(ns, config, "tau", float)
    out = _resolve(ns, config, "out")

    regime = classify(alpha, p, tau)
    rate = "none" if regime.predicted_rate is None else repr(regime.predicted_rate)
    _write_text(f"regime: {regime.kind.value}\npredicted_rate: {rate}\n", out)
    return EXIT_OK


def _grid_from(ns, config):
    n_per_side = _resolve(ns, config, "n_per_side", int, default=512)
    grading = _resolve(ns, config, "grading", float, default=2.4)
    delta = _resolve(ns, config, "delta", float, default=0.25)
    return build_graded(n_per_side, grading, delta)


def cmd_solve(ns, config):
    """Blow-up solve at the schedule's last level: report JSON plus
    per-node profile CSV.

    With ``--out PREFIX`` the report goes to PREFIX.report.json and the
    profile to PREFIX.profile.csv; without it the report is printed and
    the profile skipped.
    """
    alpha = _resolve(ns, config, "alpha", float, required=True)
    p = _resolve(ns, config, "p", float, required=True)
    level = _parse_schedule(_resolve(ns, config, "schedule", default="8:65536"))
    out = _resolve(ns, config, "out")
    no_timestamp = _resolve(ns, config, "no_timestamp", bool, default=False)

    grid = _grid_from(ns, config)
    require_unique_existence(alpha, p)
    matrix = assemble(alpha, grid, Zero())
    sub, sup = default_sub_super(matrix, p)
    spec = ProblemSpec(matrix=matrix, p=p, sub=sub, super=sup)
    report = solve_blowup(spec, level)

    payload = {
        "alpha": alpha,
        "p": p,
        "tau": spec.tau,
        "n_per_side": grid.n_per_side,
        "grading": grid.grading_exponent,
        "delta": grid.delta,
        "report": report.as_dict(),
    }
    _timestamp_field(payload, no_timestamp)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["x", "D", "u", "sub", "super"])
    D = distance_D(grid.nodes)
    for i, x in enumerate(grid.nodes):
        writer.writerow([x, D[i], report.final.values[i],
                         sub.values[i], sup.values[i]])

    if out is None:
        _write_text(_json_text(payload), None)
    else:
        _write_text(_json_text(payload), f"{out}.report.json")
        _write_text(buffer.getvalue(), f"{out}.profile.csv")
    return EXIT_OK


def cmd_audit(ns, config):
    """Nonexistence-zone residual audit, emitted as JSON."""
    alpha = _resolve(ns, config, "alpha", float, required=True)
    p = _resolve(ns, config, "p", float, required=True)
    tau = _resolve(ns, config, "tau", float, required=True)
    out = _resolve(ns, config, "out")
    no_timestamp = _resolve(ns, config, "no_timestamp", bool, default=False)

    grid = _grid_from(ns, config)
    require_nonexistence(alpha, p, tau)
    audit = audit_nonexistence(assemble(alpha, grid, Zero()), p, tau)
    payload = {
        "n_per_side": grid.n_per_side,
        "grading": grid.grading_exponent,
        "delta": grid.delta,
        "audit": audit.as_dict(),
    }
    _timestamp_field(payload, no_timestamp)
    _write_text(_json_text(payload), out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch.


def _add_common(sub):
    sub.add_argument("--alpha", help="order parameter (or lo:hi range for specfun)")
    sub.add_argument("--tau", help="blow-up rate (or lo:hi range for specfun; "
                                   "write --tau=-0.9:0 for negative ranges)")
    sub.add_argument("--p", help="absorption exponent")
    sub.add_argument("--n-per-side", dest="n_per_side", type=int)
    sub.add_argument("--grading", type=float)
    sub.add_argument("--delta", type=float)
    sub.add_argument("--schedule",
                     help="levels START:END for solve (default 8:65536); only "
                          "END, the core {D <= 1/END} left out, is solved, "
                          "so START no longer changes the answer")
    sub.add_argument("--out", help="output path (prefix for solve)")
    sub.add_argument("--no-timestamp", dest="no_timestamp",
                     action="store_const", const=True, default=None,
                     help="omit the timestamp field for reproducible bytes")
    sub.add_argument("--config", help="JSON file with default parameter values")


@functools.cache
def _build_parser():
    """The argument parser, built at the first call and shared after it:
    parsing leaves it unchanged, and ``main`` looks each command up by
    name at call time."""
    parser = argparse.ArgumentParser(
        prog="fracblow",
        description="Interior blow-up toolkit for the 1-D fractional "
                    "absorption equation.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, summary in (
            ("specfun", "CSV sweep of kernel constants c, C, T, c2"),
            ("critical", "JSON report of alpha0 and per-alpha tau0/tau1"),
            ("classify", "existence regime and predicted rate"),
            ("solve", "blow-up solve: report JSON + profile CSV"),
            ("audit", "nonexistence-zone residual audit JSON")):
        sub = commands.add_parser(name, help=summary)
        _add_common(sub)
    commands.choices["specfun"].add_argument(
        "--step", type=float, help="sweep step (default 0.1)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None or code == 0:
            return EXIT_OK
        return EXIT_CONFIG
    try:
        config = _load_config(getattr(ns, "config", None))
        return globals()[f"cmd_{ns.command}"](ns, config)
    except RegimeError as exc:
        print(f"regime guard: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FracblowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
