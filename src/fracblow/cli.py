"""Command-line front end: kernel-constant sweeps, critical exponents,
regime classification, blow-up solves, and nonexistence audits.

A command line is parsed once.  When its first word names a command,
that command's own parser reads the rest; any other line (empty, help,
an unknown command, an option before the command, a leading ``--``)
goes to the top-level parser, which prints help or refuses it.  Either
way a parse error reads as the top-level parser reports it and exits 2.

Output conventions: CSV for per-node or per-cell tables, JSON for
structured reports.  A CSV table has a header row, newline line ends
and every float in its shortest round-trip repr.  JSON reports carry a
``timestamp`` field unless ``--no-timestamp`` is given; with it,
identical invocations produce byte-identical outputs.  A JSON config
file (``--config``) may set any parameter; explicit flags override the
file, and a JSON null is the same as a missing key.  Flags and config
values go through one converter, ``_resolve``.  Every unusable value
exits 2: one its parameter cannot take (text that is not a number, a
boolean where a number is meant, an ``out`` that is not a string) with
``configuration error: bad --FLAG value ...``, an unwritable ``out``
with ``configuration error: cannot write output ...``, and any other
with a configuration error that names it.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 regime guard.

Only ``solve`` and ``audit`` import the grid modules (and with them
numpy), when they run; ``specfun``, ``critical`` and ``classify`` need
nothing but the closed forms of ``specfun``, so they load neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain

from .errors import (
    BadConfig,
    ConfigError,
    FracblowError,
    NumericalError,
    RegimeError,
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


# The parameter flags and their argparse options; a config file may set any.
_FLAGS = {
    "alpha": {"help": "order parameter (or lo:hi range for specfun)"},
    "tau": {"help": "blow-up rate (or lo:hi range for specfun; "
                    "write --tau=-0.9:0 for negative ranges)"},
    "p": {"help": "absorption exponent"},
    "n_per_side": {}, "grading": {}, "delta": {},
    "schedule": {"help": "levels START:END (default 8:65536); only END, the "
                         "core {D <= 1/END} left out, is solved, so START "
                         "no longer changes the answer; END must leave at "
                         "least one node in that core"},
    "step": {"help": "sweep step (default 0.1)"},
}
_KNOWN_KEYS = {*_FLAGS, "out", "no_timestamp"}


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise BadConfig(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise BadConfig(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise BadConfig(f"config file {path} must hold a JSON object")
    unknown = set(config) - _KNOWN_KEYS
    if unknown:
        raise BadConfig(f"unknown config keys: {sorted(unknown)}")
    return config


def _resolve(ns, name, kind=None, *, default=None, required=False):
    """Value of ``name`` in ``ns``, flag or folded-in config value, else
    ``default``; converted by ``kind`` (str, float, int, bool) when one is
    given and a value is set, the one conversion of every parameter.  A
    value whose type cannot mean the kind is refused: only a true boolean
    is a bool and no boolean is a number, only a string is a str (such
    as a path), and int() must not truncate a fraction."""
    flag = "--" + name.replace("_", "-")
    value = getattr(ns, name, None)
    if value is None:
        if required:
            raise BadConfig(f"missing required parameter {flag}")
        return default
    if kind is None:
        return value
    if (isinstance(value, bool) != (kind is bool)
            or kind is str and not isinstance(value, str)
            or kind is int and isinstance(value, float)
            and not value.is_integer()):
        raise BadConfig(f"bad {flag} value {value!r}")
    try:
        return kind(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise BadConfig(f"bad {flag} value {value!r}") from exc


def _parse_range(text, what):
    """Either a single finite float or an inclusive 'lo:hi' range token
    of finite floats."""
    text = str(text)
    tokens = text.split(":", 1)
    try:
        values = [float(token) for token in tokens]
    except ValueError as exc:
        kind = "range" if len(tokens) > 1 else "value"
        raise BadConfig(f"bad {what} {kind} {text!r}") from exc
    for token, value in zip(tokens, values):
        if not math.isfinite(value):
            raise BadConfig(f"bad {what} value {token!r}")
    lo, hi = values[0], values[-1]
    if not lo <= hi:
        raise BadConfig(f"{what} range must be increasing, got {text!r}")
    return lo, hi


def _range_count(lo, hi, step):
    """Number of values lo, lo + step, ... up to hi; inf once one axis
    alone passes the cell cap, so a tiny step reaches no int() or list."""
    if not 0.0 < step < math.inf:
        raise BadConfig(f"step must be positive and finite, got {step}")
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


def _write_lines(lines, out_path):
    """Write the strings ``lines`` to ``out_path``, or to stdout without
    one, one after another as they come."""
    if out_path is None:
        sys.stdout.writelines(lines)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise BadConfig(f"cannot write output {out_path}: {exc}") from exc


def _write_json(payload, no_timestamp, out_path):
    """Write ``payload`` as sorted, indented JSON, stamped with the time
    unless ``no_timestamp``."""
    if not no_timestamp:
        from datetime import datetime, timezone
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    _write_lines((json.dumps(payload, indent=2, sort_keys=True) + "\n",),
                 out_path)


def _csv_lines(header, rows):
    """CSV lines of a header and rows of cells that are already strings,
    made as they are read: cells joined by commas, each line ended by a
    newline.  For cells that need no quoting, such as ``float.__repr__``
    of a float (what ``csv.writer`` writes for a float) or an empty cell
    beside others, these are the bytes of
    ``csv.writer(buf, lineterminator="\\n")``."""
    return map("{}\n".format, map(",".join, chain([header], rows)))


def _profile_rows(x, *even):
    """Rows x, D, *even of ``float.__repr__`` cells of the solve profile,
    D = |x| the distance to 0.  The profile mirrors about 0 bit for bit:
    ``Grid`` keeps x odd with a positive right half, and the ``even``
    columns are even (``ProblemSpec`` holds an even pair and the solve
    keeps u even).  So only the right half is formatted, the shortest repr
    being most of the cost of a CSV line: there D's cells are x's, and a
    left row is its mirror node's row with x negated."""
    h = x.size // 2
    right = [list(map(float.__repr__, c[h:].tolist())) for c in (x, *even)]
    right.insert(1, right[0])
    left = zip(map("-".__add__, reversed(right[0])),
               *map(reversed, right[1:]))
    return chain(left, zip(*right))


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_specfun(ns):
    """CSV sweep of the kernel constants: alpha,tau,c,C,T,c2.

    The c2 cell is left empty at tau=0 (the curvature integral is defined
    for tau<0 only).  A configuration error, such as a sweep value outside
    the domain the constants refuse, ends the command before it writes
    anything.
    """
    alpha_lo, alpha_hi = _parse_range(
        _resolve(ns, "alpha", default="0.1:0.9"), "alpha")
    tau_lo, tau_hi = _parse_range(
        _resolve(ns, "tau", default="-0.9:0.0"), "tau")
    step = _resolve(ns, "step", float, default=0.1)
    out = _resolve(ns, "out", str)

    n_alpha = _range_count(alpha_lo, alpha_hi, step)
    n_tau = _range_count(tau_lo, tau_hi, step)
    if n_alpha * n_tau > _MAX_SWEEP_CELLS:
        raise BadConfig(
            f"--step {step} asks for more than {_MAX_SWEEP_CELLS} alpha x tau "
            f"cells; use a larger --step or narrower --alpha/--tau ranges")
    alphas = _range_values(alpha_lo, alpha_hi, step, n_alpha)
    taus = [0.0 if abs(t) <= 1e-12 else t
            for t in _range_values(tau_lo, tau_hi, step, n_tau)]

    # Every row is computed before the output is opened.
    _write_lines(list(_csv_lines(("alpha", "tau", "c", "C", "T", "c2"),
                                 _sweep_rows(alphas, taus))), out)
    return EXIT_OK


def _sweep_rows(alphas, taus):
    """The specfun sweep's rows of formatted cells, alpha-major."""
    fmt = float.__repr__
    for a in alphas:
        t_value = fmt(T_alpha(a))
        for t in taus:
            c2 = fmt(c_second_derivative(a, t)) if t < 0.0 else ""
            yield (fmt(a), fmt(t), fmt(c_tau(a, t)), fmt(C_tau(a, t)),
                   t_value, c2)


def cmd_critical(ns):
    """JSON report of the critical order and per-alpha critical rates."""
    alpha_arg = _resolve(ns, "alpha", required=True)
    out = _resolve(ns, "out", str)
    no_timestamp = _resolve(ns, "no_timestamp", bool, default=False)

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

    _write_json({"alpha0": find_alpha0(), "per_alpha": per_alpha},
                no_timestamp, out)
    return EXIT_OK


def cmd_classify(ns):
    """Regime line and predicted blow-up rate for (alpha, p[, tau])."""
    alpha = _resolve(ns, "alpha", float, required=True)
    p = _resolve(ns, "p", float, required=True)
    tau = _resolve(ns, "tau", float)
    out = _resolve(ns, "out", str)

    regime = classify(alpha, p, tau)
    rate = "none" if regime.predicted_rate is None else repr(regime.predicted_rate)
    _write_lines((f"regime: {regime.kind.value}\npredicted_rate: {rate}\n",),
                 out)
    return EXIT_OK


def _grid_from(ns):
    from .mesh import build_graded
    return build_graded(_resolve(ns, "n_per_side", int, default=512),
                        _resolve(ns, "grading", float, default=2.4),
                        _resolve(ns, "delta", float, default=0.25))


def cmd_solve(ns):
    """Blow-up solve at the schedule's last level: report JSON plus
    per-node profile CSV.

    With ``--out PREFIX`` the report goes to PREFIX.report.json and the
    profile to PREFIX.profile.csv; without it the report is printed and
    the profile skipped.
    """
    from .operator import assemble
    from .solver import (ProblemSpec, default_sub_super,
                         require_unique_existence, solve_blowup)

    alpha = _resolve(ns, "alpha", float, required=True)
    p = _resolve(ns, "p", float, required=True)
    level = _parse_schedule(_resolve(ns, "schedule", default="8:65536"))
    out = _resolve(ns, "out", str)
    no_timestamp = _resolve(ns, "no_timestamp", bool, default=False)

    grid = _grid_from(ns)
    require_unique_existence(alpha, p)
    matrix = assemble(alpha, grid)
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
    _write_json(payload, no_timestamp,
                None if out is None else f"{out}.report.json")
    if out is not None:
        rows = _profile_rows(grid.nodes, report.final.values, sub.values,
                             sup.values)
        _write_lines(_csv_lines(("x", "D", "u", "sub", "super"), rows),
                     f"{out}.profile.csv")
    return EXIT_OK


def cmd_audit(ns):
    """Nonexistence-zone residual audit, emitted as JSON.  The audit
    reads the operator that ``profiles`` keeps per (alpha, grid) in the
    process, so it assembles only for an (alpha, grid) not kept."""
    from .analysis import audit_nonexistence

    alpha = _resolve(ns, "alpha", float, required=True)
    p = _resolve(ns, "p", float, required=True)
    tau = _resolve(ns, "tau", float, required=True)
    out = _resolve(ns, "out", str)
    no_timestamp = _resolve(ns, "no_timestamp", bool, default=False)

    grid = _grid_from(ns)
    audit = audit_nonexistence(alpha, grid, p, tau)
    payload = {
        "n_per_side": grid.n_per_side,
        "grading": grid.grading_exponent,
        "delta": grid.delta,
        "audit": audit.as_dict(),
    }
    _write_json(payload, no_timestamp, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch.


def _add_common(sub):
    sub.add_argument("--out", help="output path (prefix for solve)")
    sub.add_argument("--no-timestamp", dest="no_timestamp",
                     action="store_const", const=True, default=None,
                     help="omit the timestamp field for reproducible bytes")
    sub.add_argument("--config", help="JSON file with default parameter values")


@functools.cache
def _build_parser():
    """The top-level argument parser and its ``{name: subparser}`` map
    (the subparsers action's ``choices``), built at the first call and
    shared after it: parsing leaves both unchanged, and ``main`` looks
    each command up by name at call time.  A subcommand takes only the
    parameter flags it reads, plus ``--out``, ``--no-timestamp`` and
    ``--config``."""
    parser = argparse.ArgumentParser(
        prog="fracblow",
        description="Interior blow-up toolkit for the 1-D fractional "
                    "absorption equation.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, summary, flags in (
            ("specfun", "CSV sweep of kernel constants c, C, T, c2",
             "alpha tau step"),
            ("critical", "JSON report of alpha0 and per-alpha tau0/tau1",
             "alpha"),
            ("classify", "existence regime and predicted rate", "alpha p tau"),
            ("solve", "blow-up solve: report JSON + profile CSV",
             "alpha p schedule n_per_side grading delta"),
            ("audit", "nonexistence-zone residual audit JSON",
             "alpha p tau n_per_side grading delta")):
        sub = commands.add_parser(name, help=summary)
        for flag in flags.split():
            sub.add_argument("--" + flag.replace("_", "-"), dest=flag,
                             **_FLAGS[flag])
        _add_common(sub)
    return parser, commands.choices


def _parse(argv):
    """The namespace of the command line ``argv``, parsed once.  A line
    whose first word names a command goes straight to that command's
    parser, and its leftover words are refused as the top-level parser
    refuses them; the top-level parser would only have found the command
    and handed it the rest.  Any other line goes to the top-level
    parser.  A parse error or a help request raises ``SystemExit``."""
    parser, subparsers = _build_parser()
    sub = subparsers.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    ns, extra = sub.parse_known_args(argv[1:])
    if extra:
        parser.error("unrecognized arguments: " + " ".join(extra))
    ns.command = argv[0]
    return ns


def main(argv=None) -> int:
    """Run the command line ``argv`` (``sys.argv[1:]`` when None) and
    return its exit code: parse it once (``_parse``), fold the config
    file into the flags it left unset, and call the ``cmd_*`` of the
    command; every parse error and every package error maps to its exit
    code."""
    try:
        ns = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        code = exc.code
        if code is None or code == 0:
            return EXIT_OK
        return EXIT_CONFIG
    try:
        # a config value fills only a flag left unset; null is unset
        for name, value in _load_config(ns.config).items():
            if getattr(ns, name, None) is None:
                setattr(ns, name, value)
        return globals()[f"cmd_{ns.command}"](ns)
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
