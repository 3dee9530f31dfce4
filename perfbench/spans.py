"""Per-layer trace of fracblow taken from outside the package.

``instrumented(recorder)`` replaces every public function of the
package's modules, under every name a package module binds it to, with
a wrapper that records a span (name, layer, start, end, parent span,
operation id, exception) and restores the originals on exit.
A function imported by another module is wrapped under that module's
name too (``fracblow.solver.assemble``, ``fracblow.specfun.integrate_singular``),
because that is the name the caller looks up at run time.  The layer
of a span is the module that defines the function.

Spans keep a per-thread parent stack, so the cells that ``cmd_specfun``
runs on its worker threads become roots of their own thread instead of
children of whatever the main thread is doing.  A span's self time is
its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import math
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("quad", "specfun", "mesh", "operator", "profiles", "solver",
          "analysis", "cli")

# Exception names itemised as fail.<name>; anything else is fail.other.
FAIL_NAMES = ("BadConfig", "OutOfDomain", "NonIntegrable", "NoConvergence",
              "BracketFailure", "RegimeError", "GridMismatch",
              "SingularSystem", "NoAdmissiblePair", "NewtonStall",
              "MonotoneViolation", "AuditFail", "TooFewPoints")

ROOT_FINDERS = ("find_alpha0", "find_tau0", "find_tau1")

# Every per-layer metric of a traced run, with its unit.
PER_LAYER_UNITS = {
    "quad.calls": "count", "quad.self_s": "s", "quad.subdivisions": "count",
    "specfun.calls": "count", "specfun.self_s": "s",
    "specfun.root_evals": "count", "specfun.repeat_frac": "ratio",
    "operator.assemble_calls": "count", "operator.assemble_s": "s",
    "operator.assemble_repeat_op": "count",
    "operator.assemble_repeat_run": "count",
    "operator.matrix_mb_computed": "MB",
    "profiles.torsion_calls": "count", "profiles.torsion_s": "s",
    "solver.sub_super_s": "s", "solver.blowup_s": "s",
    "solver.newton_iters": "count", "solver.idle_levels": "count",
    "solver.lu_gflop_computed": "GFLOP",
    "analysis.audit_s": "s", "analysis.lift_doublings": "count",
    "analysis.rate_err_max": "1",
    "mesh.self_s": "s", "cli.self_s": "s", "cli.bytes_out": "B",
    **{f"fail.{name}": "count" for name in FAIL_NAMES + ("check", "other")},
    "trace.overhead_frac": "ratio",
}


@dataclass(slots=True)
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    op: object
    start: float = 0.0
    end: float = 0.0
    exc: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# Facts read off arguments and results at record time, so spans never hold
# references to grids or matrices.


def _grid_key(grid) -> str:
    return hashlib.sha1(np.ascontiguousarray(grid.nodes).tobytes()).hexdigest()


def _probe_integrate_singular(args, kwargs, result):
    return {"subdivisions": int(result.n_subdivisions)}


def _probe_assemble(args, kwargs, result):
    n = result.grid.n_nodes
    return {"key": (float(result.alpha), _grid_key(result.grid),
                    repr(result.exterior)),
            "mb": 8.0 * (n * n + n) / 1e6}


def _probe_solve_blowup(args, kwargs, result):
    grid = args[0].grid
    D = np.abs(grid.nodes)
    gflop = 0.0
    for n, iters in zip(result.levels, result.newton_iters):
        m = int(np.count_nonzero(D > 1.0 / n))
        gflop += iters * (2.0 / 3.0) * m ** 3 / 1e9
    return {"iters": [int(k) for k in result.newton_iters], "gflop": gflop}


def _probe_audit(args, kwargs, result):
    doublings = 0.0
    for t, scale in zip(result.t_values, result.lift_scales):
        # zone 1 stores t * lift; zones 2 and 3 store the doubled multiple
        doublings += math.log2(scale / t if result.zone == 1 else scale)
    return {"doublings": doublings}


def _args_key(args, kwargs):
    return (args, tuple(sorted(kwargs.items())))


PROBES = {
    "integrate_singular": _probe_integrate_singular,
    "assemble": _probe_assemble,
    "solve_blowup": _probe_solve_blowup,
    "audit_nonexistence": _probe_audit,
}
# calls whose arguments are recorded to measure repeated work
KEYED = ("T_alpha",) + ROOT_FINDERS


class Recorder:
    """Collects spans from any thread.  ``op`` is the id of the operation
    in progress; the benchmark runs one operation at a time."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer: str):
        name = fn.__name__
        probe = PROBES.get(name)
        keyed = name in KEYED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), name, layer,
                        stack[-1].id if stack else None, self.op)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.exc = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if probe is not None:
                span.info = probe(args, kwargs, result)
            elif keyed:
                span.info = {"key": _args_key(args, kwargs)}
            return result

        return traced


def targets() -> list:
    """(module, attribute, layer) for every public package function under
    every package-module name bound to it."""
    modules = {name: importlib.import_module(f"fracblow.{name}")
               for name in LAYERS}
    found = []
    for module in modules.values():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            layer = obj.__module__.rpartition(".")[2]
            if layer in modules:
                found.append((module, attr, layer))
    return found


@contextmanager
def instrumented(recorder: Recorder):
    """Wrap every target for the duration of the block, then restore."""
    patched = []
    try:
        for module, attr, layer in targets():
            original = getattr(module, attr)
            setattr(module, attr, recorder.wrap(original, layer))
            patched.append((module, attr, original))
        yield recorder
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op."""
    def noop(x):
        return x

    recorder = Recorder()
    traced = recorder.wrap(noop, "calibration")
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        t1 = time.perf_counter()
        for i in range(calls):
            traced(i)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


# ---------------------------------------------------------------------------
# Reduction to the per-layer metrics.


def op_exception(spans: list) -> str | None:
    """Exception that ended an operation: the one leaving its ``cmd_*``
    span, else (failures the command caught per cell) the first recorded."""
    raised = [s for s in spans if s.exc is not None]
    for span in raised:
        if span.name.startswith("cmd_"):
            return span.exc
    return raised[0].exc if raised else None


def layer_metrics(spans: list) -> dict:
    """Per-layer counts and times from one run's spans."""
    by_id = {s.id: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def self_time(s):
        return s.duration - child_time[s.id]

    def under_root_finder(s):
        parent = by_id.get(s.parent)
        while parent is not None:
            if parent.name in ROOT_FINDERS:
                return True
            parent = by_id.get(parent.parent)
        return False

    layer_self = Counter()
    layer_calls = Counter()
    for s in spans:
        layer_self[s.layer] += self_time(s)
        layer_calls[s.layer] += 1

    quad = [s for s in spans if s.name == "integrate_singular"]
    keyed = [s for s in spans if s.name in KEYED]
    seen_keys, repeats = set(), 0
    for s in sorted(keyed, key=lambda s: s.start):
        key = (s.name, s.info.get("key"))
        repeats += key in seen_keys
        seen_keys.add(key)

    assembles = sorted((s for s in spans if s.name == "assemble"),
                       key=lambda s: s.start)
    run_keys, op_keys = set(), set()
    repeat_run = repeat_op = 0
    for s in assembles:
        key = s.info.get("key")
        repeat_run += key in run_keys
        repeat_op += (s.op, key) in op_keys
        run_keys.add(key)
        op_keys.add((s.op, key))

    blowups = [s for s in spans if s.name == "solve_blowup"]
    iters = [k for s in blowups for k in s.info.get("iters", [])]

    def total_self(name):
        return sum(self_time(s) for s in spans if s.name == name)

    metrics = {
        "quad.calls": len(quad),
        "quad.self_s": layer_self["quad"],
        "quad.subdivisions": sum(s.info.get("subdivisions", 0) for s in quad),
        "specfun.calls": layer_calls["specfun"],
        "specfun.self_s": layer_self["specfun"],
        "specfun.root_evals": sum(1 for s in quad if under_root_finder(s)),
        "specfun.repeat_frac": repeats / len(keyed) if keyed else 0.0,
        "operator.assemble_calls": len(assembles),
        "operator.assemble_s": sum(s.duration for s in assembles),
        "operator.assemble_repeat_op": repeat_op,
        "operator.assemble_repeat_run": repeat_run,
        "operator.matrix_mb_computed": sum(s.info.get("mb", 0.0) for s in assembles),
        "profiles.torsion_calls": sum(1 for s in spans if s.name == "solve_torsion"),
        "profiles.torsion_s": total_self("solve_torsion"),
        "solver.sub_super_s": total_self("default_sub_super"),
        "solver.blowup_s": total_self("solve_blowup"),
        "solver.newton_iters": sum(iters),
        "solver.idle_levels": sum(1 for k in iters if k == 0),
        "solver.lu_gflop_computed": sum(s.info.get("gflop", 0.0) for s in blowups),
        "analysis.audit_s": total_self("audit_nonexistence"),
        "analysis.lift_doublings": sum(s.info.get("doublings", 0.0) for s in spans
                                       if s.name == "audit_nonexistence"),
        "mesh.self_s": layer_self["mesh"],
        "cli.self_s": layer_self["cli"],
    }
    shares = {layer: layer_self[layer] for layer in LAYERS}
    return metrics, shares
