"""fracblow benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {solve,specfun,audit} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout.  Every operation is one
in-process call to ``fracblow.cli.main(argv)`` with stdout and stderr
captured; operations run one after another (a closed loop with one
client).  The amount of work is fixed by the seed and ``--seconds``:
the generator makes as many blocks of operations as take ``--seconds``
on the reference machine (``workloads.BLOCKS``), so a run of a given
seed always attempts the same operations and a faster program finishes
sooner.  After the timed window ``solve`` runs its panel of known
failures.  The program keeps its own threads: OpenBLAS at
its default count and the pool of up to 8 workers in ``cmd_specfun``.
Outputs are checked after the timed window (see ``check.py``).

With ``--trace 0`` the last line of stdout is a JSON object whose
metrics are the end-to-end figures:

* ``ok_per_s``    operations that finished and passed their check, per
                  second of wall time, taken block by block; the median
                  block is reported, so a burst of load from outside
                  moves one block and not the figure;
* ``op_s_p50``    median wall seconds of a passing timed operation;
* ``setup_s``     process start to the first timed operation (imports,
                  input generation, grid construction), the median of
                  this process and four fresh processes doing the same;
* ``peak_rss_mb`` peak resident memory of the process by the end of the
                  timed window.

``ok_per_s`` and ``op_s_p50`` are given at the speed of the reference
machine.  The host is shared and its speed drifts by a fifth over
minutes, which moves every operation alike; so between blocks the run
also times a fixed piece of work that does not touch the package
(``SpeedReference``) and divides ``op_s_p50`` by the ratio of that
work's median time to its time on the reference machine (``ok_per_s``
is multiplied by it).  The raw figures and the ratio are printed on the
``info`` line.

``attempted`` and ``failed`` count every operation, panel included;
an operation fails when it crashes, exits non-zero or misses a check.
``correct`` is false when a failure is not one its stratum documents
(``workloads.Op.may_fail``): the known defects are counted, anything
new makes the run incorrect.

With ``--trace 1`` every package function is wrapped (``spans.py``) and
the metrics are the per-layer figures.  Lines before the last carry the
run metadata, the failure share and tail latency, and (traced) the
self-time share of each layer.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 4
# No operation of any workload takes 10 s; one that runs for a minute is
# stopped and reported, so the run still ends within its time limit.
OP_TIME_LIMIT = 60.0
# Operations not started within this multiple of --seconds are reported
# as failed ("Unreached"), again to keep within the time limit.
OVERRUN = 3.0


# Median seconds of one timing in SpeedReference.measure() on the
# reference machine (2-core Xeon, OpenBLAS with 2 threads), 600 timings.
REFERENCE_SECONDS = 0.047


class SpeedReference:
    """Times fixed work of the kinds the package does -- a Python loop
    of float arithmetic, two dense LU solves and a vectorised
    hypergeometric function -- to follow the speed of a shared host.
    Over ten runs of each workload this correction narrowed the spread
    of ok_per_s and op_s_p50 on all three; without the LU it widened
    the spread on solve."""

    def __init__(self):
        import numpy as np
        from scipy.special import hyp2f1

        rng = np.random.default_rng(0)
        self._np, self._hyp2f1 = np, hyp2f1
        self._matrix = rng.random((600, 600)) + 600.0 * np.eye(600)
        self._rhs = np.ones(600)
        self._x = np.linspace(0.01, 0.9, 20000)

    def _once(self) -> float:
        start = time.perf_counter()
        total = 0.0
        for i in range(200000):
            total += (i % 7) * 0.5
        for _ in range(2):
            self._np.linalg.solve(self._matrix, self._rhs)
        self._hyp2f1(0.3, 0.7, 1.5, self._x)
        return time.perf_counter() - start

    def measure(self) -> list:
        """Three timings of the reference work."""
        return [self._once() for _ in range(3)]


def slowdown(samples: list) -> float:
    """How much slower than the reference machine the host ran while
    ``samples`` were taken."""
    return statistics.median(samples) / REFERENCE_SECONDS


class OpTimeout(Exception):
    """An operation ran past OP_TIME_LIMIT."""


def _raise_timeout(signum, frame):
    raise OpTimeout(f"operation ran past {OP_TIME_LIMIT} s")


@dataclass
class Outcome:
    rc: int | None
    crash: str | None
    seconds: float
    stdout: str
    stderr: str
    files: dict = field(default_factory=dict)

    @property
    def bytes_out(self) -> int:
        return len(self.stdout.encode()) + sum(len(t.encode()) for t in self.files.values())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("solve", "specfun", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def require_checkout() -> None:
    missing = [p for p in ("src/fracblow/cli.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"not a fracblow checkout: {ROOT} lacks {', '.join(missing)}")


def setup(args):
    """Imports, input generation and the workload's grid.

    For the grid workloads it also runs one dense solve of the grid's
    size: OpenBLAS starts its threads lazily, which otherwise adds about
    a second to whichever operation comes first."""
    import numpy as np

    import fracblow.cli  # noqa: F401
    from fracblow.mesh import build_graded

    import workloads

    ops = workloads.generate(args.workload, args.seed, args.seconds)
    grid = None
    if args.workload in ("solve", "audit"):
        grid = build_graded(workloads.N_PER_SIDE, workloads.GRADING, workloads.DELTA)
        n = grid.n_nodes
        np.linalg.solve(np.eye(n) + np.full((n, n), 1.0 / n), np.ones(n))
    return ops, grid


def invoke(op, workdir: Path) -> Outcome:
    """Run one command line through the CLI entry point."""
    from fracblow import cli

    argv = list(op.argv)
    prefix = workdir / "op"
    if op.kind == "solve":
        argv += ["--out", str(prefix)]
    out, err = io.StringIO(), io.StringIO()
    crash = rc = None
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT)
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a result to report, not to stop on
        crash = type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - start
    files = {}
    for suffix in ("report.json", "profile.csv"):
        path = Path(f"{prefix}.{suffix}")
        if path.exists():
            files[suffix] = path.read_text()
            path.unlink()
    return Outcome(rc, crash, seconds, out.getvalue(), err.getvalue(), files)


def setup_probe_seconds(args) -> list:
    """Set-up time of fresh processes doing this run's set-up."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def metadata(args, grid) -> dict:
    import numpy
    import scipy

    import workloads

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = dict(numpy.show_config(mode="dicts")["Build Dependencies"]["blas"])
    blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    blas["threads"] = blas_threads()
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fracblow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workloads.WHY[args.workload],
        "cpu": cpu, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "specfun_pool_max_workers": 8,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "grid_nodes": None if grid is None else grid.n_nodes,
    }


def blas_threads():
    """OpenBLAS thread count of the library numpy loaded, if found."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup(args)
        print(time.perf_counter() - T0)
        return 0

    import check
    import spans
    import workloads

    recorder = spans.Recorder() if args.trace else None
    with spans.instrumented(recorder) if recorder else nullcontext():
        ops, grid = setup(args)
        setup_s = time.perf_counter() - T0
        workdir = ROOT / "perfbench" / f"work-{os.getpid()}"
        workdir.mkdir(exist_ok=True)
        try:
            results, walls = [], []
            reference = SpeedReference()
            block_size = workloads.BLOCKS[args.workload][0]
            speed = reference.measure()
            begin = start = time.perf_counter()
            for op in (op for op in ops if op.timed):
                if recorder:
                    recorder.op = len(results)
                if time.perf_counter() - begin < OVERRUN * args.seconds:
                    results.append((op, invoke(op, workdir)))
                else:
                    results.append((op, Outcome(None, "Unreached", 0.0, "", "")))
                if len(results) % block_size == 0:
                    walls.append(time.perf_counter() - start)
                    speed += reference.measure()
                    start = time.perf_counter()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for op in ops:
                if not op.timed:
                    if recorder:
                        recorder.op = len(results)
                    results.append((op, invoke(op, workdir)))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    oracles = check.load_oracles(ROOT)
    failures = Counter()
    rate_errors, passed_seconds, correct = [], [], True
    block_passed = Counter()
    verdicts = []
    for op, outcome in results:
        failure, rate_error = check.check(op, outcome, oracles)
        verdicts.append(failure)
        if rate_error is not None:
            rate_errors.append(rate_error)
        if failure is None:
            if op.timed:
                passed_seconds.append(outcome.seconds)
                block_passed[(len(verdicts) - 1) // block_size] += 1
            continue
        known = check.is_known(op, failure)
        correct &= known
        failures[(op.stratum, failure.split(":")[0], known)] += 1
        if not known:
            print(f"unexpected failure: {' '.join(op.argv)}: {failure} "
                  f"{outcome.stderr.strip()}", file=sys.stderr)

    n_failed = sum(v is not None for v in verdicts)
    meta = metadata(args, grid)
    meta["timed_ops"] = sum(op.timed for op, _ in results)
    meta["panel_ops"] = sum(not op.timed for op, _ in results)
    meta["blocks"] = len(walls)
    meta["reuse_frac"] = workloads.reuse_frac([op for op, _ in results if op.timed])
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"failures": [
        {"stratum": s, "failure": f, "known": k, "count": n}
        for (s, f, k), n in sorted(failures.items())]}, sort_keys=True))

    if not passed_seconds:
        print("no operation passed", file=sys.stderr)
        return 1
    # a 90th percentile needs ten samples beyond it, so only specfun
    # runs (over a hundred operations) report one
    p90 = quantile(passed_seconds, 0.9) if len(passed_seconds) >= 100 else None
    tail = {"fail_frac": n_failed / len(results), "op_s_p90": p90,
            "passed_timed_ops": len(passed_seconds)}

    if recorder:
        print(json.dumps({"info": tail}, sort_keys=True))
        metrics, shares = trace_metrics(recorder, results, verdicts, rate_errors)
        total = sum(shares.values())
        print(json.dumps({"self_share": {k: v / total for k, v in shares.items()}},
                         sort_keys=True))
        units = spans.PER_LAYER_UNITS
    else:
        setup_times = [setup_s] + setup_probe_seconds(args)
        raw = {
            "ok_per_s": statistics.median(block_passed[i] / wall
                                          for i, wall in enumerate(walls)),
            "op_s_p50": statistics.median(passed_seconds),
        }
        ratio = slowdown(speed)
        tail.update(raw=raw, slowdown=ratio)
        print(json.dumps({"info": tail}, sort_keys=True))
        metrics = {
            "ok_per_s": raw["ok_per_s"] * ratio,
            "op_s_p50": raw["op_s_p50"] / ratio,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"ok_per_s": "1/s", "op_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(results),
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def trace_metrics(recorder, results, verdicts, rate_errors):
    import spans

    metrics, shares = spans.layer_metrics(recorder.spans)
    metrics["analysis.rate_err_max"] = max(rate_errors, default=0.0)
    metrics["cli.bytes_out"] = sum(outcome.bytes_out for _, outcome in results)
    by_op = {}
    for span in recorder.spans:
        by_op.setdefault(span.op, []).append(span)
    fails = {f"fail.{name}": 0 for name in spans.FAIL_NAMES + ("check", "other")}
    for index, failure in enumerate(verdicts):
        if failure is None:
            continue
        if failure.startswith("check"):
            name = "check"
        else:
            name = spans.op_exception(by_op.get(index, []))
        key = f"fail.{name}"
        fails[key if key in fails else "fail.other"] += 1
    metrics.update(fails)
    traced_seconds = sum(outcome.seconds for _, outcome in results)
    metrics["trace.overhead_frac"] = (len(recorder.spans) * spans.span_cost()
                                      / traced_seconds)
    return metrics, shares


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
