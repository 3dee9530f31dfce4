"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q

They check that inputs follow from the seed alone, that the checker
rejects perturbed outputs, that tracing restores every wrapped name,
and that tracing does not change what the CLI writes.
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ORACLES = check.load_oracles(ROOT)


def _run_op(op, tmp_path):
    outcome = run.invoke(op, tmp_path)
    assert outcome.crash is None and outcome.rc == 0, outcome.stderr
    return outcome


@pytest.mark.parametrize("name", ["solve", "specfun", "audit"])
def test_same_seed_same_argv(name):
    first = [op.argv for op in workloads.generate(name, 7, 30)]
    assert first == [op.argv for op in workloads.generate(name, 7, 30)]
    assert first != [op.argv for op in workloads.generate(name, 8, 30)]


@pytest.mark.parametrize("name", ["solve", "specfun", "audit"])
def test_mix_does_not_depend_on_seed(name):
    # every run of a given length has the same strata, so the same
    # documented failures, whatever its seed
    def mix(seed):
        return [(op.stratum, op.may_fail) for op in workloads.generate(name, seed, 25)]
    assert mix(7) == mix(8)


def test_tau1_closed_form_matches_oracle():
    for alpha in (0.1, 0.25, 0.37, 0.45):
        tau1 = workloads.tau1(alpha)
        zero, diff = ORACLES.reference_improper(**ORACLES.c_reference(alpha, tau1))
        near, _ = ORACLES.reference_improper(**ORACLES.c_reference(alpha, tau1 + 0.01))
        assert abs(zero) <= 1e-9 * abs(near) + 2 * diff + 1e-13


def test_checker_flags_perturbed_cell(tmp_path):
    op = workloads.Op("specfun", ("specfun", "--alpha", "0.37", "--tau=-0.9:0",
                                  "--step", "0.1"), "specfun-row", {"alpha": 0.37})
    outcome = _run_op(op, tmp_path)
    assert check.check(op, outcome, ORACLES) == (None, None)
    lines = outcome.stdout.splitlines()
    cells = lines[5].split(",")
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-6))
    lines[5] = ",".join(cells)
    bad = copy.copy(outcome)
    bad.stdout = "\n".join(lines) + "\n"
    failure, _ = check.check(op, bad, ORACLES)
    assert failure is not None and failure.startswith("check")


def _profile(D, u):
    x = np.concatenate([-D[::-1], D]).tolist()
    vals = np.concatenate([u[::-1], u]).tolist()
    rows = "\n".join(f"{xi!r},{abs(xi)!r},{ui!r},0,0" for xi, ui in zip(x, vals))
    return "x,D,u,sub,super\n" + rows + "\n"


def test_checker_flags_rate_off_by_006():
    op = workloads.Op("solve", (), "anchor", {"alpha": 0.5, "p": 3.0})
    report = '{"report": {"converged": true, "ordering_ok": true, "monotone_ok": true}}'
    D = np.geomspace(1e-4, 0.2, 400)
    good = run.Outcome(0, None, 1.0, "", "",
                       {"report.json": report, "profile.csv": _profile(D, D ** -0.5)})
    assert check.check(op, good, ORACLES)[0] is None
    off = run.Outcome(0, None, 1.0, "", "",
                      {"report.json": report, "profile.csv": _profile(D, D ** -0.56)})
    failure, error = check.check(op, off, ORACLES)
    assert failure.startswith("check") and error == pytest.approx(0.06)


def _package_functions():
    import fracblow
    modules = [fracblow] + [sys.modules[f"fracblow.{name}"] for name in spans.LAYERS]
    return {(m.__name__, attr): obj for m in modules
            for attr, obj in vars(m).items() if callable(obj)}


def test_tracing_restores_every_name(tmp_path):
    before = _package_functions()
    recorder = spans.Recorder()
    with spans.instrumented(recorder):
        wrapped = _package_functions()
        assert any(wrapped[k] is not before[k] for k in before)
        _run_op(workloads.generate("specfun", 0, 30)[0], tmp_path)
    after = _package_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert recorder.spans


BYTE_CASES = [
    ("specfun", ("specfun", "--alpha", "0.3:0.5", "--tau=-0.5:-0.1", "--step", "0.2")),
    ("critical", ("critical", "--alpha", "0.3", "--no-timestamp")),
    ("classify", ("classify", "--alpha", "0.25", "--p", "1.75")),
    ("solve", ("solve", "--alpha", "0.5", "--p", "3", "--n-per-side", "128",
               "--schedule", "8:256", "--no-timestamp")),
    ("audit", ("audit", "--alpha", "0.6", "--p", "3", "--tau=-0.4",
               "--n-per-side", "128", "--no-timestamp")),
]


@pytest.mark.parametrize("kind,argv", BYTE_CASES, ids=[c[0] for c in BYTE_CASES])
def test_cli_bytes_same_with_and_without_tracing(kind, argv, tmp_path):
    op = workloads.Op(kind, argv, "bytes")
    plain = _run_op(op, tmp_path)
    recorder = spans.Recorder()
    with spans.instrumented(recorder):
        traced = _run_op(op, tmp_path)
    assert recorder.spans
    assert traced.stdout == plain.stdout
    assert traced.files == plain.files


def test_self_time_excludes_children():
    recorder = spans.Recorder()
    outer = spans.Span(0, "solve_blowup", "solver", None, 0, 0.0, 3.0)
    inner = spans.Span(1, "assemble", "operator", 0, 0, 0.5, 1.5)
    recorder.spans = [inner, outer]
    metrics, shares = spans.layer_metrics(recorder.spans)
    assert shares["solver"] == pytest.approx(2.0)
    assert shares["operator"] == pytest.approx(1.0)
    assert metrics["solver.blowup_s"] == pytest.approx(2.0)
