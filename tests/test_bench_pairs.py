"""Tests for the paired benchmark script ``tools/bench_pairs.py``, run
against two stand-in checkouts whose benchmark prints fixed figures."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

FAKE_RUN = """
import argparse, json
parser = argparse.ArgumentParser()
parser.add_argument("--workload")
parser.add_argument("--seed", type=int)
parser.add_argument("--seconds", type=float)
args = parser.parse_args()
speed = {speed} + 0.01 * (args.seed - 111)
failures = [{{"failure": "exit3", "count": 4}}]
if "{side}" == "change" and args.seed == 114:
    failures.append({{"failure": "exit2", "count": 1}})
print(json.dumps({{"meta": {{"seed": args.seed, "side": "{side}"}}}}))
print(json.dumps({{"failures": failures}}))
failed = sum(f["count"] for f in failures)
print(json.dumps({{"correct": True, "attempted": 12, "failed": failed, "metrics": {{
    "ok_per_s": {{"value": speed, "unit": "1/s"}},
    "op_s_p50": {{"value": 1.0 / speed, "unit": "s"}}}}}}))
"""


def _checkout(root, side, speed):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        textwrap.dedent(FAKE_RUN.format(speed=speed, side=side)))
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "run_seconds": 1, "workloads": [{"name": "solve"}],
        "end_to_end": [{"name": "ok_per_s", "better": "higher"},
                       {"name": "op_s_p50", "better": "lower"}]}))
    return root


def test_pairs_summary(tmp_path, monkeypatch):
    parent = _checkout(tmp_path / "parent", "parent", 1.0)
    change = _checkout(tmp_path / "change", "change", 2.0)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main([
        "--parent", str(parent), "--change", str(change), "--label", "t"]) == 0
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["method"].startswith("python3 perfbench/run.py --workload W")
    assert "--seconds 1 " in report["method"]
    solve = report["workloads"]["solve"]
    assert solve["seeds"] == list(range(111, 121)) and solve["pairs"] == 10
    ok = solve["sides"]["change"]["metrics"]["ok_per_s"]
    assert ok["runs"] == pytest.approx([2.0 + 0.01 * k for k in range(10)])
    assert ok["median"] == pytest.approx(2.045)
    assert ok["q1"] == pytest.approx(2.0225) and ok["q3"] == pytest.approx(2.0675)
    assert solve["sides"]["parent"]["meta"] == {"seed": 111, "side": "parent"}
    # the change is faster, so it reads better on both metrics
    assert solve["better_pairs"] == {"ok_per_s": "10/10", "op_s_p50": "10/10"}
    assert solve["ratio_change_to_parent_median"]["ok_per_s"] == \
        pytest.approx(2.045 / 1.045)
    # every run's failure figures are kept, in pair order: the extra
    # failure of the change's fourth seed shows
    runs = solve["sides"]["change"]["runs"]
    assert [r["correct"] for r in runs] == [True] * 10
    assert [r["attempted"] for r in runs] == [12] * 10
    assert [r["failed"] for r in runs] == [4, 4, 4, 5, 4, 4, 4, 4, 4, 4]
    assert runs[3]["failures"][-1] == {"failure": "exit2", "count": 1}
    assert all(r["failed"] == 4 for r in solve["sides"]["parent"]["runs"])


def test_failed_run_is_reported(tmp_path):
    parent = _checkout(tmp_path / "parent", "parent", 1.0)
    (parent / "perfbench" / "run.py").write_text("raise SystemExit(1)\n")
    with pytest.raises(RuntimeError, match="failed"):
        bench_pairs.run_once(parent, ["python3", "perfbench/run.py"],
                             "solve", 0, 1.0)
