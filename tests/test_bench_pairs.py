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
setup = {setup}
failures = [{{"failure": "exit3", "count": 4}}]
if "{side}" == "change" and args.seed == 114:
    failures.append({{"failure": "exit2", "count": 1}})
print(json.dumps({{"meta": {{"seed": args.seed, "side": "{side}"}}}}))
print(json.dumps({{"failures": failures}}))
failed = sum(f["count"] for f in failures)
print(json.dumps({{"correct": True, "attempted": 12, "failed": failed, "metrics": {{
    "ok_per_s": {{"value": speed, "unit": "1/s"}},
    "op_s_p50": {{"value": 1.0 / speed, "unit": "s"}},
    "setup_s": {{"value": setup, "unit": "s"}},
    "peak_rss_mb": {{"value": {rss}, "unit": "MB"}}}}}}))
"""

# per side: (speed, setup_s, peak_rss_mb).  The change is twice as fast,
# its set-up times fall inside the parent's wide spread, and it holds
# half as much memory again.
SIDE_FIGURES = {"parent": (1.0, "3.0 if args.seed % 2 else 1.0", 10.0),
                "change": (2.0, "1.1", 15.0)}


def _checkout(root, side):
    speed, setup, rss = SIDE_FIGURES[side]
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(textwrap.dedent(
        FAKE_RUN.format(speed=speed, setup=setup, rss=rss, side=side)))
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "run_seconds": 1, "workloads": [{"name": "solve"}],
        "end_to_end": [{"name": "ok_per_s", "better": "higher", "bound": 0.25},
                       {"name": "op_s_p50", "better": "lower", "bound": 0.25},
                       {"name": "setup_s", "better": "lower", "bound": 0.25},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}))
    return root


def test_pairs_summary(tmp_path, monkeypatch):
    parent = _checkout(tmp_path / "parent", "parent")
    change = _checkout(tmp_path / "change", "change")
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
    # the change is faster, so it reads better on both speed metrics and
    # shows a gain on them; its set-up reads better in the 5 pairs where
    # the parent took 3 s, and its memory in none
    assert solve["better_pairs"] == {"ok_per_s": "10/10", "op_s_p50": "10/10",
                                     "setup_s": "5/10", "peak_rss_mb": "0/10"}
    assert solve["ratio_change_to_parent_median"]["ok_per_s"] == \
        pytest.approx(2.045 / 1.045)
    assert solve["gain_shown"] == {"ok_per_s": True, "op_s_p50": True,
                                   "setup_s": False, "peak_rss_mb": False}
    # 50% more memory is worse than its 10% bound; the parent's set-up
    # quartiles 1 and 3 s are wider than 25% of its 2 s median, and a
    # change run of 1.1 s is slower than a parent run of 1 s
    assert solve["regression"] == {"ok_per_s": False, "op_s_p50": False,
                                   "setup_s": "unresolved", "peak_rss_mb": True}
    # every run's failure figures are kept, in pair order: the extra
    # failure of the change's fourth seed shows
    runs = solve["sides"]["change"]["runs"]
    assert [r["correct"] for r in runs] == [True] * 10
    assert [r["attempted"] for r in runs] == [12] * 10
    assert [r["failed"] for r in runs] == [4, 4, 4, 5, 4, 4, 4, 4, 4, 4]
    assert runs[3]["failures"][-1] == {"failure": "exit2", "count": 1}
    assert all(r["failed"] == 4 for r in solve["sides"]["parent"]["runs"])


def test_failed_run_is_reported(tmp_path):
    parent = _checkout(tmp_path / "parent", "parent")
    (parent / "perfbench" / "run.py").write_text("raise SystemExit(1)\n")
    with pytest.raises(RuntimeError, match="failed"):
        bench_pairs.run_once(parent, ["python3", "perfbench/run.py"],
                             "solve", 0, 1.0)
