"""Paired benchmark runs of two checkouts: parent against change.

    python3 tools/bench_pairs.py --parent DIR --change DIR --label NAME

Each checkout is a full source tree with its own benchmark; both are
run unchanged, one process at a time, with the command, on every
workload and for the run length that the change checkout's
``BENCHMARK.json`` declares.  There are ``PAIRS`` pairs; pair k runs
seed ``FIRST_SEED + k`` once on each side, and the pairs alternate
which side runs first, so a drift in the speed of the host moves both
sides alike.
The result, ``BENCH_<label>.json`` in the current directory, holds per
workload and side the first run's metadata, the ``correct``/
``attempted``/``failed``/``failures`` figures of every run in pair
order, and every end-to-end metric with its runs, median and quartiles
(inclusive method), plus per metric the number of pairs in which the
change reads better (ties count for neither side), the ratio of the
medians and two verdicts:

* ``gain_shown``: the change reads better in at least 9 of 10 pairs and
  its median moved, in the metric's direction, by more than the
  parent's interquartile range;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's relative ``bound``; "unresolved" when the
  parent's interquartile range, relative to its median, is wider than
  the bound and not every change run reads better than every parent run.

The direction and bound of each metric are read from ``BENCHMARK.json``
too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
FIRST_SEED = 111


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--label", required=True)
    return parser.parse_args(argv)


def run_once(root: Path, command: list, workload: str, seed: int,
             seconds: float) -> dict:
    """One untraced run of ``root``'s benchmark ``command`` (a leading
    ``python3`` is this interpreter): its meta, failures and result lines
    merged into one dict."""
    argv = [sys.executable if k == 0 and word == "python3" else word
            for k, word in enumerate(command)]
    argv += ["--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=20 * seconds + 300)
    lines = [json.loads(line) for line in done.stdout.splitlines()
             if line.startswith("{")]
    if done.returncode != 0 or not lines or "metrics" not in lines[-1]:
        raise RuntimeError(f"{' '.join(argv)} in {root} failed "
                           f"(exit {done.returncode}): {done.stderr[-2000:]}")
    merged = {}
    for line in lines:
        merged.update(line)
    return merged


def spread(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def verdicts(parent: dict, change: dict, higher: bool,
             bound: float) -> tuple[int, bool, bool | str]:
    """(pairs the change wins, gain_shown, regression) for one metric,
    from the two sides' ``spread`` dicts, runs in pair order."""
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (c - p) > 0.0
               for p, c in zip(parent["runs"], change["runs"]))
    moved = sign * (change["median"] - parent["median"])
    gain = 10 * wins >= 9 * len(parent["runs"]) and \
        moved > parent["q3"] - parent["q1"]
    if min(sign * c for c in change["runs"]) > \
            max(sign * p for p in parent["runs"]):
        regression = False
    elif parent["q3"] - parent["q1"] > bound * abs(parent["median"]):
        regression = "unresolved"
    else:
        regression = -moved > bound * abs(parent["median"])
    return wins, gain, regression


def summarize(results: dict, declared: dict) -> dict:
    """Per-side figures, pair counts and verdicts for one workload.
    ``results`` maps each side to its run dicts in pair order, and
    ``declared`` each end-to-end metric's name to its (higher is better,
    bound)."""
    sides = {}
    for side in SIDES:
        runs = results[side]
        sides[side] = {
            "meta": runs[0]["meta"],
            "runs": [{key: r[key] for key in
                      ("correct", "attempted", "failed", "failures")}
                     for r in runs],
            "metrics": {
                name: spread([r["metrics"][name]["value"] for r in runs])
                for name in declared},
        }
    better, ratio, gain_shown, regression = {}, {}, {}, {}
    for name, (higher, bound) in declared.items():
        parent = sides["parent"]["metrics"][name]
        change = sides["change"]["metrics"][name]
        wins, gain_shown[name], regression[name] = verdicts(
            parent, change, higher, bound)
        better[name] = f"{wins}/{len(parent['runs'])}"
        ratio[name] = change["median"] / parent["median"]
    return {"pairs": len(results["parent"]), "sides": sides,
            "better_pairs": better, "ratio_change_to_parent_median": ratio,
            "gain_shown": gain_shown, "regression": regression}


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"] == "higher", m["bound"])
               for m in declared["end_to_end"]}
    command = declared["command"]
    seconds = declared["run_seconds"]
    seeds = [FIRST_SEED + k for k in range(PAIRS)]
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    report = {
        "label": args.label,
        "method": (
            f"{' '.join(command)} --workload W --seed S --seconds "
            f"{seconds:g} (untraced), each checkout's benchmark run "
            "unchanged. Pairs alternate which side runs first; one seed per "
            "pair, the same seed on both sides. Medians and quartiles "
            "(inclusive method) over the runs; better_pairs counts the pairs "
            "in which the change reads better (ties count for neither side). "
            "gain_shown: better in at least 9 of 10 pairs and the median "
            "moved by more than the parent's interquartile range. "
            "regression: the median worse by more than the metric's bound, "
            "unresolved where the parent's interquartile range is wider "
            "than the bound and not every change run reads better than "
            "every parent run."),
        "workloads": {},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        results = {side: [] for side in SIDES}
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(roots[side], command, workload, seed,
                               seconds)
                results[side].append(run)
                figures = {name: round(m["value"], 4)
                           for name, m in run["metrics"].items()}
                print(f"{workload} seed {seed} {side}: {figures}",
                      file=sys.stderr, flush=True)
        report["workloads"][workload] = {
            "seeds": seeds, **summarize(results, metrics)}

    Path(f"BENCH_{args.label}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
