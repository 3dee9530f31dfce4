"""Output comparison of two checkouts on one benchmark workload.

    python3 tools/diff_outputs.py --parent DIR --change DIR --workload W \\
        --seeds A-B

Each checkout is a full source tree.  For every seed from A to B
(inclusive), each checkout generates the operations of its own
``perfbench/workloads.generate(W, seed, run_seconds)``, with the run
length the change checkout's ``BENCHMARK.json`` declares, and runs them
one after another through its own ``fracblow.cli.main``, in a fresh
subprocess per checkout and seed.  Every operation runs with
``--no-timestamp``, and a solve writes its report and profile under the
same relative prefix on both sides.  The exit code, stdout, stderr and
solve files of each operation are compared; the script prints every
operation that differs, naming the JSON fields that differ where the
output is JSON, the columns that differ (with their first differing
cells) where both versions of a CSV file have the same header and shape,
and the first differing line otherwise, then a summary:
the operations compared, identical and differing, and per differing
field (list indices dropped) the number of operations it differs in.
Last comes the largest relative difference |change - parent| / |parent|
of every differing numeric JSON field (list indices dropped) and of
every differing column of a CSV file whose two versions have the same
header and shape and numbers in that column.
Exit status 0 when every operation is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

# Runs in the subprocess: argv is ROOT WORKLOAD SEED SECONDS, the working
# directory a scratch one; prints one JSON list of per-operation outcomes.
DRIVER = r"""
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

root, workload, seed, seconds = sys.argv[1:]
sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "perfbench")]
import workloads
from fracblow import cli

outcomes = []
for op in workloads.generate(workload, int(seed), float(seconds)):
    argv = list(op.argv)
    if "--no-timestamp" not in argv:
        argv.append("--no-timestamp")
    if op.kind == "solve":
        argv += ["--out", "op"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:
            rc = "crash " + type(exc).__name__
    files = {}
    for suffix in ("report.json", "profile.csv"):
        path = Path(f"op.{suffix}")
        if path.exists():
            files[suffix] = path.read_text()
            path.unlink()
    outcomes.append({"argv": argv, "rc": rc, "stdout": out.getvalue(),
                     "stderr": err.getvalue(), "files": files})
json.dump(outcomes, sys.stdout)
"""

MISSING = "<missing>"
INDEX = re.compile(r"\[\d+\]")      # list indices, dropped from field names


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="A-B (inclusive) or a single seed")
    return parser.parse_args(argv)


def parse_seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def run_ops(root: Path, workload: str, seed: int, seconds: float) -> list:
    """Outcomes of every operation of one seed in checkout ``root``."""
    with tempfile.TemporaryDirectory() as scratch:
        done = subprocess.run(
            [sys.executable, "-c", DRIVER, str(root), workload, str(seed),
             str(seconds)],
            cwd=scratch, capture_output=True, text=True, timeout=3600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root} failed "
                           f"(exit {done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout)


def json_diffs(a, b, path: str = ""):
    """(path, a, b) for every leaf in which two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            yield from json_diffs(a.get(key, MISSING), b.get(key, MISSING),
                                  f"{path}.{key}" if path else str(key))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (x, y) in enumerate(zip(a, b)):
            yield from json_diffs(x, y, f"{path}[{k}]")
    elif json.dumps(a) != json.dumps(b):
        yield path, a, b


def csv_tables(a: str, b: str) -> tuple | None:
    """Rows of two CSV texts with the same header and shape; None for any
    other pair."""
    rows_a = list(csv.reader(io.StringIO(a)))
    rows_b = list(csv.reader(io.StringIO(b)))
    if (not rows_a or len(rows_a) != len(rows_b) or rows_a[0] != rows_b[0]
            or any(len(row) != len(rows_a[0]) for row in rows_a + rows_b)):
        return None
    return rows_a, rows_b


def column_diffs(name: str, a: str, b: str) -> list:
    """(name:column, parent, change) of the first differing cell of each
    differing column of two CSV texts with the same header and shape; []
    for any other pair."""
    tables = csv_tables(a, b)
    if tables is None:
        return []
    rows_a, rows_b = tables
    found = []
    for j, column in enumerate(rows_a[0]):
        cells = [(x[j], y[j]) for x, y in zip(rows_a[1:], rows_b[1:])
                 if x[j] != y[j]]
        if cells:
            found.append((f"{name}:{column}", *cells[0]))
    return found


def text_diffs(name: str, a: str, b: str) -> list:
    """(field, parent, change) differences of one output text."""
    if a == b:
        return []
    try:
        parsed = json.loads(a), json.loads(b)
    except (json.JSONDecodeError, TypeError):
        parsed = None
    if parsed is not None:
        found = [(f"{name}:{path}", x, y)
                 for path, x, y in json_diffs(*parsed)]
        if found:
            return found
    if name.endswith(".csv"):
        found = column_diffs(name, a, b)
        if found:
            return found
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for k in range(max(len(lines_a), len(lines_b))):
        x = lines_a[k] if k < len(lines_a) else MISSING
        y = lines_b[k] if k < len(lines_b) else MISSING
        if x != y:
            return [(f"{name}:line[{k + 1}]", x, y)]
    return [(f"{name}:end", a[-1:], b[-1:])]     # a final newline differs


def op_diffs(parent: dict, change: dict) -> list:
    """(field, parent, change) for everything two outcomes differ in."""
    if parent["argv"] != change["argv"]:
        return [("argv", parent["argv"], change["argv"])]
    found = []
    if parent["rc"] != change["rc"]:
        found.append(("rc", parent["rc"], change["rc"]))
    for name in ("stdout", "stderr"):
        found += text_diffs(name, parent[name], change[name])
    for suffix in sorted(set(parent["files"]) | set(change["files"])):
        found += text_diffs(suffix, parent["files"].get(suffix, MISSING),
                            change["files"].get(suffix, MISSING))
    return found


def relative(x, y) -> float | None:
    """|y - x| / |x|, infinite for x = 0; None unless both are numbers."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (x, y)):
        return None
    if x == y:
        return 0.0
    return abs(y - x) / abs(x) if x else math.inf


def column_sizes(name: str, a: str, b: str) -> dict:
    """Largest relative difference per differing numeric column of two
    CSV texts with the same header and shape; {} for any other pair."""
    tables = csv_tables(a, b)
    if tables is None:
        return {}
    rows_a, rows_b = tables
    sizes = {}
    for j, column in enumerate(rows_a[0]):
        try:
            pairs = [(float(x[j]), float(y[j]))
                     for x, y in zip(rows_a[1:], rows_b[1:])]
        except ValueError:
            continue
        differing = [relative(x, y) for x, y in pairs if x != y]
        if differing:
            sizes[f"{name}:{column}"] = max(differing)
    return sizes


def op_sizes(parent: dict, change: dict, found: list) -> dict:
    """Largest relative difference per numeric output field (list
    indices dropped) of ``found``, the differences of two outcomes, and
    per differing column of their CSV files; the exit code is no output
    field."""
    sizes = {}
    for name, x, y in found:
        size = relative(x, y)
        if size is not None and name != "rc":
            key = INDEX.sub("", name)
            sizes[key] = max(size, sizes.get(key, 0.0))
    for suffix in set(parent["files"]) & set(change["files"]):
        if suffix.endswith(".csv"):
            sizes.update(column_sizes(suffix, parent["files"][suffix],
                                      change["files"][suffix]))
    return sizes


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    compared = differing = 0
    fields = Counter()
    largest = {}
    for seed in args.seeds:
        runs = {side: run_ops(root, args.workload, seed, seconds)
                for side, root in roots.items()}
        unmatched = abs(len(runs["parent"]) - len(runs["change"]))
        if unmatched:
            print(f"seed {seed}: {len(runs['parent'])} operations in the "
                  f"parent, {len(runs['change'])} in the change")
            compared += unmatched
            differing += unmatched
        for k, (parent, change) in enumerate(zip(runs["parent"],
                                                 runs["change"])):
            compared += 1
            found = op_diffs(parent, change)
            if not found:
                continue
            differing += 1
            print(f"seed {seed} op {k}: {' '.join(parent['argv'])}")
            for name, x, y in found:
                print(f"    {name}: {x!r} -> {y!r}")
            fields.update({INDEX.sub("", name) for name, _, _ in found})
            for key, size in op_sizes(parent, change, found).items():
                largest[key] = max(size, largest.get(key, 0.0))
    print(f"{args.workload} seeds {args.seeds.start}-{args.seeds.stop - 1}: "
          f"{compared} operations, {compared - differing} identical, "
          f"{differing} differ")
    for name, count in sorted(fields.items()):
        print(f"    {name}: {count} operations")
    if largest:
        print("largest relative differences:")
    for name, size in sorted(largest.items()):
        print(f"    {name}: {size:.3g}")
    return 0 if differing == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
