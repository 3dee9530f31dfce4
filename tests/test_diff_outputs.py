"""Tests for the output comparison script ``tools/diff_outputs.py``, run
against two stand-in checkouts whose CLI prints fixed outputs."""

import importlib.util
import json
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "diff_outputs.py"
spec = importlib.util.spec_from_file_location("diff_outputs", TOOL)
diff_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_outputs)

FAKE_WORKLOADS = """
from dataclasses import dataclass

@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple

def generate(workload, seed, seconds):
    assert seconds == 27.0
    return [Op("audit", ("audit", "--seed", str(seed))),
            Op("solve", ("solve", "--seed", str(seed), "--no-timestamp"))]
"""

FAKE_CLI = """
import json, sys

def main(argv):
    assert argv.count("--no-timestamp") == 1
    seed = int(argv[2])
    if argv[0] == "audit":
        margin = {margin}
        print(json.dumps({{"audit": {{"zone": 2, "worst_margins": [1.0, margin]}}}}))
        return 0
    if "{side}" == "change" and seed == 1:
        print("stalled", file=sys.stderr)
        return 3
    out = argv[argv.index("--out") + 1]
    with open(out + ".report.json", "w") as fh:
        fh.write(json.dumps({{"report": {{"converged": True}}}}))
    with open(out + ".profile.csv", "w") as fh:
        fh.write("x,u\\n0.5,{margin}\\n")
    return 0
"""


def _checkout(root, side, margin):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "workloads.py").write_text(textwrap.dedent(FAKE_WORKLOADS))
    (root / "src" / "fracblow").mkdir(parents=True)
    (root / "src" / "fracblow" / "__init__.py").write_text("")
    (root / "src" / "fracblow" / "cli.py").write_text(
        textwrap.dedent(FAKE_CLI.format(side=side, margin=margin)))
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 27}))
    return root


def test_identical_checkouts(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", "parent", 2.0)
    change = _checkout(tmp_path / "change", "parent", 2.0)
    assert diff_outputs.main(["--parent", str(parent), "--change", str(change),
                              "--workload", "audit", "--seeds", "0-2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["audit seeds 0-2: 6 operations, 6 identical, 0 differ"]


def test_differing_fields_are_named(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", "parent", 2.0)
    change = _checkout(tmp_path / "change", "change", 2.5)
    assert diff_outputs.main(["--parent", str(parent), "--change", str(change),
                              "--workload", "audit", "--seeds", "0-1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed 0 op 0: audit --seed 0 --no-timestamp"
    assert lines[1] == "    stdout:audit.worst_margins[1]: 2.0 -> 2.5"
    assert lines[2] == "seed 0 op 1: solve --seed 0 --no-timestamp --out op"
    # the profile keeps its header and shape, so its moved column is named
    assert lines[3] == "    profile.csv:u: '2.0' -> '2.5'"
    # seed 1's solve fails on the change side: exit code, stderr and both
    # missing files show
    solve = lines[lines.index("seed 1 op 1: solve --seed 1 --no-timestamp --out op") + 1:]
    assert solve[:4] == ["    rc: 0 -> 3",
                         "    stderr:line[1]: '<missing>' -> 'stalled'",
                         "    profile.csv:line[1]: 'x,u' -> '<missing>'",
                         "    report.json:line[1]: '{\"report\": {\"converged\": true}}' -> '<missing>'"]
    summary = solve[4:]
    assert summary[0] == "audit seeds 0-1: 4 operations, 0 identical, 4 differ"
    assert summary[1:7] == ["    profile.csv:line: 1 operations",
                            "    profile.csv:u: 1 operations",
                            "    rc: 1 operations",
                            "    report.json:line: 1 operations",
                            "    stderr:line: 1 operations",
                            "    stdout:audit.worst_margins: 2 operations"]
    # the numeric JSON field and the CSV column that moved, by how much;
    # the CSV of the failed solve is missing, so it adds no size
    assert summary[7:] == ["largest relative differences:",
                           "    profile.csv:u: 0.25",
                           "    stdout:audit.worst_margins: 0.25"]


def test_relative_differences_of_numbers_only():
    assert diff_outputs.relative(2.0, 2.5) == 0.25
    assert diff_outputs.relative(-4, -3) == 0.25
    assert diff_outputs.relative(0.0, 1e-300) == float("inf")
    assert diff_outputs.relative(float("inf"), float("inf")) == 0.0
    for x, y in ((True, False), ("1", "2"), (None, 1.0), ([1.0], [2.0])):
        assert diff_outputs.relative(x, y) is None


def test_column_sizes_of_same_shape_numeric_csvs():
    parent = "x,u,tag\n0.5,2.0,a\n0.25,8.0,b\n0.125,1.0,c\n"
    change = "x,u,tag\n0.5,2.5,a\n0.25,7.0,d\n0.125,1.0,c\n"
    # the largest over the rows of each numeric column that differs; the
    # unchanged x and the text column tag give no size
    assert diff_outputs.column_sizes("p.csv", parent, change) == {"p.csv:u": 0.25}
    assert diff_outputs.column_sizes("p.csv", parent, parent) == {}
    # another shape or header gives no sizes
    for other in ("x,u,tag\n0.5,2.5,a\n",
                  "x,v,tag\n0.5,2.5,a\n0.25,8.0,b\n0.125,1.0,c\n",
                  "x,u\n0.5,2.5\n0.25,7.0\n0.125,1.0\n", ""):
        assert diff_outputs.column_sizes("p.csv", parent, other) == {}


def test_csv_diffs_name_the_columns_that_moved():
    parent = "x,sub,super\n0.5,2.0,9.0\n0.25,8.0,30.0\n0.125,1.0,4.0\n"
    only_super = "x,sub,super\n0.5,2.0,9.0\n0.25,8.0,31.0\n0.125,1.0,5.0\n"
    # one field for the one column that moved, with its first moved cells
    assert diff_outputs.text_diffs("p.csv", parent, only_super) == [
        ("p.csv:super", "30.0", "31.0")]
    both = "x,sub,super\n0.5,2.5,9.0\n0.25,8.0,31.0\n0.125,1.0,4.0\n"
    assert diff_outputs.text_diffs("p.csv", parent, both) == [
        ("p.csv:sub", "2.0", "2.5"), ("p.csv:super", "30.0", "31.0")]
    # another header or shape, or a text that is no CSV file, gives the
    # first differing line
    assert diff_outputs.text_diffs("p.csv", parent, "x,u\n0.5,2.0\n") == [
        ("p.csv:line[1]", "x,sub,super", "x,u")]
    assert diff_outputs.text_diffs("stdout", parent, only_super) == [
        ("stdout:line[3]", "0.25,8.0,30.0", "0.25,8.0,31.0")]


def test_sizes_take_the_largest_over_list_entries():
    found = [("stdout:a[0]", 1.0, 1.5), ("stdout:a[1]", 4.0, 2.0),
             ("stdout:b", "x", "y"), ("rc", 0, 3)]
    outcome = {"files": {}}
    assert diff_outputs.op_sizes(outcome, outcome, found) == {"stdout:a": 0.5}


def test_seed_ranges():
    assert diff_outputs.parse_seeds("0-3") == range(0, 4)
    assert diff_outputs.parse_seeds("5") == range(5, 6)
