"""Smoke test: every script under demos/ and every Python block of the
README runs to the end in-process, so an API change that breaks one of
them fails the suite."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# A line fragment each demo prints once it has done its work.
MARKERS = {
    "blowup_solve.py": "exponent -0.5",
    "critical_exponents.py": "critical order alpha0 = 0.50000000",
    "nonexistence_audit.py": "-> zone 3",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(MARKERS)


@pytest.mark.parametrize("script", sorted(MARKERS))
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert MARKERS[script] in capsys.readouterr().out


README = DEMOS.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    # the quick start and the critical exponents, run as a reader would
    # paste them, so an API change cannot leave them stale
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "True True True"
