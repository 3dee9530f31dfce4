"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def child_env():
    """The environment of a child Python process that imports this
    checkout's package: ``src`` first on ``PYTHONPATH``, any entries
    already there after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env
