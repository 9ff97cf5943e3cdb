"""Every narrative demo runs to completion from a scratch directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("0*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
