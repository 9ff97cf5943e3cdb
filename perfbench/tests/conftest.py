"""The benchmark's own tests: run with ``python3 -m pytest perfbench/tests``."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import benchenv  # noqa: E402


@pytest.fixture(scope="session")
def package():
    return benchenv.import_program()
