"""Which modules the package loads: numpy and the standard library only.

scipy is imported on first use by the Planck and tabulated profiles; the
cap, lunar and identity filters and the import itself never load it.  Each
case runs in a fresh interpreter, since this test process has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
import spheredecon, spheredecon.cli
argv = json.loads(sys.argv[1])
if argv:
    assert spheredecon.cli.main(argv) == 0
print(json.dumps(sorted(k for k in sys.modules if k.split(".")[0] == "scipy")))
"""

FILTERS = {
    "import": [],
    "cap": ["--kind", "cap", "--theta0", "0.15", "--m-max", "60"],
    "lunar": ["--kind", "lunar", "--radius", "1737.1", "--altitude", "30", "--m-max", "20"],
    "identity": ["--kind", "identity", "--m-max", "10"],
    "planck": ["--kind", "planck", "--lam0", "3", "--radius", "1", "--m-max", "10"],
}


def scipy_modules_after(case: str, tmp_path: Path) -> list:
    argv = ["filter", *FILTERS[case], "--out", str(tmp_path / "f.json")] if FILTERS[case] else []
    path = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argv)], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", ["import", "cap", "lunar", "identity"])
def test_no_scipy_loaded(case, tmp_path):
    assert scipy_modules_after(case, tmp_path) == []


def test_planck_loads_scipy_on_first_use(tmp_path):
    # the probe sees scipy where the code really does import it
    assert "scipy.special" in scipy_modules_after("planck", tmp_path)
