"""Which modules the package loads: numpy and the standard library only.

scipy is imported on first use by the Planck and tabulated profiles; the
cap, lunar and identity filters, a simulate -> reconstruct round trip
through the measurement CSV and the import itself never load it.  Each case
runs in a fresh interpreter, since this test process has scipy loaded.
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
for argv in json.loads(sys.argv[1]):
    assert spheredecon.cli.main(argv) == 0
print(json.dumps(sorted(k for k in sys.modules if k.split(".")[0] == "scipy")))
"""

def filter_command(*flags) -> list:
    return ["filter", *flags, "--out", "f.json"]


IDENTITY = filter_command("--kind", "identity", "--m-max", "10")

CASES = {
    "import": [],
    "cap": [filter_command("--kind", "cap", "--theta0", "0.15", "--m-max", "60")],
    "lunar": [filter_command("--kind", "lunar", "--radius", "1737.1", "--altitude", "30",
                             "--m-max", "20")],
    "identity": [IDENTITY],
    "planck": [filter_command("--kind", "planck", "--lam0", "3", "--radius", "1",
                              "--m-max", "10")],
    # the measurement CSV written and parsed
    "round_trip": [
        IDENTITY,
        ["simulate", "--filter", "f.json", "--truth-m-max", "6", "--truth-sigma", "1",
         "--truth-seed", "1", "--n", "400", "--beta", "0.01", "--seed", "2",
         "--out", "meas.csv", "--sidecar", "meas.json"],
        ["reconstruct", "--filter", "f.json", "--measurements", "meas.csv",
         "--sidecar", "meas.json", "--m", "6", "--out", "sol.json"],
    ],
}


def scipy_modules_after(case: str, tmp_path: Path) -> list:
    path = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(CASES[case])], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", ["import", "cap", "lunar", "identity", "round_trip"])
def test_no_scipy_loaded(case, tmp_path):
    assert scipy_modules_after(case, tmp_path) == []


def test_planck_loads_scipy_on_first_use(tmp_path):
    # the probe sees scipy where the code really does import it
    assert "scipy.special" in scipy_modules_after("planck", tmp_path)
