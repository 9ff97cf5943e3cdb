"""The measurement CSV, the basis matrix, synthesis, the ring path's
synthesis and analysis and the lunar filter JSON do not depend on the BLAS
thread count: all are built from elementwise numpy operations and einsum.
Nor does ``verify-mz`` on a ring family whose frame constants come from the
block Gershgorin enclosure of the order blocks (area-center N = 5000,
m = 24), which are solved in one stacked eigvalsh of small blocks.

Each count runs in a fresh interpreter, since OpenBLAS reads
OPENBLAS_NUM_THREADS once, when numpy is first imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

SCRIPT = """
import hashlib, json, sys
import numpy as np
from spheredecon import cli
from spheredecon.filters import cap_multipliers
from spheredecon.forward import simulate, write_measurements_csv
from spheredecon.harmonics import basis_matrix, eval_poly_many, num_coeffs, random_poly
from spheredecon.reconstruct import _adjoint, _apply, _operator
from spheredecon.sphere_geometry import build_partition, pick_nodes

rule = sys.argv[1]
fam = pick_nodes(build_partition(1800), rule=rule, seed=7)
truth = random_poly(40, 2.0, seed=5)
write_measurements_csv("meas.csv", simulate(truth, cap_multipliers(0.2, 40), fam, 0.01, seed=6))
cli.main(["filter", "--kind", "lunar", "--radius", "1737.1", "--altitude", "30", "--m-max", "200",
          "--gamma", "1.5", "--out", "lunar.json"])
cli.main(["verify-mz", "--n", "5000", "--m", "24", "--out", "verify_mz.json"])
ring_op = _operator(pick_nodes(build_partition(1800)), 24)  # the ring path
rng = np.random.default_rng(8)
v, d = rng.standard_normal(1800), rng.standard_normal(num_coeffs(24))
digest = lambda data: hashlib.sha256(data).hexdigest()
print(json.dumps({
    "simulate_csv": digest(open("meas.csv", "rb").read()),
    "basis_matrix": digest(basis_matrix(24, fam.nodes[:, 0], fam.nodes[:, 1]).tobytes()),
    "eval_poly_many": digest(eval_poly_many(truth, fam.nodes[:, 0], fam.nodes[:, 1]).tobytes()),
    "lunar_filter_json": digest(open("lunar.json", "rb").read()),
    "verify_mz_json": digest(open("verify_mz.json", "rb").read()),
    "ring_adjoint": digest(_adjoint(ring_op, v).tobytes()),
    "ring_apply": digest(_apply(ring_op, d).tobytes()),
}))
"""


def digests(rule: str, threads: int, tmp_path: Path) -> dict:
    cwd = tmp_path / str(threads)
    cwd.mkdir()
    path = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(threads))
    done = subprocess.run([sys.executable, "-c", SCRIPT, rule], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("rule", ["area_center", "random_in_region"])
def test_bytes_equal_at_one_and_two_threads(rule, tmp_path):
    assert digests(rule, 1, tmp_path) == digests(rule, 2, tmp_path)
