"""Process environment of a benchmark run: BLAS threads, the program under
test, and the versions recorded with every result.

This module imports nothing heavy at import time, so that ``pin_threads`` can
run before numpy is loaded.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads(threads: int) -> None:
    """Fix every BLAS/OpenMP pool size; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)


class ProgramMissing(RuntimeError):
    """The checkout holds no importable spheredecon source tree."""


def import_program(root: Path = ROOT):
    """Import spheredecon from ``root/src`` and nowhere else."""
    src = (Path(root) / "src").resolve()
    if not (src / "spheredecon" / "__init__.py").is_file():
        raise ProgramMissing(f"no spheredecon package under {src}")
    sys.path.insert(0, str(src))
    import spheredecon

    if Path(spheredecon.__file__).resolve().parent != src / "spheredecon":
        raise ProgramMissing(f"spheredecon imported from {spheredecon.__file__}, not {src}")
    return spheredecon


def first_lapack_call() -> None:
    """One small SVD: loads LAPACK and starts the BLAS thread pool."""
    import numpy as np

    a = np.add.outer(np.arange(64.0), np.arange(64.0)) % 7 + np.eye(64)
    np.linalg.svd(a)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def record(threads: int) -> dict:
    """Versions and hardware that a result was measured with."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu": _cpu_model(),
        "nproc": nproc(),
        "blas_threads": threads,
    }
