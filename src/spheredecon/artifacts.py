"""Atomic, deterministic file output shared by the exporters and the CLI."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["atomic_write_text", "write_json", "write_csv", "format_float"]


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the target directory, then rename.

    A symlink is written through: its target is replaced and the link stays.
    A target that exists and is not a regular file (a directory, device or
    FIFO) raises OSError and is left as it is.
    """
    real = Path(os.path.realpath(path))
    if real.exists() and not real.is_file():
        raise OSError(f"{path} exists and is not a regular file")
    path = real
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj) -> None:
    """Strict JSON: a NaN or infinity raises ValueError and nothing is written."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_csv(path, header: str, *columns) -> None:
    """CSV of equal-length float columns, 17 significant digits per value."""
    rows = np.column_stack(columns)
    row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    atomic_write_text(path, header + "\n" + (row * rows.shape[0]) % tuple(rows.ravel().tolist()))


def format_float(x: float) -> str:
    """17 significant digits: round-trips any IEEE double."""
    return f"{x:.17g}"
