"""Atomic, deterministic file output shared by the exporters and the CLI."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["atomic_write_text", "write_json", "write_csv"]


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
    """CSV of equal-length float columns, 17 significant digits per value.

    The text is that of "%.17g" applied to every value, row by row.  A column
    that repeats values has each distinct bit pattern formatted once (so -0.0
    stays apart from 0.0) and its strings gathered by row; the rows are then
    built by one ``%`` call that takes those strings as %s fields.
    """
    columns = [np.asarray(col, dtype=float) for col in columns]
    n = columns[0].size
    cells = np.empty((n, len(columns)), dtype=object)
    spec = []
    for j, col in enumerate(columns):
        _, first, inverse = np.unique(col.view(np.uint64), return_index=True, return_inverse=True)
        if first.size < n:
            distinct = (",".join(["%.17g"] * first.size) % tuple(col[first].tolist())).split(",")
            cells[:, j] = np.array(distinct, dtype=object)[inverse]
            spec.append("%s")
        else:
            cells[:, j] = col
            spec.append("%.17g")
    row = ",".join(spec) + "\n"
    atomic_write_text(path, header + "\n" + (row * n) % tuple(cells.ravel().tolist()))
