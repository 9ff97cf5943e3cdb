"""Forward model: apply a multiplier, sample at nodes, add bounded noise."""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .filters import MultiplierFilter
from .harmonics import CoefficientVector, _degrees, eval_poly_many
from .sphere_geometry import MzFamily, check_nodes, check_weights

__all__ = [
    "MeasurementSet",
    "apply_multiplier",
    "sample_at",
    "add_noise",
    "simulate",
    "truth_digest",
    "write_measurements_csv",
    "read_measurements_csv",
]


@dataclass(frozen=True)
class MeasurementSet:
    """Noisy samples y_j of a filtered signal at weighted nodes.

    For synthetic data, |y_j - (Ff)(x_j)| <= beta for every j and truth_ref
    holds content digests of the truth coefficients and the filter, so error
    reports cannot silently mix runs.
    """

    nodes: np.ndarray
    weights: np.ndarray
    y: np.ndarray
    beta: float = 0.0
    seed: Optional[int] = None
    truth_ref: Optional[dict] = None

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        y = np.asarray(self.y, dtype=float)
        check_nodes(nodes)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "y", y)
        if not (len(nodes) == w.size == y.size):
            raise ValueError("nodes, weights and y must have equal lengths")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")


def apply_multiplier(filt: MultiplierFilter, c: CoefficientVector) -> CoefficientVector:
    """Scale each degree block of c by b_m (the diagonal action of F)."""
    if filt.m_max < c.m_max:
        raise ValueError(
            f"filter stores degrees up to {filt.m_max} but coefficients reach {c.m_max}"
        )
    return CoefficientVector(c.m_max, c.coeffs * filt.b[_degrees(c.m_max)])


def sample_at(c: CoefficientVector, nodes: np.ndarray) -> np.ndarray:
    """Pointwise values of the synthesized polynomial at (N, 2) (theta, phi) nodes."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.size == 0:
        return np.empty(0)
    return eval_poly_many(c, nodes[:, 0], nodes[:, 1])


def add_noise(values: np.ndarray, beta: float, seed: Optional[int] = None) -> np.ndarray:
    """values + iid uniform noise on [-beta, beta], deterministic per seed."""
    values = np.asarray(values, dtype=float)
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if beta == 0:
        return values.copy()
    if seed is None:
        raise ValueError("noise with beta > 0 requires a seed")
    rng = np.random.default_rng(seed)
    return values + rng.uniform(-beta, beta, size=values.shape)


def truth_digest(truth: CoefficientVector, filt: MultiplierFilter) -> dict:
    """Content digests identifying a synthetic run."""
    return {
        "truth_sha256": hashlib.sha256(np.ascontiguousarray(truth.coeffs).tobytes()).hexdigest(),
        "truth_m_max": truth.m_max,
        "filter_sha256": hashlib.sha256(np.ascontiguousarray(filt.b).tobytes()).hexdigest(),
        "filter_provenance": filt.provenance,
    }


def simulate(
    truth: CoefficientVector,
    filt: MultiplierFilter,
    fam: MzFamily,
    beta: float = 0.0,
    seed: Optional[int] = None,
) -> MeasurementSet:
    """Measurements y_j = (F truth)(x_j) + eta_j with |eta_j| <= beta."""
    filtered = apply_multiplier(filt, truth)
    clean = sample_at(filtered, fam.nodes)
    y = add_noise(clean, beta, seed)
    return MeasurementSet(
        nodes=fam.nodes,
        weights=fam.weights,
        y=y,
        beta=beta,
        seed=seed,
        truth_ref=truth_digest(truth, filt),
    )


def write_measurements_csv(path, ms: MeasurementSet, sidecar_path=None) -> None:
    """Measurement CSV (theta,phi,weight,y) plus a JSON sidecar with metadata."""
    from .artifacts import write_csv, write_json

    write_csv(path, "theta,phi,weight,y", ms.nodes[:, 0], ms.nodes[:, 1], ms.weights, ms.y)
    if sidecar_path is not None:
        write_json(
            sidecar_path,
            {"beta": ms.beta, "seed": ms.seed, "truth_ref": ms.truth_ref},
        )


def read_measurements_csv(path, sidecar_path=None) -> MeasurementSet:
    """Measurements from a CSV of ``write_measurements_csv``.

    The rows are parsed by one C call on the open file.  Blank lines are
    skipped but counted.  A row that is not four finite numbers, or whose
    (theta, phi mod 2*pi) is off the sphere, or a line that is not UTF-8
    text, raises ValueError naming the file and the line; a weight column
    that is not positive or does not sum to 1 raises one naming the file and
    the column, and a malformed sidecar one naming the sidecar.  Line numbers are counted only for such a
    message, and the file is scanned line by line only when the C call
    fails or finds no rows, which also covers whitespace-only lines.
    """
    with _open_text(path) as fh:
        header = _utf8_line(path, 1, fh.readline()).strip()
        if header != "theta,phi,weight,y":
            raise ValueError(f"{path}: unexpected measurement CSV header: {header!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: the scan says so
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = None
    if data is None or data.shape[0] == 0 or data.shape[1] != 4:
        data = _scan_rows(path)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: line {_row_lines(path)[bad[0]][0]} holds a non-finite value")
    nodes = np.column_stack([data[:, 0], data[:, 1] % (2 * math.pi)])
    check_nodes(nodes, where=lambda i: f"{path}: line {_row_lines(path)[i][0]}")
    check_weights(data[:, 2], what=f"{path}: the weight column")
    meta = {} if sidecar_path is None else _read_sidecar(sidecar_path)
    return MeasurementSet(
        nodes=nodes,
        weights=data[:, 2],
        y=data[:, 3],
        beta=float(meta.get("beta", 0.0)),
        seed=meta.get("seed"),
        truth_ref=meta.get("truth_ref"),
    )


def _open_text(path):
    """The file as UTF-8 text less a leading byte-order mark; bytes that are not
    UTF-8 come through as lone surrogates, which no number parses, and ``_utf8_line``
    names their line."""
    return open(path, encoding="utf-8-sig", errors="surrogateescape")


def _utf8_line(path, lineno: int, line: str) -> str:
    """line, or ValueError naming the file and the line if it is not UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{path}: line {lineno} is not UTF-8 text") from None
    return line


def _row_lines(path) -> list:
    """(line number, text) of every line after the header that is not blank."""
    with _open_text(path) as fh:
        fh.readline()
        return [(lineno, line) for lineno, line in enumerate(fh, start=2) if line.strip()]


def _scan_rows(path) -> np.ndarray:
    """The rows of a measurement CSV parsed around its blank lines; ValueError
    naming the first line that is not four numbers, or the file if it holds
    no rows."""
    numbered = _row_lines(path)
    if not numbered:
        raise ValueError(f"{path}: no measurement rows")
    try:
        data = np.loadtxt([line for _, line in numbered], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        data = None
    if data is None or data.shape[1] != 4:  # find the line at fault
        for lineno, line in numbered:
            fields = _utf8_line(path, lineno, line).split(",")
            if len(fields) != 4:
                raise ValueError(f"{path}: line {lineno} has {len(fields)} fields, expected 4")
            try:
                np.loadtxt([line], delimiter=",", comments=None)
            except ValueError:
                raise ValueError(f"{path}: line {lineno} holds a field that is not a number") from None
    return data


def _read_sidecar(path) -> dict:
    """The sidecar object of ``write_measurements_csv``; ValueError naming the
    file unless beta is a finite number >= 0, seed an int or null and
    truth_ref an object or null."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # drops a byte-order mark
            meta = json.load(fh)
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: the sidecar must hold a JSON object")
    beta, seed = meta.get("beta", 0.0), meta.get("seed")
    if isinstance(beta, bool) or not isinstance(beta, (int, float)) or not 0 <= beta < math.inf:
        raise ValueError(f"{path}: beta must be a finite number >= 0, got {beta!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, type(None))):
        raise ValueError(f"{path}: seed must be an integer or null, got {seed!r}")
    if not isinstance(meta.get("truth_ref"), (dict, type(None))):
        raise ValueError(f"{path}: truth_ref must be an object or null")
    return meta
