"""Spans recorded from outside the program by wrapping its public functions.

Every public function of the spheredecon modules is wrapped in each namespace
that binds it at import time (``spheredecon.mz_constants`` and
``cli.lsq_solve`` are separate bindings of functions defined elsewhere), plus
``numpy.linalg.svd``, which the program looks up by attribute.  A span holds
name, start, end, parent and run id, and optionally the sizes computed at the
boundary.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

MODULES = (
    "sphere_geometry",
    "special_functions",
    "filters",
    "harmonics",
    "forward",
    "reconstruct",
    "certify",
    "cli",
    "artifacts",
)
LAYERS = MODULES + ("linalg",)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: int
    size: Optional[dict] = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class Tracer:
    """In-memory span store; ``run`` tags the spans of one workload pass."""

    spans: list = field(default_factory=list)
    run: int = 0
    _stack: list = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, size: Optional[Callable] = None) -> Callable:
        """Wrapper recording one span per call; values and exceptions pass through."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, perf_counter(), 0.0, parent, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if size is not None:
                span.size = size(args, kwargs, result)
            return result

        return wrapper

    def write_jsonl(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run": s.run, "size": s.size}) + "\n")


# ------------------------------------------------------------ sizes


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _svd_flops(args, kwargs, result):
    """Model flop count of a thin R-SVD (Golub & Van Loan, Table 5.4.1)."""
    rows, cols = np.shape(args[0])[-2:]
    big, small = max(rows, cols), min(rows, cols)
    if not kwargs.get("compute_uv", True):
        flops = 2 * big * small**2 + 2 * small**3
    elif kwargs.get("full_matrices", True):
        flops = 4 * big**2 * small + 22 * small**3
    else:
        flops = 6 * big * small**2 + 20 * small**3
    return {"flops": flops}


def _result_bytes(args, kwargs, result):
    return {"bytes": result.nbytes}


SIZES = {
    "sphere_geometry.build_partition": lambda a, k, r: {"regions": r.N},
    "special_functions.jacobi_all": lambda a, k, r: {"terms": r.size,
                                                     "points": int(np.size(_arg(a, k, 2, "x")))},
    "harmonics.basis_matrix": _result_bytes,
    "harmonics.normalized_legendre": _result_bytes,
    "forward.write_measurements_csv": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "reconstruct.lsq_solve": lambda a, k, r: {"rank_deficient": int(not r.full_rank)},
    "certify.find_family_size": lambda a, k, r: {"doublings": len(r[3]) - 1},
    "certify.verify_bound": lambda a, k, r: {"failures": int(not r.passed)},
    "artifacts.atomic_write_text": lambda a, k, r: {"bytes": len(_arg(a, k, 1, "text").encode())},
    "linalg.svd": _svd_flops,
}


# ------------------------------------------------------------ wrapping


def _public_functions(module) -> dict:
    return {
        name: obj
        for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType)
        and not name.startswith("_")
        and obj.__module__.startswith("spheredecon.")
    }


@contextmanager
def instrument(tracer: Tracer, package):
    """Wrap every binding of every public spheredecon function, and svd.

    One wrapper per function object serves all the namespaces that bind it.
    The originals are restored on exit, also when the body raises.
    """
    namespaces = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
    wrappers = {id(np.linalg.svd): tracer.wrap("linalg.svd", np.linalg.svd, SIZES["linalg.svd"])}
    bindings = [(np.linalg, "svd", np.linalg.svd)]
    for ns in namespaces:
        for attr, fn in _public_functions(ns).items():
            if id(fn) not in wrappers:
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                wrappers[id(fn)] = tracer.wrap(name, fn, SIZES.get(name))
            bindings.append((ns, attr, fn))
    try:
        for ns, attr, fn in bindings:
            setattr(ns, attr, wrappers[id(fn)])
        yield tracer
    finally:
        for ns, attr, fn in bindings:
            setattr(ns, attr, fn)


# ------------------------------------------------------------ derived numbers


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def run_summary(spans: list, run: int, pass_s: float) -> dict:
    """Per-name totals of one pass: calls, inclusive s, self s, sizes; layer shares."""
    totals = defaultdict(lambda: defaultdict(float))
    layer_self = defaultdict(float)
    points = 0
    for s, own in zip(spans, self_times(spans)):
        if s.run != run:
            continue
        t = totals[s.name]
        t["calls"] += 1
        t["s"] += s.end - s.start
        t["self_s"] += own
        layer_self[s.layer] += own
        for key, v in (s.size or {}).items():
            t[key] += v
        # points fed to the quadrature integrand: jacobi_all under adaptive_quadrature
        if s.name == "special_functions.jacobi_all" and s.parent >= 0 \
                and spans[s.parent].name == "special_functions.adaptive_quadrature":
            points += s.size["points"]
    totals["filters.integrand"]["points"] = points
    shares = {layer: layer_self[layer] / pass_s for layer in LAYERS}
    return {"totals": totals, "shares": shares}


# (metric name, span name, field, counted): counted fields must repeat exactly
PER_LAYER = [
    ("sphere_geometry.build_partition.self_s", "sphere_geometry.build_partition", "self_s", False),
    ("sphere_geometry.build_partition.calls", "sphere_geometry.build_partition", "calls", True),
    ("sphere_geometry.regions", "sphere_geometry.build_partition", "regions", True),
    ("sphere_geometry.pick_nodes.self_s", "sphere_geometry.pick_nodes", "self_s", False),
    ("special_functions.jacobi_all.self_s", "special_functions.jacobi_all", "self_s", False),
    ("special_functions.jacobi_all.calls", "special_functions.jacobi_all", "calls", True),
    ("special_functions.jacobi_all.terms", "special_functions.jacobi_all", "terms", True),
    ("special_functions.adaptive_quadrature.calls", "special_functions.adaptive_quadrature", "calls", True),
    ("special_functions.adaptive_quadrature.self_s", "special_functions.adaptive_quadrature", "self_s", False),
    ("filters.multipliers_from_profile.s", "filters.multipliers_from_profile", "s", False),
    ("filters.integrand_points", "filters.integrand", "points", True),
    ("harmonics.basis_matrix.self_s", "harmonics.basis_matrix", "self_s", False),
    ("harmonics.basis_matrix.calls", "harmonics.basis_matrix", "calls", True),
    ("harmonics.basis_matrix.bytes", "harmonics.basis_matrix", "bytes", True),
    ("harmonics.normalized_legendre.self_s", "harmonics.normalized_legendre", "self_s", False),
    ("harmonics.normalized_legendre.bytes", "harmonics.normalized_legendre", "bytes", True),
    ("forward.simulate.s", "forward.simulate", "s", False),
    ("forward.write_measurements_csv.s", "forward.write_measurements_csv", "s", False),
    ("forward.read_measurements_csv.s", "forward.read_measurements_csv", "s", False),
    ("forward.csv_bytes", "forward.write_measurements_csv", "bytes", True),
    ("reconstruct.lsq_solve.s", "reconstruct.lsq_solve", "s", False),
    ("reconstruct.lsq_solve.calls", "reconstruct.lsq_solve", "calls", True),
    ("reconstruct.design_matrix.self_s", "reconstruct.design_matrix", "self_s", False),
    ("reconstruct.rank_deficient", "reconstruct.lsq_solve", "rank_deficient", True),
    ("certify.mz_constants.s", "certify.mz_constants", "s", False),
    ("certify.mz_constants.calls", "certify.mz_constants", "calls", True),
    ("certify.find_family_size.doublings", "certify.find_family_size", "doublings", True),
    ("certify.verify_bound.failures", "certify.verify_bound", "failures", True),
    ("linalg.svd.self_s", "linalg.svd", "self_s", False),
    ("linalg.svd.calls", "linalg.svd", "calls", True),
    ("linalg.svd.flops", "linalg.svd", "flops", True),
    ("cli.main.self_s", "cli.main", "self_s", False),
    ("cli.cells", "cli.run_experiment_row", "calls", True),
    ("artifacts.atomic_write_text.calls", "artifacts.atomic_write_text", "calls", True),
    ("artifacts.bytes_written", "artifacts.atomic_write_text", "bytes", True),
]

UNITS = {"s": "s", "self_s": "s", "calls": "count", "bytes": "bytes", "flops": "flop"}


def counts_of(summary: dict) -> dict:
    """The exactly repeatable part of one pass summary."""
    totals = summary["totals"]
    return {metric: totals[name][key] if name in totals else 0.0
            for metric, name, key, counted in PER_LAYER if counted}


def per_layer_metrics(summaries: list) -> dict:
    """Counts from the first traced pass, times as medians over traced passes."""
    counts = counts_of(summaries[0])
    out = {}
    for metric, name, key, counted in PER_LAYER:
        if counted:
            value = counts[metric]
        else:
            value = statistics.median(
                s["totals"][name][key] if name in s["totals"] else 0.0 for s in summaries
            )
        out[metric] = {"value": float(value), "unit": UNITS.get(key, "count")}
    for layer in LAYERS:
        out[f"share.{layer}"] = {
            "value": statistics.median(s["shares"][layer] for s in summaries),
            "unit": "fraction",
        }
    return out
