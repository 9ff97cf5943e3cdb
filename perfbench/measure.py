"""Measurement loop of one benchmark run: set-up probes, timed passes,
optional tracing, gates, and the result object."""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import benchenv
import spans
from workloads import Ledger, check_pass, check_reference, check_rerun, params

PROBE = benchenv.HERE / "probe.py"
WORK = benchenv.HERE / "work"
OUT = benchenv.HERE / "out"
PROBE_TIMEOUT_S = 120


class ProbeFailed(RuntimeError):
    """A child interpreter of the run failed or timed out."""


def _probe(args: list) -> float:
    try:
        proc = subprocess.run([sys.executable, str(PROBE), *map(str, args)],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ProbeFailed(f"probe {args} timed out after {PROBE_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.split():
        raise ProbeFailed(f"probe {args} failed: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout.split()[-1])


def setup_times(count: int, threads: int) -> list:
    """Fresh interpreter to spheredecon imported and first LAPACK call returned."""
    out = []
    for _ in range(count):
        start = perf_counter()  # CLOCK_MONOTONIC, shared with the child
        out.append(_probe(["setup", threads]) - start)
    return out


def make_workdir(name: str) -> Path:
    """A fresh directory for one run's files, inside the checkout."""
    WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))


def one_pass(workload, seed: int) -> float:
    """Wall time of one untraced pass after a warm-up pass, for the thread probe."""
    workdir = make_workdir(workload.name)
    try:
        inputs = workload.prepare(seed, workdir)
        for k in range(2):
            passdir = workdir / f"pass{k}"
            passdir.mkdir()
            start = perf_counter()
            workload.run_pass(inputs, passdir)
            elapsed = perf_counter() - start
        return elapsed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workload, package, seed: int, seconds: float, trace: bool, ref,
        setup_probes: int) -> dict:
    """Passes until the next one would end past ``seconds``.

    Pass 0 warms caches and lazy imports and is checked but not timed.  Then
    at least one timed pass runs; with ``trace`` the timed passes alternate
    traced, untraced, traced, ... and at least one of each runs.
    """
    min_passes = 3 if trace else 2
    threads = benchenv.nproc()
    setup = setup_times(setup_probes, threads)
    ledger = Ledger()
    tracer = spans.Tracer()
    times = {False: [], True: []}
    outs = []
    workdir = make_workdir(workload.name)
    try:
        inputs = workload.prepare(seed, workdir)
        deadline = perf_counter() + seconds
        k = 0
        while True:
            traced = trace and k % 2 == 1
            timed = times[traced] if k > 0 else []
            passdir = workdir / f"pass{k}"
            passdir.mkdir()
            tracer.run = k
            elapsed = 0.0
            try:
                with spans.instrument(tracer, package) if traced else nullcontext():
                    start = perf_counter()
                    try:
                        raw = workload.run_pass(inputs, passdir)
                    finally:
                        elapsed = perf_counter() - start
                out = workload.outputs(raw, passdir)
            except Exception:  # the run must still report, so every failure is counted
                times[traced].append(elapsed)
                ledger.check(f"pass {k}", False, traceback.format_exc())
                break
            timed.append(elapsed)
            check_pass(out, ledger)
            if outs:
                check_rerun(outs[0], out, ledger)
            outs.append(out)
            shutil.rmtree(passdir)
            k += 1
            if k >= min_passes and perf_counter() + elapsed > deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outs and ref is not None:
        check_reference(workload, outs[0], ref, seed, ledger)
    epsilons = [c.epsilon for c in outs[0].cells] if outs else []
    if trace:
        metrics = _per_layer(workload, seed, tracer, times, ledger)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": statistics.median(times[False]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            # with no cell there is no epsilon; the run is then failed anyway
            "epsilon_max": {"value": max(epsilons, default=0.0), "unit": "1"},
        }
    result = {"setup": setup, "times": times, "ledger": ledger}
    result["json"] = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    return result


def _per_layer(workload, seed, tracer, times, ledger) -> dict:
    traced_runs = sorted({s.run for s in tracer.spans})
    summaries = [spans.run_summary(tracer.spans, run, t)
                 for run, t in zip(traced_runs, times[True])]
    tracer.write_jsonl(OUT / f"trace-{workload.name}-seed{seed}.jsonl")
    if not summaries:
        return {}
    counts = [spans.counts_of(s) for s in summaries]
    ledger.check("trace.counts", all(c == counts[0] for c in counts),
                 "traced passes of one input made different calls")
    metrics = spans.per_layer_metrics(summaries)
    traced, untraced = statistics.median(times[True]), statistics.median(times[False])
    metrics["trace.pass_s"] = {"value": traced, "unit": "s"}
    metrics["trace.untraced_pass_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    metrics["linalg.single_thread_pass_s"] = {
        "value": _probe(["pass", workload.name, json.dumps(params(workload)), seed, 1]),
        "unit": "s"}
    return metrics


def summary_lines(result: dict) -> list:
    ledger = result["ledger"]
    times = result["times"]
    lines = []
    for name, m in result["json"]["metrics"].items():
        lines.append(f"{name:<44} {m['value']:.6g} {m['unit']}")
    if result["setup"]:
        lines.append("setup samples s: " + " ".join(f"{t:.4f}" for t in result["setup"]))
    lines.append(f"pass samples s: untraced {' '.join(f'{t:.4f}' for t in times[False])}"
                 + (f"; traced {' '.join(f'{t:.4f}' for t in times[True])}" if times[True] else ""))
    frac = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    lines.append(f"{'error_frac':<44} {frac:.6g} 1 ({ledger.failed} of {ledger.attempted} operations failed)")
    for failure in ledger.failures[:20]:
        lines.append("FAIL " + failure.strip().replace("\n", "\n     "))
    return lines
