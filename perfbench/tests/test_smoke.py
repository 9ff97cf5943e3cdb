"""A tiny version of every workload, traced and untraced, in seconds."""

import dataclasses

import pytest

import measure
import spans
from workloads import CellDense, OversampledIO, SweepScattered

TINY = [
    dataclasses.replace(CellDense(), m=4, n=100, filter_m_max=8, truth_m_max=8),
    dataclasses.replace(OversampledIO(), n=400, m=4, truth_m_max=6),
    dataclasses.replace(SweepScattered(), filter_m_max=12, truth_m_max=6,
                        m_grid=(2, 4), betas=(0.01,)),
]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_untraced_pass(workload, package):
    result = measure.run(workload, package, seed=1, seconds=0.0, trace=False, ref=None,
                         setup_probes=1)
    out = result["json"]
    assert out["correct"], result["ledger"].failures
    assert out["attempted"] > 0
    assert set(out["metrics"]) == {"setup_s", "pass_s", "peak_rss_mb", "epsilon_max"}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_counts_repeat(workload, package):
    runs = [measure.run(workload, package, seed=3, seconds=0.0, trace=True, ref=None,
                        setup_probes=0) for _ in range(2)]
    for r in runs:
        assert r["json"]["correct"], r["ledger"].failures
    metrics = [r["json"]["metrics"] for r in runs]
    names = [name for name, _, _, counted in spans.PER_LAYER if counted]
    assert {n: metrics[0][n] for n in names} == {n: metrics[1][n] for n in names}
    assert "linalg.single_thread_pass_s" in metrics[0]
    assert metrics[0]["linalg.svd.calls"]["value"] >= 1
