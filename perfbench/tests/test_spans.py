import numpy as np
import pytest

import spans
from spans import Span, Tracer


def test_self_time_of_nested_spans():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and [8, 9];
    # the first child has a grandchild [2, 3].
    s = [
        Span("a.root", 0.0, 10.0, -1, 0),
        Span("b.child", 1.0, 4.0, 0, 0),
        Span("c.grand", 2.0, 3.0, 1, 0),
        Span("b.child", 3.0, 6.0, 0, 0),
        Span("b.child", 8.0, 9.0, 0, 0),
    ]
    assert spans.self_times(s) == pytest.approx([10 - 6, 3 - 1, 1, 3, 1])


def test_child_outside_parent_is_clipped():
    s = [Span("a.root", 0.0, 2.0, -1, 0), Span("b.child", 1.0, 5.0, 0, 0)]
    assert spans.self_times(s)[0] == pytest.approx(1.0)


def test_run_summary_totals_and_shares():
    s = [
        Span("cli.main", 0.0, 4.0, -1, 3),
        Span("linalg.svd", 1.0, 3.0, 0, 3, {"flops": 7}),
        Span("linalg.svd", 5.0, 6.0, -1, 4),  # another pass
    ]
    summary = spans.run_summary(s, 3, pass_s=8.0)
    assert summary["totals"]["linalg.svd"]["calls"] == 1
    assert summary["totals"]["linalg.svd"]["flops"] == 7
    assert summary["totals"]["cli.main"]["self_s"] == pytest.approx(2.0)
    assert summary["shares"]["linalg"] == pytest.approx(0.25)
    assert summary["shares"]["cli"] == pytest.approx(0.25)


def test_wrapper_passes_values_and_exceptions():
    tracer = Tracer()

    def ok(x, y=1):
        return x + y

    def boom():
        raise KeyError("x")

    assert tracer.wrap("m.ok", ok)(2, y=3) == 5
    with pytest.raises(KeyError):
        tracer.wrap("m.boom", boom)()
    assert [sp.name for sp in tracer.spans] == ["m.ok", "m.boom"]
    assert all(sp.end >= sp.start for sp in tracer.spans)
    assert tracer.wrap("m.ok", ok).__name__ == "ok"


def test_instrument_wraps_every_binding_and_restores(package):
    from spheredecon import certify, cli

    originals = (package.mz_constants, certify.mz_constants, cli.lsq_solve, np.linalg.svd)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with spans.instrument(tracer, package):
            assert package.mz_constants is certify.mz_constants
            assert package.mz_constants is not originals[0]
            assert cli.lsq_solve is not originals[2]
            np.linalg.svd(np.eye(3))
            raise RuntimeError("body failed")
    assert (package.mz_constants, certify.mz_constants, cli.lsq_solve, np.linalg.svd) == originals
    assert [sp.name for sp in tracer.spans] == ["linalg.svd"]
    assert tracer.spans[0].size["flops"] > 0


def test_call_through_two_namespaces_nests(package):
    tracer = Tracer()
    fam = package.pick_nodes(package.build_partition(60))
    with spans.instrument(tracer, package):
        package.mz_constants(fam, 2)
    names = [sp.name for sp in tracer.spans]
    assert names[0] == "certify.mz_constants"
    assert "harmonics.basis_matrix" in names and "linalg.svd" in names
    svd = tracer.spans[names.index("linalg.svd")]
    assert tracer.spans[svd.parent].name == "certify.mz_constants"
