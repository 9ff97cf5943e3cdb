"""Multiplier application, sampling, noise injection, measurement export."""

import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spheredecon import forward
from spheredecon.artifacts import write_csv
from spheredecon.filters import cap_multipliers, fit_decay, identity_multipliers, MultiplierFilter
from spheredecon.forward import (
    MeasurementSet,
    add_noise,
    apply_multiplier,
    read_measurements_csv,
    sample_at,
    simulate,
    truth_digest,
    write_measurements_csv,
)
from spheredecon.harmonics import (
    CoefficientVector,
    basis_matrix,
    index_of,
    random_poly,
    sobolev_norm,
)
from spheredecon.reconstruct import lsq_solve
from spheredecon.sphere_geometry import MzFamily, Region, SpherePoint, build_partition, pick_nodes


@pytest.fixture(scope="module")
def family():
    return pick_nodes(build_partition(120))


class TestApplyMultiplier:
    def test_identity(self):
        c = random_poly(6, sigma=1.0, seed=0)
        out = apply_multiplier(identity_multipliers(6), c)
        np.testing.assert_array_equal(out.coeffs, c.coeffs)

    def test_projector_onto_constants(self):
        c = random_poly(4, sigma=1.0, seed=1)
        b = np.zeros(5)
        b[0] = 1.0
        out = apply_multiplier(MultiplierFilter(b), c)
        assert out.coeffs[0] == c.coeffs[0]
        assert np.all(out.coeffs[1:] == 0.0)

    def test_composition_is_pointwise_product(self):
        c = random_poly(5, sigma=1.0, seed=2)
        rng = np.random.default_rng(3)
        f1 = MultiplierFilter(rng.uniform(-1, 1, 6))
        f2 = MultiplierFilter(rng.uniform(-1, 1, 6))
        twice = apply_multiplier(f2, apply_multiplier(f1, c))
        once = apply_multiplier(MultiplierFilter(f1.b * f2.b), c)
        np.testing.assert_allclose(twice.coeffs, once.coeffs, rtol=1e-15)

    def test_linearity(self):
        f = cap_multipliers(0.4, 7)
        a = random_poly(7, sigma=1.0, seed=4)
        b = random_poly(7, sigma=1.0, seed=5)
        lhs = apply_multiplier(f, CoefficientVector(7, 2.5 * a.coeffs + b.coeffs))
        rhs = 2.5 * apply_multiplier(f, a).coeffs + apply_multiplier(f, b).coeffs
        np.testing.assert_allclose(lhs.coeffs, rhs, rtol=1e-14)

    @pytest.mark.parametrize("m_max, filt_m_max", [(0, 0), (1, 4), (9, 9), (24, 30)])
    def test_bitwise_the_per_degree_scaling(self, m_max, filt_m_max):
        rng = np.random.default_rng(m_max)
        b = rng.uniform(-1, 1, filt_m_max + 1)
        b[::3] = 0.0
        c = random_poly(m_max, sigma=1.0, seed=m_max)
        expected = c.coeffs.copy()
        for m in range(m_max + 1):
            expected[m * m : (m + 1) ** 2] *= b[m]
        out = apply_multiplier(MultiplierFilter(b), c)
        assert out.coeffs.tobytes() == expected.tobytes()

    def test_rejects_short_filter(self):
        with pytest.raises(ValueError):
            apply_multiplier(identity_multipliers(3), random_poly(5, 1.0, 0))

    def test_sobolev_smoothing_inequality(self):
        # ||Ff||_{H^{omega+gamma}} <= c ||f||_{H^omega} with fitted c
        filt = cap_multipliers(0.6, 30)
        gamma = 1.5
        c = fit_decay(filt, gamma)
        for seed in range(5):
            f = random_poly(30, sigma=2.0, seed=seed)
            for omega in (0.0, 1.0, 2.0):
                lhs = sobolev_norm(apply_multiplier(filt, f), omega + gamma)
                assert lhs <= c * sobolev_norm(f, omega) * (1 + 1e-12)


class TestSampleAt:
    def test_constant(self, family):
        c = CoefficientVector(0, np.array([3.0]))
        np.testing.assert_allclose(sample_at(c, family.nodes), 3.0)

    def test_empty_nodes(self):
        assert sample_at(random_poly(3, 1.0, 0), ()).size == 0

    def test_matches_pointwise_oracle(self):
        c = random_poly(4, sigma=1.0, seed=9)
        pts = np.array([[0.3, 0.1], [0.0, 0.0], [2.9, 5.5]])
        vals = sample_at(c, pts)
        for v, p in zip(vals, pts):
            oracle = basis_matrix(4, p[:1], p[1:])[0] @ c.coeffs
            assert v == pytest.approx(oracle, rel=1e-13, abs=1e-13)

    def test_degree_one_zonal_at_pole(self):
        # coefficient vector with only the (1, 2) entry: the polar-axis harmonic
        c = CoefficientVector(1, np.eye(4)[index_of(1, 2)])
        val = sample_at(c, np.array([[0.0, 0.0]]))[0]
        assert val == pytest.approx(math.sqrt(3.0), rel=1e-13)


class TestAddNoise:
    def test_zero_beta_identity(self):
        v = np.arange(5.0)
        out = add_noise(v, 0.0)
        np.testing.assert_array_equal(out, v)

    def test_bound_respected(self):
        v = np.zeros(1000)
        out = add_noise(v, 0.37, seed=6)
        assert np.max(np.abs(out)) <= 0.37

    def test_deterministic(self):
        v = np.ones(64)
        np.testing.assert_array_equal(add_noise(v, 0.1, seed=7), add_noise(v, 0.1, seed=7))

    def test_requires_seed_for_positive_beta(self):
        with pytest.raises(ValueError):
            add_noise(np.ones(3), 0.1)


class TestSimulate:
    def test_constant_truth_identity_filter(self, family):
        truth = CoefficientVector(0, np.array([1.0]))
        ms = simulate(truth, identity_multipliers(0), family, beta=0.0)
        np.testing.assert_allclose(ms.y, 1.0, atol=1e-14)

    def test_noiseless_samples_exact(self, family):
        truth = random_poly(5, sigma=1.5, seed=10)
        filt = cap_multipliers(0.5, 5)
        ms = simulate(truth, filt, family, beta=0.0)
        expected = sample_at(apply_multiplier(filt, truth), family.nodes)
        np.testing.assert_array_equal(ms.y, expected)

    def test_noise_within_declared_level(self, family):
        truth = random_poly(5, sigma=1.5, seed=10)
        filt = identity_multipliers(5)
        ms = simulate(truth, filt, family, beta=1e-3, seed=11)
        clean = sample_at(truth, family.nodes)
        assert np.max(np.abs(ms.y - clean)) <= 1e-3
        assert ms.beta == 1e-3 and ms.seed == 11

    def test_truth_ref_digests(self, family):
        truth = random_poly(3, sigma=1.0, seed=12)
        filt = identity_multipliers(3)
        ms = simulate(truth, filt, family, beta=0.0)
        assert ms.truth_ref == truth_digest(truth, filt)
        other = truth_digest(random_poly(3, sigma=1.0, seed=13), filt)
        assert other["truth_sha256"] != ms.truth_ref["truth_sha256"]


class TestMeasurementIO:
    def test_csv_roundtrip(self, family, tmp_path):
        truth = random_poly(4, sigma=1.0, seed=14)
        ms = simulate(truth, identity_multipliers(4), family, beta=1e-2, seed=15)
        csv = tmp_path / "meas.csv"
        sidecar = tmp_path / "meas.json"
        write_measurements_csv(csv, ms, sidecar_path=sidecar)
        back = read_measurements_csv(csv, sidecar_path=sidecar)
        np.testing.assert_array_equal(back.y, ms.y)
        np.testing.assert_array_equal(back.weights, ms.weights)
        assert back.beta == ms.beta
        assert back.truth_ref == ms.truth_ref
        assert all(
            a[0] == b[0] and a[1] == b[1] for a, b in zip(back.nodes, ms.nodes)
        )

    @pytest.mark.parametrize("marked", ["csv", "sidecar"])
    def test_byte_order_mark_round_trip(self, marked, family, tmp_path):
        ms = simulate(random_poly(4, sigma=1.0, seed=14), identity_multipliers(4), family,
                      beta=1e-2, seed=15)
        csv, sidecar = tmp_path / "meas.csv", tmp_path / "meas.json"
        write_measurements_csv(csv, ms, sidecar_path=sidecar)
        path = csv if marked == "csv" else sidecar
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        back = read_measurements_csv(csv, sidecar_path=sidecar)
        np.testing.assert_array_equal(back.nodes, ms.nodes)
        np.testing.assert_array_equal(back.weights, ms.weights)
        np.testing.assert_array_equal(back.y, ms.y)
        assert (back.beta, back.seed, back.truth_ref) == (ms.beta, ms.seed, ms.truth_ref)

    @pytest.mark.parametrize("layout", ["blank_lines", "whitespace_lines", "crlf",
                                        "no_final_newline"])
    def test_layouts_parse_to_the_same_bits(self, layout, tmp_path):
        fam = pick_nodes(build_partition(60), rule="random_in_region", seed=3)
        ms = simulate(random_poly(4, sigma=1.0, seed=14), identity_multipliers(4), fam,
                      beta=1e-2, seed=15)
        plain = tmp_path / "plain.csv"
        write_measurements_csv(plain, ms)
        header, *rows = plain.read_text().splitlines()
        text = {
            "blank_lines": "\n".join([header, "", rows[0], "", "", *rows[1:], ""]) + "\n",
            "whitespace_lines": "\n".join([header, rows[0], "  ", *rows[1:3], "\t", *rows[3:]])
                                + "\n \n",
            "crlf": "\r\n".join([header, *rows]) + "\r\n",
            "no_final_newline": "\n".join([header, *rows]),
        }[layout]
        odd = tmp_path / "odd.csv"
        odd.write_bytes(text.encode())
        got = read_measurements_csv(odd)
        for a, b in [(got.nodes, ms.nodes), (got.weights, ms.weights), (got.y, ms.y)]:
            assert a.tobytes() == b.tobytes()

    def test_lines_are_numbered_only_for_a_message(self, family, tmp_path, monkeypatch):
        ms = simulate(random_poly(3, sigma=1.0, seed=16), identity_multipliers(3), family)
        csv = tmp_path / "meas.csv"
        write_measurements_csv(csv, ms)
        calls = []
        row_lines = forward._row_lines
        monkeypatch.setattr(forward, "_row_lines", lambda path: calls.append(path) or row_lines(path))
        read_measurements_csv(csv)
        assert calls == []
        header, *rows = csv.read_text().splitlines()
        rows[-1] = rows[-1].rsplit(",", 1)[0] + ",nan"
        csv.write_text("\n\n".join([header, *rows[:3]]) + "\n\n" + "\n".join(rows[3:]) + "\n")
        with pytest.raises(ValueError, match="line 125 holds a non-finite value"):
            read_measurements_csv(csv)
        assert calls == [csv]

    def test_header_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            read_measurements_csv(bad)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            MeasurementSet(
                nodes=np.array([[0.1, 0.0]]),
                weights=np.array([0.5, 0.5]),
                y=np.array([1.0, 2.0]),
            )


def reference_csv(header: str, *columns) -> str:
    """The text of "%.17g" applied to every value, row by row."""
    rows = np.column_stack(columns)
    row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return header + "\n" + (row * rows.shape[0]) % tuple(rows.ravel().tolist())


NAN_PAYLOAD = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0])
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, sys.float_info.min, sys.float_info.max,
           -sys.float_info.max, math.inf, -math.inf, math.nan, -math.nan, NAN_PAYLOAD]


@st.composite
def csv_columns(draw):
    """1-4 equal-length columns, each drawn from a pool of at most n + 1
    values, so that most columns repeat values and some do not."""
    n = draw(st.integers(0, 30))
    values = st.one_of(st.sampled_from(SPECIAL), st.floats())
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        pool = draw(st.lists(values, min_size=1, max_size=n + 1))
        columns.append(np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))))
    return columns


class TestCsvBytes:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(columns=csv_columns())
    @example(columns=[np.array([0.0, -0.0, 0.0, -0.0]),
                      np.array([math.nan, -math.nan, NAN_PAYLOAD, math.nan])])
    def test_bytes_of_per_value_formatting(self, columns, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, "a", *columns)
        assert path.read_bytes() == reference_csv("a", *columns).encode()


class TestNoPerNodeObjects:
    @pytest.mark.parametrize("rule, seed", [("area_center", None), ("random_in_region", 4)])
    def test_pipeline_constructs_no_point_or_region(self, rule, seed, tmp_path, monkeypatch):
        counts = {SpherePoint: 0, Region: 0}
        for cls in counts:
            def counting(self, cls=cls, post_init=cls.__post_init__):
                counts[cls] += 1
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        filt = identity_multipliers(8)
        fam = pick_nodes(build_partition(4356), rule=rule, seed=seed)
        ms = simulate(random_poly(8, sigma=1.0, seed=16), filt, fam, beta=1e-3, seed=17)
        write_measurements_csv(tmp_path / "meas.csv", ms)
        back = read_measurements_csv(tmp_path / "meas.csv")
        lsq_solve(filt, MzFamily(nodes=back.nodes, weights=back.weights), 8, back.y)
        assert counts == {SpherePoint: 0, Region: 0}
        # the spies see constructions where there are some
        SpherePoint(0.1, 0.2)
        assert len(build_partition(64).regions) == 64
        assert counts == {SpherePoint: 1, Region: 64}

    def test_simulate_shares_the_family_arrays(self, family):
        ms = simulate(random_poly(3, sigma=1.0, seed=18), identity_multipliers(3), family)
        assert ms.nodes is family.nodes and ms.weights is family.weights
