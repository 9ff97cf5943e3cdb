"""Partition construction, rounding sequence and node families."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheredecon.sphere_geometry import (
    MzFamily,
    Region,
    SpherePoint,
    build_partition,
    build_rounding_sequence,
    partition_to_json,
    pick_nodes,
    region_measure,
    write_nodes_csv,
    write_partition_json,
)

N_GRID = (50, 64, 100, 500, 2000)


def rounding_y_sequence(N: int):
    """The nominal band areas y_1..y_s of the partition construction."""
    theta0 = math.acos(1 - 50 / N)
    s = math.floor(math.sqrt(math.pi * N) / 2)
    if s % 2 == 0:
        s -= 1
    dth = (math.pi - 2 * theta0) / s
    tp = [theta0 + k * dth for k in range(s + 1)]
    return [N * (math.cos(tp[k - 1]) - math.cos(tp[k])) / 2 for k in range(1, s + 1)]


def check_rounding_properties(y, ell, atol=1e-9):
    """Properties (1)-(3): exact total, endpoint/interior deviations, prefixes."""
    assert sum(ell) == round(math.fsum(y))
    dev = [yy - ll for yy, ll in zip(y, ell)]
    assert abs(dev[0]) <= 0.5 + atol
    assert abs(dev[-1]) <= 0.5 + atol
    assert abs(abs(dev[0]) - abs(dev[-1])) <= atol
    for d in dev[1:-1]:
        assert abs(d) <= 1.0 + atol
    prefix = 0.0
    for d in dev:
        prefix += d
        assert abs(prefix) <= 0.5 + atol


def angle(p: SpherePoint, q: SpherePoint) -> float:
    """Angular distance: the clipped arccos of the dot product of the unit vectors."""
    u, v = ([math.sin(x.theta) * math.cos(x.phi), math.sin(x.theta) * math.sin(x.phi),
             math.cos(x.theta)] for x in (p, q))
    return math.acos(max(-1.0, min(1.0, float(np.dot(u, v)))))


class TestSpherePoint:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SpherePoint(-0.1, 0.0)
        with pytest.raises(ValueError):
            SpherePoint(0.5, 2 * math.pi)


class TestRoundingSequence:
    def test_integers_pass_through(self):
        assert build_rounding_sequence([2, 3, 2]) == [2, 3, 2]

    def test_frozen_example(self):
        # prefix sums of y - ell are 0.4, -0.4, 0
        assert build_rounding_sequence([1.4, 1.2, 1.4]) == [1, 2, 1]

    def test_single_band(self):
        assert build_rounding_sequence([5.0]) == [5]

    def test_rejects_non_integer_total(self):
        with pytest.raises(ValueError, match="integer"):
            build_rounding_sequence([1.4, 1.3, 1.4])

    def test_rejects_even_length(self):
        with pytest.raises(ValueError):
            build_rounding_sequence([1.0, 1.0])

    def test_partition_sequences_all_properties(self):
        for N in N_GRID:
            y = rounding_y_sequence(N)
            ell = build_rounding_sequence(y)
            check_rounding_properties(y, ell)
            assert ell == ell[::-1]

    def test_random_symmetric_inputs(self):
        rng = np.random.default_rng(42)
        for trial in range(40):
            s = int(rng.integers(1, 12)) * 2 + 1
            half = rng.uniform(0.0, 9.0, s // 2)
            mid = rng.uniform(0.0, 9.0)
            y = np.concatenate([half, [mid], half[::-1]])
            # shift the middle entry so the total is an integer
            y[s // 2] += round(y.sum()) - y.sum() + rng.integers(0, 3)
            if y[s // 2] < 0:
                y[s // 2] += 3
            ell = build_rounding_sequence(y)
            check_rounding_properties(list(y), ell)
            assert ell == ell[::-1]

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="not symmetric"):
            build_rounding_sequence([1.6, 2.4, 1.0])

    def test_symmetry_tolerance(self):
        # a mismatch of rounding size passes; one of 1e-6 does not
        assert build_rounding_sequence([1.4 + 1e-13, 1.2, 1.4]) == [1, 2, 1]
        with pytest.raises(ValueError, match="not symmetric"):
            build_rounding_sequence([1.4 + 1e-6, 1.2, 1.4 - 1e-6])


class TestBuildPartition:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="N >= 50"):
            build_partition(49)

    def test_frozen_n100_parameters(self):
        p = build_partition(100)
        assert p.theta0 == pytest.approx(1.0471975511965979, abs=1e-12)  # arccos(1/2)
        assert p.s == 7  # sqrt(100*pi)/2 = 8.8623
        assert p.delta_theta == pytest.approx(0.14959965017094253, abs=1e-12)

    @pytest.mark.parametrize("N", N_GRID)
    def test_structure(self, N):
        p = build_partition(N)
        assert p.ell[0] == 25 and p.ell[-1] == 25
        assert sum(p.ell[1:-1]) == N - 50
        assert p.s % 2 == 1
        assert list(p.ell[1:-1]) == list(p.ell[1:-1])[::-1]
        assert len(p.regions) == N
        assert p.theta_bounds[0] == 0.0 and p.theta_bounds[-1] == math.pi

    @pytest.mark.parametrize("N", N_GRID)
    def test_equal_measures(self, N):
        p = build_partition(N)
        measures = np.array([region_measure(r) for r in p.regions])
        np.testing.assert_allclose(measures, 1.0 / N, rtol=1e-12)

    @pytest.mark.parametrize("N", N_GRID)
    def test_tiling_and_disjointness(self, N):
        p = build_partition(N)
        assert math.fsum(region_measure(r) for r in p.regions) == pytest.approx(1.0, abs=1e-10)
        rng = np.random.default_rng(N)
        thetas = np.arccos(rng.uniform(-1, 1, 200))
        phis = rng.uniform(0, 2 * math.pi, 200)
        for t, f in zip(thetas, phis):
            pt = SpherePoint(t, f)
            hits = sum(1 for r in p.regions if r.contains(pt))
            # theta band boundaries are closed on both sides; random points
            # never hit them, so each point lands in exactly one region
            assert hits == 1

    @pytest.mark.parametrize("N", N_GRID)
    def test_polar_cap_measure(self, N):
        p = build_partition(N)
        assert (1 - math.cos(p.theta0)) / 2 == pytest.approx(25.0 / N, rel=1e-12)

    def test_diameter_scaling_bounded(self):
        consts = [build_partition(N).max_cap_radius * math.sqrt(N) for N in N_GRID]
        assert max(consts) < 16.0
        assert min(consts) > 0.0

    def test_regions_inside_reported_cap(self):
        p = build_partition(64)
        for r in p.regions:
            c = r.area_center()
            corners = [
                SpherePoint(t, f % (2 * math.pi))
                for t in (r.theta_lo, r.theta_hi)
                for f in (r.phi_lo, r.phi_hi)
            ]
            assert all(
                angle(c, q) <= p.max_cap_radius + 1e-12 for q in corners
            )

    def test_inscribed_radius_positive(self):
        for N in (64, 500):
            p = build_partition(N)
            assert p.min_inscribed_radius > 0


class TestRegionMeasure:
    def test_whole_sphere(self):
        r = Region(0.0, math.pi, 0.0, 2 * math.pi, 0, 1)
        assert region_measure(r) == pytest.approx(1.0, abs=1e-15)

    def test_northern_hemisphere(self):
        r = Region(0.0, math.pi / 2, 0.0, 2 * math.pi, 0, 1)
        assert region_measure(r) == pytest.approx(0.5, abs=1e-15)

    def test_monte_carlo_oracle_n64(self):
        p = build_partition(64)
        region = p.regions[40]
        rng = np.random.default_rng(2024)
        n = 400_000
        pts_theta = np.arccos(rng.uniform(-1, 1, n))
        pts_phi = rng.uniform(0, 2 * math.pi, n)
        inside = np.sum(
            (region.theta_lo <= pts_theta)
            & (pts_theta <= region.theta_hi)
            & (region.phi_lo <= pts_phi)
            & (pts_phi < region.phi_hi)
        )
        estimate = inside / n
        sigma = math.sqrt((1 / 64) * (1 - 1 / 64) / n)
        assert abs(estimate - region_measure(region)) < 6 * sigma
        assert region_measure(region) == pytest.approx(1 / 64, rel=1e-12)


class TestPickNodes:
    def test_area_center_inside_each_region(self):
        p = build_partition(144)
        fam = pick_nodes(p)
        for node, region in zip(fam.nodes, p.regions):
            assert region.contains(SpherePoint(*node))

    def test_area_center_formula(self):
        p = build_partition(100)
        r = p.regions[30]
        theta, phi = pick_nodes(p).nodes[30]
        expected_theta = math.acos((math.cos(r.theta_lo) + math.cos(r.theta_hi)) / 2)
        assert theta == pytest.approx(expected_theta, abs=1e-14)
        assert phi == pytest.approx(0.5 * (r.phi_lo + r.phi_hi), abs=1e-14)

    def test_weights_sum_to_one(self):
        for N in (50, 100, 500):
            fam = pick_nodes(build_partition(N))
            assert math.fsum(fam.weights) == pytest.approx(1.0, abs=1e-12)

    def test_random_rule_is_deterministic_and_inside(self):
        p = build_partition(200)
        fam1 = pick_nodes(p, rule="random_in_region", seed=5)
        fam2 = pick_nodes(p, rule="random_in_region", seed=5)
        assert all(
            a[0] == b[0] and a[1] == b[1] for a, b in zip(fam1.nodes, fam2.nodes)
        )
        for node, region in zip(fam1.nodes, p.regions):
            assert region.contains(SpherePoint(*node))

    def test_random_rule_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            pick_nodes(build_partition(64), rule="random_in_region")

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            pick_nodes(build_partition(64), rule="centroid")


class TestMzFamily:
    def test_rejects_unnormalized_weights(self):
        nodes = np.array([[0.1, 0.0], [0.2, 0.0]])
        with pytest.raises(ValueError, match=r"weights must sum to 1, got 0\.9$"):
            MzFamily(nodes=nodes, weights=np.array([0.5, 0.4]))

    @pytest.mark.parametrize(
        "theta, phi",
        [(-0.1, 0.0), (math.pi + 1e-9, 0.0), (0.5, -1e-9), (0.5, 2 * math.pi), (math.nan, 0.0)],
    )
    def test_rejects_nodes_off_the_sphere(self, theta, phi):
        nodes = np.array([[0.1, 0.0], [theta, phi]])
        with pytest.raises(ValueError, match="node 1"):
            MzFamily(nodes=nodes, weights=np.array([0.5, 0.5]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            MzFamily(nodes=np.array([0.1, 0.2]), weights=np.array([0.5, 0.5]))


# ---------------------------------------------------------------- oracle
# The per-region construction that the band-wise build_partition and
# pick_nodes replaced: one Region per region, radii region by region, nodes
# one SpherePoint at a time.  The band-wise code must match it bitwise.


def _oracle_enclosing(r):
    if r.theta_lo == 0.0:
        return r.theta_hi
    if r.theta_hi == math.pi:
        return math.pi - r.theta_lo
    tc = 0.5 * (r.theta_lo + r.theta_hi)
    pc = 0.5 * (r.phi_lo + r.phi_hi)
    center = SpherePoint(tc, pc % (2.0 * math.pi))
    best = 0.0
    for phi in (r.phi_lo, r.phi_hi):
        dphi = abs(phi - pc)
        for theta in (r.theta_lo, r.theta_hi):
            cosd = math.cos(tc) * math.cos(theta) + math.sin(tc) * math.sin(
                theta
            ) * math.cos(dphi)
            best = max(best, math.acos(max(-1.0, min(1.0, cosd))))
        psi = math.atan2(math.sin(tc) * math.cos(dphi), math.cos(tc))
        tstar = psi + math.pi
        if r.theta_lo < tstar < r.theta_hi:
            q = SpherePoint(tstar, phi % (2.0 * math.pi))
            best = max(best, angle(center, q))
    return best


def _oracle_inscribed(r):
    c = r.area_center()
    rad = min(c.theta - r.theta_lo, r.theta_hi - c.theta)
    half_wedge = 0.5 * (r.phi_hi - r.phi_lo)
    if half_wedge < math.pi / 2:
        rad = min(rad, math.asin(math.sin(c.theta) * math.sin(half_wedge)))
    if r.theta_lo == 0.0:
        rad = min(rad, r.theta_hi - c.theta)
    if r.theta_hi == math.pi:
        rad = min(rad, c.theta - r.theta_lo)
    return max(rad, 0.0)


def _oracle(N, node_seed):
    """(partition JSON, area-center nodes, random nodes) from the per-region loop."""
    theta0 = math.acos(1.0 - 50.0 / N)
    s = math.floor(math.sqrt(math.pi * N) / 2.0)
    s = s if s % 2 == 1 else s - 1
    delta_theta = (math.pi - 2.0 * theta0) / s
    ell = [25] + build_rounding_sequence(rounding_y_sequence(N)) + [25]
    cos_bounds = 1.0 - 2.0 * np.concatenate([[0], np.cumsum(ell)]) / N
    theta_bounds = [0.0] + [
        math.acos(max(-1.0, min(1.0, c))) for c in cos_bounds[1:-1]
    ] + [math.pi]
    regions = []
    for k in range(s + 2):
        nw = ell[k]
        for j in range(1, nw + 1):
            regions.append(Region(theta_bounds[k], theta_bounds[k + 1],
                                  2.0 * math.pi * (j - 1) / nw, 2.0 * math.pi * j / nw, k, j))
    obj = {
        "N": N, "theta0": theta0, "s": s, "delta_theta": delta_theta, "ell": ell,
        "theta_bounds": theta_bounds,
        "max_cap_radius": max(_oracle_enclosing(r) for r in regions),
        "min_inscribed_radius": min(_oracle_inscribed(r) for r in regions),
    }
    centers = [r.area_center() for r in regions]
    rng = np.random.default_rng(node_seed)
    drawn = []
    for r in regions:
        u = rng.uniform(math.cos(r.theta_hi), math.cos(r.theta_lo))
        phi = rng.uniform(r.phi_lo, r.phi_hi)
        drawn.append(SpherePoint(math.acos(max(-1.0, min(1.0, u))), phi % (2 * math.pi)))
    return obj, regions, centers, drawn


def _assert_matches_oracle(N):
    oracle, regions, centers, drawn = _oracle(N, node_seed=11)
    p = build_partition(N)
    assert p.max_cap_radius == oracle["max_cap_radius"]
    assert p.min_inscribed_radius == oracle["min_inscribed_radius"]
    assert json.dumps(partition_to_json(p)) == json.dumps(oracle)
    assert p.regions == tuple(regions)
    for fam, points in ((pick_nodes(p), centers),
                        (pick_nodes(p, rule="random_in_region", seed=11), drawn)):
        assert np.array_equal(fam.nodes[:, 0], [q.theta for q in points])
        assert np.array_equal(fam.nodes[:, 1], [q.phi for q in points])
        assert np.array_equal(fam.weights, np.full(N, 1.0 / N))


class TestBandwiseMatchesPerRegionOracle:
    @pytest.mark.parametrize("N", [50, 51, 64, 100, 4356, 16900])
    def test_grid(self, N):
        _assert_matches_oracle(N)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=50, max_value=20_000))
    def test_random_sizes(self, N):
        _assert_matches_oracle(N)


class TestExports:
    def test_nodes_csv_format(self, tmp_path):
        fam = pick_nodes(build_partition(64))
        path = tmp_path / "nodes.csv"
        write_nodes_csv(path, fam)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "theta,phi,weight"
        assert len(lines) == 65
        theta, phi, w = (float(v) for v in lines[1].split(","))
        assert w == 1 / 64
        # 17 significant digits round-trip the node exactly
        assert theta == fam.nodes[0, 0] and phi == fam.nodes[0, 1]

    def test_partition_json_fields_and_determinism(self, tmp_path):
        p = build_partition(100)
        obj = partition_to_json(p)
        assert set(obj) == {
            "N", "theta0", "s", "delta_theta", "ell", "theta_bounds",
            "max_cap_radius", "min_inscribed_radius",
        }
        path1, path2 = tmp_path / "a.json", tmp_path / "b.json"
        write_partition_json(path1, p)
        write_partition_json(path2, build_partition(100))
        assert path1.read_bytes() == path2.read_bytes()
        assert json.loads(path1.read_text())["s"] == 7
