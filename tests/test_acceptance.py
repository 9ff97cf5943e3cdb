"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances and runtime budgets are fixed here; the
certificate-soundness and rate criteria are theorem-backed, so any failure
indicates an implementation bug rather than statistical bad luck.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_sphere_points
from test_sphere_geometry import check_rounding_properties, rounding_y_sequence

from spheredecon.certify import find_family_size, mz_constants
from spheredecon.cli import _certificate_inputs, _experiment_rows
from spheredecon.filters import (
    CapProfile,
    LunarProfile,
    PlanckProfile,
    cap_multipliers,
    identity_multipliers,
    multipliers_from_profile,
    profile_l2_norm,
)
from spheredecon.forward import sample_at, simulate
from spheredecon.harmonics import (
    CoefficientVector,
    basis_matrix,
    block_slice,
    num_coeffs,
    random_poly,
)
from spheredecon.reconstruct import filtered_singular_values, lsq_solve
from spheredecon.sphere_geometry import build_partition, pick_nodes, region_measure

THETA_41 = 2 * math.pi / 41


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded runtime budget"
        else:
            print(f"ACCEPTANCE {self.name}: FAIL after {elapsed:.2f}s")
        return False


def test_01_figure1_scaled_multiplier_range():
    with _Budget("1 (cap multiplier range, Figure-1 regime)", 10):
        filt = cap_multipliers(THETA_41, 1400)
        m = np.arange(1, 1401, dtype=float)
        scaled = (1 + m * (m + 1)) ** 0.75 * np.abs(filt.b[1:])
        assert scaled.min() >= 0.4e-3
        assert scaled.max() <= (3**0.75 / 2) * math.sqrt(math.sin(THETA_41))


def test_02_profile_l2_constants():
    with _Budget("2 (filter L2 norms)", 5):
        assert profile_l2_norm(PlanckProfile(3.0, 9.0)) == pytest.approx(1.064, rel=0.01)
        assert profile_l2_norm(PlanckProfile(0.1, 1.0)) == pytest.approx(0.0106, rel=0.01)
        assert profile_l2_norm(LunarProfile(1737.1, 30.0)) == pytest.approx(0.0061, rel=0.02)


def test_03_cap_closed_form_vs_quadrature():
    with _Budget("3 (cap coefficient oracle equivalence)", 30):
        for theta0 in (0.3, 0.7, math.pi / 2):
            closed = cap_multipliers(theta0, 50)
            quadr = multipliers_from_profile(CapProfile(theta0), m_max=50, tol=1e-10)
            assert np.max(np.abs(closed.b - quadr.b)) <= 1e-8


def test_04_partition_correctness():
    with _Budget("4 (equal-area partition)", 30):
        cap_constants = []
        for n in (50, 64, 100, 500, 2000):
            p = build_partition(n)
            measures = np.array([region_measure(r) for r in p.regions])
            assert np.max(np.abs(measures - 1.0 / n)) <= 1e-12
            assert np.max(np.abs(measures * n - 1.0)) <= 1e-12
            assert sum(p.ell[1:-1]) == n - 50
            y = rounding_y_sequence(n)
            check_rounding_properties(y, list(p.ell[1:-1]))
            cap_constants.append(p.max_cap_radius * math.sqrt(n))
        assert max(cap_constants) < 16.0


def test_05_addition_theorem():
    with _Budget("5 (addition theorem)", 5):
        thetas, phis = random_sphere_points(50, seed=1234)
        mat = basis_matrix(20, thetas, phis)
        for m in range(21):
            sums = np.sum(mat[:, block_slice(m)] ** 2, axis=1)
            assert np.max(np.abs(sums - (2 * m + 1))) <= 1e-10


def test_06_mz_frame_property():
    with _Budget("6 (MZ frame property by doubling search)", 60):
        m = 6
        partition, fam, const, history = find_family_size(m, eps_target=0.5)
        assert const.epsilon < 1.0
        rng = np.random.default_rng(99)
        for _ in range(200):
            c = rng.standard_normal(num_coeffs(m))
            c /= np.linalg.norm(c)
            q = CoefficientVector(m, c)
            sampled = float(np.sum(fam.weights * sample_at(q, fam.nodes) ** 2))
            assert const.A - 1e-10 <= sampled <= const.B + 1e-10
        eps_seq = [const.epsilon]
        n = partition.N
        for _ in range(2):
            n *= 2
            eps_seq.append(mz_constants(pick_nodes(build_partition(n)), m).epsilon)
        assert eps_seq[1] <= eps_seq[0] + 1e-12
        assert eps_seq[2] <= eps_seq[1] + 1e-12


def test_07_exact_recovery():
    with _Budget("7 (noiseless exact recovery)", 30):
        for m in range(1, 9):
            # full-rank precondition: grow the family until it is genuinely
            # Marcinkiewicz-Zygmund for degree m (epsilon < 1)
            _, fam, _, _ = find_family_size(m, eps_target=0.999, start_n=4 * num_coeffs(m))
            for label, filt in (
                ("identity", identity_multipliers(m)),
                ("cap", cap_multipliers(THETA_41, m)),
            ):
                truth = random_poly(m, sigma=0.0, seed=100 + m)
                ms = simulate(truth, filt, fam, beta=0.0)
                report = lsq_solve(filt, fam, m, ms.y)
                assert report.full_rank, f"{label} m={m} lost rank"
                rel = np.linalg.norm(report.solution.coeffs - truth.coeffs) / truth.l2_norm()
                assert rel <= 1e-9, f"{label} m={m}: rel error {rel:.2e}"


def test_08_certificate_soundness_grid():
    with _Budget("8 (certificate soundness on the synthetic grid)", 600):
        truth_degree = 16
        filters = {
            "identity": (identity_multipliers(truth_degree), 0.0, 0.0),
            "cap": (cap_multipliers(THETA_41, truth_degree), 1.5, 1.5),
        }
        cell = 0
        for fi, (fname, (filt, gamma, zeta)) in enumerate(filters.items()):
            for omega in (2.0, 3.0):
                truth = random_poly(truth_degree, sigma=omega, seed=1000 * fi + int(omega))
                cert_kw = _certificate_inputs(filt, truth, omega, gamma, zeta)
                for beta in (0.0, 1e-3, 1e-2):
                    for m in range(3, 13):
                        cell += 1
                        row = _experiment_rows(
                            filt, truth, cert_kw, m,
                            [(beta, None if beta == 0 else 7000 + cell)], 4, "area_center", None,
                        )[0]
                        assert row["pass_Hzeta"], (
                            f"{fname} omega={omega} beta={beta} m={m}: "
                            f"H-zeta {row['measured_Hzeta']:.3e} > {row['bound_Hzeta']:.3e}"
                        )
                        assert row["bound_L2"] is not None
                        assert row["pass_L2"], (
                            f"{fname} omega={omega} beta={beta} m={m}: "
                            f"L2 {row['measured_L2']:.3e} > {row['bound_L2']:.3e}"
                        )
        assert cell == 120


def test_09_rate_curve_domination():
    # the asymptotic-rate equality is not desk-verifiable (one-sided bound,
    # unspecified constants); the substitute is pointwise domination of the
    # measured noiseless error by the certificate curve
    with _Budget("9 (noiseless error dominated by certificate curve)", 120):
        omega = 2.5
        filt = identity_multipliers(20)
        truth = random_poly(20, sigma=omega, seed=321)
        cert_kw = _certificate_inputs(filt, truth, omega, 0.0, 0.0)
        for m in range(3, 16):
            row = _experiment_rows(filt, truth, cert_kw, m, [(0.0, None)], 4, "area_center",
                                   None)[0]
            assert row["measured_L2"] <= row["bound_Hzeta"]


def test_10_pseudoinverse_stability():
    with _Budget("10 (pseudoinverse stability bound)", 30):
        cases = [
            (pick_nodes(build_partition(150)), 3, identity_multipliers(3)),
            (pick_nodes(build_partition(400)), 6, identity_multipliers(6)),
            (pick_nodes(build_partition(800)), 9, cap_multipliers(THETA_41, 9)),
        ]
        rng = np.random.default_rng(2718)
        for fam, m, filt in cases:
            frame_lower = filtered_singular_values(filt, fam, m)[-1] ** 2
            for _ in range(100):
                y = rng.standard_normal(len(fam.nodes))
                report = lsq_solve(filt, fam, m, y)
                rhs = math.sqrt(float(np.sum(y**2 * fam.weights)) / frame_lower)
                assert report.solution.l2_norm() <= rhs * (1 + 1e-12)
