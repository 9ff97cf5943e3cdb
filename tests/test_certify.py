"""Frame constants, remainder sums, certificates and bound verification."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheredecon.certify import (
    bound_apriori,
    choose_degree,
    find_family_size,
    mz_constants,
    phi_tail,
    predicted_rate_exponent,
    verify_bound,
    certificate_to_json,
)
from spheredecon.cli import _certificate_inputs, _experiment_rows
from spheredecon.filters import (
    MultiplierFilter,
    cap_multipliers,
    fit_decay,
    fit_lower,
    identity_multipliers,
)
from spheredecon.forward import apply_multiplier, simulate
from spheredecon.harmonics import num_coeffs, random_poly, sobolev_norm
from spheredecon.reconstruct import lsq_solve
from spheredecon.sphere_geometry import build_partition, pick_nodes

THETA_41 = 2 * math.pi / 41


class TestMzConstants:
    def test_degree_zero_exact(self):
        fam = pick_nodes(build_partition(64))
        const = mz_constants(fam, 0)
        assert const.A == pytest.approx(1.0, abs=1e-12)
        assert const.B == pytest.approx(1.0, abs=1e-12)
        assert const.epsilon == pytest.approx(0.0, abs=1e-12)

    def test_rayleigh_extremality(self):
        fam = pick_nodes(build_partition(400))
        const = mz_constants(fam, 5)
        assert const.A <= 1.0 <= const.B
        rng = np.random.default_rng(0)
        from spheredecon.forward import sample_at
        from spheredecon.harmonics import CoefficientVector

        for _ in range(100):
            c = rng.standard_normal(num_coeffs(5))
            c /= np.linalg.norm(c)
            q = CoefficientVector(5, c)
            sampled = float(np.sum(fam.weights * sample_at(q, fam.nodes) ** 2))
            assert const.A - 1e-10 <= sampled <= const.B + 1e-10

    def test_requires_enough_nodes(self):
        fam = pick_nodes(build_partition(50))
        with pytest.raises(ValueError, match="nodes"):
            mz_constants(fam, 7)

    def test_epsilon_trend_with_refinement(self):
        m = 5
        eps = []
        for mult in (4, 8, 16):
            fam = pick_nodes(build_partition(mult * num_coeffs(m)))
            eps.append(mz_constants(fam, m).epsilon)
        assert eps[0] >= eps[1] >= eps[2]


class TestFindFamilySize:
    def test_reaches_target(self):
        partition, fam, const, history = find_family_size(4, eps_target=0.5)
        assert const.epsilon <= 0.5
        assert const.degree == 4
        assert history[-1][0] == partition.N
        assert all(h[1] > 0.5 for h in history[:-1])

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            find_family_size(3, eps_target=1.5)


class TestPhiTail:
    def test_closed_bound_unit_value(self):
        assert phi_tail(2.0, 0, "closed_bound") == pytest.approx(1.0, abs=1e-15)

    def test_closed_bound_formula(self):
        for s, m in [(1.5, 3), (2.5, 10)]:
            expected = (1 + m * (m + 1)) ** (1 - s) / (s - 1)
            assert phi_tail(s, m, "closed_bound") == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("m", [0, 5, 20])
    def test_exact_below_closed(self, s, m):
        assert phi_tail(s, m, "exact_sum") <= phi_tail(s, m, "closed_bound")

    def test_frozen_richardson_value(self):
        # mpmath.nsum(..., method="r") oracle, 30 digits
        assert phi_tail(2.0, 0, "exact_sum") == pytest.approx(
            0.5356822852645998, rel=1e-12
        )

    def test_against_mpmath_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        for s, m in [(2.0, 0), (3.0, 5), (1.5, 2)]:
            oracle = float(
                mp.nsum(
                    lambda n: (2 * n + 1) / (1 + n * (n + 1)) ** s,
                    [m + 1, mp.inf],
                )
            )
            assert phi_tail(s, m, "exact_sum") == pytest.approx(oracle, rel=1e-11)

    def test_divergent_rejected(self):
        with pytest.raises(ValueError):
            phi_tail(1.0, 0, "exact_sum")
        with pytest.raises(ValueError):
            phi_tail(0.5, 0, "closed_bound")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            phi_tail(2.0, 0, "monte_carlo")


class TestBoundApriori:
    def test_zero_noise_kills_noise_term(self):
        cert = bound_apriori(m=5, beta=0.0, epsilon=0.3, omega=2.0, gamma=0.0,
                             zeta=0.0, norm_f_sigma=1.0)
        assert cert.term_noise == 0.0
        assert cert.bound_Hzeta == cert.term_approx

    def test_approx_term_strictly_decreasing_in_m(self):
        prev = None
        for m in range(1, 12):
            cert = bound_apriori(m=m, beta=0.0, epsilon=0.2, omega=2.5, gamma=0.0,
                                 zeta=0.0, norm_f_sigma=1.0)
            if prev is not None:
                assert cert.term_approx < prev
            prev = cert.term_approx

    def test_cap_display_chain(self):
        # deconvolution instance: gamma = zeta = 3/2, Kogbetliantz constant,
        # lower constant from the finite-range fit
        omega, beta, m, eps = 2.0, 1e-3, 7, 0.25
        filt = cap_multipliers(THETA_41, 1400)
        c_kog = (3**0.75 / 2) * math.sqrt(math.sin(THETA_41))
        c0 = fit_lower(filt, 1.5)
        norm_f_omega = 3.7
        cert = bound_apriori(m=m, beta=beta, epsilon=eps, omega=omega, gamma=1.5,
                             zeta=1.5, c=c_kog, norm_f_omega=norm_f_omega, c0=c0,
                             fit_m_max=filt.m_max)
        kappa = (1 + eps) / (1 - eps)
        lam = 1 + m * (m + 1)
        expected = (
            c_kog * norm_f_omega * math.sqrt((1 + kappa) / (omega - 1))
            * lam ** (-(omega - 1) / 2)
            + math.sqrt(kappa) * beta * lam ** 0.75
        ) / c0
        assert cert.bound_L2 == pytest.approx(expected, rel=1e-13)
        assert cert.kappa == pytest.approx(kappa)
        assert cert.norm_route == "operator"
        assert not cert.range_limited

    def test_l2_bound_requires_lower_fit_hypotheses(self):
        base = dict(m=3, beta=0.0, epsilon=0.2, omega=3.0, norm_f_sigma=1.0)
        no_c0 = bound_apriori(gamma=0.0, zeta=0.0, **base)
        assert no_c0.bound_L2 is None
        with_c0 = bound_apriori(gamma=0.0, zeta=0.0, c0=0.5, **base)
        assert with_c0.bound_L2 == pytest.approx(2 * with_c0.bound_Hzeta)
        zeta_too_small = bound_apriori(gamma=1.0, zeta=0.5, c0=0.5, **base)
        assert zeta_too_small.bound_L2 is None

    def test_named_hypothesis_failures(self):
        with pytest.raises(ValueError, match="sigma - zeta > d/2"):
            bound_apriori(m=3, beta=0.0, epsilon=0.2, omega=0.5, gamma=0.0,
                          zeta=0.0, norm_f_sigma=1.0)
        with pytest.raises(ValueError, match="epsilon"):
            bound_apriori(m=3, beta=0.0, epsilon=1.0, omega=2.0, gamma=0.0,
                          zeta=0.0, norm_f_sigma=1.0)
        with pytest.raises(ValueError, match="norm_f_sigma"):
            bound_apriori(m=3, beta=0.0, epsilon=0.2, omega=2.0, gamma=0.0,
                          zeta=0.0)

    def test_range_limited_flag(self):
        cert = bound_apriori(m=30, beta=0.0, epsilon=0.2, omega=2.0, gamma=0.0,
                             zeta=0.0, norm_f_sigma=1.0, fit_m_max=20)
        assert cert.range_limited


class TestChooseDegree:
    def test_frozen_example(self):
        # 0.01^{-0.4} = 10^{0.8} = 6.31 -> 7
        assert choose_degree(0.01, omega=2.0, gamma=1.5) == 7

    def test_unit_noise(self):
        assert choose_degree(1.0, omega=2.0, gamma=0.0) == 1

    def test_monotone_in_beta(self):
        prev = 0
        for beta in (0.5, 0.25, 0.125, 0.0625, 0.03125):
            m = choose_degree(beta, omega=2.0, gamma=1.0)
            assert m >= prev
            prev = m

    def test_exact_integer_powers_not_rounded_up(self):
        assert choose_degree(0.1, omega=2.0, gamma=0.0) == 10  # 0.1^{-1} = 10
        assert choose_degree(0.25, omega=1.5, gamma=0.0) == 16  # 0.25^{-2}

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            choose_degree(0.1, omega=0.5, gamma=0.0)

    def test_rate_exponent(self):
        assert predicted_rate_exponent(2.0, 1.5, 1.5) == pytest.approx(0.4)
        assert predicted_rate_exponent(2.0, 0.0, 0.0) == pytest.approx(1.0)


class TestVerifyBound:
    def test_bandlimited_truth_noiseless(self):
        m = 4
        fam = pick_nodes(build_partition(4 * num_coeffs(m)))
        const = mz_constants(fam, m)
        filt = identity_multipliers(m)
        truth = random_poly(m, sigma=1.0, seed=1)
        ms = simulate(truth, filt, fam, beta=0.0)
        report = lsq_solve(filt, fam, m, ms.y)
        cert = bound_apriori(m=m, beta=0.0, epsilon=const.epsilon, omega=2.0,
                             gamma=0.0, zeta=0.0,
                             norm_f_sigma=sobolev_norm(truth, 2.0), c0=1.0)
        ver = verify_bound(truth, filt, report.solution, cert)
        assert ver.measured_Hzeta < 1e-9
        assert ver.measured_L2 < 1e-9
        assert ver.passed

    def test_identity_smooth_truth_noisy(self):
        m = 6
        fam = pick_nodes(build_partition(8 * num_coeffs(m)))
        const = mz_constants(fam, m)
        filt = identity_multipliers(16)
        truth = random_poly(16, sigma=2.0, seed=2)
        ms = simulate(truth, filt, fam, beta=1e-3, seed=3)
        report = lsq_solve(filt, fam, m, ms.y)
        cert = bound_apriori(m=m, beta=1e-3, epsilon=const.epsilon, omega=2.0,
                             gamma=0.0, zeta=0.0,
                             norm_f_sigma=sobolev_norm(truth, 2.0), c0=1.0,
                             fit_m_max=16)
        ver = verify_bound(truth, filt, report.solution, cert)
        assert ver.passed
        assert ver.measured_L2 <= ver.bound_L2

    def test_cap_deconvolution_with_chosen_degree(self):
        beta, omega = 0.01, 2.0
        m = choose_degree(beta, omega=omega, gamma=1.5)
        assert m == 7
        filt = cap_multipliers(THETA_41, 20)
        c = fit_decay(filt, 1.5)
        c0 = fit_lower(filt, 1.5)
        fam = pick_nodes(build_partition(8 * num_coeffs(m)))
        const = mz_constants(fam, m)
        truth = random_poly(16, sigma=omega, seed=4)
        ms = simulate(truth, filt, fam, beta=beta, seed=5)
        report = lsq_solve(filt, fam, m, ms.y)
        cert = bound_apriori(
            m=m, beta=beta, epsilon=const.epsilon, omega=omega, gamma=1.5,
            zeta=1.5, norm_f_sigma=sobolev_norm(apply_multiplier(filt, truth), omega + 1.5),
            c=c, c0=c0, fit_m_max=20,
        )
        ver = verify_bound(truth, filt, report.solution, cert)
        assert ver.pass_Hzeta and ver.pass_L2 and ver.passed

    def test_json_fields_complete(self):
        cert = bound_apriori(m=3, beta=0.0, epsilon=0.2, omega=2.0, gamma=0.0,
                             zeta=0.0, norm_f_sigma=1.0)
        obj = certificate_to_json(cert)
        expected_keys = {
            "omega", "gamma", "sigma", "zeta", "m", "beta", "epsilon",
            "kappa", "norm_f_sigma", "norm_route", "c", "c0", "fit_m_max",
            "range_limited", "term_approx", "term_noise", "bound_Hzeta",
            "bound_L2", "verification",
        }
        assert set(obj) == expected_keys

    def test_json_values_are_the_certificate_fields(self):
        filt = cap_multipliers(0.4, 12)
        cert = bound_apriori(m=5, beta=0.01, epsilon=0.3, omega=2.0, gamma=1.5, zeta=1.5,
                             norm_f_omega=0.7, c=fit_decay(filt, 1.5), c0=fit_lower(filt, 1.5),
                             fit_m_max=4)
        assert cert.norm_route == "operator" and cert.range_limited
        assert cert.bound_L2 is not None
        ver = verify_bound(random_poly(6, 2.0, seed=1), filt, random_poly(5, 2.0, seed=2), cert)
        obj = certificate_to_json(cert, ver)
        for field in dataclasses.fields(cert):
            value = getattr(cert, field.name)
            assert obj[field.name] == value and type(obj[field.name]) is type(value)
        assert obj["verification"] == {
            "measured_Hzeta": ver.measured_Hzeta, "measured_L2": ver.measured_L2,
            "pass_Hzeta": ver.pass_Hzeta, "pass_L2": ver.pass_L2, "passed": ver.passed,
        }


MULTIPLIERS = st.one_of(
    st.just("identity"),
    st.floats(min_value=0.05, max_value=0.6),  # cap radius theta0
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=17, max_size=17),
)


class TestCertificateSoundness:
    """Whenever the searched family certifies (epsilon < 1), the measured
    errors of an experiment cell stay within its bounds."""

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=8),
        extra=st.integers(min_value=0, max_value=8),
        multipliers=MULTIPLIERS,
        omega=st.floats(min_value=1.2, max_value=4.0),
        gamma=st.sampled_from([0.0, 0.5, 1.5]),
        zeta_is_gamma=st.booleans(),
        beta=st.sampled_from([0.0, 1e-3, 1e-2, 0.1]),
        rule=st.sampled_from(["area_center", "random_in_region"]),
        nodes_factor=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_random_cells_pass(self, m, extra, multipliers, omega, gamma, zeta_is_gamma,
                               beta, rule, nodes_factor, seed):
        degree = m + extra  # of the truth and the filter
        if isinstance(multipliers, str):
            filt = identity_multipliers(degree)
        elif isinstance(multipliers, float):
            filt = cap_multipliers(multipliers, degree)
        else:
            filt = MultiplierFilter(np.array(multipliers[: degree + 1]))
        truth = random_poly(degree, sigma=omega, seed=seed)
        cert_kw = _certificate_inputs(filt, truth, omega, gamma, gamma if zeta_is_gamma else 0.0)
        row = _experiment_rows(
            filt, truth, cert_kw, m, [(beta, seed + 1)], nodes_factor, rule, seed + 2,
        )[0]
        assert row["epsilon"] < 1
        assert row["pass_Hzeta"], row
        assert row["pass_L2"] is not False, row
