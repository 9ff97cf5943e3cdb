"""Multiplier sequences: closed forms, quadrature, fits and profile norms."""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from conftest import weighted
from spheredecon.special_functions import (
    JacobiParams,
    adaptive_quadrature,
    jacobi_all,
    jacobi_at_one,
    radial_density,
)

from spheredecon.filters import (
    CapProfile,
    DecayFit,
    LowerFit,
    LunarProfile,
    MultiplierFilter,
    PlanckProfile,
    TabulatedProfile,
    cap_multipliers,
    filter_from_json,
    filter_to_json,
    fit_decay,
    fit_lower,
    identity_multipliers,
    multipliers_from_profile,
    profile_l2_norm,
    radial_laplacian,
    smoothness_bound,
)

S2 = JacobiParams.sphere(2)
THETA_41 = 2 * math.pi / 41
KOG_CONST = (3**0.75 / 2) * math.sqrt(math.sin(THETA_41))


def scaled_sequence(filt: MultiplierFilter, expo: float = 0.75) -> np.ndarray:
    m = np.arange(1, filt.m_max + 1, dtype=float)
    return (1 + m * (m + 1)) ** expo * np.abs(filt.b[1:])


class TestCapMultipliers:
    def test_hemisphere_mean(self):
        filt = cap_multipliers(math.pi / 2, 5)
        assert filt.b[0] == pytest.approx(0.5, abs=1e-15)

    def test_figure1_lower_estimate(self):
        filt = cap_multipliers(THETA_41, 1400)
        assert scaled_sequence(filt).min() >= 0.4e-3

    def test_kogbetliantz_upper_bound(self):
        filt = cap_multipliers(THETA_41, 1400)
        m = np.arange(0, 1401, dtype=float)
        bound = KOG_CONST * (1 + m * (m + 1)) ** (-0.75)
        assert np.all(np.abs(filt.b) <= bound * (1 + 1e-12))

    def test_rejects_large_cap(self):
        with pytest.raises(ValueError):
            cap_multipliers(2.0, 5)

    def test_provenance(self):
        assert cap_multipliers(0.3, 3).provenance == "closed_form_cap"


class TestQuadratureMultipliers:
    def test_cap_closed_form_equivalence(self):
        closed = cap_multipliers(0.7, 50)
        quadr = multipliers_from_profile(CapProfile(0.7), m_max=50, tol=1e-10)
        np.testing.assert_allclose(quadr.b, closed.b, atol=1e-8)
        assert quadr.provenance == "quadrature"

    @pytest.mark.parametrize("profile", [CapProfile(0.7), LunarProfile(1737.1, 30.0)],
                             ids=["cap", "lunar"])
    def test_peak_memory_bounded_at_high_degree(self, profile):
        # a pass holds a few vectors of the rule's points, where the whole
        # (401, points) Jacobi table of the cap's last pass takes 144 MB
        tracemalloc.start()
        try:
            filt = multipliers_from_profile(profile, m_max=400, tol=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        if isinstance(profile, CapProfile):
            np.testing.assert_allclose(filt.b, cap_multipliers(0.7, 400).b, atol=1e-8)

    @pytest.mark.parametrize("profile, params, m_max", [
        (LunarProfile(1737.1, 30.0), S2, 200),
        (PlanckProfile(0.1, 2.0), S2, 100),
        (CapProfile(0.7), S2, 60),
        (CapProfile(0.4), JacobiParams(1.0, 1.0), 40),
        (LunarProfile(1737.1, 100.0), JacobiParams(1.0, 0.0), 30),
    ], ids=["lunar", "planck", "cap", "cap_p11", "lunar_p10"])
    def test_streamed_equals_table_then_contract(self, profile, params, m_max):
        """The oracle forms the whole (m_max+1, points) Jacobi table at the
        rule's points, scales it by h0 A and contracts it with the weights."""
        norm = np.array([jacobi_at_one(m, params) for m in range(m_max + 1)])

        def table(r, w):
            return (jacobi_all(m_max, params, np.cos(r))
                    * (profile.evaluate(r) * radial_density(r, params))) @ w

        tol = 1e-10
        oracle = adaptive_quadrature(table, *profile.support, tol=tol * norm.min(),
                                     base_panels=max(8, 4 * m_max)) / norm
        streamed = multipliers_from_profile(profile, params, m_max=m_max, tol=tol).b
        assert np.max(np.abs(streamed - oracle)) <= 1e-15

    def test_lunar_matches_per_degree_oracle(self):
        profile = LunarProfile(1737.1, 30.0)
        tol = 1e-10
        filt = multipliers_from_profile(profile, m_max=200, tol=tol)
        for m in (0, 1, 50, 200):
            def integrand(r, m=m):
                return profile.evaluate(r) * jacobi_all(m, S2, np.cos(r))[m] * np.sin(r) / 2

            oracle = adaptive_quadrature(
                weighted(integrand), 0.0, math.pi, tol=tol / 100, base_panels=max(8, 4 * m)
            )
            assert abs(filt.b[m] - oracle) <= tol

    def test_constant_profile_orthogonality(self):
        ones = TabulatedProfile(np.linspace(0, math.pi, 33), np.ones(33))
        filt = multipliers_from_profile(ones, m_max=8, tol=1e-11)
        assert filt.b[0] == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.abs(filt.b[1:]) < 1e-10)

    def test_planck_b0_is_profile_mean(self):
        profile = PlanckProfile(3.0, 9.0)
        filt = multipliers_from_profile(profile, m_max=0, tol=1e-11)
        mean, err = quad(
            lambda r: float(profile.evaluate(r)) * math.sin(r) / 2, 0, math.pi, limit=400
        )
        assert filt.b[0] == pytest.approx(mean, abs=1e-9)

    def test_every_builtin_b0_is_mean(self):
        for profile in (CapProfile(0.4), PlanckProfile(0.1, 1.0), LunarProfile(1737.1, 30.0)):
            filt = multipliers_from_profile(profile, m_max=0, tol=1e-11)
            # give the oracle the indicator's jump location, else QUADPACK
            # loses digits integrating across the discontinuity
            breaks = [profile.theta0] if isinstance(profile, CapProfile) else None
            mean, _ = quad(
                lambda r: float(profile.evaluate(r)) * math.sin(r) / 2,
                0,
                math.pi,
                limit=400,
                points=breaks,
            )
            assert filt.b[0] == pytest.approx(mean, abs=1e-10)


class TestProfiles:
    def test_planck_pole_value(self):
        # series oracle: g(0) = (pi * lam0)^2
        for lam0 in (0.1, 3.0):
            p = PlanckProfile(lam0, 9.0)
            assert float(p.evaluate(0.0)) == pytest.approx((math.pi * lam0) ** 2, rel=1e-8)
            # continuity across the series/standard-evaluation switch
            left = float(p.evaluate(1e-7))
            right = float(p.evaluate(1e-5))
            assert left == pytest.approx(right, rel=1e-6)

    def test_cap_indicator(self):
        p = CapProfile(0.3)
        vals = p.evaluate(np.array([0.0, 0.29, 0.31, 3.0]))
        np.testing.assert_array_equal(vals, [1.0, 1.0, 0.0, 0.0])

    def test_lunar_parameters(self):
        p = LunarProfile(1737.1, 30.0)
        assert p.sigma == pytest.approx(22.51)
        assert p.iota == pytest.approx(0.61639)
        assert float(p.evaluate(0.0)) == 1.0

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            TabulatedProfile(np.array([0.0, 0.5, 0.4, math.pi]), np.ones(4))
        with pytest.raises(ValueError):
            TabulatedProfile(np.array([0.1, 0.5, 1.0, math.pi]), np.ones(4))


class TestProfileOracles:
    """The scipy paths of the Planck and tabulated profiles, against oracles."""

    # both sides of the |z| < 1e-4 series switch, up to z = 4 pi R at R = 9
    Z = [1e-7, 5e-5, 9.9e-5, 1.01e-4, 1e-3, 0.05, 0.3, 1.0, 2.5, 5.0, 7.0, 10.0,
         20.0, 50.0, 80.0, 100.0, 110.0, 4 * math.pi * 9.0]

    def test_planck_against_mpmath_bessel(self):
        lam0, radius = 3.0, 9.0
        p = PlanckProfile(lam0, radius)
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            for z_target in self.Z:
                s = min(mpmath.mpf(z_target) / (4 * mpmath.pi * radius), 1)
                r = float(2 * mpmath.asin(s))
                z = 4 * mpmath.pi * radius * mpmath.sin(mpmath.mpf(r) / 2)
                j1 = mpmath.besselj(1, z)
                ref = (2 * mpmath.pi * lam0 * j1 / z) ** 2
                # g moves by 2 kappa times the few-ulp relative error of the float z
                kappa = abs(z * mpmath.besselj(1, z, derivative=1) / j1 - 1)
                tol = 1e-13 + 2 * float(kappa) * 4 * eps
                err = abs(float(p.evaluate(r)) / ref - 1)
                assert err <= tol, (z_target, float(err), tol)

    def test_tabulated_monotone_samples_give_monotone_interpolant(self):
        r = np.linspace(0.0, math.pi, 9)
        v = np.array([1.0, 1.0, 1.0, 0.9, 0.2, 0.1, 0.1, 0.0, 0.0])
        p = TabulatedProfile(r, v)
        np.testing.assert_array_equal(p.evaluate(r), v)
        fine = p.evaluate(np.linspace(0.0, math.pi, 2001))
        assert np.all(np.diff(fine) <= 0)
        assert fine.min() >= 0.0 and fine.max() <= 1.0


class TestProfileL2Norms:
    def test_planck_large_aperture(self):
        assert profile_l2_norm(PlanckProfile(3.0, 9.0)) == pytest.approx(1.064, rel=0.01)

    def test_planck_small_aperture(self):
        assert profile_l2_norm(PlanckProfile(0.1, 1.0)) == pytest.approx(0.0106, rel=0.01)

    def test_lunar(self):
        assert profile_l2_norm(LunarProfile(1737.1, 30.0)) == pytest.approx(0.0061, rel=0.02)

    def test_cap_norm_closed_form(self):
        # ||indicator||_2^2 equals the cap measure
        theta0 = 0.6
        assert profile_l2_norm(CapProfile(theta0)) == pytest.approx(
            math.sqrt((1 - math.cos(theta0)) / 2), rel=1e-9
        )


class TestFits:
    def test_identity_decay(self):
        filt = identity_multipliers(20)
        c = fit_decay(filt, 0.0)
        assert c == pytest.approx(1.0)
        fitted = dataclasses.replace(filt, decay_fit=DecayFit(c, 0.0, filt.m_max))
        assert fitted.decay_fit.m_max == 20

    def test_cap_decay_below_kogbetliantz(self):
        filt = cap_multipliers(THETA_41, 1400)
        c = fit_decay(filt, 1.5)
        assert c <= KOG_CONST * (1 + 1e-12)

    def test_planck_halforder_decay_below_l2_norm(self):
        profile = PlanckProfile(0.1, 1.0)
        filt = multipliers_from_profile(profile, m_max=40, tol=1e-11)
        c = fit_decay(filt, 0.5)
        assert c <= profile_l2_norm(profile) * (1 + 1e-9)

    def test_identity_lower(self):
        filt = identity_multipliers(20)
        assert fit_lower(filt, 0.0) == pytest.approx(1.0)

    def test_cap_lower_estimate(self):
        filt = cap_multipliers(THETA_41, 1400)
        assert fit_lower(filt, 1.5) >= 0.4e-3

    def test_zero_entry_gives_zero(self):
        b = np.ones(8)
        b[5] = 0.0
        filt = MultiplierFilter(b)
        assert fit_lower(filt, 1.0) == 0.0

    def test_decay_inequality_holds_on_range(self):
        filt = cap_multipliers(0.5, 100)
        c = fit_decay(filt, 1.5)
        m = np.arange(101, dtype=float)
        assert np.all(np.abs(filt.b) <= c * (1 + m * (m + 1)) ** (-0.75) * (1 + 1e-12))

    def test_fits_leave_filter_unchanged(self):
        filt = cap_multipliers(0.5, 30)
        decay, lower = DecayFit(1.0, 0.0, 30), LowerFit(0.0, 0.0, 30)
        filt = dataclasses.replace(filt, decay_fit=decay, lower_fit=lower)
        b = filt.b.copy()
        fit_decay(filt, 1.5)
        fit_lower(filt, 1.5)
        assert filt.decay_fit is decay and filt.lower_fit is lower
        np.testing.assert_array_equal(filt.b, b)


class TestSmoothnessBound:
    def test_k0_formula(self):
        profile = PlanckProfile(3.0, 9.0)
        norm = profile_l2_norm(profile)
        for m in (0, 3, 17):
            expected = norm / (1 + m * (m + 1)) ** 0.25
            assert smoothness_bound(profile, 0, m) == pytest.approx(expected, rel=1e-12)

    def test_k0_dominates_quadrature_coefficients(self):
        profile = PlanckProfile(3.0, 9.0)
        filt = multipliers_from_profile(profile, m_max=100, tol=1e-9)
        for m in range(101):
            assert abs(filt.b[m]) <= smoothness_bound(profile, 0, m) * (1 + 1e-9)

    def test_m0_is_l2_norm(self):
        profile = LunarProfile(1737.1, 30.0)
        assert smoothness_bound(profile, 0, 0) == pytest.approx(
            profile_l2_norm(profile), rel=1e-12
        )

    def test_rejects_tabulated_with_k1(self):
        ones = TabulatedProfile(np.linspace(0, math.pi, 16), np.ones(16))
        with pytest.raises(ValueError):
            smoothness_bound(ones, 1, 3)

    @pytest.mark.parametrize("K", [-1, 2, 3])
    def test_rejects_k_other_than_0_or_1(self, K):
        # the laplacian of a smooth profile is tabulated, and a tabulated
        # profile has no laplacian: K >= 2 is refused up front, naming K
        with pytest.raises(ValueError, match=f"K = {K}"):
            smoothness_bound(LunarProfile(1737.1, 30.0), K, 4)

    def test_k1_bound_dominates_for_planck(self):
        profile = PlanckProfile(0.1, 1.0)
        filt = multipliers_from_profile(profile, m_max=30, tol=1e-11)
        for m in (5, 10, 20, 30):
            assert abs(filt.b[m]) <= smoothness_bound(profile, 1, m) * (1 + 1e-6)


class TestRadialLaplacian:
    def test_constant_profile(self):
        const = PlanckProfile(1.0, 1.0)

        class Flat(PlanckProfile):
            def evaluate(self, r):
                return np.ones_like(np.asarray(r, dtype=float))

        lap = radial_laplacian(Flat(1.0, 1.0))
        assert np.max(np.abs(lap.values)) < 1e-8

    def test_cosine_eigenfunction(self):
        class Cosine(PlanckProfile):
            def evaluate(self, r):
                return np.cos(np.asarray(r, dtype=float))

        lap = radial_laplacian(Cosine(1.0, 1.0))
        interior = slice(8, -8)
        expected = -2.0 * np.cos(lap.r[interior])
        assert np.max(np.abs(lap.values[interior] - expected)) < 2e-6

    def test_planck_finite_near_pole(self):
        lap = radial_laplacian(PlanckProfile(3.0, 9.0))
        assert np.all(np.isfinite(lap.values))

    def test_rejects_non_smooth(self):
        with pytest.raises(ValueError):
            radial_laplacian(CapProfile(0.3))


class TestZonalParseval:
    def test_cap_energy_recovered(self):
        # sum_m delta_m b_m^2 converges to ||h||_2^2 = cap measure
        theta0 = 0.5
        filt = cap_multipliers(theta0, 400)
        m = np.arange(401, dtype=float)
        partial = float(np.sum((2 * m + 1) * filt.b**2))
        total = (1 - math.cos(theta0)) / 2
        assert partial <= total
        assert (total - partial) / total < 0.01

    def test_partial_sums_increase_to_total(self):
        theta0 = THETA_41
        filt = cap_multipliers(theta0, 1400)
        m = np.arange(1401, dtype=float)
        cumulative = np.cumsum((2 * m + 1) * filt.b**2)
        total = (1 - math.cos(theta0)) / 2
        assert np.all(np.diff(cumulative) >= 0)
        assert cumulative[-1] <= total
        tails = 1 - cumulative[[100, 400, 1400 - 1]] / total
        assert tails[0] > tails[1] > tails[2] > 0


class TestFilterJson:
    def test_roundtrip_with_fits(self):
        filt = cap_multipliers(0.4, 25)
        filt = dataclasses.replace(
            filt,
            decay_fit=DecayFit(fit_decay(filt, 1.5), 1.5, 25),
            lower_fit=LowerFit(fit_lower(filt, 1.5), 1.5, 25),
        )
        obj = filter_to_json(filt)
        assert obj["m_max"] == 25
        back = filter_from_json(obj)
        np.testing.assert_array_equal(back.b, filt.b)
        assert back.decay_fit == filt.decay_fit
        assert back.lower_fit == filt.lower_fit

    def test_inconsistent_m_max_rejected(self):
        obj = filter_to_json(identity_multipliers(4))
        obj["m_max"] = 7
        with pytest.raises(ValueError):
            filter_from_json(obj)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_multiplier_rejected(self, bad):
        obj = filter_to_json(identity_multipliers(4))
        obj["b"][2] = bad
        with pytest.raises(ValueError, match="b_2"):
            filter_from_json(obj)

    def test_violated_fit_rejected(self):
        obj = filter_to_json(identity_multipliers(4))
        obj["decay_fit"] = {"c": 0.1, "gamma": 1.0, "m_max": 4}
        with pytest.raises(ValueError):
            filter_from_json(obj)
