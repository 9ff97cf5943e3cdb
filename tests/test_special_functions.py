"""Jacobi/Legendre machinery against exact and high-precision oracles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from conftest import weighted
from spheredecon.special_functions import (
    _GL_NODES,
    JacobiParams,
    QuadratureError,
    _composite_gl,
    adaptive_quadrature,
    jacobi_all,
    jacobi_at_one,
    radial_density,
)

S2 = JacobiParams.sphere(2)
S4 = JacobiParams.sphere(4)


def jacobi_sum_oracle(m: int, a: int, b: int, x: Fraction) -> Fraction:
    """Exact rational evaluation through the explicit finite sum."""
    total = Fraction(0)
    for s in range(m + 1):
        total += (
            math.comb(m + a, m - s)
            * math.comb(m + b, s)
            * ((x - 1) / 2) ** s
            * ((x + 1) / 2) ** (m - s)
        )
    return total


class TestJacobi:
    def test_degree_one_legendre_is_x(self):
        assert jacobi_all(1, S2, 0.5)[1] == pytest.approx(0.5, abs=1e-15)

    def test_legendre_at_one(self):
        assert jacobi_all(2, S2, 1.0)[2] == pytest.approx(1.0, abs=1e-14)

    def test_frozen_high_precision_value(self):
        # exact sum oracle: P_5^{1,1}(3/10) = 231057/400000
        assert jacobi_sum_oracle(5, 1, 1, Fraction(3, 10)) == Fraction(231057, 400000)
        assert jacobi_all(5, JacobiParams(1, 1), 0.3)[5] == pytest.approx(0.5776425, rel=1e-12)

    @pytest.mark.parametrize("a,b", [(0, 0), (1, 1)])
    def test_recurrence_matches_exact_sum_to_degree_60(self, a, b):
        params = JacobiParams(a, b)
        xs = [Fraction(i, 50) for i in range(-50, 51)]  # 101-point grid of [-1, 1]
        vals = jacobi_all(60, params, np.array([float(x) for x in xs]))
        for m in (1, 2, 3, 7, 20, 41, 60):
            for i in (0, 13, 50, 77, 100):
                exact = float(jacobi_sum_oracle(m, a, b, xs[i]))
                assert vals[m, i] == pytest.approx(exact, rel=1e-12, abs=1e-13)

    def test_vectorized_matches_scalar(self):
        params = JacobiParams(1, 0)
        xs = np.linspace(-1, 1, 7)
        arr = jacobi_all(9, params, xs)
        for i, x in enumerate(xs):
            assert arr[5, i] == pytest.approx(jacobi_all(5, params, float(x))[5], rel=1e-14)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            jacobi_all(-1, S2, 0.0)


class TestJacobiAtOne:
    def test_binomial_value(self):
        assert jacobi_at_one(1, JacobiParams(1, 1)) == pytest.approx(2.0, rel=1e-14)

    def test_degree_zero(self):
        assert jacobi_at_one(0, JacobiParams(1.5, 0.5)) == pytest.approx(1.0, rel=1e-14)

    def test_legendre_normalization(self):
        assert jacobi_at_one(40, S2) == pytest.approx(1.0, rel=1e-12)

    def test_large_degree_no_overflow(self):
        v = jacobi_at_one(400, JacobiParams(1, 1))
        assert np.isfinite(v) and v == pytest.approx(401.0, rel=1e-10)


class TestRadialDensity:
    def test_sphere2_is_half_sine(self):
        r = np.linspace(0, math.pi, 257)
        np.testing.assert_allclose(radial_density(r, S2), np.sin(r) / 2, atol=1e-15)

    @pytest.mark.parametrize("params", [S2, S4, JacobiParams(1, 0)])
    def test_normalization(self, params):
        val = adaptive_quadrature(weighted(lambda r: radial_density(r, params)), 0, math.pi,
                                  tol=1e-12)
        assert val == pytest.approx(1.0, abs=1e-10)
        # independent oracle route
        oracle, _ = quad(lambda r: float(radial_density(r, params)), 0, math.pi)
        assert oracle == pytest.approx(1.0, abs=1e-10)

    def test_vanishes_at_origin(self):
        assert radial_density(0.0, S2) == 0.0
        assert radial_density(0.0, JacobiParams(1, 1)) == 0.0

    @pytest.mark.parametrize("params", [S2, JacobiParams(1, 1)])
    def test_jacobi_orthogonality_under_density(self, params):
        pairs = [(0, 1), (1, 2), (3, 7), (5, 20), (12, 19)]
        for m, n in pairs:
            def integrand(r):
                vals = jacobi_all(max(m, n), params, np.cos(r))
                return vals[m] * vals[n] * radial_density(r, params)

            val = adaptive_quadrature(weighted(integrand), 0, math.pi, tol=1e-12, base_panels=64)
            assert abs(val) < 1e-10


EPS = np.finfo(float).eps
NON_SPHERE_PAIRS = [(0.5, 0.5), (1, 1), (0.5, -0.5), (3.5, 1.5)]


def lgamma_budget(*args: float) -> float:
    """Relative error allowed for exp of a signed sum of log-gamma terms.

    Each term carries a few ulps of its own magnitude; exp turns that
    absolute error of the sum into a relative error of the result.
    """
    return 4 * EPS * (1 + sum(abs(math.lgamma(t)) for t in args))


class TestLogGammaOracles:
    """50-digit mpmath references for the closed forms built on log-gamma."""

    @pytest.mark.parametrize("a,b", NON_SPHERE_PAIRS)
    def test_jacobi_at_one(self, a, b):
        params = JacobiParams(a, b)
        with mpmath.workdps(50):
            ma = mpmath.mpf(a)
            for m in range(401):
                ref = mpmath.gamma(m + ma + 1) / (mpmath.gamma(m + 1) * mpmath.gamma(ma + 1))
                err = abs(jacobi_at_one(m, params) / ref - 1)
                assert err <= lgamma_budget(m + a + 1, m + 1, a + 1), (m, float(err))

    @pytest.mark.parametrize("a,b", NON_SPHERE_PAIRS)
    def test_radial_density(self, a, b):
        params = JacobiParams(a, b)
        r = np.linspace(0.01, math.pi - 0.01, 64)
        vals = radial_density(r, params)
        # the two powers add about one ulp per unit of exponent
        tol = lgamma_budget(a + b + 2, a + 1, b + 1) + 4 * (2 * a + 2 * b + 2) * EPS
        with mpmath.workdps(50):
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            c = mpmath.gamma(ma + mb + 2) / (mpmath.gamma(ma + 1) * mpmath.gamma(mb + 1))
            for ri, vi in zip(r, vals):
                half = mpmath.mpf(ri) / 2
                ref = c * mpmath.sin(half) ** (2 * ma + 1) * mpmath.cos(half) ** (2 * mb + 1)
                assert abs(vi / ref - 1) <= tol, ri

    def test_sphere_values_are_exact(self):
        for m in range(401):
            assert jacobi_at_one(m, S2) == 1.0


class TestAdaptiveQuadrature:
    def test_polynomial_exact(self):
        val = adaptive_quadrature(weighted(lambda x: 3 * x**2), 0.0, 2.0, tol=1e-13)
        assert val == pytest.approx(8.0, abs=1e-12)

    def test_oscillatory_against_scipy(self):
        f = lambda x: np.cos(40 * x) * np.exp(-x)
        mine = adaptive_quadrature(weighted(f), 0.0, math.pi, tol=1e-12, base_panels=16)
        other, _ = quad(lambda x: math.cos(40 * x) * math.exp(-x), 0, math.pi, limit=400)
        assert mine == pytest.approx(other, abs=1e-10)

    def test_budget_exhaustion_raises(self):
        spike = lambda x: 1.0 / np.sqrt(np.abs(x - 0.31234567) + 1e-300)
        with pytest.raises(QuadratureError):
            adaptive_quadrature(weighted(spike), 0.0, 1.0, tol=1e-14, max_panels=64)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(weighted(lambda x: x), 0, 1, tol=0.0)

    def test_vector_integrand_matches_scalar_calls(self):
        parts = [
            lambda x: np.cos(40 * x) * np.exp(-x),
            lambda x: 3 * x**2,
            lambda x: radial_density(x, S2),
        ]
        vec = adaptive_quadrature(
            weighted(lambda x: np.stack([f(x) for f in parts])), 0.0, math.pi, tol=1e-12,
            base_panels=16,
        )
        assert isinstance(vec, np.ndarray) and vec.shape == (3,)
        for f, v in zip(parts, vec):
            scalar = adaptive_quadrature(weighted(f), 0.0, math.pi, tol=1e-12, base_panels=16)
            assert isinstance(scalar, float)
            assert v == pytest.approx(scalar, abs=1e-12)

    def test_vector_integrand_raises_when_one_component_diverges(self):
        spike = lambda x: 1.0 / np.sqrt(np.abs(x - 0.31234567) + 1e-300)
        with pytest.raises(QuadratureError):
            adaptive_quadrature(
                weighted(lambda x: np.stack([x**2, spike(x)])), 0.0, 1.0, tol=1e-14,
                max_panels=64,
            )


class TestCompositeRule:
    @pytest.mark.parametrize("panels", [1, 9, 37])
    def test_hands_every_point_once_with_its_weight(self, panels):
        seen = []

        def f(r, w):
            seen.append((r, w))
            return np.sum(w * r**23)

        total = _composite_gl(f, 0.0, 0.7, panels)
        (r, w), = seen
        assert r.shape == w.shape == (panels * _GL_NODES.size,)
        assert np.all((0.0 < r) & (r < 0.7))
        assert np.sum(w) == pytest.approx(0.7, rel=1e-14)
        # exact for degree < 2 * 12 on every panel
        assert isinstance(total, float) and total == pytest.approx(0.7**24 / 24, rel=1e-13)

    def test_vector_sums_come_back_as_an_array(self):
        total = _composite_gl(lambda r, w: [np.sum(w), np.sum(w * r)], 0.0, 2.0, 5)
        assert isinstance(total, np.ndarray)
        np.testing.assert_allclose(total, [2.0, 2.0], rtol=1e-14)


def table_recurrence(m_max, params, x):
    """The Jacobi recurrence written as a whole table, row by row."""
    a, b = params.a, params.b
    x = np.asarray(x, dtype=float)
    out = np.empty((m_max + 1,) + x.shape)
    out[0] = 1.0
    if m_max >= 1:
        out[1] = 0.5 * (a + b + 2) * x + 0.5 * (a - b)
    for n in range(1, m_max):
        c = 2 * n + a + b
        a1 = 2 * (n + 1) * (n + a + b + 1) * c
        a2 = (c + 1) * (a * a - b * b)
        a3 = (c + 1) * (c + 2) * c
        a4 = 2 * (n + a) * (n + b) * (c + 2)
        out[n + 1] = ((a2 + a3 * x) * out[n] - a4 * out[n - 1]) / a1
    return out


class TestStreamedRecurrence:
    @pytest.mark.parametrize("params", [S2, JacobiParams(1, 1), JacobiParams(1, 0)])
    @pytest.mark.parametrize("m_max", [0, 1, 2, 60])
    def test_bitwise_equal_to_the_table(self, m_max, params):
        xs = np.cos(np.random.default_rng(m_max).uniform(0.0, math.pi, 50))
        assert np.array_equal(jacobi_all(m_max, params, xs), table_recurrence(m_max, params, xs))
        assert np.array_equal(jacobi_all(m_max, params, 0.3), table_recurrence(m_max, params, 0.3))

    @pytest.mark.parametrize("params", [S2, JacobiParams(1, 1), JacobiParams(0.5, -0.5)])
    @pytest.mark.parametrize("m_max", [0, 1, 2, 400])
    def test_scalar_equals_one_element_array(self, m_max, params):
        # a scalar is stepped in Python floats, an array in place by numpy
        for x in (-1.0, -0.3, 0.0, math.cos(0.15), 1.0, np.float64(0.6)):
            vals = jacobi_all(m_max, params, x)
            assert vals.shape == (m_max + 1,)
            assert np.array_equal(vals, jacobi_all(m_max, params, np.array([x]))[:, 0])
