"""Basis orthonormality, addition theorem, Sobolev norms, synthesis."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lpmv

from conftest import product_quadrature_grid, random_sphere_points
from spheredecon.harmonics import (
    CoefficientVector,
    _analysis,
    _rings,
    basis_matrix,
    block_slice,
    coeffs_from_json,
    coeffs_to_json,
    embed,
    eval_poly_many,
    index_of,
    normalized_legendre,
    num_coeffs,
    project,
    random_poly,
    sobolev_norm,
    zonal_kernel,
)
from spheredecon.sphere_geometry import SpherePoint, build_partition, nodes_to_arrays, pick_nodes


class TestLayout:
    def test_index_of(self):
        assert index_of(0, 1) == 0
        assert index_of(3, 1) == 9
        assert index_of(3, 7) == 15

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            index_of(2, 6)

    def test_num_coeffs(self):
        assert num_coeffs(5) == 36


class TestNormalizedLegendre:
    def test_against_scipy_lpmv(self):
        thetas = np.linspace(0.05, math.pi - 0.05, 9)
        q = normalized_legendre(12, thetas)
        x = np.cos(thetas)
        for m in range(13):
            for k in range(m + 1):
                norm = math.sqrt(
                    (2 * m + 1) * math.exp(
                        math.lgamma(m - k + 1) - math.lgamma(m + k + 1)
                    )
                )
                # scipy includes the Condon-Shortley phase (-1)^k
                expected = norm * lpmv(k, m, x) * (-1) ** k
                np.testing.assert_allclose(q[:, m, k], expected, rtol=1e-10, atol=1e-10)

    def test_stable_at_degree_200(self):
        q = normalized_legendre(200, np.array([1.234]))
        assert np.all(np.isfinite(q))
        # addition theorem at a single point for the top degree
        total = q[0, 200, 0] ** 2 + 2 * np.sum(q[0, 200, 1:] ** 2)
        assert total == pytest.approx(401.0, rel=1e-10)


def _legendre_per_order_loop(m_max: int, theta: np.ndarray) -> np.ndarray:
    """The recurrences of normalized_legendre run order by order, one degree
    at a time: the same arithmetic, so the same bits."""
    x, s = np.cos(theta), np.sin(theta)
    q = np.zeros((theta.size, m_max + 1, m_max + 1))
    q[:, 0, 0] = 1.0
    for k in range(1, m_max + 1):
        q[:, k, k] = math.sqrt((2 * k + 1) / (2 * k)) * s * q[:, k - 1, k - 1]
    for k in range(m_max + 1):
        for m in range(k + 1, m_max + 1):
            alpha = math.sqrt((2 * m - 1) * (2 * m + 1) / ((m - k) * (m + k)))
            q[:, m, k] = alpha * x * q[:, m - 1, k]
            if m - k >= 2:
                beta = math.sqrt(
                    (2 * m + 1) * (m - 1 - k) * (m - 1 + k) / ((2 * m - 3) * (m - k) * (m + k))
                )
                q[:, m, k] -= beta * q[:, m - 2, k]
    return q


class TestNormalizedLegendreLoop:
    @pytest.mark.parametrize("m_max", [0, 1, 2, 7, 40, 130])
    def test_equals_the_per_order_loop(self, m_max):
        rng = np.random.default_rng(m_max)
        theta = np.r_[0.0, math.pi, 1e-3, math.pi / 2, rng.uniform(0.0, math.pi, 30)]
        assert np.array_equal(normalized_legendre(m_max, theta),
                              _legendre_per_order_loop(m_max, theta))


def _legendre_oracle(m: int, k: int, theta: float) -> float:
    """Q[m, k] at theta from the explicit sum for the k-th derivative of P_m,

    P_m^k(x) = (1-x^2)^(k/2) 2^-m
               * sum_j (-1)^j C(m,j) C(2m-2j,m) (m-2j)!/(m-2j-k)! x^(m-2j-k),

    in 300-digit arithmetic, which absorbs the cancellation of its terms.
    """
    with mpmath.workdps(300):
        th = mpmath.mpf(theta)
        x = mpmath.cos(th)
        total = mpmath.mpf(0)
        for j in range((m - k) // 2 + 1):
            p = m - 2 * j
            total += (
                (-1) ** j
                * mpmath.binomial(m, j)
                * mpmath.binomial(2 * m - 2 * j, m)
                * mpmath.factorial(p)
                / mpmath.factorial(p - k)
                * x ** (p - k)
            )
        value = total / mpmath.mpf(2) ** m * mpmath.sin(th) ** k
        norm = mpmath.sqrt((2 * m + 1) * mpmath.factorial(m - k) / mpmath.factorial(m + k))
        return float(value * norm)


class TestNormalizedLegendreOracle:
    @pytest.mark.parametrize("theta", [1e-3, 0.7, math.pi / 2, 2.9])
    def test_against_mpmath_at_degree_256(self, theta):
        m = 256
        q = normalized_legendre(m, np.array([theta]))[0, m]
        for k in (0, 1, m // 2, m - 1, m):
            assert abs(q[k] - _legendre_oracle(m, k, theta)) <= 1e-12 * math.sqrt(2 * m + 1)


def _ring_family():
    thetas, phis = nodes_to_arrays(pick_nodes(build_partition(300)).nodes)
    assert np.unique(thetas).size < thetas.size
    return thetas, phis


def _random_family():
    return nodes_to_arrays(pick_nodes(build_partition(300), rule="random_in_region", seed=4).nodes)


def _polar_points():
    return np.array([0.0, math.pi, 0.0, 1.1, math.pi]), np.array([0.0, 0.0, 2.5, 0.4, 5.9])


class TestRingDedup:
    @pytest.mark.parametrize("points", [_ring_family, _random_family, _polar_points],
                             ids=["area_center", "random_in_region", "poles"])
    def test_rows_match_single_point_calls(self, points):
        thetas, phis = points()
        mat = basis_matrix(12, thetas, phis)
        for i in range(thetas.size):
            assert np.array_equal(mat[i], basis_matrix(12, thetas[i : i + 1], phis[i : i + 1])[0])


@st.composite
def synthesis_cases(draw):
    """(c, thetas, phis): m <= 30 on ring nodes, random nodes, or a few
    colatitudes (the poles among them) repeated at random longitudes."""
    m = draw(st.integers(0, 30))
    kind = draw(st.sampled_from(["area_center", "random_in_region", "repeated"]))
    if kind == "repeated":
        colatitudes = st.sampled_from([0.0, math.pi, 0.3, 1.2, 2.0])
        rings = draw(st.lists(colatitudes, min_size=1, max_size=4))
        phis = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=40))
        thetas = np.array([rings[i % len(rings)] for i in range(len(phis))])
        phis = np.array(phis)
    else:
        fam = pick_nodes(build_partition(draw(st.integers(50, 400))), rule=kind,
                         seed=draw(st.integers(0, 2**16)))
        thetas, phis = nodes_to_arrays(fam.nodes)
    coeffs = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(num_coeffs(m))
    return CoefficientVector(m, coeffs), thetas, phis


class TestMatrixFreeSynthesis:
    @settings(max_examples=60, deadline=None)
    @given(case=synthesis_cases())
    def test_matches_dense_basis(self, case):
        c, thetas, phis = case
        dense = basis_matrix(c.m_max, thetas, phis) @ c.coeffs
        tol = 1e-13 * np.sum(np.abs(c.coeffs)) * math.sqrt(2 * c.m_max + 1)
        assert np.max(np.abs(eval_poly_many(c, thetas, phis) - dense)) <= tol

    @settings(max_examples=60, deadline=None)
    @given(case=synthesis_cases())
    def test_analysis_is_the_adjoint(self, case):
        c, thetas, phis = case
        v = np.random.default_rng(thetas.size).standard_normal(thetas.size)
        dense = basis_matrix(c.m_max, thetas, phis).T @ v
        tol = 1e-13 * np.sum(np.abs(v)) * math.sqrt(2 * c.m_max + 1)
        assert np.max(np.abs(_analysis(*_rings(c.m_max, thetas, phis), v) - dense)) <= tol


def basis_at(m, ell, theta, phi):
    """Value of the basis function (m, ell) at one point, from its degree-m basis row."""
    return float(basis_matrix(m, [theta], [phi])[0, index_of(m, ell)])


class TestEvalBasis:
    def test_constant_function(self):
        for theta, phi in [(0.0, 0.0), (1.0, 2.0), (math.pi, 0.0)]:
            assert basis_at(0, 1, theta, phi) == pytest.approx(1.0, abs=1e-14)

    def test_addition_theorem_diagonal(self):
        thetas, phis = random_sphere_points(20, seed=3)
        mat = basis_matrix(10, thetas, phis)
        for m in range(11):
            sums = np.sum(mat[:, block_slice(m)] ** 2, axis=1)
            np.testing.assert_allclose(sums, 2 * m + 1, atol=1e-10)

    def test_orthonormality_product_quadrature(self):
        tt, pp, ww = product_quadrature_grid(40, 80)
        mat = basis_matrix(8, tt, pp)
        gram = (mat * ww[:, None]).T @ mat
        np.testing.assert_allclose(gram, np.eye(num_coeffs(8)), atol=1e-8)


class TestEvalPoly:
    def test_constant(self):
        c = CoefficientVector(3, np.eye(16)[0])
        assert eval_poly_many(c, [0.7], [1.1])[0] == pytest.approx(1.0, abs=1e-14)

    def test_unit_coefficient_linearity(self):
        theta, phi = 1.234, 4.321
        for m, ell in [(1, 2), (3, 5), (4, 9)]:
            c = CoefficientVector(4, np.eye(25)[index_of(m, ell)])
            assert eval_poly_many(c, [theta], [phi])[0] == pytest.approx(
                basis_at(m, ell, theta, phi), abs=1e-13)

    def test_matches_naive_sum_oracle(self):
        rng = np.random.default_rng(11)
        c = CoefficientVector(5, rng.standard_normal(36))
        thetas, phis = random_sphere_points(10, seed=8)
        vals = eval_poly_many(c, thetas, phis)
        for i in range(10):
            naive = sum(
                c.coeffs[index_of(m, ell)] * basis_at(m, ell, thetas[i], phis[i])
                for m in range(6)
                for ell in range(1, 2 * m + 2)
            )
            assert vals[i] == pytest.approx(naive, rel=1e-12, abs=1e-12)

    def test_parseval_against_quadrature(self):
        tt, pp, ww = product_quadrature_grid(44, 88)
        c = random_poly(10, sigma=1.0, seed=5)
        vals = eval_poly_many(c, tt, pp)
        integral = float(np.sum(vals**2 * ww))
        assert integral == pytest.approx(c.l2_norm() ** 2, abs=1e-8)


class TestZonalKernel:
    def test_diagonal_value(self):
        x = SpherePoint(0.9, 2.5)
        assert zonal_kernel(4, x, x) == pytest.approx(9.0, rel=1e-13)

    def test_antipodal_degree_one(self):
        x = SpherePoint(0.0, 0.0)
        y = SpherePoint(math.pi, 0.0)
        assert zonal_kernel(1, x, y) == pytest.approx(-3.0, rel=1e-13)

    def test_addition_theorem_off_diagonal(self):
        thetas, phis = random_sphere_points(100, seed=21)
        xs = [SpherePoint(t, p) for t, p in zip(thetas[:50], phis[:50])]
        ys = [SpherePoint(t, p) for t, p in zip(thetas[50:], phis[50:])]
        for m in (1, 3, 8, 14, 20):
            for x, y in list(zip(xs, ys))[:10]:
                lhs = zonal_kernel(m, x, y)
                bx = basis_matrix(m, np.array([x.theta]), np.array([x.phi]))[0, block_slice(m)]
                by = basis_matrix(m, np.array([y.theta]), np.array([y.phi]))[0, block_slice(m)]
                assert lhs == pytest.approx(float(bx @ by), abs=1e-10)

    def test_rotation_invariance(self):
        # pairs at the same distance give the same kernel value
        rng = np.random.default_rng(17)
        for _ in range(10):
            rho = rng.uniform(0.2, math.pi - 0.2)
            x1 = SpherePoint(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            # rotate: pick any point at distance rho from x1 via a random bearing
            y1 = _point_at_distance(x1, rho, rng.uniform(0, 2 * math.pi))
            x2 = SpherePoint(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            y2 = _point_at_distance(x2, rho, rng.uniform(0, 2 * math.pi))
            for m in (2, 7):
                assert zonal_kernel(m, x1, y1) == pytest.approx(
                    zonal_kernel(m, x2, y2), abs=1e-10
                )


def _point_at_distance(x: SpherePoint, rho: float, bearing: float) -> SpherePoint:
    """A point at geodesic distance rho from x along the given bearing."""
    u = x.unit_vector()
    ref = np.array([0.0, 0.0, 1.0]) if abs(u[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(u, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    direction = math.cos(bearing) * e1 + math.sin(bearing) * e2
    v = math.cos(rho) * u + math.sin(rho) * direction
    v /= np.linalg.norm(v)
    theta = math.acos(max(-1.0, min(1.0, v[2])))
    phi = math.atan2(v[1], v[0]) % (2 * math.pi)
    return SpherePoint(theta, phi)


class TestSobolevNorm:
    def test_constant_any_sigma(self):
        c = CoefficientVector(4, np.eye(25)[0])
        for sigma in (0.0, 1.0, 3.7):
            assert sobolev_norm(c, sigma) == pytest.approx(1.0, abs=1e-14)

    def test_sigma_zero_is_l2(self):
        c = random_poly(6, sigma=0.5, seed=2)
        assert sobolev_norm(c, 0.0) == pytest.approx(c.l2_norm(), rel=1e-14)

    def test_single_degree_one_term(self):
        c = CoefficientVector(2, np.eye(9)[index_of(1, 2)])
        assert sobolev_norm(c, 2.0) == pytest.approx(3.0, rel=1e-14)

    def test_monotone_in_sigma(self):
        c = random_poly(8, sigma=1.0, seed=9)
        assert sobolev_norm(c, 2.5) >= sobolev_norm(c, 1.5) >= sobolev_norm(c, 0.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            sobolev_norm(random_poly(2, 1.0, 1), -0.5)


class TestProject:
    def test_constant_projection(self):
        c = CoefficientVector(3, np.eye(16)[0])
        assert np.array_equal(project(c, 0).coeffs, c.coeffs)

    def test_decomposition(self):
        c = random_poly(5, sigma=1.0, seed=13)
        total = np.zeros_like(c.coeffs)
        for m in range(6):
            total += project(c, m).coeffs
        np.testing.assert_array_equal(total, c.coeffs)

    def test_disjoint_supports(self):
        c = random_poly(5, sigma=1.0, seed=14)
        assert float(project(c, 2).coeffs @ project(c, 4).coeffs) == 0.0


class TestRandomPoly:
    def test_deterministic(self):
        a = random_poly(7, sigma=2.0, seed=4)
        b = random_poly(7, sigma=2.0, seed=4)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_unit_norm(self):
        c = random_poly(9, sigma=1.5, seed=6, unit_norm=True)
        assert sobolev_norm(c, 1.5) == pytest.approx(1.0, abs=1e-12)

    def test_block_decay_profile(self):
        c = random_poly(12, sigma=2.0, seed=8)
        for m in range(13):
            assert np.linalg.norm(c.block(m)) == pytest.approx(
                (1 + m * (m + 1.0)) ** (-1.5), rel=1e-12
            )


class TestEmbedAndJson:
    def test_embed_roundtrip(self):
        c = random_poly(4, sigma=1.0, seed=3)
        big = embed(c, 9)
        assert big.m_max == 9
        np.testing.assert_array_equal(big.coeffs[: num_coeffs(4)], c.coeffs)
        back = embed(big, 4)
        np.testing.assert_array_equal(back.coeffs, c.coeffs)

    def test_truncation_guard(self):
        c = random_poly(4, sigma=1.0, seed=3)
        with pytest.raises(ValueError):
            embed(c, 2)

    def test_json_roundtrip(self):
        c = random_poly(3, sigma=1.0, seed=1)
        back = coeffs_from_json(coeffs_to_json(c))
        assert back.m_max == 3
        np.testing.assert_array_equal(back.coeffs, c.coeffs)
