"""Basis orthonormality, addition theorem, Sobolev norms, synthesis."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre, lpmv

from conftest import (
    product_quadrature_grid,
    random_sphere_points,
    stacked_legendre,
    whole_table_analysis,
    whole_table_synthesis,
)
from spheredecon.harmonics import (
    _TRIG_CHUNK,
    CoefficientVector,
    _analysis,
    _basis_rows,
    _basis_transpose,
    _degrees,
    _synthesis,
    _trig,
    _trig_chunks,
    basis_matrix,
    block_slice,
    coeffs_from_json,
    coeffs_to_json,
    embed,
    eval_poly_many,
    index_of,
    num_coeffs,
    random_poly,
    sobolev_norm,
    sobolev_weights,
)
from spheredecon.sphere_geometry import build_partition, nodes_to_arrays, pick_nodes


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


class TestDegrees:
    @pytest.mark.parametrize("m_max", [0, 1, 7, 30])
    def test_matches_block_slice(self, m_max):
        deg = _degrees(m_max)
        assert len(deg) == num_coeffs(m_max)
        for m in range(m_max + 1):
            assert np.all(deg[block_slice(m)] == m)

    def test_sphere_eigenspace_dimension_is_2m_plus_1(self):
        counts = np.bincount(_degrees(40))
        np.testing.assert_array_equal(counts, 2 * np.arange(41) + 1)


class TestNormalizedLegendre:
    def test_against_scipy_lpmv(self):
        thetas = np.linspace(0.05, math.pi - 0.05, 9)
        q = stacked_legendre(12, thetas)
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
        q = stacked_legendre(200, np.array([1.234]))
        assert np.all(np.isfinite(q))
        # addition theorem at a single point for the top degree
        total = q[0, 200, 0] ** 2 + 2 * np.sum(q[0, 200, 1:] ** 2)
        assert total == pytest.approx(401.0, rel=1e-10)


def _legendre_per_order_loop(m_max: int, theta: np.ndarray) -> np.ndarray:
    """The recurrences of ``_legendre_steps`` run order by order, one degree
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
        assert np.array_equal(stacked_legendre(m_max, theta),
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
        q = stacked_legendre(m, np.array([theta]))[0, m]
        for k in (0, 1, m // 2, m - 1, m):
            assert abs(q[k] - _legendre_oracle(m, k, theta)) <= 1e-12 * math.sqrt(2 * m + 1)


def _trig_oracle(m: int, phi: float) -> np.ndarray:
    """cos(k phi), sin(k phi) for k = 1..m in the layout of ``_trig``, from
    40-digit powers of exp(i phi) at the exact double phi."""
    out = np.empty(2 * m + 1)
    out[m] = 1.0
    with mpmath.workdps(40):
        z = mpmath.expj(mpmath.mpf(phi))
        zk = mpmath.mpc(1)
        for k in range(1, m + 1):
            zk *= z
            out[m + k], out[m - k] = float(zk.real), float(zk.imag)
    return out


_TRIG_PHIS = np.concatenate([
    np.random.default_rng(12).uniform(0.0, 2 * math.pi, 200),
    [0.0, math.pi / 2, math.pi, np.nextafter(2 * math.pi, 0.0)],
])


class TestTrig:
    @pytest.mark.parametrize("m", [1, 2, 7, 16, 33, 64, 128, 256])
    def test_against_mpmath(self, m):
        trig = _trig(m, _TRIG_PHIS)
        oracle = np.array([_trig_oracle(m, phi) for phi in _TRIG_PHIS.tolist()])
        assert np.max(np.abs(trig - oracle)) <= m * np.finfo(float).eps

    def test_rows_match_single_point_calls(self):
        phis = np.random.default_rng(3).uniform(0.0, 2 * math.pi, 2 * _TRIG_CHUNK + 3)
        trig = _trig(40, phis)
        for i in range(phis.size):
            assert np.array_equal(trig[i], _trig(40, phis[i : i + 1])[0])

    @pytest.mark.parametrize("m, phis, shape", [
        (0, np.array([0.3, 1.0]), (2, 1)),
        (5, np.array([]), (0, 11)),
        (0, np.array([]), (0, 1)),
        (3, 0.7, (1, 7)),
    ])
    def test_shapes(self, m, phis, shape):
        trig = _trig(m, phis)
        assert trig.shape == shape
        assert np.all(trig[:, m] == 1.0)

    @pytest.mark.parametrize("m", [1, 2, 60])
    def test_one_sin_cos_pair_per_point(self, m, monkeypatch):
        evaluated = []
        for name in ("sin", "cos"):
            ufunc = getattr(np, name)

            def spy(x, *args, _ufunc=ufunc, **kwargs):
                evaluated.append(np.size(x))
                return _ufunc(x, *args, **kwargs)

            monkeypatch.setattr(np, name, spy)
        phis = np.linspace(0.0, 6.0, 2 * _TRIG_CHUNK + 3)
        _trig(m, phis)
        assert 0 < sum(evaluated) <= 2 * phis.size


def _ring_family():
    thetas, phis = nodes_to_arrays(pick_nodes(build_partition(300)).nodes)
    assert np.unique(thetas).size < thetas.size
    return thetas, phis


def _random_family():
    return nodes_to_arrays(pick_nodes(build_partition(300), rule="random_in_region", seed=4).nodes)


def _polar_points():
    return np.array([0.0, math.pi, 0.0, 1.1, math.pi]), np.array([0.0, 0.0, 2.5, 0.4, 5.9])


def ring_factors(thetas, phis, sqrt_w=None):
    """The distinct colatitudes (rings), the ring of each point, the
    longitudes and the square-root weights (1 if not given): the operands of
    the ring path's rows, synthesis and analysis."""
    thetas = np.asarray(thetas, dtype=float)
    rings, ring_of = np.unique(thetas, return_inverse=True)
    sqrt_w = np.ones(thetas.size) if sqrt_w is None else sqrt_w
    return rings, ring_of, np.asarray(phis, dtype=float), sqrt_w


def tensor_route(m, thetas, phis):
    """Basis rows gathered from the whole Q tensor of the rings."""
    rings, ring_of, phis, _ = ring_factors(thetas, phis)
    q = stacked_legendre(m, rings)
    trig = _trig(m, phis)
    out = np.empty((ring_of.size, num_coeffs(m)))
    for n in range(m + 1):
        factor = math.sqrt(2.0) * q[ring_of, n][:, np.abs(np.arange(-n, n + 1))]
        factor[:, n] = q[ring_of, n, 0]
        out[:, block_slice(n)] = factor * trig[:, m - n : m + n + 1]
    return out


class TestStreamedBasis:
    @pytest.mark.parametrize("points", [_ring_family, _random_family, _polar_points],
                             ids=["area_center", "random_in_region", "poles"])
    @pytest.mark.parametrize("m", [0, 1, 2, 12, 33])
    def test_bitwise_equal_to_the_tensor_route(self, points, m):
        """The degree blocks written as the Legendre step makes them, and the
        ring path's rows, equal the rows gathered from the whole Q tensor."""
        thetas, phis = points()
        oracle = tensor_route(m, thetas, phis)
        assert np.array_equal(basis_matrix(m, thetas, phis), oracle)
        assert np.array_equal(_basis_rows(m, *ring_factors(thetas, phis)), oracle)

    def test_peak_memory_near_the_output(self):
        thetas, phis = random_sphere_points(2000, seed=2)
        tracemalloc.start()
        try:
            out = basis_matrix(30, thetas, phis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.nbytes


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
        assert np.max(np.abs(_analysis(c.m_max, *ring_factors(thetas, phis), v) - dense)) <= tol


def _area_center_1800():
    """Area-center nodes, stored ring by ring."""
    return nodes_to_arrays(pick_nodes(build_partition(1800)).nodes)


def _shuffled_area_center():
    thetas, phis = _area_center_1800()
    perm = np.random.default_rng(5).permutation(thetas.size)
    return thetas[perm], phis[perm]


def _random_600():
    return nodes_to_arrays(pick_nodes(build_partition(600), rule="random_in_region", seed=4).nodes)


def _long_rings():
    """Rings of 300, 400, 700 and 2 points at random longitudes, stored ring
    by ring: the second straddles point 512, the third is longer than a chunk."""
    sizes = [300, 400, 700, 2]
    thetas = np.repeat([1.0, 0.4, 1.6, math.pi], sizes)
    return thetas, np.random.default_rng(6).uniform(0.0, 2 * math.pi, sum(sizes))


_CHUNKED = [_area_center_1800, _shuffled_area_center, _random_600, _polar_points, _long_rings]
_CHUNKED_IDS = ["area_center", "shuffled", "random_in_region", "poles", "long_rings"]


def ring_runs(thetas):
    """(start, end) of each run of equal colatitudes in storage order."""
    edges = np.flatnonzero(np.diff(thetas)) + 1
    return list(zip([0, *edges.tolist()], [*edges.tolist(), thetas.size]))


class TestTrigChunks:
    def test_families_hold_the_edge_cases(self):
        assert 300 < _TRIG_CHUNK < 700
        assert any(lo < _TRIG_CHUNK < hi for lo, hi in ring_runs(_area_center_1800()[0]))
        assert [hi - lo for lo, hi in ring_runs(_long_rings()[0])] == [300, 400, 700, 2]

    @pytest.mark.parametrize("points", _CHUNKED, ids=_CHUNKED_IDS)
    def test_chunks_are_runs_of_whole_rings(self, points):
        thetas, phis = points()
        _, ring_of = np.unique(thetas, return_inverse=True)
        sqrt_w = np.random.default_rng(7).uniform(0.5, 1.5, thetas.size)
        seen = []
        for nodes, ring, starts, rows in _trig_chunks(5, phis, ring_of, sqrt_w):
            # a chunk holds at most _TRIG_CHUNK points, or one longer ring
            assert nodes.size <= _TRIG_CHUNK or ring.size == 1
            for r, lo, hi in zip(ring, starts, [*starts[1:], nodes.size]):
                assert np.array_equal(nodes[lo:hi], np.flatnonzero(ring_of == r))
            assert np.array_equal(rows, _trig(5, phis[nodes]) * sqrt_w[nodes, None])
            seen.extend(ring.tolist())
        assert seen == list(range(ring_of.max() + 1))


class TestStreamedSynthesis:
    """Synthesis and analysis chunk by chunk, against the whole-table route."""

    @pytest.mark.parametrize("points", _CHUNKED, ids=_CHUNKED_IDS)
    @pytest.mark.parametrize("m", [0, 1, 2, 16, 32])
    def test_bitwise_equal_to_the_whole_table(self, points, m):
        thetas, phis = points()
        rng = np.random.default_rng(m)
        sqrt_w = np.sqrt(rng.uniform(0.5, 1.5, thetas.size) / thetas.size)
        rings, ring_of, phis, sqrt_w = ring_factors(thetas, phis, sqrt_w)
        q = stacked_legendre(m, rings)
        trig = _trig(m, phis)
        d = rng.standard_normal(num_coeffs(m))
        values = eval_poly_many(CoefficientVector(m, d), thetas, phis)
        assert np.array_equal(values, whole_table_synthesis(q, ring_of, trig, d))
        assert np.array_equal(values, _synthesis(m, rings, ring_of, phis, None, d))
        trig *= sqrt_w[:, None]
        v = rng.standard_normal(thetas.size)
        assert np.array_equal(_synthesis(m, rings, ring_of, phis, sqrt_w, d),
                              whole_table_synthesis(q, ring_of, trig, d))
        assert np.array_equal(_analysis(m, rings, ring_of, phis, sqrt_w, v),
                              whole_table_analysis(q, ring_of, trig, v))
        steps = (q[ring_of, n, : n + 1].T for n in range(m + 1))
        assert np.array_equal(_basis_rows(m, rings, ring_of, phis, sqrt_w),
                              _basis_transpose(m, steps, np.ascontiguousarray(trig.T)).T)


    def test_eval_poly_many_holds_no_table(self):
        thetas, phis = nodes_to_arrays(pick_nodes(build_partition(16900)).nodes)
        c = random_poly(24, 1.0, seed=1)
        eval_poly_many(c, thetas[:600], phis[:600])  # first-call allocations
        tracemalloc.start()
        try:
            eval_poly_many(c, thetas, phis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (N, 2m+1) table of azimuthal factors alone would take 6.6 MB
        assert peak <= 2e6


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


def _synthesis_oracle(c, theta: float, phi: float) -> tuple:
    """sum c'[m, k] Q[m, |k|](theta) trig_k(phi) from the mpmath factors, and
    the sum of the terms' absolute values."""
    trig = _trig_oracle(c.m_max, phi)
    with mpmath.workdps(40):
        total, size = mpmath.mpf(0), mpmath.mpf(0)
        for m in range(c.m_max + 1):
            for k in range(-m, m + 1):
                scale = 1 if k == 0 else mpmath.sqrt(2)
                term = (scale * mpmath.mpf(c.coeffs[m * m + m + k])
                        * _legendre_oracle(m, abs(k), theta) * trig[c.m_max + k])
                total += term
                size += abs(term)
        return float(total), float(size)


class TestSynthesisOracle:
    @pytest.mark.parametrize("m", [1, 6, 16])
    def test_against_mpmath(self, m):
        # the poles and a repeated colatitude among them
        thetas = np.array([0.0, 1e-3, 0.7, 2.9, math.pi, 0.7])
        phis = np.array([0.0, 4.0, 1.3, 0.1, 5.5, 6.0])
        c = random_poly(m, 1.0, seed=m)
        vals = eval_poly_many(c, thetas, phis)
        for v, theta, phi in zip(vals, thetas.tolist(), phis.tolist()):
            exact, size = _synthesis_oracle(c, theta, phi)
            assert abs(v - exact) <= 2 * m * np.finfo(float).eps * size


def block_kernel(m: int, x: tuple, y: tuple) -> float:
    """Sum over the degree-m basis of Y(x) Y(y); (theta, phi) pairs."""
    bx = basis_matrix(m, np.array([x[0]]), np.array([x[1]]))[0, block_slice(m)]
    by = basis_matrix(m, np.array([y[0]]), np.array([y[1]]))[0, block_slice(m)]
    return float(bx @ by)


def _unit_vector(theta: float, phi: float) -> np.ndarray:
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def _point_at_distance(x: tuple, rho: float, bearing: float) -> tuple:
    """A point (theta, phi) at angle rho from x along the given bearing."""
    u = _unit_vector(*x)
    ref = np.array([0.0, 0.0, 1.0]) if abs(u[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(u, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    v = math.cos(rho) * u + math.sin(rho) * (math.cos(bearing) * e1 + math.sin(bearing) * e2)
    v /= np.linalg.norm(v)
    return math.acos(max(-1.0, min(1.0, v[2]))), math.atan2(v[1], v[0]) % (2 * math.pi)


class TestZonalKernel:
    """The degree-m block of the basis reproduces (2m+1) P_m(cos rho)."""

    def test_diagonal_value(self):
        x = (0.9, 2.5)
        assert block_kernel(4, x, x) == pytest.approx(9.0, rel=1e-13)

    def test_antipodal_degree_one(self):
        assert block_kernel(1, (0.0, 0.0), (math.pi, 0.0)) == pytest.approx(-3.0, rel=1e-13)

    def test_rotation_invariance(self):
        # pairs at the same distance give the same kernel value
        rng = np.random.default_rng(17)
        for _ in range(10):
            rho = rng.uniform(0.2, math.pi - 0.2)
            x1 = (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            y1 = _point_at_distance(x1, rho, rng.uniform(0, 2 * math.pi))
            x2 = (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            y2 = _point_at_distance(x2, rho, rng.uniform(0, 2 * math.pi))
            for m in (2, 7):
                assert block_kernel(m, x1, y1) == pytest.approx(
                    block_kernel(m, x2, y2), abs=1e-10
                )

    def test_addition_theorem_off_diagonal(self):
        thetas, phis = random_sphere_points(100, seed=21)
        for m in (1, 3, 8, 14, 20):
            for j in range(10):
                tx, px, ty, py = thetas[j], phis[j], thetas[50 + j], phis[50 + j]
                # (2m+1) P_m(cos rho) with rho the angle between the two points
                cos_rho = (math.cos(tx) * math.cos(ty)
                           + math.sin(tx) * math.sin(ty) * math.cos(px - py))
                lhs = (2 * m + 1) * eval_legendre(m, cos_rho)
                bx = basis_matrix(m, np.array([tx]), np.array([px]))[0, block_slice(m)]
                by = basis_matrix(m, np.array([ty]), np.array([py]))[0, block_slice(m)]
                assert lhs == pytest.approx(float(bx @ by), abs=1e-10)


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

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 2.5])
    def test_weights_per_degree(self, sigma):
        w = sobolev_weights(12, sigma)
        assert len(w) == num_coeffs(12)
        for m in range(13):
            assert np.all(w[block_slice(m)] == (1.0 + m * (m + 1.0)) ** sigma)

    def test_weights_hold_the_laplacian_eigenvalues(self):
        # on S^2 the degree-m eigenvalue of -Laplace is m(m+1)
        lam = sobolev_weights(9, 1.0) - 1.0
        deg = _degrees(9)
        np.testing.assert_array_equal(lam, deg * (deg + 1.0))
        assert lam[0] == 0.0 and lam[block_slice(1)][0] == 2.0


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
