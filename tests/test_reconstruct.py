"""The sampling operator and the least-squares solver, against an SVD oracle
of the weighted design matrix."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    product_quadrature_grid,
    stacked_legendre,
    whole_table_analysis,
    whole_table_synthesis,
)
from spheredecon.filters import MultiplierFilter, cap_multipliers, identity_multipliers
from spheredecon.forward import add_noise, sample_at, simulate
from spheredecon.harmonics import (
    CoefficientVector,
    _trig,
    basis_matrix,
    block_slice,
    index_of,
    num_coeffs,
    random_poly,
)
from spheredecon import harmonics, reconstruct
from spheredecon.reconstruct import (
    _operator,
    filtered_singular_values,
    lsq_solve,
    solution_to_json,
)
from spheredecon.certify import mz_constants
from spheredecon.sphere_geometry import MzFamily, build_partition, pick_nodes

THETA_41 = 2 * math.pi / 41


def weighted_design(filt, fam, m):
    """The weighted sampling matrix of the filtered basis, sqrt(tau_j) b_m'
    Y_m'^ell(x_j), on the active columns, and their indices into the
    degree-major layout: ``basis_matrix`` times sqrt(tau), scaled by the
    column multipliers."""
    bcol = reconstruct._column_multipliers(filt, fam, m)
    cols = np.flatnonzero(bcol)
    bw = basis_matrix(m, fam.nodes[:, 0], fam.nodes[:, 1]) * np.sqrt(fam.weights)[:, None]
    return bw[:, cols] * bcol[cols], cols


def svd_oracle(filt, fam, m, y):
    """Truncated-SVD pseudoinverse of the filtered design matrix (cutoff 1e-12).

    Returns the minimum-norm coefficients, all singular values and the rank.
    One step of refinement on the augmented system [I mat; mat^T 0] [r; x] =
    [ytil; 0], its residuals taken in long double (Bjorck, BIT 7, 1967),
    takes the coefficients' rounding from about eps cond(mat)^2 |r| down to a
    few eps; refining x alone, x += pinv (ytil - mat x), does not when the
    residual r is large.
    """
    mat, cols = weighted_design(filt, fam, m)
    u, sv, vt = np.linalg.svd(mat, full_matrices=False)
    kept = sv > 1e-12 * sv[0]
    ytil = np.asarray(y) * np.sqrt(fam.weights)

    def pinv(r):
        return vt[kept].T @ ((u[:, kept].T @ r) / sv[kept])

    x = pinv(ytil)
    r = ytil - mat @ x
    wide = mat.astype(np.longdouble)
    f = (ytil.astype(np.longdouble) - r - wide @ x).astype(float)
    g = (wide.T @ r).astype(float)
    coeffs = np.zeros(num_coeffs(m))
    coeffs[cols] = x + pinv(f) + vt[kept].T @ ((vt[kept] @ g) / sv[kept] ** 2)
    return coeffs, sv, int(kept.sum())


def record_calls(monkeypatch, owner, name, key=np.shape):
    """Record key(first argument) of every owner.name call made from now on."""
    calls = []
    fn = getattr(owner, name)

    def spy(first, *args, **kwargs):
        calls.append(key(first))
        return fn(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def count_svd_calls(monkeypatch):
    """Record the shape of every numpy.linalg.svd call made from now on."""
    return record_calls(monkeypatch, np.linalg, "svd")


def rel_diff(got, want):
    return np.linalg.norm(np.asarray(got) - want) / np.linalg.norm(want)


@pytest.fixture(scope="module")
def family():
    return pick_nodes(build_partition(200))


class TestDesignMatrix:
    def test_identity_degree_zero_column(self, family):
        mat, cols = weighted_design(identity_multipliers(0), family, 0)
        assert mat.shape == (200, 1)
        np.testing.assert_allclose(mat[:, 0], np.sqrt(family.weights))
        assert np.sum(mat[:, 0] ** 2) == pytest.approx(1.0, abs=1e-12)
        assert list(cols) == [0]

    def test_inactive_degree_dropped(self, family):
        b = np.array([1.0, 0.0, 1.0])
        mat, cols = weighted_design(MultiplierFilter(b), family, 2)
        assert mat.shape == (200, 6)  # degrees {0, 2}: 1 + 5 columns
        assert list(cols) == [0, 4, 5, 6, 7, 8]

    def test_consistency_with_forward_sampling(self, family):
        filt = cap_multipliers(0.5, 4)
        truth = random_poly(4, sigma=1.0, seed=0)
        ms = simulate(truth, filt, family, beta=0.0)
        mat, cols = weighted_design(filt, family, 4)
        predicted = mat @ truth.coeffs[cols]
        np.testing.assert_allclose(
            predicted, ms.y * np.sqrt(family.weights), rtol=1e-12, atol=1e-14
        )

    def test_all_zero_multipliers_rejected(self, family):
        with pytest.raises(ValueError, match="all multipliers vanish"):
            lsq_solve(MultiplierFilter(np.zeros(3)), family, 2, np.ones(200))

    def test_degree_beyond_filter_rejected(self, family):
        with pytest.raises(ValueError, match="filter stores degrees up to 2"):
            lsq_solve(identity_multipliers(2), family, 3, np.ones(200))

    @pytest.mark.parametrize("rule", ["area_center", "random_in_region"])
    def test_operator_rows_match_the_oracle(self, rule):
        # the rows the SVD fallback takes: built from the ring factors on the
        # ring path, the held B_w on the dense path
        fam = pick_nodes(build_partition(200), rule=rule, seed=4)
        filt = MultiplierFilter(np.array([1.0, 0.0, 0.5, 0.25, 2.0]))
        op, system = reconstruct._active_system(filt, fam, 4)
        assert (op.rings is not None) == (rule == "area_center")
        mat, cols = weighted_design(filt, fam, 4)
        rows = system.rows(op)
        assert rows.shape == (200, cols.size) == (200, 22)
        np.testing.assert_allclose(rows, mat, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("m", [0, 3, 9])
    def test_column_multipliers_per_degree(self, family, m):
        b = np.random.default_rng(m).uniform(0.5, 1.5, 10)
        b[1::4] = 0.0
        bcol = reconstruct._column_multipliers(MultiplierFilter(b), family, m)
        assert len(bcol) == num_coeffs(m)
        for n in range(m + 1):
            assert np.all(bcol[block_slice(n)] == b[n])


class TestLsqSolve:
    def test_zero_data(self, family):
        report = lsq_solve(identity_multipliers(3), family, 3, np.zeros(200))
        assert report.solution.l2_norm() == 0.0
        assert report.residual == 0.0

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_exact_recovery_identity(self, family, m):
        truth = random_poly(m, sigma=0.0, seed=m)
        y = sample_at(truth, family.nodes)
        report = lsq_solve(identity_multipliers(m), family, m, y)
        err = np.linalg.norm(report.solution.coeffs - truth.coeffs)
        assert err / truth.l2_norm() <= 1e-9
        assert report.full_rank

    @pytest.mark.parametrize("m", [2, 4])
    def test_exact_recovery_cap_filter(self, family, m):
        filt = cap_multipliers(THETA_41, m)
        truth = random_poly(m, sigma=0.0, seed=10 + m)
        ms = simulate(truth, filt, family, beta=0.0)
        report = lsq_solve(filt, family, m, ms.y)
        err = np.linalg.norm(report.solution.coeffs - truth.coeffs)
        assert err / truth.l2_norm() <= 1e-9

    def test_constant_data(self, family):
        report = lsq_solve(identity_multipliers(3), family, 3, np.full(200, 5.0))
        expected = np.zeros(num_coeffs(3))
        expected[0] = 5.0
        np.testing.assert_allclose(report.solution.coeffs, expected, atol=1e-10)
        assert report.residual == pytest.approx(0.0, abs=1e-12)

    def test_orthogonality_barrier(self, family):
        # samples of a pure degree-(m+1) harmonic: the degree-m reconstruction
        # cannot beat the norm of the target itself
        m = 4
        f = CoefficientVector(m + 1, np.eye(num_coeffs(m + 1))[index_of(m + 1, 3)])
        y = sample_at(f, family.nodes)
        report = lsq_solve(identity_multipliers(m), family, m, y)
        diff = f.coeffs.copy()
        diff[: num_coeffs(m)] -= report.solution.coeffs
        err = np.linalg.norm(diff)
        assert err >= f.l2_norm()

    def test_first_order_optimality(self, family):
        filt = cap_multipliers(0.5, 4)
        truth = random_poly(6, sigma=2.0, seed=3)
        filt6 = cap_multipliers(0.5, 6)
        ms = simulate(truth, filt6, family, beta=1e-3, seed=4)
        report = lsq_solve(filt, family, 4, ms.y)
        mat, cols = weighted_design(filt, family, 4)
        ytil = ms.y * np.sqrt(family.weights)
        base = np.sum((mat @ report.solution.coeffs[cols] - ytil) ** 2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = rng.standard_normal(len(cols))
            d *= 1e-4 / np.linalg.norm(d)
            perturbed = np.sum((mat @ (report.solution.coeffs[cols] + d) - ytil) ** 2)
            assert perturbed >= base * (1 - 1e-10)

    def test_pseudoinverse_stability_bound(self, family):
        filt = cap_multipliers(0.5, 5)
        rng = np.random.default_rng(6)
        for _ in range(100):
            y = rng.standard_normal(200)
            report = lsq_solve(filt, family, 5, y)
            frame_lower = filtered_singular_values(filt, family, 5)[-1] ** 2
            rhs = math.sqrt(np.sum(y**2 * family.weights) / frame_lower)
            assert report.solution.l2_norm() <= rhs * (1 + 1e-9)

    def test_residual_monotone_in_degree(self, family):
        truth = random_poly(9, sigma=2.0, seed=7)
        y = sample_at(truth, family.nodes) + add_noise(np.zeros(200), 0.01, seed=8)
        prev = None
        for m in range(7):
            res = lsq_solve(identity_multipliers(m), family, m, y).residual
            if prev is not None:
                assert res <= prev + 1e-12
            prev = res

    def test_noise_robustness(self, family):
        truth = random_poly(4, sigma=1.0, seed=9)
        filt = identity_multipliers(4)
        clean = sample_at(truth, family.nodes)
        beta = 1e-2
        noisy = add_noise(clean, beta, seed=10)
        r0 = lsq_solve(filt, family, 4, clean)
        rb = lsq_solve(filt, family, 4, noisy)
        diff = np.linalg.norm(rb.solution.coeffs - r0.solution.coeffs)
        frame_lower = filtered_singular_values(filt, family, 4)[-1] ** 2
        assert diff <= beta / math.sqrt(frame_lower) * (1 + 1e-12)

    def test_rank_deficiency_flagged(self):
        # N = 50 puts all nodes on two latitude rings: degree 6 is unresolvable
        fam = pick_nodes(build_partition(50))
        y = np.ones(50)
        report = lsq_solve(identity_multipliers(6), fam, 6, y)
        assert not report.full_rank
        assert report.rank < num_coeffs(6)
        coeffs, sv, rank = svd_oracle(identity_multipliers(6), fam, 6, y)
        assert report.rank == rank
        assert rel_diff(report.solution.coeffs, coeffs) <= 1e-12

    def test_wrong_length_rejected(self, family):
        with pytest.raises(ValueError):
            lsq_solve(identity_multipliers(2), family, 2, np.ones(7))


@st.composite
def solve_cases(draw):
    """(filter, family, m, y): m <= 12, (m+1)^2 <= N <= 4 (m+1)^2 (N >= 50).

    The caps stay inside their first lobe (m theta0 < 3.2) and the random
    multipliers within three decades, so that cond(B_w D) stays in the
    thousands and the refined oracle's own rounding far below the tolerances.
    """
    m = draw(st.integers(0, 12))
    k = num_coeffs(m)
    n = draw(st.integers(max(50, k), max(50, 4 * k)))
    rule = draw(st.sampled_from(["area_center", "random_in_region"]))
    fam = pick_nodes(build_partition(n), rule=rule, seed=draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["identity", "cap", "random"]))
    if kind == "identity":
        filt = identity_multipliers(m)
    elif kind == "cap":
        filt = cap_multipliers(draw(st.floats(0.05, 0.25)), m)
    else:
        b = draw(st.lists(st.floats(1e-3, 1.0), min_size=m + 1, max_size=m + 1))
        filt = MultiplierFilter(np.array(b))
    y = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(n)
    return filt, fam, m, y


class TestGramSolveAgainstSvd:
    @settings(max_examples=60, deadline=None)
    @given(case=solve_cases())
    # b_9 = 1e-3 makes cond(B_w D) = 2145: the unrefined oracle was off by
    # 2.4e-13 against a 40-digit mpmath reference, twice the tolerance
    @example(case=(MultiplierFilter(np.where(np.arange(11) == 9, 1e-3, 1.0)),
                   pick_nodes(build_partition(254), rule="random_in_region", seed=0), 10,
                   np.random.default_rng(0).standard_normal(254)))
    # cond(B_w D) = 2427 with residual 0.62: refining x alone left the oracle
    # 3.1e-13 off a 50-digit mpmath reference, above the tolerance 2.7e-13
    @example(case=(MultiplierFilter(np.array([0.625, 1.0, 0.5, 1.0, 1e-3, 1.0, 1.0])),
                   pick_nodes(build_partition(86), rule="random_in_region", seed=1), 6,
                   np.random.default_rng(0).standard_normal(86)))
    # one column: the two estimates of its one singular value lie an ulp apart
    @example(case=(cap_multipliers(THETA_41, 0), pick_nodes(build_partition(64)), 0,
                   np.random.default_rng(0).standard_normal(64)))
    def test_matches_oracle(self, case):
        filt, fam, m, y = case
        coeffs, sv, rank = svd_oracle(filt, fam, m, y)
        unfiltered = np.linalg.svd(weighted_design(identity_multipliers(m), fam, m)[0],
                                   compute_uv=False)
        eps_svd = max(1 - unfiltered[-1] ** 2, unfiltered[0] ** 2 - 1)
        cond_g = (unfiltered[0] / unfiltered[-1]) ** 2 if unfiltered[-1] > 0 else math.inf
        tol = 1e-10 if eps_svd <= 0.99 else 1e-14 * cond_g
        report = lsq_solve(filt, fam, m, y)
        assert report.rank == rank and report.full_rank == (rank == sv.size)
        assert rel_diff(report.solution.coeffs, coeffs) <= tol
        filtered = filtered_singular_values(filt, fam, m)
        assert filtered[0] == pytest.approx(sv[0], rel=tol)
        assert filtered[-1] == pytest.approx(sv[-1], rel=tol)
        assert filtered[0] >= filtered[-1]
        eps = mz_constants(fam, m).epsilon
        assert eps_svd <= eps < eps_svd + 1e-8

    def test_no_svd_on_an_mz_family(self, family, monkeypatch):
        calls = count_svd_calls(monkeypatch)
        mz_constants(family, 5)
        lsq_solve(cap_multipliers(THETA_41, 5), family, 5, np.ones(200))
        assert calls == []

    def test_inactive_middle_degree(self, family, monkeypatch):
        filt = MultiplierFilter(np.array([1.0, 0.0, 1.0, 0.5, 0.25]))
        y = np.random.default_rng(20).standard_normal(200)
        coeffs, sv, rank = svd_oracle(filt, family, 4, y)
        calls = count_svd_calls(monkeypatch)
        report = lsq_solve(filt, family, 4, y)
        assert calls == []
        assert report.active_degrees == (0, 2, 3, 4)
        assert np.all(report.solution.coeffs[1:4] == 0.0)
        assert rel_diff(report.solution.coeffs, coeffs) <= 1e-12
        filtered = filtered_singular_values(filt, family, 4)
        assert calls == []
        assert sv.size == 22
        np.testing.assert_allclose(filtered, (sv[0], sv[-1]), rtol=1e-12)

    def test_solve_computes_no_spectrum(self, family, monkeypatch):
        filt = cap_multipliers(THETA_41, 5)
        mz_constants(family, 5)
        calls = {name: record_calls(monkeypatch, np.linalg, name)
                 for name in ("solve", "eigvalsh", "inv", "svd")}
        lsq_solve(filt, family, 5, np.ones(200))
        # one solve per class block of G: cosine or sine columns times the
        # parity of n - |k|
        assert calls == {"solve": [(12, 12), (9, 9), (9, 9), (6, 6)], "eigvalsh": [], "inv": [],
                         "svd": []}

    def test_corrupted_solve_raises(self, family, monkeypatch):
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: 1e3 * solve(a, b))
        y = np.random.default_rng(22).standard_normal(200)
        with pytest.raises(RuntimeError, match="stability bound"):
            lsq_solve(cap_multipliers(THETA_41, 5), family, 5, y)

    def test_wide_multiplier_spread_takes_svd_path(self, family, monkeypatch):
        filt = MultiplierFilter(np.array([1.0, 1.0, 1e-13, 1.0]))
        y = np.random.default_rng(21).standard_normal(200)
        coeffs, sv, rank = svd_oracle(filt, family, 3, y)
        calls = count_svd_calls(monkeypatch)
        report = lsq_solve(filt, family, 3, y)
        assert calls == [(200, 16)]
        assert rel_diff(report.solution.coeffs, coeffs) <= 1e-12
        assert report.rank == rank
        # the singular values come from the solve's SVD, not from a second one
        filtered = filtered_singular_values(filt, family, 3)
        assert calls == [(200, 16)]
        np.testing.assert_allclose(filtered, (sv[0], sv[-1]), rtol=0, atol=1e-13 * sv[0])

    def test_small_singular_value_under_spread_multipliers(self, family):
        # sigma_min^2 / sigma_max^2 ~ 1e-16 is rounding noise in the eigenvalues
        # of D G D; the solver resolves it through D^{-1} G^{-1} D^{-1}.  Oracle:
        # Householder QR commutes with column scaling, and 1 / ||R^{-1}||_2 is
        # the smallest singular value.
        filt = MultiplierFilter(np.array([1.0, 1.0, 1e-8, 1.0, 1.0, 1.0]))
        report = lsq_solve(filt, family, 5, np.ones(200))
        filtered = filtered_singular_values(filt, family, 5)
        mat, _ = weighted_design(filt, family, 5)
        r = np.linalg.qr(mat, mode="r")
        sigma_min = 1.0 / np.linalg.norm(np.linalg.inv(r), 2)
        assert report.full_rank
        assert filtered[-1] == pytest.approx(sigma_min, rel=1e-10)
        assert filtered[-1] ** 2 == pytest.approx(sigma_min**2, rel=1e-10)

    def test_singular_values_hold_one_block_at_a_time(self):
        # ring path at m = 32: four class blocks of up to 289 columns; the
        # pair takes their eigensolves one block at a time, so the peak stays
        # near one scaled block and its inverse, not all the scaled blocks
        fam = pick_nodes(build_partition(4356))
        filt = cap_multipliers(THETA_41, 32)
        lsq_solve(filt, fam, 32, np.ones(4356))
        op = fam._operator
        assert op.rings is not None and op.system.on_gram
        block = max(g.nbytes for _, g in op.blocks)
        tracemalloc.start()
        try:
            filtered_singular_values(filt, fam, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * block


def scattered_family():
    return pick_nodes(build_partition(300), rule="random_in_region", seed=4)


class TestSamplingOperator:
    """B_w, G and eigvalsh(G) are built once per (family, degree)."""

    def test_basis_built_once(self, monkeypatch):
        fam = scattered_family()
        degrees = record_calls(monkeypatch, reconstruct, "basis_matrix", key=int)
        mz_constants(fam, 8)
        lsq_solve(cap_multipliers(THETA_41, 8), fam, 8, np.ones(300))
        # the SVD fallback takes its rows from the same operator
        wide = MultiplierFilter(np.where(np.arange(9) == 2, 1e-13, 1.0))
        lsq_solve(wide, fam, 8, np.ones(300))
        assert not fam._operator.system.on_gram
        assert degrees == [8]

    @pytest.mark.parametrize("filt", [cap_multipliers(THETA_41, 8),
                                      MultiplierFilter(np.r_[1.0, 0.0, np.ones(7)])],
                             ids=["cap", "partly_active"])
    def test_bitwise_equal_to_a_fresh_family(self, filt):
        y = np.random.default_rng(30).standard_normal(300)
        fam = scattered_family()
        const = mz_constants(fam, 8)
        report = lsq_solve(filt, fam, 8, y)
        fresh_const = mz_constants(scattered_family(), 8)
        fresh = lsq_solve(filt, scattered_family(), 8, y)
        assert (const.A, const.B, const.epsilon) == (fresh_const.A, fresh_const.B,
                                                     fresh_const.epsilon)
        np.testing.assert_array_equal(report.solution.coeffs, fresh.solution.coeffs)
        np.testing.assert_array_equal(filtered_singular_values(filt, fam, 8),
                                      filtered_singular_values(filt, scattered_family(), 8))
        assert report.residual == fresh.residual

    def test_other_degree_replaces_the_slot(self, monkeypatch):
        fam = scattered_family()
        first = mz_constants(fam, 4)
        degrees = record_calls(monkeypatch, reconstruct, "basis_matrix", key=int)
        mz_constants(fam, 6)
        assert fam._operator.m == 6
        again = mz_constants(fam, 4)
        mz_constants(fam, 4)
        assert degrees == [6, 4]
        assert (again.A, again.B) == (first.A, first.B)

    def test_nodes_weights_and_operator_read_only(self):
        nodes = [(0.5, 1.0), (2.0, 4.0)]
        weights = np.array([0.5, 0.5])
        fam = MzFamily(nodes=nodes, weights=weights)
        weights[0] = 0.25
        nodes.pop()
        assert fam.weights[0] == 0.5 and len(fam.nodes) == 2
        with pytest.raises(ValueError, match="read-only"):
            fam.weights[0] = 0.25
        with pytest.raises(ValueError, match="read-only"):
            fam.nodes[0, 0] = 0.25
        # the dense path holds B_w, the ring path the ring factors, never both
        for op in (_operator(fam, 0), _operator(pick_nodes(build_partition(50)), 2)):
            assert (op.bw is None) != (op.rings is None)
            for arr in (*(op.rings or (op.bw,)), *(a for blk in op.blocks for a in blk)):
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0.0

    def test_partly_active_filter_takes_the_submatrix_eigenvalues(self, monkeypatch):
        partly = MultiplierFilter(np.array([1.0, 0.0, 1.0, 0.5, 0.25]))
        y = np.ones(300)
        shapes = record_calls(monkeypatch, np.linalg, "eigvalsh")
        fresh = scattered_family()
        lsq_solve(partly, fresh, 4, y)
        # a fresh family: the path gate needs eigvalsh(G_act) only, never G's
        assert shapes == [(22, 22)]
        assert "lam" not in vars(fresh._operator)  # not yet computed
        fam = scattered_family()
        mz_constants(fam, 4)
        assert shapes == [(22, 22), (25, 25)]
        shapes.clear()
        lsq_solve(MultiplierFilter(np.ones(5)), fam, 4, y)
        # all degrees active: G's cached eigenvalues, no eigensolve
        assert shapes == []
        lsq_solve(partly, fam, 4, y)
        assert shapes == [(22, 22)]

    @pytest.mark.parametrize("rule, m", [("area_center", 5), ("random_in_region", 8)])
    def test_one_operator_object_per_build(self, monkeypatch, rule, m):
        fam = pick_nodes(build_partition(300), rule=rule, seed=4)
        mz_constants(fam, m)
        op = fam._operator
        wide = MultiplierFilter(np.where(np.arange(m + 1) == 2, 1e-13, 1.0))
        for filt in (cap_multipliers(THETA_41, m), wide):
            lsq_solve(filt, fam, m, np.ones(300))
            filtered_singular_values(filt, fam, m)
            assert fam._operator is op
        # the SVD path's gate and SVD are kept on the same operator: the pair
        # is the two ends of that SVD, taken without a second one
        assert not op.system.on_gram
        sv = op.system.svd(op)[1]
        calls = count_svd_calls(monkeypatch)
        assert filtered_singular_values(wide, fam, m) == (sv[0], sv[-1])
        assert calls == []

    def test_partly_active_gate_holds_no_block(self):
        fam = scattered_family()
        lsq_solve(MultiplierFilter(np.array([1.0, 0.0, 1.0, 0.5, 0.25])), fam, 4, np.ones(300))
        system = fam._operator.system
        assert system.on_gram

        def arrays(obj):
            """The numpy arrays obj holds, through tuples, lists and attributes."""
            if isinstance(obj, np.ndarray):
                return [obj]
            if isinstance(obj, (tuple, list)):
                return [a for item in obj for a in arrays(item)]
            return [a for item in getattr(obj, "__dict__", {}).values() for a in arrays(item)]

        assert [a.ndim for a in arrays(system)] == [1, 1]  # bcol and lam

    def test_pass_leaves_no_reference_cycle(self):
        # the operator holds the gate and the gate never holds the operator,
        # so every family, operator and gate is freed by its reference count
        def one_pass():
            for rule, m in (("area_center", 5), ("random_in_region", 8)):
                fam = pick_nodes(build_partition(300), rule=rule, seed=4)
                mz_constants(fam, m)
                for filt in (cap_multipliers(THETA_41, m),
                             MultiplierFilter(np.r_[1.0, 0.0, np.ones(m - 1)]),
                             MultiplierFilter(np.where(np.arange(m + 1) == 2, 1e-13, 1.0))):
                    lsq_solve(filt, fam, m, np.ones(300))
                    filtered_singular_values(filt, fam, m)

        gc.collect()
        gc.disable()
        try:
            one_pass()
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0

    @pytest.mark.parametrize("n, rule, m, cubic", [
        (300, "random_in_region", 4,
         {"eigvalsh": [(22, 22)] * 3, "inv": [(22, 22)], "solve": [(22, 22)], "svd": []}),
        # N = 50 puts all nodes on two rings: degree 6 is rank deficient.  The
        # rings hold 25 nodes, so no order couples to another and the path
        # gate takes the enclosure: one eigvalsh of the 24 order blocks of the
        # active columns, stacked and padded to 4 columns
        (50, "area_center", 6,
         {"eigvalsh": [(24, 4, 4)], "inv": [], "solve": [], "svd": [(50, 46)]}),
    ], ids=["partly_active", "svd_path"])
    def test_reconstruct_runs_each_cubic_step_once(self, monkeypatch, n, rule, m, cubic):
        # what ``spheredecon reconstruct`` runs: the solve, then the singular
        # values of the same filtered system; both share one path gate
        fam = pick_nodes(build_partition(n), rule=rule, seed=4)
        filt = MultiplierFilter(np.r_[1.0, 0.0, 1.0, 0.5, 0.25, 1.0, 1.0][: m + 1])
        calls = {name: record_calls(monkeypatch, np.linalg, name) for name in cubic}
        report = lsq_solve(filt, fam, m, np.ones(n))
        filtered_singular_values(filt, fam, m)
        assert calls == cubic
        assert report.full_rank == (n == 300)


class TestDegreeBlockCalls:
    """The degree loops of ``harmonics`` reach each degree's block by one split
    of the array they fill or read, with no call of the public ``block_slice``
    per degree (a trace records one span per call of a public function)."""

    @pytest.mark.parametrize("rule", ["area_center", "random_in_region"])
    def test_pipeline_calls_no_block_slice(self, monkeypatch, rule):
        m = 8
        fam = pick_nodes(build_partition(4 * num_coeffs(m)), rule=rule, seed=4)
        filt = cap_multipliers(THETA_41, m + 4)
        calls = record_calls(monkeypatch, harmonics, "block_slice", key=int)
        truth = random_poly(m + 4, 2.0, 5, unit_norm=True)
        ms = simulate(truth, filt, fam, beta=0.01, seed=1)
        mz_constants(fam, m)
        lsq_solve(filt, fam, m, ms.y)
        basis_matrix(m, fam.nodes[:, 0], fam.nodes[:, 1])
        small = pick_nodes(build_partition(50))
        lsq_solve(identity_multipliers(6), small, 6, np.ones(50))
        assert not small._operator.system.on_gram  # the SVD path
        assert calls == []
        truth.block(3)  # the spy sees a call that is made
        assert calls == [3]


class TestSolutionJson:
    def test_fields(self, family):
        report = lsq_solve(identity_multipliers(2), family, 2, np.ones(200))
        obj = solution_to_json(report, filtered_singular_values(identity_multipliers(2),
                                                                family, 2))
        assert obj["m_max"] == 2
        assert len(obj["coeffs"]) == 9
        assert set(obj["report"]) == {
            "residual", "rank", "full_rank", "frame_lower", "frame_upper",
            "sigma_max", "sigma_min", "active_degrees",
        }


def dense_gram(fam, m):
    bw = basis_matrix(m, fam.nodes[:, 0], fam.nodes[:, 1]) * np.sqrt(fam.weights)[:, None]
    return bw, bw.T @ bw


def dense_svd_epsilon(bw):
    sv = np.linalg.svd(bw, compute_uv=False)
    return max(1 - sv[-1] ** 2, sv[0] ** 2 - 1)


def ring_gram(op):
    """G as the operator holds it: its blocks, zero elsewhere."""
    dim = sum(b.size for b, _ in op.blocks)
    gram = np.zeros((dim, dim))
    for b, g in op.blocks:
        gram[np.ix_(b, b)] = g
    return gram


def parity_classes(m):
    """Columns (n, k) by class: cosine (k >= 0) or sine side, then n - |k| even or odd."""
    n = np.repeat(np.arange(m + 1), 2 * np.arange(m + 1) + 1)
    k = np.arange(num_coeffs(m)) - n * n - n
    return [np.flatnonzero(((k < 0) == side) & ((n - np.abs(k)) % 2 == parity))
            for side in (False, True) for parity in (0, 1)]


def ring_remainders(fam, m):
    """Sum over the rings of the weighted norm of their trig Gram entries
    off the aliasing pattern, in the operator's arithmetic."""
    k = np.arange(-m, m + 1)
    a = np.abs(k)
    c = np.where(a > 0, math.sqrt(2.0), 1.0)
    total = 0.0
    for theta in np.unique(fam.nodes[:, 0]):
        on = np.flatnonzero(fam.nodes[:, 0] == theta)
        t = _trig(m, fam.nodes[on, 1]) * np.sqrt(fam.weights[on])[:, None]
        gram_t = t.T @ t.copy()
        keep = ((k >= 0)[:, None] == (k >= 0)) & (
            ((a[:, None] - a) % on.size == 0) | ((a[:, None] + a) % on.size == 0))
        col = c * np.sqrt(np.sum(stacked_legendre(m, theta)[0] ** 2, axis=0))[a]
        total += float(np.linalg.norm(np.where(keep, 0.0, gram_t) * np.outer(col, col)))
    return total


def tilted(fam, delta):
    """The family with its northern weights times 1 + delta, southern 1 - delta
    (an equatorial ring keeps its weights)."""
    side = np.pi / 2 - fam.nodes[:, 0]
    return MzFamily(nodes=fam.nodes,
                    weights=fam.weights * (1 + delta * np.sign(side) * (np.abs(side) > 1e-9)))


def rotated_south(fam, shift=1e-3):
    """The family with its southern nodes turned by shift in longitude."""
    nodes = fam.nodes.copy()
    south = nodes[:, 0] > np.pi / 2
    nodes[south, 1] = (nodes[south, 1] + shift) % (2 * np.pi)
    return MzFamily(nodes=nodes, weights=fam.weights)


def with_pole_pair(fam):
    """The family plus two nodes at the north pole, off any ring's pattern,
    all weights equal."""
    n = len(fam.nodes) + 2
    return MzFamily(nodes=np.r_[[[0.0, 0.3], [0.0, 1.1]], fam.nodes], weights=np.full(n, 1.0 / n))


@st.composite
def ring_families(draw):
    """(family, m): area-center nodes, 1 <= m <= 24, (m+1)^2 <= N <= 4 (m+1)^2."""
    m = draw(st.integers(1, 24))
    k = num_coeffs(m)
    return pick_nodes(build_partition(draw(st.integers(max(50, k), max(50, 4 * k))))), m


class TestRingOperator:
    """The two paths: ring families as four parity-class blocks, every other family dense."""

    @settings(max_examples=25, deadline=None)
    @given(case=ring_families())
    def test_matches_the_dense_gram(self, case):
        fam, m = case
        bw, gram = dense_gram(fam, m)
        op = _operator(fam, m)
        trace = np.trace(gram)
        for b, g in op.blocks:
            assert np.linalg.norm(g - gram[np.ix_(b, b)]) <= 1e-13 * trace
        assert np.linalg.norm(ring_gram(op) - gram) <= 1e-13 * trace
        const = mz_constants(fam, m)
        eps_svd = dense_svd_epsilon(bw)
        assert eps_svd <= const.epsilon < eps_svd + 1e-8
        # Rump-style check, independent of the eigensolver: A <= lambda_min(G)
        # and lambda_max(G) <= B, each because a Cholesky factor exists.
        eye = np.eye(gram.shape[0])
        np.linalg.cholesky(gram - const.A * eye)
        np.linalg.cholesky(const.B * eye - gram)

    @settings(max_examples=50, deadline=None)
    @given(case=ring_families())
    def test_area_center_families_take_the_ring_path(self, case):
        # every area-center family whose colatitudes each hold >= 2 nodes
        # takes the ring path, G in its (nonempty) parity classes; the
        # partitions of N = 51..59 and 63 have a one-node ring and go dense
        fam, m = case
        op = _operator(fam, m)
        if np.unique(fam.nodes[:, 0], return_counts=True)[1].min() < 2:
            assert op.rings is None and len(op.blocks) == 1
            return
        assert op.bw is None
        assert [sorted(b.tolist()) for b, _ in op.blocks] == [
            b.tolist() for b in parity_classes(m) if b.size]

    def test_rings_held_by_pattern_and_parity_classes(self):
        fam = pick_nodes(build_partition(1600))
        op = _operator(fam, 16)
        # the polar rings alias at degree 16 (25 <= 32 nodes) and are held by
        # their aliasing pattern, the others by the diagonal: the ring path
        assert op.bw is None
        colat, ring_of, phis, sqrt_w = op.rings
        np.testing.assert_array_equal(colat, np.unique(fam.nodes[:, 0]))
        np.testing.assert_array_equal(phis, fam.nodes[:, 1])
        np.testing.assert_array_equal(sqrt_w, np.sqrt(fam.weights))
        np.testing.assert_array_equal(colat[ring_of], fam.nodes[:, 0])
        classes = parity_classes(16)
        assert [b.size for b in classes] == [81, 72, 72, 64]
        assert [sorted(b.tolist()) for b, _ in op.blocks] == [b.tolist() for b in classes]
        assert 0.0 < op.slack < 1e-12
        rows, _ = weighted_design(identity_multipliers(16), fam, 16)
        np.testing.assert_allclose(reconstruct._rows(op), rows, rtol=0, atol=1e-14)
        v = np.random.default_rng(40).standard_normal(1600)
        d = np.random.default_rng(41).standard_normal(num_coeffs(16))
        np.testing.assert_allclose(reconstruct._adjoint(op, v), rows.T @ v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(reconstruct._apply(op, d), rows @ d, rtol=0, atol=1e-12)
        # nodes stored in any order: the ring of each node groups them
        perm = np.random.default_rng(42).permutation(1600)
        shuffled = _operator(MzFamily(nodes=fam.nodes[perm], weights=fam.weights[perm]), 16)
        assert shuffled.bw is None
        for (b, g), (b_s, g_s) in zip(op.blocks, shuffled.blocks):
            np.testing.assert_array_equal(b_s, b)
            np.testing.assert_allclose(g_s, g, rtol=0, atol=1e-14)
        np.testing.assert_allclose(reconstruct._adjoint(shuffled, v[perm]), rows.T @ v, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(reconstruct._apply(shuffled, d), (rows @ d)[perm], rtol=0,
                                   atol=1e-12)

    def test_build_holds_less_than_one_whole_gram(self):
        fam = pick_nodes(build_partition(4356))
        _operator(pick_nodes(build_partition(50)), 2)  # first-call allocations
        tracemalloc.start()
        try:
            _operator(fam, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 33**4 * 8

    def test_build_stores_no_block_between_the_parities(self):
        # the four class blocks hold a quarter of G; the two blocks P between
        # the parities of each side would add an eighth more
        fam = pick_nodes(build_partition(4356))
        _operator(pick_nodes(build_partition(50)), 2)  # first-call allocations
        tracemalloc.start()
        try:
            _operator(fam, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.7 * 33**4 * 8

    def test_slack_is_the_norm_of_the_dropped_entries(self):
        # a 1e-12 north-south tilt of the weights lifts the entries between
        # the parity classes far above rounding, still below eps N trace G
        fam = tilted(pick_nodes(build_partition(1600)), 1e-12)
        op = _operator(fam, 16)
        assert op.bw is None and len(op.blocks) == 4
        gram = dense_gram(fam, 16)[1]
        cos0, cos1, sin0, sin1 = parity_classes(16)
        between = max(np.linalg.norm(gram[np.ix_(cos0, cos1)]),
                      np.linalg.norm(gram[np.ix_(sin0, sin1)]))
        assert 1e-12 < between < np.finfo(float).eps * 1600 * np.trace(gram)
        assert op.slack - ring_remainders(fam, 16) == pytest.approx(between, rel=1e-3)

    @pytest.mark.parametrize("asymmetry", ["rotated", "tilted"])
    def test_equator_asymmetric_family_falls_back(self, asymmetry):
        base = pick_nodes(build_partition(1600))
        # rotated: the southern aliasing rings lose their pattern; tilted: the
        # entries between the parity classes pass eps N trace G.  Either way
        # the family takes the dense path: one block, nothing left out.
        fam = rotated_south(base) if asymmetry == "rotated" else tilted(base, 1e-9)
        op = _operator(fam, 16)
        assert op.rings is None and [b.size for b, _ in op.blocks] == [num_coeffs(16)]
        assert op.slack == 0.0
        bw, gram = dense_gram(fam, 16)
        const = mz_constants(fam, 16)
        eps_svd = dense_svd_epsilon(bw)
        assert eps_svd <= const.epsilon < eps_svd + 1e-8
        eye = np.eye(gram.shape[0])
        np.linalg.cholesky(gram - const.A * eye)
        np.linalg.cholesky(const.B * eye - gram)

    @pytest.mark.parametrize("shift, on_ring_path", [(1e-6, False), (1e-12, False), (1e-15, True)])
    def test_perturbed_wide_ring_keeps_epsilon_sound(self, shift, on_ring_path):
        fam = pick_nodes(build_partition(1600))
        m = 16
        thetas, counts = np.unique(fam.nodes[:, 0], return_counts=True)
        ring = np.flatnonzero(fam.nodes[:, 0] == thetas[np.argmax(counts)])
        assert _operator(fam, m).bw is None
        nodes = fam.nodes.copy()
        nodes[ring, 1] += shift * np.cos(np.arange(ring.size))
        bumped = MzFamily(nodes=nodes, weights=fam.weights)
        eps = mz_constants(bumped, m).epsilon
        # off the rounding level the family takes the dense path; below it
        # the family stays on the ring path and the ring's remainder enters delta
        assert (_operator(bumped, m).bw is None) == on_ring_path
        assert eps >= dense_svd_epsilon(dense_gram(bumped, m)[0])
        assert eps < dense_svd_epsilon(dense_gram(bumped, m)[0]) + 1e-8

    @pytest.mark.parametrize("kind", ["scattered", "pole_pair", "rotated", "tilted"])
    @pytest.mark.parametrize("m", [2, 5, 9])
    @pytest.mark.parametrize("filt_b", [None, [1.0, 0.0, 0.5, 0.25, 1.0, 1.0, 0.5, 0.2, 0.1, 0.3]],
                             ids=["cap", "partly_active"])
    def test_scattered_family_is_bitwise_the_dense_arithmetic(self, m, filt_b, kind):
        if kind == "scattered":
            fam = pick_nodes(build_partition(max(50, 4 * num_coeffs(m))),
                             rule="random_in_region", seed=m)
        else:
            # area-center families off the ring path: N >= 60 gives two-node
            # rings, which alias (and so lose their pattern when turned) at m = 2
            base = pick_nodes(build_partition(max(60, 4 * num_coeffs(m))))
            fam = {"pole_pair": with_pole_pair, "rotated": rotated_south,
                   "tilted": lambda f: tilted(f, 1e-9)}[kind](base)
        op = _operator(fam, m)
        assert op.rings is None and len(op.blocks) == 1 and op.slack == 0.0
        filt = cap_multipliers(THETA_41, m) if filt_b is None else MultiplierFilter(
            np.array(filt_b[: m + 1]))
        y = np.random.default_rng(m).standard_normal(len(fam.nodes))
        const = mz_constants(fam, m)
        report = lsq_solve(filt, fam, m, y)
        # dense-only reference: the arithmetic of a single dense block
        bw, gram = dense_gram(fam, m)
        lam = np.linalg.eigvalsh(gram)
        delta = np.finfo(float).eps * (len(fam.nodes) * np.trace(gram) + gram.shape[0] * lam[-1])
        assert (const.A, const.B) == (float(lam[0] - delta), float(lam[-1] + delta))
        _, cols = weighted_design(filt, fam, m)
        scale = np.repeat(filt.b[: m + 1], 2 * np.arange(m + 1) + 1)[cols]
        ytil = y * np.sqrt(fam.weights)
        d = np.zeros(num_coeffs(m))
        d[cols] = np.linalg.solve(gram[np.ix_(cols, cols)], (bw.T @ ytil)[cols])
        coeffs = np.zeros(num_coeffs(m))
        coeffs[cols] = d[cols] / scale
        assert np.array_equal(report.solution.coeffs, coeffs)
        assert report.residual == float(np.linalg.norm(bw @ d - ytil))


@st.composite
def oversampled_ring_cases(draw):
    """(N, m): area-center nodes, 3 <= m <= 24, 4 (m+1)^2 <= N <= 8 (m+1)^2
    (N >= 64: every colatitude holds two or more nodes)."""
    m = draw(st.integers(3, 24))
    return draw(st.integers(4 * num_coeffs(m), 8 * num_coeffs(m))), m


def random_block_matrix(rng, scale):
    """A random symmetric matrix split into 2..7 diagonal blocks of 1..6
    columns, its entries off those blocks times scale, and the block starts."""
    sizes = rng.integers(1, 7, size=rng.integers(2, 8))
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    a = scale * rng.standard_normal((sizes.sum(), sizes.sum()))
    for lo, size in zip(starts.tolist(), sizes.tolist()):
        a[lo:lo + size, lo:lo + size] = rng.standard_normal((size, size))
    return (a + a.T) / 2, starts


class TestOrderBlockEnclosure:
    """Ring-path frame constants from the order blocks of G and their block
    Gershgorin margin, or the class blocks where that margin passes the
    rounding budget eps N trace G."""

    @settings(max_examples=15, deadline=None)
    @given(case=oversampled_ring_cases())
    @example(case=(1156, 16))
    def test_encloses_the_dense_spectrum(self, case):
        n, m = case
        fam = pick_nodes(build_partition(n))
        with pytest.MonkeyPatch.context() as mp:
            shapes = record_calls(mp, np.linalg, "eigvalsh")
            const = mz_constants(fam, m)
        # the enclosure takes one stacked eigvalsh of the order blocks; the
        # fallback adds one per class block
        took_enclosure = [len(shape) for shape in shapes] == [3]
        if case == (1156, 16):
            assert took_enclosure
        assert fam._operator.rings is not None
        bw, gram = dense_gram(fam, m)
        eps_svd = dense_svd_epsilon(bw)
        assert eps_svd <= const.epsilon < eps_svd + 1e-8
        eye = np.eye(gram.shape[0])
        np.linalg.cholesky(gram - const.A * eye)
        np.linalg.cholesky(const.B * eye - gram)
        # a partly active filter: the path gate's extremes of G on the active
        # columns take the same route and stay within its budget
        filt = MultiplierFilter(np.r_[1.0, 0.0, np.ones(m - 1)])
        _, system = reconstruct._active_system(filt, fam, m)
        cols = np.flatnonzero(reconstruct._column_multipliers(filt, fam, m))
        act = np.linalg.eigvalsh(gram[np.ix_(cols, cols)])
        budget = np.finfo(float).eps * n * np.trace(gram) + 1e-13
        assert act[0] - budget <= system.lam[0] <= act[0] + 1e-13
        assert act[-1] - 1e-13 <= system.lam[-1] <= act[-1] + budget

    def test_block_gershgorin_contains_the_spectrum(self):
        rng = np.random.default_rng(50)
        missed = 0
        for scale in np.logspace(-12, -1, 12):
            for _ in range(4):
                # two diagonal blocks, each split into its own smaller blocks
                (g1, s1), (g2, s2) = random_block_matrix(rng, scale), random_block_matrix(rng, scale)
                whole = np.zeros((g1.shape[0] + g2.shape[0],) * 2)
                whole[: g1.shape[0], : g1.shape[0]] = g1
                whole[g1.shape[0]:, g1.shape[0]:] = g2
                lam = np.linalg.eigvalsh(whole)
                lower, upper, block_lower, block_upper = reconstruct._block_gershgorin(
                    [(g1, s1), (g2, s2)], np.inf)
                assert lower <= lam[0] and lam[-1] <= upper
                assert lower <= block_lower <= block_upper <= upper
                # mutation check: with the radii zeroed the enclosure is the
                # extremes of the diagonal blocks alone
                missed += not (block_lower <= lam[0] and lam[-1] <= block_upper)
        assert missed > 0

    def test_fallback_is_bitwise_the_class_block_spectrum(self, monkeypatch):
        # m = 24 at N = 2500: the margin of the order blocks passes the
        # budget, so A and B come from eigvalsh of the four class blocks
        # alone; the smallest radius already passes it, so the order blocks
        # are not solved
        fam = pick_nodes(build_partition(2500))
        op = _operator(fam, 24)
        shapes = record_calls(monkeypatch, np.linalg, "eigvalsh")
        const = mz_constants(fam, 24)
        assert [len(shape) for shape in shapes] == [2, 2, 2, 2]
        lam = np.sort(np.concatenate([np.linalg.eigvalsh(g) for _, g in op.blocks]))
        trace = sum(np.trace(g) for _, g in op.blocks)
        delta = (np.finfo(float).eps * (len(fam.nodes) * trace + num_coeffs(24) * lam[-1])
                 + op.slack)
        assert (const.A, const.B) == (float(lam[0] - delta), float(lam[-1] + delta))


    @pytest.mark.parametrize("n, m", [(2500, 24), (2178, 32), (1089, 32)])
    def test_early_exit_skips_the_order_block_eigensolve(self, monkeypatch, n, m):
        # every order block's radius passes the budget eps N trace G, so the
        # widening must too: no stacked eigvalsh, and lam is bitwise the
        # extremes of the class blocks' spectrum
        fam = pick_nodes(build_partition(n))
        op = _operator(fam, m)
        trace = sum(np.trace(g) for _, g in op.blocks)
        degree = reconstruct._degrees(m)
        radii = []
        for b, g in op.blocks:
            order = np.abs(b - degree[b] * (degree[b] + 1))
            starts = np.flatnonzero(np.diff(order, prepend=-1))
            norms = np.sqrt(np.add.reduceat(np.add.reduceat(g * g, starts, axis=0), starts,
                                            axis=1))
            radii.append(norms.sum(axis=1) - norms.diagonal())
        assert np.concatenate(radii).min() > np.finfo(float).eps * n * trace
        lam = np.sort(np.concatenate([np.linalg.eigvalsh(g) for _, g in op.blocks]))[[0, -1]]
        shapes = record_calls(monkeypatch, np.linalg, "eigvalsh")
        assert np.array_equal(op.lam, lam)
        assert [len(shape) for shape in shapes] == [2] * len(op.blocks)

    @pytest.mark.parametrize("n, m", [(4356, 32), (16900, 16)],
                             ids=["cell_dense", "oversampled_io"])
    def test_benchmark_families_take_the_enclosure(self, monkeypatch, n, m):
        # cell_dense widens by 3.95e-10 against a budget of 1.05e-9: a looser
        # radius would drop it onto the class-block eigensolves unnoticed
        fam = pick_nodes(build_partition(n))
        _operator(fam, m)
        shapes = record_calls(monkeypatch, np.linalg, "eigvalsh")
        mz_constants(fam, m)
        assert [len(shape) for shape in shapes] == [3]


def whole_table_ring_operator(fam, m):
    """The ring path of ``_operator`` over the whole (N, 2m+1) table of
    weighted azimuthal factors, each ring's rows gathered from it for its
    trig Gram, and the stacked Legendre factors of the rings; the operator
    holds (Q per ring, the ring of each node, the table), or None where the
    family leaves the ring path."""
    eps = np.finfo(float).eps
    colat, ring_of, counts = np.unique(fam.nodes[:, 0], return_inverse=True, return_counts=True)
    if counts.min() < 2:
        return None
    order = np.argsort(ring_of, kind="stable")
    starts = np.concatenate([[0], np.cumsum(counts)]).tolist()
    trig = _trig(m, fam.nodes[:, 1])
    trig *= np.sqrt(fam.weights)[:, None]
    q = stacked_legendre(m, colat)
    k = np.arange(-m, m + 1)
    abs_k = np.abs(k)
    c = np.where(abs_k > 0, math.sqrt(2.0), 1.0)
    col = c * np.sqrt(np.sum(q**2, axis=1))[:, abs_k]
    same_side = (k >= 0)[:, None] == (k >= 0)
    slack, pairs = 0.0, []
    for i, ell in enumerate(counts.tolist()):
        period = min(ell, 2 * m + 1)
        keep = same_side & (((abs_k[:, None] - abs_k) % period == 0)
                            | ((abs_k[:, None] + abs_k) % period == 0))
        j, jj = np.nonzero(np.triu(keep))
        t = trig[order[starts[i]:starts[i + 1]]]
        gram_t = t.T @ t.copy()
        off = np.where(keep, 0.0, gram_t)
        if np.max(np.abs(off)) > (2 * m + 1) * ell * eps * gram_t.diagonal().max():
            return None
        slack += float(np.linalg.norm(off * np.outer(col[i], col[i])))
        pairs.append((np.full(j.size, i), j, jj, c[j] * gram_t[j, jj] * c[jj]))
    pairs = tuple(np.concatenate(x) for x in zip(*pairs))
    qt = np.ascontiguousarray(q.transpose(2, 1, 0))
    classes = reconstruct._class_blocks(m, qt, pairs, eps * len(fam.nodes))
    if classes is None:
        return None
    blocks, between = classes
    return reconstruct._Operator(m, None, (q, ring_of, trig), blocks, slack + between)


def chunk_families(kind):
    """Area-center nodes stored ring by ring (one ring straddles node 512) or
    shuffled, a Gauss-Legendre product grid of 600-node rings (longer than a
    chunk), or area-center nodes plus a polar pair."""
    base = pick_nodes(build_partition(1800))
    if kind == "shuffled":
        perm = np.random.default_rng(9).permutation(len(base.nodes))
        return MzFamily(nodes=base.nodes[perm], weights=base.weights[perm])
    if kind == "long_rings":
        thetas, phis, weights = product_quadrature_grid(18, 600)
        return MzFamily(nodes=np.c_[thetas, phis], weights=weights)
    return with_pole_pair(base) if kind == "pole_pair" else base


class TestStreamedRingPath:
    """The ring path makes the weighted azimuthal factors chunk by chunk."""

    @pytest.mark.parametrize("kind", ["area_center", "shuffled", "long_rings", "pole_pair"])
    @pytest.mark.parametrize("m", [0, 1, 2, 16, 32])
    def test_bitwise_equal_to_the_whole_table(self, kind, m):
        fam = chunk_families(kind)
        ref = whole_table_ring_operator(fam, m)
        op = _operator(fam, m)
        # off degree 0 the polar pair breaks its ring's pattern: the dense path
        assert (ref is None) == (kind == "pole_pair" and m > 0) == (op.rings is None)
        if ref is None:
            return
        for (b, g), (b_ref, g_ref) in zip(op.blocks, ref.blocks, strict=True):
            assert np.array_equal(b, b_ref) and np.array_equal(g, g_ref)
        assert op.slack == ref.slack
        # A, B and epsilon of the reference operator, held in a twin family's slot
        twin = MzFamily(nodes=fam.nodes, weights=fam.weights)
        object.__setattr__(twin, "_operator", ref)
        assert mz_constants(twin, m) == mz_constants(fam, m)
        q, ring_of, trig = ref.rings
        rng = np.random.default_rng(m)
        d, v = rng.standard_normal(num_coeffs(m)), rng.standard_normal(len(fam.nodes))
        assert np.array_equal(reconstruct._apply(op, d), whole_table_synthesis(q, ring_of, trig, d))
        assert np.array_equal(reconstruct._adjoint(op, v),
                              whole_table_analysis(q, ring_of, trig, v))

    def test_build_apply_and_adjoint_hold_no_trig_table(self):
        fam = pick_nodes(build_partition(16900))
        m = 16
        table = len(fam.nodes) * (2 * m + 1)  # entries of the whole weighted trig
        _operator(pick_nodes(build_partition(50)), 2)  # first-call allocations
        rng = np.random.default_rng(10)
        d, v = rng.standard_normal(num_coeffs(m)), rng.standard_normal(len(fam.nodes))
        tracemalloc.start()
        try:
            op = _operator(fam, m)
            reconstruct._adjoint(op, v)
            reconstruct._apply(op, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # ring colatitudes, ring of each node, longitudes, sqrt(tau): O(N), no
        # (N, 2m+1) table and no (m+1)^2 Legendre factors per ring
        n, rings = len(fam.nodes), np.unique(fam.nodes[:, 0]).size
        assert op.bw is None and [arr.shape for arr in op.rings] == [(rings,), (n,), (n,), (n,)]
        assert peak < table * 8 / 3

    def test_adjoint_holds_no_ring_rows(self):
        # each degree's ring rows are summed over the rings as they are made:
        # the R (m+1)^2 table of them (30.5 MB here) is never formed, and what
        # remains is O(N + R (2m+1)) plus the chunk buffers of the azimuthal
        # factors (the class blocks are not needed, so none are built)
        fam = pick_nodes(build_partition(66564))
        m = 128
        colat, ring_of = np.unique(fam.nodes[:, 0], return_inverse=True)
        op = reconstruct._Operator(m, None, (colat, ring_of, fam.nodes[:, 1],
                                             np.sqrt(fam.weights)), (), 0.0)
        v = np.random.default_rng(11).standard_normal(len(fam.nodes))
        reconstruct._adjoint(op, v)  # first-call allocations
        tracemalloc.start()
        try:
            reconstruct._adjoint(op, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < colat.size * (m + 1) ** 2 * 8 / 4
