"""Design matrix assembly and the least-squares solver, against an SVD oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheredecon.filters import MultiplierFilter, cap_multipliers, identity_multipliers
from spheredecon.forward import add_noise, sample_at, simulate
from spheredecon.harmonics import (
    CoefficientVector,
    _trig,
    basis_matrix,
    index_of,
    normalized_legendre,
    num_coeffs,
    random_poly,
)
from spheredecon import reconstruct
from spheredecon.reconstruct import (
    _operator,
    design_matrix,
    filtered_singular_values,
    lsq_solve,
    solution_to_json,
)
from spheredecon.certify import mz_constants
from spheredecon.sphere_geometry import MzFamily, build_partition, pick_nodes

THETA_41 = 2 * math.pi / 41


def svd_oracle(filt, fam, m, y):
    """Truncated-SVD pseudoinverse of the filtered design matrix (cutoff 1e-12).

    Returns the minimum-norm coefficients, all singular values and the rank.
    """
    mat, cols = design_matrix(filt, fam, m)
    u, sv, vt = np.linalg.svd(mat, full_matrices=False)
    kept = sv > 1e-12 * sv[0]
    coeffs = np.zeros(num_coeffs(m))
    ytil = np.asarray(y) * np.sqrt(fam.weights)
    coeffs[cols] = vt[kept].T @ ((u[:, kept].T @ ytil) / sv[kept])
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
        mat, cols = design_matrix(identity_multipliers(0), family, 0)
        assert mat.shape == (200, 1)
        np.testing.assert_allclose(mat[:, 0], np.sqrt(family.weights))
        assert np.sum(mat[:, 0] ** 2) == pytest.approx(1.0, abs=1e-12)
        assert list(cols) == [0]

    def test_inactive_degree_dropped(self, family):
        b = np.array([1.0, 0.0, 1.0])
        mat, cols = design_matrix(MultiplierFilter(b), family, 2)
        assert mat.shape == (200, 6)  # degrees {0, 2}: 1 + 5 columns
        assert list(cols) == [0, 4, 5, 6, 7, 8]

    def test_consistency_with_forward_sampling(self, family):
        filt = cap_multipliers(0.5, 4)
        truth = random_poly(4, sigma=1.0, seed=0)
        ms = simulate(truth, filt, family, beta=0.0)
        mat, cols = design_matrix(filt, family, 4)
        predicted = mat @ truth.coeffs[cols]
        np.testing.assert_allclose(
            predicted, ms.y * np.sqrt(family.weights), rtol=1e-12, atol=1e-14
        )

    def test_all_zero_multipliers_rejected(self, family):
        with pytest.raises(ValueError):
            design_matrix(MultiplierFilter(np.zeros(3)), family, 2)

    def test_degree_beyond_filter_rejected(self, family):
        with pytest.raises(ValueError):
            design_matrix(identity_multipliers(2), family, 3)


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
        mat, cols = design_matrix(filt, family, 4)
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
    multipliers within three decades, so that cond(B_w D) and with it the
    oracle's own rounding error stay far below the tolerances.
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
    def test_matches_oracle(self, case):
        filt, fam, m, y = case
        coeffs, sv, rank = svd_oracle(filt, fam, m, y)
        unfiltered = np.linalg.svd(design_matrix(identity_multipliers(m), fam, m)[0],
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
        assert filtered.size == sv.size == 22
        np.testing.assert_allclose(filtered, sv, rtol=1e-12)

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
        np.testing.assert_allclose(filtered, sv, rtol=0, atol=1e-13 * sv[0])

    def test_small_singular_value_under_spread_multipliers(self, family):
        # sigma_min^2 / sigma_max^2 ~ 1e-16 is rounding noise in the eigenvalues
        # of D G D; the solver resolves it through D^{-1} G^{-1} D^{-1}.  Oracle:
        # Householder QR commutes with column scaling, and 1 / ||R^{-1}||_2 is
        # the smallest singular value.
        filt = MultiplierFilter(np.array([1.0, 1.0, 1e-8, 1.0, 1.0, 1.0]))
        report = lsq_solve(filt, family, 5, np.ones(200))
        filtered = filtered_singular_values(filt, family, 5)
        mat, _ = design_matrix(filt, family, 5)
        r = np.linalg.qr(mat, mode="r")
        sigma_min = 1.0 / np.linalg.norm(np.linalg.inv(r), 2)
        assert report.full_rank
        assert filtered[-1] == pytest.approx(sigma_min, rel=1e-10)
        assert filtered[-1] ** 2 == pytest.approx(sigma_min**2, rel=1e-10)


def scattered_family():
    return pick_nodes(build_partition(300), rule="random_in_region", seed=4)


class TestSamplingOperator:
    """B_w, G and eigvalsh(G) are built once per (family, degree)."""

    def test_basis_built_once(self, monkeypatch):
        fam = scattered_family()
        degrees = record_calls(monkeypatch, reconstruct, "basis_matrix", key=int)
        mz_constants(fam, 8)
        lsq_solve(cap_multipliers(THETA_41, 8), fam, 8, np.ones(300))
        design_matrix(identity_multipliers(8), fam, 8)
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
        assert fam._operator[0] == 6
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
        assert fresh._operator.lam is None
        fam = scattered_family()
        mz_constants(fam, 4)
        assert shapes == [(22, 22), (25, 25)]
        shapes.clear()
        lsq_solve(MultiplierFilter(np.ones(5)), fam, 4, y)
        # all degrees active: G's cached eigenvalues, no eigensolve
        assert shapes == []
        lsq_solve(partly, fam, 4, y)
        assert shapes == [(22, 22)]

    @pytest.mark.parametrize("n, rule, m, cubic", [
        (300, "random_in_region", 4,
         {"eigvalsh": [(22, 22)] * 3, "inv": [(22, 22)], "solve": [(22, 22)], "svd": []}),
        # N = 50 puts all nodes on two rings: degree 6 is rank deficient
        (50, "area_center", 6,
         {"eigvalsh": [(15, 15), (11, 11), (11, 11), (9, 9)], "inv": [], "solve": [],
          "svd": [(50, 46)]}),
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
        col = c * np.sqrt(np.sum(normalized_legendre(m, theta)[0] ** 2, axis=0))[a]
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
        q, ring_of, trig = op.rings
        assert q.shape[0] == np.unique(fam.nodes[:, 0]).size and trig.shape == (1600, 33)
        np.testing.assert_array_equal(np.unique(fam.nodes[:, 0])[ring_of], fam.nodes[:, 0])
        classes = parity_classes(16)
        assert [b.size for b in classes] == [81, 72, 72, 64]
        assert [sorted(b.tolist()) for b, _ in op.blocks] == [b.tolist() for b in classes]
        assert 0.0 < op.slack < 1e-12
        rows, _ = design_matrix(identity_multipliers(16), fam, 16)
        np.testing.assert_allclose(rows, dense_gram(fam, 16)[0], rtol=0, atol=1e-14)
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
        _, cols = design_matrix(filt, fam, m)
        scale = np.repeat(filt.b[: m + 1], 2 * np.arange(m + 1) + 1)[cols]
        ytil = y * np.sqrt(fam.weights)
        d = np.zeros(num_coeffs(m))
        d[cols] = np.linalg.solve(gram[np.ix_(cols, cols)], (bw.T @ ytil)[cols])
        coeffs = np.zeros(num_coeffs(m))
        coeffs[cols] = d[cols] / scale
        assert np.array_equal(report.solution.coeffs, coeffs)
        assert report.residual == float(np.linalg.norm(bw @ d - ytil))
