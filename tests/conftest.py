"""Shared test oracles: quadrature grids, random points on the sphere,
integrands of the adaptive quadrature, the stacked Legendre factors and the
whole-table synthesis and analysis of ring factors."""

import numpy as np

from spheredecon.harmonics import _basis_transpose, _legendre_steps, _order_sums


def product_quadrature_grid(n_theta: int = 48, n_phi: int = 96):
    """Quadrature nodes/weights for the probability measure on S^2.

    Gauss-Legendre in cos(theta) (exact for polynomial integrands of degree
    < 2*n_theta) times a uniform rectangle rule in phi (exact for
    trigonometric polynomials of azimuthal order < n_phi).  Weights sum to 1.
    """
    u, wu = np.polynomial.legendre.leggauss(n_theta)
    thetas = np.arccos(u)
    phis = 2 * np.pi * np.arange(n_phi) / n_phi
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    ww = np.broadcast_to((wu / 2)[:, None] / n_phi, tt.shape)
    return tt.ravel(), pp.ravel(), ww.ravel().copy()


def random_sphere_points(n: int, seed: int):
    """Area-uniform points, returned as (theta, phi) arrays."""
    rng = np.random.default_rng(seed)
    theta = np.arccos(rng.uniform(-1, 1, n))
    phi = rng.uniform(0, 2 * np.pi, n)
    return theta, phi


def weighted(f):
    """The integrand of ``adaptive_quadrature`` for a pointwise function f:
    the weighted sum of its values (k sums when f returns (k, points))."""
    return lambda r, w: np.sum(w * f(r), axis=-1)


def stacked_legendre(m_max: int, theta) -> np.ndarray:
    """The colatitude factors Q[m, k] of the orthonormal basis, shape
    (n, m_max+1, m_max+1), zero for k > m: the degrees of ``_legendre_steps``
    stacked."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    q = np.zeros((theta.size, m_max + 1, m_max + 1))
    for m, qm in enumerate(_legendre_steps(m_max, theta)):
        q[:, m, : m + 1] = qm.T
    return q


def whole_table_synthesis(q, ring_of, trig, coeffs):
    """The synthesis of ring factors over the whole (points, 2m+1) table of
    weighted azimuthal factors: each point's ring order sums, gathered for
    every point at once, times its row of trig."""
    m_max = q.shape[1] - 1
    a = _order_sums(m_max, (q[:, m, : m + 1].T for m in range(m_max + 1)), coeffs, q.shape[0])
    return np.einsum("nk,nk->n", a.T[ring_of], trig)


def whole_table_analysis(q, ring_of, trig, v):
    """The adjoint of ``whole_table_synthesis``: the table reordered by ring
    and scaled by v, summed per ring by one ``np.add.reduceat``, then the ring
    rows of the basis summed."""
    m_max = q.shape[1] - 1
    order = np.argsort(ring_of, kind="stable")
    grouped = ring_of[order]
    starts = np.flatnonzero(np.diff(grouped, prepend=-1))
    a = np.zeros((q.shape[0], trig.shape[1]))
    a[grouped[starts]] = np.add.reduceat(trig[order] * v[order, None], starts)
    steps = (q[:, m, : m + 1].T for m in range(m_max + 1))
    return _basis_transpose(m_max, steps, np.ascontiguousarray(a.T)).T.sum(axis=0)
