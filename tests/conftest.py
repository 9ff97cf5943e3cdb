"""Shared test oracles: quadrature grids, random points on the sphere and
integrands of the adaptive quadrature."""

import numpy as np


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
