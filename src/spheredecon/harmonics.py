"""Real spherical harmonics on S^2, orthonormal under the probability measure.

The basis is indexed by (degree m, order ell) with ell = 1 .. 2m+1, laid out
degree-major: coefficient index of (m, ell) is m^2 + ell - 1.  Normalization
uses mu(S^2) = 1, so each basis value is sqrt(4*pi) times the surface-measure
convention and the (0, 1) function is identically 1.  With this choice the
addition theorem reads sum_ell Y_m^ell(x) Y_m^ell(y) = (2m+1) P_m(cos rho),
and the squared l2 norm of a coefficient vector equals the squared L2 norm
of the synthesized function.

The colatitude (Legendre) factors are computed once per distinct colatitude,
so points on a few latitude rings, such as area_center nodes, share them;
scattered points simply form one ring each.  Synthesis is matrix-free: it
sums the factors against the coefficients per ring and never forms the
basis matrix; its adjoint, analysis, sums the samples per ring first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .special_functions import JacobiParams, jacobi_all
from .sphere_geometry import SpherePoint, geodesic_distance

__all__ = [
    "CoefficientVector",
    "num_coeffs",
    "block_slice",
    "index_of",
    "normalized_legendre",
    "basis_matrix",
    "eval_poly_many",
    "zonal_kernel",
    "sobolev_norm",
    "sobolev_weights",
    "project",
    "embed",
    "random_poly",
    "coeffs_to_json",
    "coeffs_from_json",
    "write_coeffs_json",
    "read_coeffs_json",
]

_S2 = JacobiParams.sphere(2)


def num_coeffs(m_max: int) -> int:
    return (m_max + 1) ** 2


def block_slice(m: int) -> slice:
    """Slice of the degree-m coefficient block."""
    return slice(m * m, (m + 1) * (m + 1))


def index_of(m: int, ell: int) -> int:
    if not (1 <= ell <= 2 * m + 1):
        raise ValueError(f"order ell must be in 1..{2 * m + 1} for degree {m}, got {ell}")
    return m * m + ell - 1


@dataclass(frozen=True)
class CoefficientVector:
    """Generalized Fourier coefficients up to degree m_max, degree-major."""

    m_max: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)
        if c.shape != (num_coeffs(self.m_max),):
            raise ValueError(
                f"expected {num_coeffs(self.m_max)} coefficients for m_max={self.m_max}, "
                f"got shape {c.shape}"
            )

    def block(self, m: int) -> np.ndarray:
        if not (0 <= m <= self.m_max):
            raise ValueError(f"degree {m} out of range 0..{self.m_max}")
        return self.coeffs[block_slice(m)]

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def normalized_legendre(m_max: int, theta: np.ndarray) -> np.ndarray:
    """Colatitude factors Q[m, k] of the orthonormal basis, shape (n, m_max+1, m_max+1).

    Q[:, m, k] = sqrt((2m+1)(m-k)!/(m+k)!) * P_m^k(cos theta) for 0 <= k <= m
    (no Condon-Shortley phase), computed by the scaled recurrences: sectoral
    seed Q_{k,k} = sqrt((2k+1)/(2k)) sin(theta) Q_{k-1,k-1}, then upward in
    degree.  The scaling keeps every entry O(sqrt(2m+1)), stable far beyond
    m = 200.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    x = np.cos(theta)
    s = np.sin(theta)
    # built as (degree, order, point), so that each step below works on
    # contiguous rows, then laid out point-major
    q = np.zeros((m_max + 1, m_max + 1, theta.size))
    q[0, 0] = 1.0
    for k in range(1, m_max + 1):
        q[k, k] = math.sqrt((2 * k + 1) / (2 * k)) * s * q[k - 1, k - 1]
    # degree by degree, all orders k < m at once
    for m in range(1, m_max + 1):
        k = np.arange(m)
        alpha = np.sqrt((2 * m - 1) * (2 * m + 1) / ((m - k) * (m + k)))
        q[m, :m] = alpha[:, None] * x * q[m - 1, :m]
        k = k[: m - 1]
        beta = np.sqrt(
            (2 * m + 1) * (m - 1 - k) * (m - 1 + k) / ((2 * m - 3) * (m - k) * (m + k))
        )
        q[m, : m - 1] -= beta[:, None] * q[m - 2, : m - 1]
    return np.ascontiguousarray(q.transpose(2, 0, 1))


def _trig(m_max: int, phis) -> np.ndarray:
    """Azimuthal factors: column m_max + k holds cos(k phi) for k >= 0 and
    sin(|k| phi) for k < 0."""
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    ks = np.arange(1, m_max + 1)
    trig = np.empty((phis.size, 2 * m_max + 1))
    trig[:, :m_max] = np.sin(phis[:, None] * ks[None, :])[:, ::-1]
    trig[:, m_max] = 1.0
    trig[:, m_max + 1 :] = np.cos(phis[:, None] * ks[None, :])
    return trig


def _rings(m_max: int, thetas, phis):
    """Colatitude factors Q per distinct colatitude (ring), the ring of each
    point, and its azimuthal factors (``_trig``)."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    rings, ring_of = np.unique(thetas, return_inverse=True)
    return normalized_legendre(m_max, rings), ring_of, _trig(m_max, phis)


def _basis_rows(q, ring_of, trig) -> np.ndarray:
    """Basis rows from the factors of ``_rings`` (the rows scale with trig)."""
    m_max = q.shape[1] - 1
    out = np.empty((ring_of.size, num_coeffs(m_max)))
    sqrt2 = math.sqrt(2.0)
    for m in range(m_max + 1):
        factor = sqrt2 * q[:, m, np.abs(np.arange(-m, m + 1))]
        factor[:, m] = q[:, m, 0]
        np.multiply(
            factor[ring_of], trig[:, m_max - m : m_max + m + 1], out=out[:, block_slice(m)]
        )
    return out


def basis_matrix(m_max: int, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Matrix of basis values, rows = points, columns = degree-major indices.

    Order ell = 1..2m+1 of degree m is azimuthal k = ell - 1 - m in -m..m,
    with value sqrt(2) Q[m, |k|] sin(|k| phi) for k < 0, Q[m, 0] for k = 0
    and sqrt(2) Q[m, k] cos(k phi) for k > 0.
    """
    return _basis_rows(*_rings(m_max, thetas, phis))


def _synthesis(q, ring_of, trig, coeffs: np.ndarray) -> np.ndarray:
    """Values sum_k a[ring, k] trig[:, k] at the points of ``_rings``, where
    a[r, k] = sum_m Q[r, m, |k|] c'[m, k] with c' the coefficients laid out by
    (degree, azimuthal order) and scaled by sqrt(2) off k = 0."""
    m_max = q.shape[1] - 1
    table = np.zeros((m_max + 1, 2 * m_max + 1))
    for m in range(m_max + 1):
        table[m, m_max - m : m_max + m + 1] = math.sqrt(2.0) * coeffs[block_slice(m)]
        table[m, m_max] = coeffs[m * m + m]
    # cos half: orders k = 0..m_max; sin half: orders k = m_max..1, read as |k|
    a = np.empty((q.shape[0], 2 * m_max + 1))
    a[:, m_max:] = np.einsum("rmk,mk->rk", q, table[:, m_max:])
    a[:, :m_max] = np.einsum("rmk,mk->rk", q[:, :, :0:-1], table[:, :m_max])
    return np.einsum("nk,nk->n", a[ring_of], trig)


def _analysis(q, ring_of, trig, v: np.ndarray) -> np.ndarray:
    """Adjoint of ``_synthesis``: the coefficients sum_j v_j Y(x_j), from the
    per-ring sums a[r, k] = sum_{j in r} v_j trig[j, k], each a run of
    ``np.add.reduceat`` over the points grouped by ring."""
    m_max = q.shape[1] - 1
    order = np.argsort(ring_of, kind="stable")  # the identity for points stored ring by ring
    grouped = ring_of[order]
    starts = np.flatnonzero(np.diff(grouped, prepend=-1))
    a = np.zeros((q.shape[0], 2 * m_max + 1))
    a[grouped[starts]] = np.add.reduceat(trig[order] * v[order, None], starts)
    table = np.empty((m_max + 1, 2 * m_max + 1))
    table[:, m_max:] = np.einsum("rmk,rk->mk", q, a[:, m_max:])
    table[:, :m_max] = np.einsum("rmk,rk->mk", q[:, :, :0:-1], a[:, :m_max])
    out = np.empty(num_coeffs(m_max))
    for m in range(m_max + 1):
        out[block_slice(m)] = math.sqrt(2.0) * table[m, m_max - m : m_max + m + 1]
        out[m * m + m] = table[m, m_max]
    return out


def eval_poly_many(c: CoefficientVector, thetas, phis) -> np.ndarray:
    """Synthesis at many points, without forming the basis matrix.

    Per ring, a[k] = sum_m Q[m, |k|] c'[m, k] with c' the coefficients laid
    out by (degree, azimuthal order) and scaled by sqrt(2) off k = 0; each
    point then sums a[k] times its azimuthal factor.  Only einsum is used, so
    the values do not depend on the BLAS thread count.
    """
    return _synthesis(*_rings(c.m_max, thetas, phis), c.coeffs)


def zonal_kernel(m: int, x: SpherePoint, y: SpherePoint) -> float:
    """(2m+1) P_m(cos rho(x, y)): the reproducing kernel of degree m."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    rho = geodesic_distance(x, y)
    return float((2 * m + 1) * jacobi_all(m, _S2, math.cos(rho))[m])


def sobolev_weights(m_max: int, sigma: float) -> np.ndarray:
    """Per-coefficient weights (1 + m(m+1))^sigma in the degree-major layout."""
    degrees = np.concatenate([np.full(2 * m + 1, m) for m in range(m_max + 1)])
    return (1.0 + degrees * (degrees + 1.0)) ** sigma


def sobolev_norm(c: CoefficientVector, sigma: float) -> float:
    """H^sigma norm: sqrt(sum c_{m,ell}^2 (1 + m(m+1))^sigma)."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return float(np.sqrt(np.sum(c.coeffs**2 * sobolev_weights(c.m_max, sigma))))


def project(c: CoefficientVector, m: int) -> CoefficientVector:
    """Orthogonal projection onto the degree-m eigenspace."""
    if not (0 <= m <= c.m_max):
        raise ValueError(f"degree {m} out of range 0..{c.m_max}")
    out = np.zeros_like(c.coeffs)
    out[block_slice(m)] = c.block(m)
    return CoefficientVector(c.m_max, out)


def embed(c: CoefficientVector, m_max: int) -> CoefficientVector:
    """Zero-pad (or validate-truncate) to a new maximal degree."""
    if m_max < c.m_max:
        tail = c.coeffs[num_coeffs(m_max):]
        if np.any(tail != 0.0):
            raise ValueError("cannot truncate nonzero high-degree coefficients")
        return CoefficientVector(m_max, c.coeffs[: num_coeffs(m_max)].copy())
    out = np.zeros(num_coeffs(m_max))
    out[: c.coeffs.size] = c.coeffs
    return CoefficientVector(m_max, out)


def random_poly(
    m_max: int,
    sigma: float,
    seed: int,
    unit_norm: bool = False,
) -> CoefficientVector:
    """Random coefficients with degree-block norms (1 + m(m+1))^{-sigma/2 - 1/2}.

    The extra -1/2 makes the H^sigma norm of the full (infinite) model only
    marginally divergent, so truncations behave like functions of smoothness
    sigma.  Deterministic per seed; unit_norm rescales to H^sigma norm 1.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(num_coeffs(m_max))
    for m in range(m_max + 1):
        block = rng.standard_normal(2 * m + 1)
        block /= np.linalg.norm(block)
        coeffs[block_slice(m)] = block * (1.0 + m * (m + 1.0)) ** (-sigma / 2 - 0.5)
    c = CoefficientVector(m_max, coeffs)
    if unit_norm:
        c = CoefficientVector(m_max, coeffs / sobolev_norm(c, sigma))
    return c


def coeffs_to_json(c: CoefficientVector) -> dict:
    return {"m_max": c.m_max, "coeffs": [float(v) for v in c.coeffs]}


def coeffs_from_json(obj: dict) -> CoefficientVector:
    return CoefficientVector(int(obj["m_max"]), np.asarray(obj["coeffs"], dtype=float))


def write_coeffs_json(path, c: CoefficientVector) -> None:
    from .artifacts import write_json

    write_json(path, coeffs_to_json(c))


def read_coeffs_json(path) -> CoefficientVector:
    with open(path) as fh:
        return coeffs_from_json(json.load(fh))
