"""Real spherical harmonics on S^2, orthonormal under the probability measure.

The basis is indexed by (degree m, order ell) with ell = 1 .. 2m+1, laid out
degree-major: coefficient index of (m, ell) is m^2 + ell - 1.  Normalization
uses mu(S^2) = 1, so each basis value is sqrt(4*pi) times the surface-measure
convention and the (0, 1) function is identically 1.  With this choice the
addition theorem reads sum_ell Y_m^ell(x) Y_m^ell(y) = (2m+1) P_m(cos rho),
and the squared l2 norm of a coefficient vector equals the squared L2 norm
of the synthesized function.

The colatitude (Legendre) factors come one degree at a time, and each degree
is used as it is made, never stacked: ``basis_matrix`` writes its block of
rows, matrix-free synthesis adds it to per-ring order sums, and its adjoint
sums the degree's ring rows over the rings; the loops split or join the degree
blocks at the offsets m^2.  Points on a few latitude rings, such as
area_center nodes, share them: the ring factors that ``reconstruct`` keeps are
the ring colatitudes, the ring of each point, the longitudes and sqrt(tau),
all O(points), and every use steps the degrees from the ring colatitudes anew.

The azimuthal factors cos(k phi), sin(k phi) come from one sin/cos pair per
point by angle addition (``_trig``), with real elementwise operations only,
so each point's values are independent of the batch and of the BLAS thread
count; their error, checked against mpmath for m_max <= 256, stays below
m_max * eps.  Synthesis (``eval_poly_many`` among its callers) and its
adjoint make them, times sqrt(tau), one chunk of whole rings at a time
(``_trig_chunks``) and use each chunk at once, so they hold no
(points, 2m+1) table; only the whole basis rows (``basis_matrix``,
``_basis_rows``) take them for all points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoefficientVector",
    "num_coeffs",
    "block_slice",
    "index_of",
    "basis_matrix",
    "eval_poly_many",
    "sobolev_norm",
    "sobolev_weights",
    "embed",
    "random_poly",
    "coeffs_to_json",
    "coeffs_from_json",
]


def num_coeffs(m_max: int) -> int:
    return (m_max + 1) ** 2


def block_slice(m: int) -> slice:
    """Slice of the degree-m coefficient block."""
    return slice(m * m, (m + 1) * (m + 1))


def _degrees(m_max: int) -> np.ndarray:
    """The degree m of every coefficient, degree-major: m repeated 2m+1 times."""
    return np.repeat(np.arange(m_max + 1), 2 * np.arange(m_max + 1) + 1)


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


def _legendre_steps(m_max: int, theta):
    """Yield Q[m, k] = sqrt((2m+1)(m-k)!/(m+k)!) P_m^k(cos theta), k = 0..m
    (no Condon-Shortley phase), shape (m+1, n), for m = 0..m_max in turn:
    sectoral Q[m, m] from Q[m-1, m-1], the orders k < m from degrees m-1 and
    m-2.  The scaling keeps every entry O(sqrt(2m+1)), stable far beyond
    m = 200.  The recurrence coefficients of all degrees are taken at once,
    (m_max+1)^2 of each kind.  Three buffers rotate: use each degree before
    the next and do not write to it."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    x, s = np.cos(theta), np.sin(theta)
    alpha, beta = np.zeros((2, m_max + 1, m_max + 1))
    m, k = np.tril_indices(m_max + 1, -1)  # orders k < m: degree m - 1
    alpha[m, k] = np.sqrt((4 * m * m - 1) / ((m - k) * (m + k)))
    m, k = np.tril_indices(m_max + 1, -2)  # orders k < m - 1: degree m - 2
    beta[m, k] = np.sqrt((2 * m + 1) * (m - 1 - k) * (m - 1 + k)
                         / ((2 * m - 3) * (m - k) * (m + k)))
    bufs = np.empty((3, m_max + 1, theta.size))
    bufs[0, 0] = 1.0
    prev, cur = bufs[2, :0], bufs[0, :1]
    yield cur
    for m in range(1, m_max + 1):
        q = bufs[m % 3, : m + 1]
        np.multiply(math.sqrt((2 * m + 1) / (2 * m)) * s, cur[m - 1], out=q[m])
        np.multiply(alpha[m, :m, None], x, out=q[:m])
        q[:m] *= cur
        prev *= beta[m, : m - 1, None]
        q[: m - 1] -= prev  # degree m - 2, not read again
        prev, cur = cur, q
        yield q


_TRIG_CHUNK = 512  # points per scratch block of ``_trig`` and per chunk of ``_trig_chunks``


def _trig(m_max: int, phis, out=None, scale=None) -> np.ndarray:
    """Azimuthal factors: column m_max + k holds cos(k phi) for k >= 0 and
    sin(|k| phi) for k < 0, each times the point's scale (if given; written
    to out, if given).

    cos and sin are taken once per point; the orders k = 2..m_max follow by
    angle addition, doubling: orders k+1..min(2k, m_max) come from orders
    1..k and k.  Per chunk of ``_TRIG_CHUNK`` points the orders are built
    in an order-major scratch block with real elementwise products and sums
    only, and scaled there before they are written out point-major, so each
    row is bitwise independent of the other points and of the BLAS thread
    count.  Against the exact values at the given phi the error measured
    about 0.5 m_max eps for m_max <= 256, and the tests hold it below
    m_max eps.
    """
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    trig = np.empty((phis.size, 2 * m_max + 1)) if out is None else out
    trig[:, m_max] = 1.0 if scale is None else scale
    if m_max == 0:
        return trig
    # row j of cos / sin holds order j + 1
    width = min(phis.size, _TRIG_CHUNK)
    cos, sin = np.empty((2, m_max, width))
    tmp = np.empty((m_max // 2, width))  # n = min(k, m_max - k) <= m_max / 2 rows
    for lo in range(0, phis.size, _TRIG_CHUNK):
        phi = phis[lo : lo + _TRIG_CHUNK]
        c, s, t = cos[:, : phi.size], sin[:, : phi.size], tmp[:, : phi.size]
        np.cos(phi, out=c[0])
        np.sin(phi, out=s[0])
        k = 1
        while k < m_max:
            n = min(k, m_max - k)
            new, old = slice(k, k + n), slice(0, n)  # orders k+1..k+n and 1..n
            np.multiply(c[old], c[k - 1], out=c[new])
            c[new] -= np.multiply(s[old], s[k - 1], out=t[:n])
            np.multiply(s[old], c[k - 1], out=s[new])
            s[new] += np.multiply(c[old], s[k - 1], out=t[:n])
            k += n
        if scale is not None:
            c *= scale[lo : lo + phi.size]
            s *= scale[lo : lo + phi.size]
        trig[lo : lo + phi.size, m_max + 1 :] = c.T
        trig[lo : lo + phi.size, :m_max] = s[::-1].T
    return trig


def _degree_rows(m_max: int, m: int, q: np.ndarray, trig_t: np.ndarray, out: np.ndarray):
    """The rows of B^T of degree m, written to out (2m+1, points), from its
    Q[m, 0..m] (order, point) and the order-major azimuthal factors."""
    np.multiply(math.sqrt(2.0), q[:0:-1], out=out[:m])  # sin half: k = -m..-1
    out[m] = q[0]
    np.multiply(math.sqrt(2.0), q[1:], out=out[m + 1 :])  # cos half: k = 1..m
    out *= trig_t[m_max - m : m_max + m + 1]
    return out


def _basis_transpose(m_max: int, steps, trig_t: np.ndarray) -> np.ndarray:
    """B^T, one degree block of rows at a time, from the degrees Q[m, 0..m] (order,
    point) of ``steps`` and the order-major azimuthal factors (rows scale with them)."""
    out = np.empty((num_coeffs(m_max), trig_t.shape[1]))
    for m, (q, rows) in enumerate(zip(steps, np.split(out, np.arange(1, m_max + 1) ** 2))):
        _degree_rows(m_max, m, q, trig_t, rows)
    return out


def _trig_chunks(m_max: int, phis: np.ndarray, ring_of: np.ndarray, sqrt_w=None):
    """Yield (nodes, ring, starts, rows) for the points in chunks of about
    ``_TRIG_CHUNK``, each chunk a run of whole rings: the indices of its
    points grouped by ring (stable, so points stored ring by ring keep their
    order), the ring of each run, the position where each run starts in the
    chunk, and the azimuthal factors ``_trig`` of its points (times sqrt_w,
    if given).  A ring of more than ``_TRIG_CHUNK`` points is a chunk of its
    own.  rows is one buffer, overwritten by the next chunk: use it before."""
    nodes = np.argsort(ring_of, kind="stable")
    counts = np.bincount(ring_of)
    rings = np.flatnonzero(counts)
    bounds = np.concatenate([[0], np.cumsum(counts[rings])])  # where each ring's run starts
    buf = np.empty((min(nodes.size, max(_TRIG_CHUNK, counts.max(initial=0))), 2 * m_max + 1))
    lo = 0  # index into rings
    while lo < rings.size:
        hi = max(lo + 1, int(np.searchsorted(bounds, bounds[lo] + _TRIG_CHUNK, "right")) - 1)
        chunk = nodes[bounds[lo] : bounds[hi]]
        rows = _trig(m_max, phis[chunk], out=buf[: chunk.size],
                     scale=None if sqrt_w is None else sqrt_w[chunk])
        yield chunk, rings[lo:hi], bounds[lo:hi] - bounds[lo], rows
        lo = hi


def _basis_rows(m_max: int, colat, ring_of, phis, sqrt_w) -> np.ndarray:
    """Basis rows times sqrt_w from ring factors: the ring colatitudes, the
    ring of each point, the longitudes and sqrt_w."""
    trig_t = np.ascontiguousarray(_trig(m_max, phis, scale=sqrt_w).T)
    steps = (q[:, ring_of] for q in _legendre_steps(m_max, colat))
    return _basis_transpose(m_max, steps, trig_t).T


def basis_matrix(m_max: int, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Matrix of basis values, rows = points, columns = degree-major indices.

    Order ell = 1..2m+1 of degree m is azimuthal k = ell - 1 - m in -m..m,
    with value sqrt(2) Q[m, |k|] sin(|k| phi) for k < 0, Q[m, 0] for k = 0
    and sqrt(2) Q[m, k] cos(k phi) for k > 0.  Returned as a view of its
    transpose, which is written degree by degree with no table of Q.
    """
    trig_t = np.ascontiguousarray(_trig(m_max, phis).T)
    return _basis_transpose(m_max, _legendre_steps(m_max, thetas), trig_t).T


def _order_sums(m_max: int, steps, coeffs: np.ndarray, rings: int) -> np.ndarray:
    """a[m_max + k, r] = sum_m Q[r, m, |k|] c'[m, k] (c' scaled by sqrt(2) off
    k = 0), summed over the degrees Q[m, 0..m] (order, ring) of ``steps``."""
    a = np.zeros((2 * m_max + 1, rings))
    tmp = np.empty((m_max + 1, rings))
    scaled = math.sqrt(2.0) * coeffs
    for m, (q, cm) in enumerate(zip(steps, np.split(scaled, np.arange(1, m_max + 1) ** 2))):
        cm[m] = coeffs[m * m + m]
        a[m_max : m_max + m + 1] += np.multiply(cm[m:, None], q, out=tmp[: m + 1])  # k = 0..m
        a[m_max - m : m_max] += np.multiply(cm[:m, None], q[:0:-1], out=tmp[:m])  # k = -m..-1
    return a


def _synthesis(m_max: int, colat, ring_of, phis, sqrt_w, coeffs: np.ndarray) -> np.ndarray:
    """Values at the points of ring factors (see ``_basis_rows``; sqrt_w None
    for weight 1): each point sums its ring's ``_order_sums``, stepped from
    the ring colatitudes, times its azimuthal factors, made chunk by chunk
    (``_trig_chunks``); no (points, 2m+1) table is formed.  Only elementwise
    operations and einsum are used, so the values do not depend on the BLAS
    thread count."""
    a = _order_sums(m_max, _legendre_steps(m_max, colat), coeffs, colat.size)
    out = np.empty(ring_of.size)
    for nodes, _, _, rows in _trig_chunks(m_max, phis, ring_of, sqrt_w):
        out[nodes] = np.einsum("nk,nk->n", a.T[ring_of[nodes]], rows)
    return out


def _analysis(m_max: int, colat, ring_of, phis, sqrt_w, v: np.ndarray) -> np.ndarray:
    """Adjoint of ``_synthesis``: sum_j v_j Y(x_j), from the per-ring sums
    a[m_max + k, r] = sum_{j in r} v_j trig[j, k] (each a run of
    ``np.add.reduceat`` over one ring of a ``_trig_chunks`` chunk); each
    degree's ring rows of ``_basis_rows`` are summed over the rings as they
    are made, so no (rings, (m+1)^2) table is formed."""
    a = np.zeros((2 * m_max + 1, colat.size))
    for nodes, ring, starts, rows in _trig_chunks(m_max, phis, ring_of, sqrt_w):
        rows *= v[nodes, None]
        a[:, ring] = np.add.reduceat(rows, starts).T
    buf = np.empty_like(a)
    return np.concatenate([_degree_rows(m_max, m, q, a, buf[: 2 * m + 1]).sum(axis=1)
                           for m, q in enumerate(_legendre_steps(m_max, colat))])


def eval_poly_many(c: CoefficientVector, thetas, phis) -> np.ndarray:
    """Synthesis at many points, without forming the basis matrix:
    ``_synthesis`` over the distinct colatitudes, unweighted, so the memory
    is O(points + chunk * (2m+1)) beyond the order sums."""
    colat, ring_of = np.unique(np.atleast_1d(thetas), return_inverse=True)
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    return _synthesis(c.m_max, colat, ring_of, phis, None, c.coeffs)


def sobolev_weights(m_max: int, sigma: float) -> np.ndarray:
    """Per-coefficient weights (1 + m(m+1))^sigma in the degree-major layout."""
    degrees = _degrees(m_max)
    return (1.0 + degrees * (degrees + 1.0)) ** sigma


def sobolev_norm(c: CoefficientVector, sigma: float) -> float:
    """H^sigma norm: sqrt(sum c_{m,ell}^2 (1 + m(m+1))^sigma); OverflowError if not finite."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf weight times a 0 coefficient
        norm = float(np.sqrt(np.sum(c.coeffs**2 * sobolev_weights(c.m_max, sigma))))
    if not math.isfinite(norm):
        raise OverflowError(f"H^{sigma:g} norm of degree {c.m_max} is beyond the float range")
    return norm


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
    coeffs = np.empty(num_coeffs(m_max))
    for m, block in enumerate(np.split(coeffs, np.arange(1, m_max + 1) ** 2)):
        rng.standard_normal(out=block)
        block /= np.linalg.norm(block)
        block *= (1.0 + m * (m + 1.0)) ** (-sigma / 2 - 0.5)
    c = CoefficientVector(m_max, coeffs)
    if unit_norm:
        c = CoefficientVector(m_max, coeffs / sobolev_norm(c, sigma))
    return c


def coeffs_to_json(c: CoefficientVector) -> dict:
    return {"m_max": c.m_max, "coeffs": [float(v) for v in c.coeffs]}


def coeffs_from_json(obj: dict) -> CoefficientVector:
    return CoefficientVector(int(obj["m_max"]), np.asarray(obj["coeffs"], dtype=float))
