"""Jacobi polynomials, eigenspace dimensions, radial densities and quadrature.

Everything here is parameterized by a Jacobi pair (a, b).  On the
two-dimensional sphere a = b = 0 and the Jacobi polynomials reduce to the
Legendre polynomials; other admissible pairs (half-integers >= -1/2) cover
the remaining compact two-point homogeneous spaces, so the multiplier
computations built on top of this module stay general.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "JacobiParams",
    "QuadratureError",
    "jacobi",
    "jacobi_all",
    "jacobi_at_one",
    "delta_m",
    "lambda_sq",
    "radial_density",
    "adaptive_quadrature",
]


@dataclass(frozen=True)
class JacobiParams:
    """Jacobi parameter pair (a, b), both >= -1/2."""

    a: float = 0.0
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.a < -0.5 or self.b < -0.5:
            raise ValueError(f"Jacobi parameters must be >= -1/2, got ({self.a}, {self.b})")

    @staticmethod
    def sphere(d: int = 2) -> "JacobiParams":
        """Parameters of the d-dimensional sphere: a = b = (d-2)/2."""
        if d < 1:
            raise ValueError("sphere dimension must be >= 1")
        return JacobiParams((d - 2) / 2, (d - 2) / 2)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def jacobi_all(m_max: int, params: JacobiParams, x):
    """All Jacobi polynomial values P_0^{a,b}(x) .. P_{m_max}^{a,b}(x).

    Three-term recurrence in the degree; stable on [-1, 1].  ``x`` may be a
    scalar or an ndarray; the result has shape (m_max+1,) + shape(x).
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    a, b = params.a, params.b
    x = np.asarray(x, dtype=float)
    out = np.empty((m_max + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if m_max == 0:
        return out
    out[1] = 0.5 * (a + b + 2) * x + 0.5 * (a - b)
    for n in range(1, m_max):
        # 2(n+1)(n+a+b+1)(2n+a+b) P_{n+1} =
        #   (2n+a+b+1)[(2n+a+b+2)(2n+a+b) x + a^2-b^2] P_n
        #   - 2(n+a)(n+b)(2n+a+b+2) P_{n-1}
        c = 2 * n + a + b
        a1 = 2 * (n + 1) * (n + a + b + 1) * c
        a2 = (c + 1) * (a * a - b * b)
        a3 = (c + 1) * (c + 2) * c
        a4 = 2 * (n + a) * (n + b) * (c + 2)
        out[n + 1] = ((a2 + a3 * x) * out[n] - a4 * out[n - 1]) / a1
    return out


def jacobi(m: int, params: JacobiParams, x):
    """Jacobi polynomial P_m^{a,b}(x) by the three-term recurrence."""
    return jacobi_all(m, params, x)[m]


def jacobi_at_one(m: int, params: JacobiParams) -> float:
    """P_m^{a,b}(1) = Gamma(m+a+1) / (Gamma(m+1) Gamma(a+1)), via log-gamma."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    a = params.a
    return float(np.exp(math.lgamma(m + a + 1) - math.lgamma(m + 1) - math.lgamma(a + 1)))


def lambda_sq(m: int, params: JacobiParams) -> float:
    """Laplace-Beltrami eigenvalue m(m + a + b + 1) for degree m."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    return float(m * (m + params.a + params.b + 1))


def delta_m(m: int, params: JacobiParams) -> float:
    """Dimension of the degree-m eigenspace.

    delta_m = (2m+a+b+1) * G(b+1)/(G(a+1)G(a+b+2))
              * G(m+a+b+1)/G(m+b+1) * G(m+a+1)/G(m+1),
    with the m = 0 convention (2m+a+b+1)G(m+a+b+1) -> G(a+b+2), which gives
    delta_0 = 1.  On S^2 this reduces to 2m+1.
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    a, b = params.a, params.b
    if m == 0:
        return 1.0
    log = (
        math.lgamma(b + 1)
        - math.lgamma(a + 1)
        - math.lgamma(a + b + 2)
        + math.lgamma(m + a + b + 1)
        - math.lgamma(m + b + 1)
        + math.lgamma(m + a + 1)
        - math.lgamma(m + 1)
    )
    return float((2 * m + a + b + 1) * np.exp(log))


def radial_density(r, params: JacobiParams):
    """Density A(r) of the distance-to-pole distribution on [0, pi].

    A(r) = c(a,b) sin(r/2)^{2a+1} cos(r/2)^{2b+1} with
    c(a,b) = Gamma(a+b+2) / (Gamma(a+1) Gamma(b+1)), normalized so that
    the integral of A over [0, pi] is 1.  On S^2, A(r) = sin(r)/2.
    """
    a, b = params.a, params.b
    r = np.asarray(r, dtype=float)
    c = np.exp(math.lgamma(a + b + 2) - math.lgamma(a + 1) - math.lgamma(b + 1))
    return c * np.sin(r / 2) ** (2 * a + 1) * np.cos(r / 2) ** (2 * b + 1)


# Gauss-Legendre panel rule used by the adaptive quadrature.
_GL_ORDER = 12
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
# Values per integrand call: a vector integrand's (k, points) table is
# evaluated over chunks of panels that hold at most about this many values.
_CHUNK_VALUES = 1 << 22


def _composite_gl(f: Callable, lo: float, hi: float, panels: int) -> float | np.ndarray:
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    # points shaped (panels, order); a vector integrand returns (k, points)
    # and yields k integrals.  A first chunk of 4 panels tells k, which sizes
    # the rest; the per-panel sums are summed once at the end.  Chunks start
    # at multiples of 4 panels, where the BLAS matrix-vector kernel starts
    # its groups of rows, so the sums match a single call's bit for bit.
    pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    sums, start, step = [], 0, 4
    while start < panels:
        chunk = pts[start : start + step]
        vals = f(chunk.ravel())
        vals = vals.reshape(vals.shape[:-1] + chunk.shape)
        sums.append(vals @ _GL_WEIGHTS * half[start : start + step])
        start += step
        step = max(4, _CHUNK_VALUES * chunk.shape[0] // vals.size // 4 * 4)
        del vals  # before the next call allocates its table
    total = np.sum(np.concatenate(sums, axis=-1), axis=-1)
    return float(total) if total.ndim == 0 else total


def adaptive_quadrature(
    f: Callable,
    lo: float,
    hi: float,
    tol: float = 1e-12,
    base_panels: int = 8,
    max_panels: int = 1 << 18,
) -> float | np.ndarray:
    """Integrate a vectorized integrand on [lo, hi] to absolute tolerance.

    Composite Gauss-Legendre with panel doubling: the panel count doubles
    until two successive composite values agree within ``tol``.  An integrand
    returning shape (k, points) integrates k functions on one rule; it
    returns a (k,) array, and every component must agree within ``tol``.  A
    scalar integrand returns a float.  Raises QuadratureError if the panel
    budget is exhausted first.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if hi <= lo:
        return 0.0
    panels = max(1, base_panels)
    prev = _composite_gl(f, lo, hi, panels)
    while panels <= max_panels:
        panels *= 2
        cur = _composite_gl(f, lo, hi, panels)
        if np.max(np.abs(cur - prev)) < tol:
            return cur
        prev = cur
    raise QuadratureError(
        f"quadrature did not reach tol={tol:g} within {max_panels} panels on [{lo:g}, {hi:g}]"
    )
