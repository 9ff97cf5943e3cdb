"""Jacobi polynomials, radial densities and quadrature.

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
    "jacobi_all",
    "jacobi_at_one",
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


def _jacobi_coefficients(m_max: int, params: JacobiParams):
    """Yield (a1, a2, a3, a4) of the three-term recurrence for n = 1..m_max-1:
    a1 P_{n+1} = (a3 x + a2) P_n - a4 P_{n-1}."""
    a, b = params.a, params.b
    for n in range(1, m_max):
        # 2(n+1)(n+a+b+1)(2n+a+b) P_{n+1} =
        #   (2n+a+b+1)[(2n+a+b+2)(2n+a+b) x + a^2-b^2] P_n
        #   - 2(n+a)(n+b)(2n+a+b+2) P_{n-1}
        c = 2 * n + a + b
        yield (2 * (n + 1) * (n + a + b + 1) * c, (c + 1) * (a * a - b * b),
               (c + 1) * (c + 2) * c, 2 * (n + a) * (n + b) * (c + 2))


def _jacobi_steps(m_max: int, params: JacobiParams, x):
    """Yield P_0^{a,b}(x) .. P_{m_max}^{a,b}(x) in turn by the three-term
    recurrence, stable on [-1, 1].  Three buffers rotate: use each degree
    before the next and do not write to it."""
    a, b = params.a, params.b
    x = np.asarray(x, dtype=float)
    prev, cur, new = np.ones(x.shape), np.empty(x.shape), np.empty(x.shape)
    yield prev
    if m_max == 0:
        return
    np.add(0.5 * (a + b + 2) * x, 0.5 * (a - b), out=cur)
    yield cur
    for a1, a2, a3, a4 in _jacobi_coefficients(m_max, params):
        np.multiply(a3, x, out=new)
        new += a2
        new *= cur
        prev *= a4  # P_{n-1} is not read again
        new -= prev
        new /= a1
        prev, cur, new = cur, new, prev
        yield cur


def jacobi_all(m_max: int, params: JacobiParams, x):
    """All Jacobi polynomial values P_0^{a,b}(x) .. P_{m_max}^{a,b}(x) (``_jacobi_steps``).

    ``x`` may be a scalar or an ndarray; the result has shape (m_max+1,) + shape(x).
    A scalar x is stepped in Python floats, with the same operations.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if np.ndim(x) > 0:
        return np.array([p.copy() for p in _jacobi_steps(m_max, params, x)])
    a, b, x = params.a, params.b, float(x)
    p = [1.0, 0.5 * (a + b + 2) * x + 0.5 * (a - b)]
    for a1, a2, a3, a4 in _jacobi_coefficients(m_max, params):
        p.append(((a3 * x + a2) * p[-1] - p[-2] * a4) / a1)
    return np.array(p[: m_max + 1])


def jacobi_at_one(m: int, params: JacobiParams) -> float:
    """P_m^{a,b}(1) = Gamma(m+a+1) / (Gamma(m+1) Gamma(a+1)), via log-gamma."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    a = params.a
    return float(np.exp(math.lgamma(m + a + 1) - math.lgamma(m + 1) - math.lgamma(a + 1)))


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


def _composite_gl(f: Callable, lo: float, hi: float, panels: int) -> float | np.ndarray:
    """The composite rule of ``panels`` equal panels: f(points, weights)
    over all its points at once, each weight with its panel's half width."""
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    weights = (half[:, None] * _GL_WEIGHTS).ravel()
    total = f((mid[:, None] + half[:, None] * _GL_NODES).ravel(), weights)
    return float(total) if np.ndim(total) == 0 else np.asarray(total, dtype=float)


def adaptive_quadrature(
    f: Callable,
    lo: float,
    hi: float,
    tol: float = 1e-12,
    base_panels: int = 8,
    max_panels: int = 1 << 18,
) -> float | np.ndarray:
    """Integrate on [lo, hi] to absolute tolerance.

    Composite Gauss-Legendre with panel doubling: the panel count doubles
    until two successive composite values agree within ``tol``.  The
    integrand f(x, w) takes the rule's points and weights and returns
    sum_i w_i g(x_i): a scalar (returned as a float) or k sums for k
    functions (a (k,) array, every component agreeing within ``tol``).
    Raises QuadratureError if the panel budget is exhausted first.
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
