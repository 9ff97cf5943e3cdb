"""Fourier multiplier sequences b_m for convolution filters on the sphere.

A filter h acts on generalized Fourier expansions as multiplication of the
degree-m block by

    b_m = integral of h0(r) * P_m^{a,b}(cos r) / P_m^{a,b}(1) * A(r) dr

over r in [0, pi], where h0 is the radial profile of (the zonal average of)
h and A is the radial density.  The spherical cap has a closed form in terms
of P^{1,1}; the Planck beam and the lunar point spread function are computed
by quadrature.  Decay and lower-bound fits |b_m| <= c (1+m(m+1))^{-gamma/2}
and |b_m| >= c0 (1+m(m+1))^{-zeta/2} are finite-range: they hold for the
stored degrees only, and certificates must quote that range.

Importing this module loads numpy only.  scipy is imported on first use by
``PlanckProfile.evaluate`` (J1) and by ``TabulatedProfile`` (PCHIP), which
``radial_laplacian`` and ``smoothness_bound`` with K = 1 build.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Union

import numpy as np

from .special_functions import (
    JacobiParams,
    QuadratureError,
    _jacobi_steps,
    adaptive_quadrature,
    jacobi_all,
    jacobi_at_one,
    radial_density,
)

__all__ = [
    "CapProfile",
    "PlanckProfile",
    "LunarProfile",
    "TabulatedProfile",
    "RadialProfile",
    "DecayFit",
    "LowerFit",
    "MultiplierFilter",
    "identity_multipliers",
    "cap_multipliers",
    "multipliers_from_profile",
    "profile_l2_norm",
    "fit_decay",
    "fit_lower",
    "smoothness_bound",
    "radial_laplacian",
    "filter_to_json",
    "filter_from_json",
]


@dataclass(frozen=True)
class CapProfile:
    """Indicator of the spherical cap of angular radius theta0 <= pi/2."""

    theta0: float

    def __post_init__(self) -> None:
        if not (0.0 < self.theta0 <= math.pi / 2):
            raise ValueError(f"cap radius must be in (0, pi/2], got {self.theta0}")

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        return (r <= self.theta0).astype(float)

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, self.theta0)

    supports_laplacian = False


@dataclass(frozen=True)
class PlanckProfile:
    """Squared far-field beam of a circular aperture: radius R, wavelength lam0.

    g(theta) = (lam0 J1(z) / (2 R sin(theta/2)))^2 with z = 4 pi R sin(theta/2).
    The apparent 0/0 at theta = 0 is removable: g(0) = (pi lam0)^2, obtained
    from the series J1(z) = z/2 - z^3/16 + ... used below |z| < 1e-4.
    """

    lam0: float
    radius: float

    def __post_init__(self) -> None:
        if self.lam0 <= 0 or self.radius <= 0:
            raise ValueError("planck profile needs lam0 > 0 and radius > 0")

    def evaluate(self, r):
        from scipy.special import j1

        r = np.asarray(r, dtype=float)
        z = 4.0 * math.pi * self.radius * np.sin(r / 2)
        small = np.abs(z) < 1e-4
        zs = np.where(small, 1.0, z)
        ratio = np.where(small, 0.5 - z * z / 16.0, j1(zs) / zs)  # J1(z)/z
        return (2.0 * math.pi * self.lam0 * ratio) ** 2

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, math.pi)

    supports_laplacian = True


@dataclass(frozen=True)
class LunarProfile:
    """Orbital gamma-ray spectrometer beam for a body of radius R (km) seen
    from altitude t (km):

    g(r) = (1 + R^2 r^2 / (2 sigma(t)^2))^(-iota(t) - 1),
    sigma(t) = 0.704 t + 1.39,  iota(t) = -4.87e-4 t + 0.631.
    """

    radius: float
    altitude: float

    def __post_init__(self) -> None:
        if self.radius <= 0 or self.altitude <= 0:
            raise ValueError("lunar profile needs radius > 0 and altitude > 0")

    @property
    def sigma(self) -> float:
        return 0.704 * self.altitude + 1.39

    @property
    def iota(self) -> float:
        return -4.87e-4 * self.altitude + 0.631

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        return (1.0 + self.radius**2 * r**2 / (2.0 * self.sigma**2)) ** (-self.iota - 1.0)

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, math.pi)

    supports_laplacian = True


@dataclass(frozen=True)
class TabulatedProfile:
    """Radial profile known through samples on [0, pi]; monotone cubic pieces."""

    r: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "values", v)
        if r.ndim != 1 or r.size < 4 or v.shape != r.shape:
            raise ValueError("need matching 1-d arrays with at least 4 samples")
        if np.any(np.diff(r) <= 0):
            raise ValueError("abscissae must be strictly increasing")
        if r[0] > 1e-12 or r[-1] < math.pi - 1e-12:
            raise ValueError("abscissae must cover [0, pi]")
        from scipy.interpolate import PchipInterpolator

        object.__setattr__(self, "_interp", PchipInterpolator(r, v, extrapolate=True))

    def evaluate(self, rr):
        return np.asarray(self._interp(np.asarray(rr, dtype=float)), dtype=float)

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, math.pi)

    supports_laplacian = False


RadialProfile = Union[CapProfile, PlanckProfile, LunarProfile, TabulatedProfile]


@dataclass(frozen=True)
class DecayFit:
    """|b_m| <= c (1+m(m+1))^{-gamma/2}, valid for degrees 0..m_max."""

    c: float
    gamma: float
    m_max: int


@dataclass(frozen=True)
class LowerFit:
    """|b_m| >= c0 (1+m(m+1))^{-zeta/2}, valid for degrees 0..m_max."""

    c0: float
    zeta: float
    m_max: int


@dataclass
class MultiplierFilter:
    """Multiplier sequence b_0..b_{m_max} with provenance and optional fits."""

    b: np.ndarray
    provenance: str = "custom"
    decay_fit: Optional[DecayFit] = None
    lower_fit: Optional[LowerFit] = None

    def __post_init__(self) -> None:
        self.b = np.asarray(self.b, dtype=float)
        if self.b.ndim != 1 or self.b.size == 0:
            raise ValueError("b must be a nonempty 1-d sequence")
        bad = np.flatnonzero(~np.isfinite(self.b))
        if bad.size:
            raise ValueError(f"multiplier b_{bad[0]} is not finite: {self.b[bad[0]]}")
        for fit in (self.decay_fit, self.lower_fit):
            if fit is not None and fit.m_max > self.m_max:
                raise ValueError("fit range exceeds stored degrees")
        if self.decay_fit is not None:
            lam = _one_plus_lambda_sq(self.m_max)
            if np.any(np.abs(self.b) > self.decay_fit.c * lam ** (-self.decay_fit.gamma / 2) * (1 + 1e-12)):
                raise ValueError("decay fit violated by stored multipliers")
        if self.lower_fit is not None and self.lower_fit.c0 > 0:
            lam = _one_plus_lambda_sq(self.m_max)
            if np.any(np.abs(self.b) < self.lower_fit.c0 * lam ** (-self.lower_fit.zeta / 2) * (1 - 1e-12)):
                raise ValueError("lower fit violated by stored multipliers")

    @property
    def m_max(self) -> int:
        return self.b.size - 1


def _one_plus_lambda_sq(m_max: int) -> np.ndarray:
    m = np.arange(m_max + 1, dtype=float)
    return 1.0 + m * (m + 1.0)


def identity_multipliers(m_max: int) -> MultiplierFilter:
    """b_m = 1 for every m: F is the identity."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    return MultiplierFilter(np.ones(m_max + 1), provenance="identity")


def cap_multipliers(theta0: float, m_max: int) -> MultiplierFilter:
    """Closed-form multipliers of the spherical-cap indicator.

    b_0 = (1 - cos theta0)/2 and, for m >= 1,
    b_m = (1/m) P_{m-1}^{1,1}(cos theta0) sin^2(theta0/2) cos^2(theta0/2).
    """
    if not (0.0 < theta0 <= math.pi / 2):
        raise ValueError(f"cap radius must be in (0, pi/2], got {theta0}")
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    b = np.empty(m_max + 1)
    b[0] = (1.0 - math.cos(theta0)) / 2.0
    if m_max >= 1:
        p11 = jacobi_all(m_max - 1, JacobiParams(1.0, 1.0), math.cos(theta0))
        scale = math.sin(theta0 / 2) ** 2 * math.cos(theta0 / 2) ** 2
        b[1:] = p11 / np.arange(1, m_max + 1) * scale
    return MultiplierFilter(b, provenance="closed_form_cap")


def multipliers_from_profile(
    profile: RadialProfile,
    params: JacobiParams = JacobiParams.sphere(2),
    m_max: int = 0,
    tol: float = 1e-10,
) -> MultiplierFilter:
    """Multipliers of a radial profile by one adaptive quadrature for all degrees.

    Each pass of the rule steps the Jacobi recurrence at its points and sums
    w P_n h0(r) A(r) (einsum, not BLAS) as each P_n is made.  The rule
    starts from 4 m_max panels over the profile support (the top Jacobi
    polynomial oscillates ~m_max times on [0, pi]) and doubles until every
    degree has converged to within ``tol``.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    lo, hi = profile.support
    norm = np.array([jacobi_at_one(m, params) for m in range(m_max + 1)])

    def integrand(r, w):
        wg = w * (profile.evaluate(r) * radial_density(r, params))
        return [np.einsum("i,i->", wg, p) for p in _jacobi_steps(m_max, params, np.cos(r))]

    try:
        # the tolerance applies to b_m = integral / P_m(1); norm[0] = 1
        b = adaptive_quadrature(
            integrand, lo, hi, tol=tol * norm.min(), base_panels=max(8, 4 * m_max)
        ) / norm
    except QuadratureError as exc:
        raise QuadratureError(f"quadrature for b_0..b_{m_max} failed: {exc}") from exc
    return MultiplierFilter(b, provenance="quadrature")


def profile_l2_norm(
    profile: RadialProfile, params: JacobiParams = JacobiParams.sphere(2)
) -> float:
    """L2(mu) norm of the zonal function with the given radial profile."""
    return math.sqrt(adaptive_quadrature(
        lambda r, w: np.einsum("i,i->", w, profile.evaluate(r) ** 2 * radial_density(r, params)),
        *profile.support, tol=1e-10, base_panels=32))


def fit_decay(filt: MultiplierFilter, gamma: float) -> float:
    """Smallest c with |b_m| <= c (1+m(m+1))^{-gamma/2} over the stored range.

    The filter is left unchanged; attach the fit with
    ``dataclasses.replace(filt, decay_fit=DecayFit(c, gamma, filt.m_max))``.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    lam = _one_plus_lambda_sq(filt.m_max)
    return float(np.max(np.abs(filt.b) * lam ** (gamma / 2)))


def fit_lower(filt: MultiplierFilter, zeta: float) -> float:
    """Largest c0 with |b_m| >= c0 (1+m(m+1))^{-zeta/2} over the stored range.

    Returns 0 when some stored multiplier vanishes.  The filter is left
    unchanged, as by ``fit_decay``.
    """
    if zeta < 0:
        raise ValueError("zeta must be >= 0")
    if np.any(filt.b == 0.0):
        return 0.0
    lam = _one_plus_lambda_sq(filt.m_max)
    return float(np.min(np.abs(filt.b) * lam ** (zeta / 2)))


def radial_laplacian(profile: RadialProfile) -> TabulatedProfile:
    """Radial Laplace-Beltrami of a smooth profile: (1/A) (A g')' tabulated
    on 8193 uniform points of [0, pi].

    Derivatives use fourth-order stencils (one-sided near the ends); the
    endpoint values are quadratic extrapolations, since the cotangent factor
    in (1/A)(A g')' = g'' + (A'/A) g' is singular there.
    """
    if not getattr(profile, "supports_laplacian", False):
        raise ValueError("radial laplacian needs a smooth built-in profile")
    r = np.linspace(0.0, math.pi, 8193)
    h = r[1] - r[0]
    g = profile.evaluate(r)
    d1 = _stencil_derivative(g, h, order=1)
    d2 = _stencil_derivative(g, h, order=2)
    interior = slice(1, -1)
    half = np.tan(r[interior] / 2)
    ratio = 0.5 / half - 0.5 * half  # A'/A on S^2: cot(r/2) / 2 - tan(r/2) / 2
    lap = np.empty_like(g)
    lap[interior] = d2[interior] + ratio * d1[interior]
    lap[0] = 3 * lap[1] - 3 * lap[2] + lap[3]
    lap[-1] = 3 * lap[-2] - 3 * lap[-3] + lap[-4]
    return TabulatedProfile(r=r, values=lap)


def _stencil_derivative(g: np.ndarray, h: float, order: int) -> np.ndarray:
    """Fourth-order first or second derivative on a uniform grid."""
    n = g.size
    out = np.empty(n)
    if order == 1:
        out[2:-2] = (g[:-4] - 8 * g[1:-3] + 8 * g[3:-1] - g[4:]) / (12 * h)
        fwd = np.array([-25, 48, -36, 16, -3]) / (12 * h)
        for i in (0, 1):
            out[i] = fwd @ g[i : i + 5]
        for i in (n - 2, n - 1):
            out[i] = -(fwd @ g[i - 4 : i + 1][::-1])
    elif order == 2:
        out[2:-2] = (-g[:-4] + 16 * g[1:-3] - 30 * g[2:-2] + 16 * g[3:-1] - g[4:]) / (
            12 * h * h
        )
        fwd = np.array([45, -154, 214, -156, 61, -10]) / (12 * h * h)
        for i in (0, 1):
            out[i] = fwd @ g[i : i + 6]
        for i in (n - 2, n - 1):
            out[i] = fwd @ g[i - 5 : i + 1][::-1]
    else:
        raise ValueError("order must be 1 or 2")
    return out


def smoothness_bound(profile: RadialProfile, K: int, m: int) -> float:
    """Upper bound 2^K ||Delta^K h||_2 / (1+m(m+1))^{(4K+1)/4} on |b_m|, K = 0 or 1.

    K = 1 takes ``radial_laplacian`` of a smooth built-in profile; its tabulated
    result is not smooth enough to take again, so K >= 2 is rejected.
    """
    if K not in (0, 1):
        raise ValueError(f"smoothness bound needs K = 0 or 1, got K = {K}")
    if m < 0:
        raise ValueError("m must be >= 0")
    norm = profile_l2_norm(profile if K == 0 else radial_laplacian(profile))
    return float(2.0**K * norm / (1.0 + m * (m + 1.0)) ** ((4 * K + 1) / 4.0))


def filter_to_json(filt: MultiplierFilter) -> dict:
    return {**asdict(filt), "b": filt.b.tolist(), "m_max": filt.m_max}


def filter_from_json(obj: dict) -> MultiplierFilter:
    b = np.asarray(obj["b"], dtype=float)
    if len(b) != int(obj["m_max"]) + 1:
        raise ValueError("filter JSON: m_max inconsistent with b length")
    decay = obj.get("decay_fit")
    lower = obj.get("lower_fit")
    return MultiplierFilter(
        b,
        provenance=str(obj.get("provenance", "custom")),
        decay_fit=DecayFit(decay["c"], decay["gamma"], int(decay["m_max"])) if decay else None,
        lower_fit=LowerFit(lower["c0"], lower["zeta"], int(lower["m_max"])) if lower else None,
    )
