"""Frame-constant verification and a-priori error certificates.

A sampling family is Marcinkiewicz-Zygmund for degree m when the weighted
sum of squared samples of every polynomial of degree <= m stays between
A ||q||^2 and B ||q||^2 with 0 < A <= 1 <= B.  Those extreme ratios are the
extreme eigenvalues of the Gram matrix G = B_w^T B_w of the weighted sampling
matrix B_w, taken from the blocks the sampling operator holds G in (the
operator computes them once and keeps them).  On the dense path G is one
block and they are the extremes of its dense eigensolve.  On the ring path G
is held as four classes, cosine or sine side times the parity of n - |k|,
built from the ring factors (the ring colatitudes, the ring of each node,
phi and sqrt(tau)); each class splits into order blocks, one per order |k|,
coupled only through the aliasing rings of at most 2m nodes.  By the block
Gershgorin theorem (Feingold & Varga, "Block diagonally dominant matrices
and generalizations of the Gerschgorin circle theorem", Pacific J. Math.
12, 1962) the spectrum lies in [min_i (lambda_min(G_ii) - R_i),
max_i (lambda_max(G_ii) + R_i)], R_i the sum of the Frobenius norms of the
order block's couplings; that enclosure is taken where it widens the
extremes of the order blocks by at most eps N trace G, and the extremes of
the dense eigensolves of the four classes elsewhere.  The reported A and B
are widened by
delta = eps * (N trace G + (m+1)^2 lambda_max) + remainder + off-block, eps
the machine epsilon.  The first term bounds the rounding error of forming G,
each entry a sum of at most N products whichever way the rings and rows are
grouped, and of the eigensolves; remainder sums over the rings the
Frobenius norm of the trig Gram entries off the ring's aliasing pattern,
weighted by the Legendre column norms, that the order pairs leave out;
off-block bounds the spectral norm of the entries between the parity
classes: the larger Frobenius norm of the blocks between the two parities
of one side (the rings couple no cosine and sine column).  Both are 0 on
the dense path.  By Weyl's inequality [A, B] encloses
the extreme squared singular values of B_w, so epsilon never understates
them.  From epsilon = max(1-A, B-1), the multiplier decay fit, the
smoothness exponents and the noise level, ``bound_apriori`` assembles the
two-term upper bound on the reconstruction error, and ``verify_bound``
compares it against measured errors on synthetic runs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .filters import MultiplierFilter
from .forward import apply_multiplier
from .harmonics import CoefficientVector, embed, num_coeffs, sobolev_norm
from .reconstruct import _operator
from .sphere_geometry import EqualAreaPartition, MzFamily, build_partition, pick_nodes

__all__ = [
    "MzConstants",
    "Certificate",
    "VerificationReport",
    "mz_constants",
    "find_family_size",
    "phi_tail",
    "bound_apriori",
    "choose_degree",
    "predicted_rate_exponent",
    "verify_bound",
    "certificate_to_json",
]


@dataclass(frozen=True)
class MzConstants:
    """Measured frame constants for one (family, degree) pair."""

    A: float
    B: float
    epsilon: float
    degree: int
    node_count: int


def mz_constants(fam: MzFamily, m: int) -> MzConstants:
    """Extreme eigenvalues of the Gram matrix of [sqrt(tau_j) Y_k(x_j)], degrees <= m.

    The sampled energy ratio sum_j tau_j |q(x_j)|^2 / ||q||_2^2 ranges exactly
    over [A, B] as q runs over the nonzero polynomials of degree <= m; the
    computed range is the extremes of G's dense eigensolve, or on the ring
    path the block Gershgorin enclosure of its order blocks (Feingold &
    Varga, 1962) where that margin stays within eps N trace G and the
    extremes of its four class blocks elsewhere.  The reported A and B
    enclose that range by the margin delta of the module docstring
    (rounding, ring remainders and the entries between the parity classes
    of G).
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    dim = num_coeffs(m)
    if len(fam.nodes) < dim:
        raise ValueError(
            f"need at least {dim} nodes to certify degree {m}, got {len(fam.nodes)}"
        )
    op = _operator(fam, m)
    lam = op.lam
    trace = sum(np.trace(g) for _, g in op.blocks)
    delta = np.finfo(float).eps * (len(fam.nodes) * trace + dim * lam[-1]) + op.slack
    a, b = float(lam[0] - delta), float(lam[-1] + delta)
    return MzConstants(
        A=a, B=b, epsilon=max(1.0 - a, b - 1.0), degree=m, node_count=len(fam.nodes)
    )


_MAX_DOUBLINGS = 16


def find_family_size(
    m: int,
    eps_target: float = 0.5,
    rule: str = "area_center",
    seed: Optional[int] = None,
    start_n: Optional[int] = None,
) -> tuple[EqualAreaPartition, MzFamily, MzConstants, list]:
    """Double the partition size until the measured epsilon meets the target,
    at most ``_MAX_DOUBLINGS`` times.

    The needed size exists but its constant is not known a priori, so the
    search is empirical.  Returns the partition, the family, its measured
    constants, and the (N, epsilon) search history.
    """
    if not (0 < eps_target < 1):
        raise ValueError("eps_target must be in (0, 1)")
    n = max(50, num_coeffs(m)) if start_n is None else max(50, start_n)
    history = []
    for _ in range(_MAX_DOUBLINGS + 1):
        partition = build_partition(n)
        fam = pick_nodes(partition, rule=rule, seed=seed)
        const = mz_constants(fam, m)
        history.append((n, const.epsilon))
        if const.epsilon <= eps_target:
            return partition, fam, const, history
        n *= 2
    raise RuntimeError(
        f"epsilon target {eps_target} not reached for degree {m} within "
        f"{_MAX_DOUBLINGS} doublings (last: N={history[-1][0]}, eps={history[-1][1]:.3g})"
    )


_EXACT_SUM_CHUNK = 1 << 16
_EXACT_SUM_DIRECT_LIMIT = 1 << 21


def _tail_integral(s: float, n: float) -> float:
    """Exact integral of (2x+1)(1+x(x+1))^{-s} over [n, infinity)."""
    return (1.0 + n * (n + 1.0)) ** (1.0 - s) / (s - 1.0)


def phi_tail(s: float, m: int, mode: str = "closed_bound") -> float:
    """Squared high-degree remainder sup_x sum_{n>m} |Y_n(x)|^2 (1+n(n+1))^{-s}.

    On the sphere the inner sum collapses to (2n+1)(1+n(n+1))^{-s}.
    mode "closed_bound" returns the integral majorant
    (1/(s-1)) (1+m(m+1))^{-(s-1)}; mode "exact_sum" sums the series until the
    integral-bounded remainder drops below 1e-14, finishing with an
    Euler-Maclaurin tail when s is so close to 1 that direct summation
    cannot get there.  exact_sum <= closed_bound always.
    """
    if s <= 1:
        raise ValueError(f"remainder sum diverges for s <= 1, got s={s}")
    if m < 0:
        raise ValueError("degree must be >= 0")
    if mode == "closed_bound":
        return _tail_integral(s, float(m))
    if mode != "exact_sum":
        raise ValueError(f"unknown mode {mode!r}")
    total = 0.0
    n = m + 1
    while _tail_integral(s, float(n - 1)) >= 1e-14:
        hi = n + _EXACT_SUM_CHUNK
        k = np.arange(n, hi, dtype=float)
        total += float(np.sum((2 * k + 1) * (1 + k * (k + 1)) ** (-s)))
        n = hi
        if n - m > _EXACT_SUM_DIRECT_LIMIT:
            # Euler-Maclaurin completion: sum_{k>=n} f(k) =
            # int_n^inf f + f(n)/2 - f'(n)/12 + O(f'''(n)), all negligible
            # against 1e-14 at this point.
            x = float(n)
            u = 1 + x * (x + 1)
            f = (2 * x + 1) * u ** (-s)
            fp = 2 * u ** (-s) - s * (2 * x + 1) ** 2 * u ** (-s - 1)
            total += _tail_integral(s, x) + 0.5 * f - fp / 12.0
            break
    return total


@dataclass(frozen=True)
class Certificate:
    """A-priori reconstruction error bound and every input that produced it.

    bound_Hzeta = term_approx + term_noise bounds the measurement-space error
    ||F f - F p||_{H^zeta}; bound_L2 (present only when the multipliers admit
    a positive lower fit with zeta >= gamma) bounds ||f - p||_2.
    """

    omega: float
    gamma: float
    sigma: float
    zeta: float
    m: int
    beta: float
    epsilon: float
    kappa: float
    norm_f_sigma: float
    norm_route: str
    c: Optional[float]
    c0: Optional[float]
    fit_m_max: Optional[int]
    range_limited: bool
    term_approx: float
    term_noise: float
    bound_Hzeta: float
    bound_L2: Optional[float]


def bound_apriori(
    m: int,
    beta: float,
    epsilon: float,
    omega: float,
    gamma: float,
    zeta: float = 0.0,
    norm_f_sigma: Optional[float] = None,
    norm_f_omega: Optional[float] = None,
    c: Optional[float] = None,
    c0: Optional[float] = None,
    fit_m_max: Optional[int] = None,
) -> Certificate:
    """Assemble the two-term certificate for degree m and noise level beta.

    term_approx = sqrt((1+kappa)/(sigma-zeta-1)) * ||Ff||_{H^sigma}
                  * (1+lambda_m^2)^{-(sigma-zeta)/2 + 1/2}
    term_noise  = sqrt(kappa) * beta * (1+lambda_m^2)^{zeta/2}

    with kappa = (1+epsilon)/(1-epsilon) and lambda_m^2 = m(m+1), the
    Laplacian eigenvalue of S^2 (dimension d = 2, the only manifold the
    basis and the partition cover).  ||Ff||_{H^sigma} is taken exactly
    when given, otherwise through the operator route c * ||f||_{H^omega}.
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    if beta < 0:
        raise ValueError("hypothesis violated: beta >= 0")
    if min(omega, gamma, zeta) < 0:
        raise ValueError("hypothesis violated: omega, gamma, zeta >= 0")
    sigma = omega + gamma
    if not sigma - zeta > 1:
        raise ValueError(f"hypothesis violated: sigma - zeta > d/2 = 1 (got {sigma - zeta})")
    if not 0 <= epsilon < 1:
        raise ValueError(f"hypothesis violated: 0 <= epsilon < 1 (got {epsilon})")
    if norm_f_sigma is not None:
        route = "exact"
    elif c is not None and norm_f_omega is not None:
        norm_f_sigma = c * norm_f_omega
        route = "operator"
    else:
        raise ValueError("need norm_f_sigma, or c together with norm_f_omega")
    kappa = (1.0 + epsilon) / (1.0 - epsilon)
    lam = 1.0 + m * (m + 1.0)
    term_approx = (
        math.sqrt((1.0 + kappa) / (sigma - zeta - 1.0))
        * norm_f_sigma
        * lam ** (-(sigma - zeta) / 2.0 + 0.5)
    )
    term_noise = math.sqrt(kappa) * beta * lam ** (zeta / 2.0)
    bound_hzeta = term_approx + term_noise
    bound_l2 = None
    if c0 is not None and c0 > 0 and zeta >= gamma:
        bound_l2 = bound_hzeta / c0
    if not (math.isfinite(bound_hzeta) and math.isfinite(bound_l2 or 0.0)):
        raise OverflowError(f"bound_Hzeta {bound_hzeta} or bound_L2 {bound_l2} overflows a float")
    range_limited = fit_m_max is not None and m > fit_m_max
    return Certificate(
        omega=omega,
        gamma=gamma,
        sigma=sigma,
        zeta=zeta,
        m=m,
        beta=beta,
        epsilon=epsilon,
        kappa=kappa,
        norm_f_sigma=float(norm_f_sigma),
        norm_route=route,
        c=c,
        c0=c0,
        fit_m_max=fit_m_max,
        range_limited=range_limited,
        term_approx=term_approx,
        term_noise=term_noise,
        bound_Hzeta=bound_hzeta,
        bound_L2=bound_l2,
    )


def choose_degree(beta: float, omega: float, gamma: float) -> int:
    """Degree balancing the two certificate terms: ceil(beta^{-1/(omega+gamma-1)})."""
    expo = omega + gamma - 1.0
    if expo <= 0:
        raise ValueError(f"need omega + gamma - d/2 > 0 (d = 2), got {expo}")
    if beta <= 0:
        raise ValueError("beta must be positive")
    v = beta ** (-1.0 / expo)
    # shave representation error so exact-integer powers are not rounded up
    return max(1, math.ceil(v - 1e-12 * max(1.0, v)))


def predicted_rate_exponent(omega: float, gamma: float, zeta: float = 0.0) -> float:
    """Exponent of the noise level in the balanced-degree error: 1 - zeta/(omega+gamma-1)."""
    expo = omega + gamma - 1.0
    if expo <= 0:
        raise ValueError(f"need omega + gamma - d/2 > 0 (d = 2), got {expo}")
    return 1.0 - zeta / expo


@dataclass(frozen=True)
class VerificationReport:
    """Measured errors of a synthetic run against the certificate bounds."""

    measured_Hzeta: float
    measured_L2: float
    bound_Hzeta: float
    bound_L2: Optional[float]
    pass_Hzeta: bool
    pass_L2: Optional[bool]

    @property
    def passed(self) -> bool:
        return self.pass_Hzeta and (self.pass_L2 is not False)


def verify_bound(
    truth: CoefficientVector,
    filt: MultiplierFilter,
    solution: CoefficientVector,
    cert: Certificate,
) -> VerificationReport:
    """Compare measured reconstruction errors to the certificate."""
    m_big = max(truth.m_max, solution.m_max)
    if filt.m_max < m_big:
        raise ValueError("filter too short to evaluate the measured errors")
    diff = CoefficientVector(
        m_big, embed(truth, m_big).coeffs - embed(solution, m_big).coeffs
    )
    measured_hzeta = sobolev_norm(apply_multiplier(filt, diff), cert.zeta)
    measured_l2 = diff.l2_norm()
    pass_h = measured_hzeta <= cert.bound_Hzeta
    pass_l2 = None if cert.bound_L2 is None else measured_l2 <= cert.bound_L2
    return VerificationReport(
        measured_Hzeta=measured_hzeta,
        measured_L2=measured_l2,
        bound_Hzeta=cert.bound_Hzeta,
        bound_L2=cert.bound_L2,
        pass_Hzeta=pass_h,
        pass_L2=pass_l2,
    )


def certificate_to_json(
    cert: Certificate, verification: Optional[VerificationReport] = None
) -> dict:
    obj = {**asdict(cert), "verification": None}
    if verification is not None:
        obj["verification"] = {
            "measured_Hzeta": verification.measured_Hzeta,
            "measured_L2": verification.measured_L2,
            "pass_Hzeta": verification.pass_Hzeta,
            "pass_L2": verification.pass_L2,
            "passed": verification.passed,
        }
    return obj
