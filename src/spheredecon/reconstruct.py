"""Weighted least-squares reconstruction from the Gram matrix of the samples.

The estimator minimizes sum_j |y_j - (Fp)(x_j)|^2 tau_j over diffusion
polynomials p of degree <= m.  Only degrees with b_m != 0 enter (the filter
annihilates the rest); their coefficients are returned as zero, which makes
the solution the minimum-norm minimizer.

F is diagonal in the harmonic basis, so the filtered fit is the fit d of the
*unfiltered* weighted system B_w d ~ sqrt(tau) y on the active degrees,
followed by c = d / b.  Its normal equations G d = B_w^T sqrt(tau) y, with
G = B_w^T B_w of size (m+1)^2, are safe because G does not see the filter:
cond G <= (1+eps)/(1-eps) for an MZ family, far from squaring the
ill-conditioning that the multipliers add.  The singular values of the
filtered matrix come from eigenvalues of D G D (large ones) and of
D^{-1} G^{-1} D^{-1} (small ones), D = diag(b), each where it is accurate.

B_w, G and the eigenvalues of G are the sampling operator of one (family,
degree) pair.  ``_operator`` builds them once and keeps them on the family,
so the frame constants (certify.mz_constants), the solve and the design
matrix of that pair share one basis build and one eigensolve.

The SVD pseudoinverse of the filtered matrix, with relative cutoff 1e-12,
runs instead when G is singular to half the working precision or when the
multipliers spread so widely that the cutoff could drop a direction; only
then can its minimum-norm answer differ from d / b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import MultiplierFilter, identity_multipliers
from .harmonics import CoefficientVector, basis_matrix, num_coeffs
from .sphere_geometry import MzFamily, nodes_to_arrays

__all__ = ["LsqReport", "design_matrix", "lsq_solve", "reconstruct_direct", "solution_to_json"]

_SVD_RCOND = 1e-12
# The normal equations lose about eps * cond G: beyond 1/sqrt(eps) they would
# keep fewer than half the digits.
_GRAM_RCOND = float(np.sqrt(np.finfo(float).eps))


@dataclass(frozen=True)
class LsqReport:
    """Solution of one weighted least-squares solve plus solver diagnostics.

    frame_lower / frame_upper are the extreme squared singular values of the
    weighted design matrix restricted to the active columns; they play the
    role of the frame constants of the sampled system.
    """

    solution: CoefficientVector
    residual: float
    singular_values: np.ndarray
    frame_lower: float
    frame_upper: float
    rank: int
    active_degrees: tuple
    full_rank: bool


def active_degrees(filt: MultiplierFilter, m: int) -> tuple:
    """Degrees m' <= m whose multiplier does not vanish."""
    return tuple(int(d) for d in range(m + 1) if filt.b[d] != 0.0)


def _operator(fam: MzFamily, m: int) -> tuple:
    """Read-only (B_w, G, eigvalsh(G)) of the family at degree m.

    B_w = [sqrt(tau_j) Y_k(x_j)] for degrees <= m and G = B_w^T B_w.  The
    family keeps the last degree's operator in its one slot; a call at
    another degree replaces it.
    """
    if fam._operator is not None and fam._operator[0] == m:
        return fam._operator[1:]
    thetas, phis = nodes_to_arrays(fam.nodes)
    bw = basis_matrix(m, thetas, phis)
    bw *= np.sqrt(fam.weights)[:, None]
    gram = bw.T @ bw
    lam = np.linalg.eigvalsh(gram)
    for arr in (bw, gram, lam):
        arr.flags.writeable = False
    object.__setattr__(fam, "_operator", (m, bw, gram, lam))
    return bw, gram, lam


def _active_columns(filt: MultiplierFilter, fam: MzFamily, m: int):
    """Column indices of the active degrees and the multiplier of each column."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    if filt.m_max < m:
        raise ValueError(f"filter stores degrees up to {filt.m_max}, requested {m}")
    if len(fam.nodes) == 0:
        raise ValueError("empty sampling family")
    act = active_degrees(filt, m)
    if not act:
        raise ValueError("all multipliers vanish up to the requested degree")
    cols = np.concatenate([np.arange(d * d, (d + 1) * (d + 1)) for d in act])
    scale = np.concatenate([np.full(2 * d + 1, filt.b[d]) for d in act])
    return cols, scale


def design_matrix(filt: MultiplierFilter, fam: MzFamily, m: int):
    """Weighted sampling matrix of the filtered basis.

    Rows are nodes, columns the basis functions of active degrees; the entry
    is sqrt(tau_j) * b_{m'} * Y_{m'}^ell(x_j).  Returns (matrix, column
    indices into the full degree-major layout).
    """
    cols, scale = _active_columns(filt, fam, m)
    return _operator(fam, m)[0][:, cols] * scale[None, :], cols


def lsq_solve(
    filt: MultiplierFilter, fam: MzFamily, m: int, y: np.ndarray
) -> LsqReport:
    """Minimum-norm weighted least squares for the degree-m hypothesis space.

    Solved through the normal equations of the unfiltered system on the
    active degrees, or, where those cannot stand for the SVD with relative
    cutoff 1e-12 (see the module docstring), through that SVD.  Rank
    deficiency is flagged (the family is then not Marcinkiewicz-Zygmund for
    this filter and degree) and the minimum-norm solution is still returned.
    """
    y = np.asarray(y, dtype=float)
    if y.size != len(fam.nodes):
        raise ValueError("y must have one entry per node")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    cols, scale = _active_columns(filt, fam, m)
    bw, gram, lam = _operator(fam, m)
    if cols.size < gram.shape[0]:
        gram = gram[np.ix_(cols, cols)]
        lam = np.linalg.eigvalsh(gram)
    ytil = y * np.sqrt(fam.weights)
    spread = np.max(np.abs(scale)) / np.min(np.abs(scale))
    coeffs = np.zeros(num_coeffs(m))
    if lam[0] > _GRAM_RCOND * lam[-1] and np.sqrt(lam[0] / lam[-1]) > _SVD_RCOND * spread:
        d = np.zeros(num_coeffs(m))
        d[cols] = np.linalg.solve(gram, (bw.T @ ytil)[cols])
        coeffs[cols] = d[cols] / scale
        residual = float(np.linalg.norm(bw @ d - ytil))
        # sigma^2 are the eigenvalues of D G D; its eigensolver resolves them
        # to eps * sigma_max^2 only, so the small ones are taken as inverse
        # eigenvalues of D^{-1} G^{-1} D^{-1}, resolved to eps / sigma_min^2.
        big = np.linalg.eigvalsh(scale[:, None] * gram * scale[None, :])
        inv_scale = 1.0 / scale
        small = 1.0 / np.linalg.eigvalsh(
            inv_scale[:, None] * np.linalg.inv(gram) * inv_scale[None, :]
        )[::-1]
        sq = np.where(big >= np.sqrt(big[-1] * small[0]), big, small)
        sv = np.sqrt(sq[::-1])
        rank = cols.size
    else:
        mat = bw[:, cols] * scale[None, :]
        u, sv, vt = np.linalg.svd(mat, full_matrices=False)
        cutoff = _SVD_RCOND * sv[0] if sv[0] > 0 else 0.0
        kept = sv > cutoff
        rank = int(kept.sum())
        inv = np.zeros_like(sv)
        inv[kept] = 1.0 / sv[kept]
        active_sol = vt.T @ (inv * (u.T @ ytil))
        coeffs[cols] = active_sol
        residual = float(np.linalg.norm(mat @ active_sol - ytil))
    solution = CoefficientVector(m, coeffs)
    full_rank = rank == cols.size
    frame_lower = float(sv[-1] ** 2)
    frame_upper = float(sv[0] ** 2)
    if full_rank and frame_lower > 0:
        # Lemma-type stability: ||solution||_2 <= A^{-1/2} ||y||_tau; a
        # violation beyond rounding means the solve is broken.
        bound = float(np.linalg.norm(ytil)) / np.sqrt(frame_lower)
        if solution.l2_norm() > bound * (1.0 + 1e-9) + 1e-300:
            raise RuntimeError("least-squares stability bound violated")
    return LsqReport(
        solution=solution,
        residual=residual,
        singular_values=sv,
        frame_lower=frame_lower,
        frame_upper=frame_upper,
        rank=rank,
        active_degrees=active_degrees(filt, m),
        full_rank=full_rank,
    )


def reconstruct_direct(fam: MzFamily, m: int, y: np.ndarray) -> LsqReport:
    """Plain sampling reconstruction: least squares with the identity filter."""
    return lsq_solve(identity_multipliers(m), fam, m, y)


def solution_to_json(report: LsqReport) -> dict:
    return {
        "m_max": report.solution.m_max,
        "coeffs": [float(v) for v in report.solution.coeffs],
        "report": {
            "residual": report.residual,
            "rank": report.rank,
            "full_rank": report.full_rank,
            "frame_lower": report.frame_lower,
            "frame_upper": report.frame_upper,
            "sigma_max": float(report.singular_values[0]),
            "sigma_min": float(report.singular_values[-1]),
            "active_degrees": list(report.active_degrees),
        },
    }
