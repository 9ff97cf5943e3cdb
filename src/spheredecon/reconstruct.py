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
ill-conditioning that the multipliers add.  A solve is one linear solve of
the active block of G; it computes no spectrum.

B_w and G are the sampling operator of one (family, degree) pair, and
eigvalsh(G) is added to it on first need (frame constants, or a solve with
every degree active).  ``_operator`` builds them once and keeps them on the
family, so the frame constants (certify.mz_constants), the solve and the
design matrix of that pair share one basis build and at most one eigensolve.

The SVD pseudoinverse of the filtered matrix, with relative cutoff 1e-12,
runs instead when G is singular to half the working precision or when the
multipliers spread so widely that the cutoff could drop a direction; only
then can its minimum-norm answer differ from d / b.

The singular values of the filtered matrix B_w D, D = diag(b), are no frame
constants and enter no certificate; ``filtered_singular_values`` computes
them on request, for the solution JSON, from eigenvalues of D G D (large
ones) and of D^{-1} G^{-1} D^{-1} (small ones), each where it is accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import MultiplierFilter, identity_multipliers
from .harmonics import CoefficientVector, basis_matrix, num_coeffs
from .sphere_geometry import MzFamily

__all__ = ["LsqReport", "design_matrix", "filtered_singular_values", "lsq_solve",
           "reconstruct_direct", "solution_to_json"]

_SVD_RCOND = 1e-12
# The normal equations lose about eps * cond G: beyond 1/sqrt(eps) they would
# keep fewer than half the digits.
_GRAM_RCOND = float(np.sqrt(np.finfo(float).eps))


@dataclass(frozen=True)
class LsqReport:
    """Solution of one weighted least-squares solve plus solver diagnostics."""

    solution: CoefficientVector
    residual: float
    rank: int
    active_degrees: tuple
    full_rank: bool


def active_degrees(filt: MultiplierFilter, m: int) -> tuple:
    """Degrees m' <= m whose multiplier does not vanish."""
    return tuple(int(d) for d in range(m + 1) if filt.b[d] != 0.0)


def _operator(fam: MzFamily, m: int) -> tuple:
    """Read-only (B_w, G) of the family at degree m.

    B_w = [sqrt(tau_j) Y_k(x_j)] for degrees <= m and G = B_w^T B_w.  The
    family keeps the last degree's operator in its one slot, (m, B_w, G,
    eigvalsh(G) or None until ``_gram_eigenvalues`` needs it); a call at
    another degree replaces it.
    """
    if fam._operator is None or fam._operator[0] != m:
        bw = basis_matrix(m, fam.nodes[:, 0], fam.nodes[:, 1])
        bw *= np.sqrt(fam.weights)[:, None]
        gram = bw.T @ bw
        for arr in (bw, gram):
            arr.flags.writeable = False
        object.__setattr__(fam, "_operator", (m, bw, gram, None))
    return fam._operator[1:3]


def _gram_eigenvalues(fam: MzFamily, m: int) -> np.ndarray:
    """Read-only ascending eigvalsh(G) of the family at degree m, kept in its slot."""
    bw, gram = _operator(fam, m)
    lam = fam._operator[3]
    if lam is None:
        lam = np.linalg.eigvalsh(gram)
        lam.flags.writeable = False
        object.__setattr__(fam, "_operator", (m, bw, gram, lam))
    return lam


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


def _active_system(filt: MultiplierFilter, fam: MzFamily, m: int):
    """(cols, scale, B_w, G_act, eigvalsh(G_act), on_gram) of the filtered system.

    G_act is G restricted to the active columns.  on_gram says whether its
    normal equations stand for the SVD with relative cutoff 1e-12 (see the
    module docstring).
    """
    cols, scale = _active_columns(filt, fam, m)
    bw, gram = _operator(fam, m)
    if cols.size < gram.shape[0]:
        gram = gram[np.ix_(cols, cols)]
        lam = np.linalg.eigvalsh(gram)
    else:
        lam = _gram_eigenvalues(fam, m)
    spread = np.max(np.abs(scale)) / np.min(np.abs(scale))
    on_gram = bool(
        lam[0] > _GRAM_RCOND * lam[-1] and np.sqrt(lam[0] / lam[-1]) > _SVD_RCOND * spread
    )
    return cols, scale, bw, gram, lam, on_gram


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
    cols, scale, bw, gram, lam, on_gram = _active_system(filt, fam, m)
    ytil = y * np.sqrt(fam.weights)
    coeffs = np.zeros(num_coeffs(m))
    if on_gram:
        d = np.zeros(num_coeffs(m))
        d[cols] = np.linalg.solve(gram, (bw.T @ ytil)[cols])
        coeffs[cols] = d[cols] / scale
        residual = float(np.linalg.norm(bw @ d - ytil))
        rank = cols.size
        # d solves the unfiltered system, whose smallest squared singular
        # value is lambda_min(G_act).
        solved, lower = d, lam[0]
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
        solved, lower = active_sol, sv[-1] ** 2
    full_rank = rank == cols.size
    if full_rank and lower > 0:
        # Lemma-type stability: ||x||_2 <= sigma_min^{-1} ||y||_tau for the
        # solution x of the solved system; a violation beyond rounding means
        # the solve is broken.
        bound = float(np.linalg.norm(ytil)) / np.sqrt(lower)
        if np.linalg.norm(solved) > bound * (1.0 + 1e-9) + 1e-300:
            raise RuntimeError("least-squares stability bound violated")
    return LsqReport(
        solution=CoefficientVector(m, coeffs),
        residual=residual,
        rank=rank,
        active_degrees=active_degrees(filt, m),
        full_rank=full_rank,
    )


def filtered_singular_values(filt: MultiplierFilter, fam: MzFamily, m: int) -> np.ndarray:
    """Descending singular values of the filtered matrix B_w D on the active degrees.

    Where ``lsq_solve`` takes the normal equations they come from the
    eigenvalues of D G D, resolved to eps * sigma_max^2 only, and the small
    ones from inverse eigenvalues of D^{-1} G^{-1} D^{-1}, resolved to
    eps / sigma_min^2; elsewhere from an SVD of B_w D.
    """
    cols, scale, bw, gram, lam, on_gram = _active_system(filt, fam, m)
    if not on_gram:
        return np.linalg.svd(bw[:, cols] * scale[None, :], compute_uv=False)
    big = np.linalg.eigvalsh(scale[:, None] * gram * scale[None, :])
    inv_scale = 1.0 / scale
    small = 1.0 / np.linalg.eigvalsh(
        inv_scale[:, None] * np.linalg.inv(gram) * inv_scale[None, :]
    )[::-1]
    sq = np.where(big >= np.sqrt(big[-1] * small[0]), big, small)
    return np.sqrt(sq[::-1])


def reconstruct_direct(fam: MzFamily, m: int, y: np.ndarray) -> LsqReport:
    """Plain sampling reconstruction: least squares with the identity filter."""
    return lsq_solve(identity_multipliers(m), fam, m, y)


def solution_to_json(report: LsqReport, sv: np.ndarray) -> dict:
    """Solution and diagnostics; sv = filtered_singular_values of the same solve.

    frame_lower / frame_upper are sigma_min^2 / sigma_max^2 of the filtered
    matrix, not the MZ frame constants of the family (certify.mz_constants).
    """
    return {
        "m_max": report.solution.m_max,
        "coeffs": [float(v) for v in report.solution.coeffs],
        "report": {
            "residual": report.residual,
            "rank": report.rank,
            "full_rank": report.full_rank,
            "frame_lower": float(sv[-1] ** 2),
            "frame_upper": float(sv[0] ** 2),
            "sigma_max": float(sv[0]),
            "sigma_min": float(sv[-1]),
            "active_degrees": list(report.active_degrees),
        },
    }
