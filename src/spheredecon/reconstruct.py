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
It never forms B_w on a ring family: nodes on wide colatitude rings add
per-azimuthal-order blocks to G and are applied by per-ring synthesis and
analysis, and G splits into its cosine and sine halves where the block
between them is below the rounding margin; every solve and eigensolve then
runs per half.  Scattered families keep the dense rows and one block.

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
from typing import NamedTuple, Optional

import numpy as np

from .filters import MultiplierFilter, identity_multipliers
from .harmonics import (
    CoefficientVector,
    _analysis,
    _basis_rows,
    _synthesis,
    _trig,
    basis_matrix,
    normalized_legendre,
    num_coeffs,
)
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


class _Operator(NamedTuple):
    """The sampling operator B_w of one (family, degree) pair, without B_w.

    Nodes on wide rings are held as their ring factors (Q, ring of each
    node, sqrt(tau)-weighted azimuthal factors); every other node as its row
    of B_w.  G is held as its diagonal blocks (b, G[b, b]) over column index
    blocks b; slack is the norm of what the blocks leave out of G (ring
    remainders and the cross-parity block), which the frame constants add to
    their rounding margin.
    """

    m: int
    dense: np.ndarray
    bw: np.ndarray
    wide: np.ndarray
    rings: tuple
    blocks: tuple
    slack: float
    lam: Optional[np.ndarray] = None


def _operator(fam: MzFamily, m: int) -> _Operator:
    """The read-only sampling operator of the family at degree m.

    A ring (nodes of one colatitude) with more than 2m nodes is wide when its
    weighted trig Gram T = sum_j tau_j t(phi_j) t(phi_j)^T, t the azimuthal
    factors of degree m, is diagonal to the rounding bound l eps max T[k, k]
    of its l-term sums, as on the offset equispaced rings of area-center
    nodes: its share of G is then block-diagonal by azimuthal order k,
    G_k += Q[:, k] T[k, k] Q[:, k]^T (times 2 off k = 0), and the Frobenius
    norm of the off-diagonal rest, weighted by the squared column norms of
    Q, is its remainder.  All other nodes, every node of a scattered family
    included, enter through their rows of B_w as B_w^T B_w.  When the
    Frobenius norm of the cosine-sine block of the result is below
    eps N trace G, G is kept as its cosine and sine halves and that norm
    joins the remainders in slack (Weyl); otherwise as one block.

    The family keeps the last degree's operator in its one slot, with
    eigvalsh(G) added when ``_gram_eigenvalues`` first needs it; a call at
    another degree replaces it.
    """
    if fam._operator is None or fam._operator.m != m:
        object.__setattr__(fam, "_operator", _build_operator(fam, m))
    return fam._operator


def _build_operator(fam: MzFamily, m: int) -> _Operator:
    eps = np.finfo(float).eps
    thetas, phis = fam.nodes[:, 0], fam.nodes[:, 1]
    sqrt_w = np.sqrt(fam.weights)
    colat, ring_of, counts = np.unique(thetas, return_inverse=True, return_counts=True)
    cand = np.flatnonzero(counts > max(2 * m, 1))  # a ring of one node is scattered
    q = normalized_legendre(m, colat[cand])
    abs_k = np.abs(np.arange(-m, m + 1))
    twice = np.where(abs_k > 0, 2.0, 1.0)  # the squared sqrt(2) off k = 0
    wide, nodes, trigs, diags, slack = [], [], [], [], 0.0  # per wide ring
    for i, r in enumerate(cand):
        members = np.flatnonzero(ring_of == r)
        t = _trig(m, phis[members]) * sqrt_w[members, None]
        off = t.T @ t
        diag = off.diagonal().copy()
        np.fill_diagonal(off, 0.0)
        if np.max(np.abs(off)) <= counts[r] * eps * diag.max():
            col = np.sqrt(twice * np.sum(q[i][:, abs_k] ** 2, axis=0))
            slack += float(np.linalg.norm(col[:, None] * off * col[None, :]))
            wide.append(i)
            nodes.append(members)
            trigs.append(t)
            diags.append(twice * diag)
    wide_nodes = np.concatenate(nodes + [np.empty(0, dtype=np.intp)])
    dense = np.setdiff1d(np.arange(len(thetas)), wide_nodes)
    bw = basis_matrix(m, thetas[dense], phis[dense])
    bw *= sqrt_w[dense, None]
    gram = bw.T @ bw
    q = q[wide]
    if wide:
        sqrt_diag = np.sqrt(np.array(diags))
        for k in range(m + 1):
            degrees = np.arange(k, m + 1)
            for j in {m - k, m + k}:  # the sin-k and cos-k columns of T
                s = q[:, k:, k] * sqrt_diag[:, j, None]
                idx = degrees * degrees + degrees + j - m
                gram[np.ix_(idx, idx)] += s.T @ s
    orders = np.concatenate([np.arange(-d, d + 1) for d in range(m + 1)])
    cos, sin = np.flatnonzero(orders >= 0), np.flatnonzero(orders < 0)
    cross = float(np.linalg.norm(gram[np.ix_(cos, sin)]))
    if cross < eps * len(thetas) * np.trace(gram):
        blocks = tuple((b, gram[b][:, b]) for b in (cos, sin) if b.size)
        slack += cross
    else:
        blocks = ((np.arange(gram.shape[0]), gram),)
    rings = (q, np.repeat(np.arange(len(wide)), [t.shape[0] for t in trigs]),
             np.concatenate(trigs + [np.empty((0, 2 * m + 1))]))
    for arr in (dense, bw, wide_nodes, *rings, *(a for block in blocks for a in block)):
        arr.flags.writeable = False
    return _Operator(m, dense, bw, wide_nodes, rings, blocks, slack)


def _gram_eigenvalues(fam: MzFamily, m: int) -> np.ndarray:
    """Read-only ascending eigvalsh(G) of the family at degree m, kept in its slot."""
    op = _operator(fam, m)
    if op.lam is None:
        lam = _block_eigenvalues([g for _, g in op.blocks])
        lam.flags.writeable = False
        object.__setattr__(fam, "_operator", op._replace(lam=lam))
    return fam._operator.lam


def _block_eigenvalues(blocks) -> np.ndarray:
    """Ascending eigenvalues of the block-diagonal matrix of the given blocks."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(g) for g in blocks]))


def _apply(op: _Operator, d: np.ndarray) -> np.ndarray:
    """B_w d."""
    out = np.empty(op.dense.size + op.wide.size)
    out[op.dense] = op.bw @ d
    if op.wide.size:
        out[op.wide] = _synthesis(*op.rings, d)
    return out


def _adjoint(op: _Operator, v: np.ndarray) -> np.ndarray:
    """B_w^T v."""
    out = op.bw.T @ v[op.dense]
    if op.wide.size:
        out += _analysis(*op.rings, v[op.wide])
    return out


def _rows(op: _Operator) -> np.ndarray:
    """B_w itself, for the SVD and the design matrix."""
    out = np.empty((op.dense.size + op.wide.size, op.bw.shape[1]))
    out[op.dense] = op.bw
    if op.wide.size:
        out[op.wide] = _basis_rows(*op.rings)
    return out


def _column_multipliers(filt: MultiplierFilter, fam: MzFamily, m: int) -> np.ndarray:
    """The multiplier of every column of the degree-m basis (0 on inactive degrees)."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    if filt.m_max < m:
        raise ValueError(f"filter stores degrees up to {filt.m_max}, requested {m}")
    if len(fam.nodes) == 0:
        raise ValueError("empty sampling family")
    bcol = np.repeat(filt.b[: m + 1], 2 * np.arange(m + 1) + 1)
    if not np.any(bcol):
        raise ValueError("all multipliers vanish up to the requested degree")
    return bcol


def _active_system(filt: MultiplierFilter, fam: MzFamily, m: int):
    """(bcol, op, blocks, eigvalsh(G_act), on_gram) of the filtered system.

    bcol holds the column multipliers, blocks the (b, G[b, b]) pairs of G
    restricted to the active columns.  on_gram says whether the normal
    equations stand for the SVD with relative cutoff 1e-12 (see the module
    docstring).
    """
    bcol = _column_multipliers(filt, fam, m)
    op = _operator(fam, m)
    blocks = []
    for b, g in op.blocks:
        act = bcol[b] != 0.0
        if act.all():
            blocks.append((b, g))
        elif act.any():
            blocks.append((b[act], g[np.ix_(act, act)]))
    if np.all(bcol != 0.0):
        lam = _gram_eigenvalues(fam, m)
    else:
        lam = _block_eigenvalues([g for _, g in blocks])
    scale = np.abs(bcol[bcol != 0.0])
    spread = np.max(scale) / np.min(scale)
    on_gram = bool(
        lam[0] > _GRAM_RCOND * lam[-1] and np.sqrt(lam[0] / lam[-1]) > _SVD_RCOND * spread
    )
    return bcol, op, blocks, lam, on_gram


def design_matrix(filt: MultiplierFilter, fam: MzFamily, m: int):
    """Weighted sampling matrix of the filtered basis.

    Rows are nodes, columns the basis functions of active degrees; the entry
    is sqrt(tau_j) * b_{m'} * Y_{m'}^ell(x_j).  Returns (matrix, column
    indices into the full degree-major layout).
    """
    bcol = _column_multipliers(filt, fam, m)
    cols = np.flatnonzero(bcol)
    return _rows(_operator(fam, m))[:, cols] * bcol[None, cols], cols


def lsq_solve(
    filt: MultiplierFilter, fam: MzFamily, m: int, y: np.ndarray
) -> LsqReport:
    """Minimum-norm weighted least squares for the degree-m hypothesis space.

    Solved through the normal equations of the unfiltered system on the
    active degrees, one solve per block of G, or, where those cannot stand
    for the SVD with relative cutoff 1e-12 (see the module docstring),
    through that SVD.  Rank deficiency is flagged (the family is then not
    Marcinkiewicz-Zygmund for this filter and degree) and the minimum-norm
    solution is still returned.
    """
    y = np.asarray(y, dtype=float)
    if y.size != len(fam.nodes):
        raise ValueError("y must have one entry per node")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    bcol, op, blocks, lam, on_gram = _active_system(filt, fam, m)
    cols = np.flatnonzero(bcol)
    ytil = y * np.sqrt(fam.weights)
    coeffs = np.zeros(num_coeffs(m))
    if on_gram:
        d = np.zeros(num_coeffs(m))
        rhs = _adjoint(op, ytil)
        for b, g in blocks:
            d[b] = np.linalg.solve(g, rhs[b])
        coeffs[cols] = d[cols] / bcol[cols]
        residual = float(np.linalg.norm(_apply(op, d) - ytil))
        rank = cols.size
        # d solves the unfiltered system, whose smallest squared singular
        # value is lambda_min(G_act).
        solved, lower = d, lam[0]
    else:
        mat = _rows(op)[:, cols] * bcol[None, cols]
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
    eps / sigma_min^2, each taken per block of G (D is diagonal); elsewhere
    from an SVD of B_w D.
    """
    bcol, op, blocks, lam, on_gram = _active_system(filt, fam, m)
    if not on_gram:
        cols = np.flatnonzero(bcol)
        return np.linalg.svd(_rows(op)[:, cols] * bcol[None, cols], compute_uv=False)
    big, inv_big = [], []
    for b, g in blocks:
        scale = bcol[b]
        inv_scale = 1.0 / scale
        big.append(scale[:, None] * g * scale[None, :])
        inv_big.append(inv_scale[:, None] * np.linalg.inv(g) * inv_scale[None, :])
    big = _block_eigenvalues(big)
    small = 1.0 / _block_eigenvalues(inv_big)[::-1]
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
