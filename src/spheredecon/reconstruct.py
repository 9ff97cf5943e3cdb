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
design matrix of that pair share one basis build and at most one eigensolve;
the path gate of the last filter (below) is kept with them, so a solve and
the singular values of the same filter share it too.  The operator takes
one of two paths, picked from the family.  On the ring path (every
colatitude ring keeps its aliasing pattern and the rings are
mirror-symmetric, as with area-center nodes) it forms neither B_w nor G
whole: it holds the ring factors, applied by per-ring synthesis and
analysis, and G as four blocks, cosine or sine side times the parity of
n - |k|, built order pair by order pair; every solve and eigensolve then
runs per block.  On the dense path (every other family) it holds B_w and
G = B_w^T B_w as one block.

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

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .filters import MultiplierFilter
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
           "solution_to_json"]

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
    """The sampling operator B_w of one (family, degree) pair.

    On the ring path (``_operator``) it holds the ring factors (Q per ring,
    the ring of each node, the sqrt(tau)-weighted azimuthal factors) in
    rings and bw is None; on the dense path B_w itself in bw and rings is
    None.  G is held as its diagonal blocks (b, G[b, b]) over column index
    blocks b: the four parity classes on the ring path, one block on the
    dense path.  slack bounds the spectral norm of what the blocks leave out
    of G (ring remainders and the entries between the parity classes; 0 on
    the dense path), which the frame constants add to their rounding margin.
    system is the path gate of the last filter solved with
    (``_active_system``).
    """

    m: int
    bw: Optional[np.ndarray]
    rings: Optional[tuple]
    blocks: tuple
    slack: float
    lam: Optional[np.ndarray] = None
    system: Optional[tuple] = None


def _operator(fam: MzFamily, m: int) -> _Operator:
    """The read-only sampling operator of the family at degree m.

    It takes one of two paths, picked from the family itself.  A colatitude
    ring of l >= 2 nodes has the weighted trig Gram
    T = sum_j tau_j t(phi_j) t(phi_j)^T, t the azimuthal factors of degree
    m.  On offset equispaced longitudes, as on the rings of area-center
    nodes, T couples orders k and k' only on the same (cosine or sine) side
    and when |k| = +-|k'| (mod l): its aliasing pattern, the diagonal when
    l > 2m.  A ring keeps to its pattern when its entries off the pattern
    stay below the rounding bound (2m+1) l eps max T[k, k]; it then adds
    c_k c_k' T[k, k'] Q[:, |k|] Q[:, |k'|]^T (c = sqrt 2 off k = 0) to G
    for each kept order pair, and the Frobenius norm of the entries left
    out, weighted by the column norms of c Q, is its remainder.  Held rings
    never couple a cosine and a sine column.  With mirror-symmetric rings,
    Q(pi - theta)[n, k] = (-1)^(n-k) Q(theta)[n, k] makes G block-diagonal
    in four classes of columns (n, k): cosine or sine side times the parity
    of n - |k|.  G is built class block by class block, order pair by order
    pair, never whole; the Frobenius norms of the blocks P between the
    parities of one side are taken from those entries themselves.

    Ring path: every colatitude holds >= 2 nodes, every ring keeps to its
    pattern and max ||P|| is below eps N trace G.  The operator holds the
    ring factors and the four class blocks, and slack is the sum of the
    ring remainders and max ||P|| (Weyl: it bounds the spectral norm of the
    entries left out).  Dense path, every other family (scattered nodes):
    B_w and one block G = B_w^T B_w, slack 0.

    The family keeps the last degree's operator in its one slot, with
    eigvalsh(G) added when ``_gram_eigenvalues`` first needs it and the path
    gate of the last filter (``_active_system``); a call at another degree
    replaces it.
    """
    if fam._operator is None or fam._operator.m != m:
        object.__setattr__(fam, "_operator", _build_operator(fam, m))
    return fam._operator


def _class_columns(m: int):
    """Columns of the four classes (side, parity) and their order offsets.

    Class 2 s + p holds the columns (n, k) with k >= 0 (s = 0, cosine) or
    k < 0 (s = 1, sine) and n - |k| = p (mod 2), order-major: by |k|, then
    n.  off[c][a] is the position of order |k| = a's first column in class
    c (a = m + 1 gives the class size).
    """
    cols, off = [], []
    for s in (0, 1):
        for p in (0, 1):
            cols.append(np.array([n * n + n + (-a if s else a) for a in range(s, m + 1)
                                  for n in range(a + p, m + 1, 2)], dtype=np.intp))
            sizes = [0] * s + [len(range(a + p, m + 1, 2)) for a in range(s, m + 1)]
            off.append(np.concatenate([[0], np.cumsum(sizes)]).tolist())
    return cols, off


def _build_operator(fam: MzFamily, m: int) -> _Operator:
    op = _ring_operator(fam, m)
    if op is None:
        bw = basis_matrix(m, fam.nodes[:, 0], fam.nodes[:, 1])
        bw *= np.sqrt(fam.weights)[:, None]
        gram = bw.T @ bw
        op = _Operator(m, bw, None, ((np.arange(gram.shape[0]), gram),), 0.0)
    for arr in (*(op.rings or (op.bw,)), *(a for block in op.blocks for a in block)):
        arr.flags.writeable = False
    return op


def _ring_operator(fam: MzFamily, m: int) -> Optional[_Operator]:
    """The ring path of ``_operator``, or None where the family leaves it."""
    eps = np.finfo(float).eps
    colat, ring_of, counts = np.unique(fam.nodes[:, 0], return_inverse=True,
                                       return_counts=True)
    if counts.min() < 2:
        return None
    order = np.argsort(ring_of, kind="stable")  # the identity for nodes stored ring by ring
    starts = np.concatenate([[0], np.cumsum(counts)]).tolist()
    trig = _trig(m, fam.nodes[:, 1])
    trig *= np.sqrt(fam.weights)[:, None]
    q = normalized_legendre(m, colat)
    k = np.arange(-m, m + 1)
    abs_k = np.abs(k)
    c = np.where(abs_k > 0, math.sqrt(2.0), 1.0)
    col = c * np.sqrt(np.sum(q**2, axis=1))[:, abs_k]  # norms of the columns c_k Q[:, |k|]
    same_side = (k >= 0)[:, None] == (k >= 0)
    patterns, slack = {}, 0.0
    diag, pairs = [], []  # per ring: c^2 diag T, kept j < j'
    for i, ell in enumerate(counts.tolist()):
        period = min(ell, 2 * m + 1)  # beyond 2m nodes the pattern is the diagonal
        if period not in patterns:
            keep = same_side & (((abs_k[:, None] - abs_k) % period == 0)
                                | ((abs_k[:, None] + abs_k) % period == 0))
            patterns[period] = keep, np.nonzero(np.triu(keep, 1))
        keep, (j, jj) = patterns[period]
        t = trig[order[starts[i]:starts[i + 1]]]
        gram_t = t.T @ t.copy()  # GEMM: numpy sends t.T @ t to SYRK, erratic at 2 threads
        off = np.where(keep, 0.0, gram_t)
        if np.max(np.abs(off)) > (2 * m + 1) * ell * eps * gram_t.diagonal().max():
            return None
        slack += float(np.linalg.norm(off * np.outer(col[i], col[i])))
        pairs.append((np.full(j.size, i), j, jj, c[j] * gram_t[j, jj] * c[jj]))
        diag.append(c * c * gram_t.diagonal())
    pairs = tuple(np.concatenate(x) for x in zip(*pairs))
    classes = _class_blocks(m, q, np.array(diag), pairs, eps * len(fam.nodes))
    if classes is None:
        return None
    blocks, between = classes
    return _Operator(m, None, (q, ring_of, trig), blocks, slack + between)


def _class_blocks(m: int, q: np.ndarray, diag: np.ndarray, pairs: tuple, eps_n: float):
    """The four class blocks of G and max ||P|| (see ``_operator``), or None
    when max ||P|| reaches the budget eps_n trace G.

    q holds the Legendre factors of the rings, diag[r, j] their weights
    c_k^2 T[j, j] (j = m + k), and pairs = (r, j, j', w) their kept order
    pairs j < j' with weights c_k c_k' T[j, j'].
    """
    cols, off = _class_columns(m)
    gram = [np.zeros((b.size, b.size)) for b in cols]
    between_parities = [np.zeros((cols[2 * s].size, cols[2 * s + 1].size)) for s in (0, 1)]

    def put(j, jj, blk):
        """Order pair (k, k') = (j - m, jj - m) into its class blocks: blk
        has rows n = |k|.. and columns n' = |k'|.., the even offsets in
        parity class 0 and the odd ones in class 1."""
        s, a, b = int(j < m), abs(j - m), abs(jj - m)
        o0, o1, cross = off[2 * s], off[2 * s + 1], between_parities[s]
        gram[2 * s][o0[a]:o0[a + 1], o0[b]:o0[b + 1]] = blk[0::2, 0::2]
        gram[2 * s + 1][o1[a]:o1[a + 1], o1[b]:o1[b + 1]] = blk[1::2, 1::2]
        cross[o0[a]:o0[a + 1], o1[b]:o1[b + 1]] = blk[0::2, 1::2]
        if a != b:  # the mirror image across the diagonal
            gram[2 * s][o0[b]:o0[b + 1], o0[a]:o0[a + 1]] = blk[0::2, 0::2].T
            gram[2 * s + 1][o1[b]:o1[b + 1], o1[a]:o1[a + 1]] = blk[1::2, 1::2].T
            cross[o0[b]:o0[b + 1], o1[a]:o1[a + 1]] = blk[1::2, 0::2].T

    qt = np.ascontiguousarray(q.transpose(2, 1, 0))  # (order, degree, ring)
    for j in range(2 * m + 1):  # every ring keeps the diagonal pairs
        a = abs(j - m)
        put(j, j, (qt[a, a:] * diag[:, j]) @ qt[a, a:].T)
    order = np.argsort(pairs[1] * (2 * m + 1) + pairs[2], kind="stable")
    ring, j, jj, w = (x[order] for x in pairs)
    first = np.flatnonzero((np.diff(j, prepend=-1) != 0) | (np.diff(jj, prepend=-1) != 0))
    for lo, hi in zip(first.tolist(), first[1:].tolist() + [j.size]):
        a, b, r = abs(int(j[lo]) - m), abs(int(jj[lo]) - m), ring[lo:hi]
        put(int(j[lo]), int(jj[lo]), (qt[a, a:][:, r] * w[lo:hi]) @ qt[b, b:][:, r].T)
    between = max(float(np.linalg.norm(x)) for x in between_parities)
    if between >= eps_n * sum(np.trace(g) for g in gram):
        return None
    return tuple((b, g) for b, g in zip(cols, gram) if b.size), between


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
    return op.bw @ d if op.rings is None else _synthesis(*op.rings, d)


def _adjoint(op: _Operator, v: np.ndarray) -> np.ndarray:
    """B_w^T v."""
    return op.bw.T @ v if op.rings is None else _analysis(*op.rings, v)


def _rows(op: _Operator) -> np.ndarray:
    """B_w itself, for the SVD and the design matrix."""
    return op.bw if op.rings is None else _basis_rows(*op.rings)


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


class _System(NamedTuple):
    """The path gate of one filter on the operator (``_active_system``).

    bcol holds the column multipliers, blocks the (b, G[b, b]) pairs of G
    restricted to the active columns, lam their eigenvalues.  on_gram says
    whether the normal equations stand for the SVD with relative cutoff
    1e-12 (see the module docstring); off it, svd is that SVD, (U, sigma,
    V^T) of the filtered matrix, once one of its users has taken it.
    """

    bcol: np.ndarray
    blocks: list
    lam: np.ndarray
    on_gram: bool
    svd: Optional[tuple] = None


def _active_system(filt: MultiplierFilter, fam: MzFamily, m: int) -> _System:
    """The path gate of the filter at degree m, kept in the operator's slot.

    The solve and ``filtered_singular_values`` of one filter share it, so
    its eigensolve (or SVD) runs once; another filter replaces it.
    """
    bcol = _column_multipliers(filt, fam, m)
    op = _operator(fam, m)
    if op.system is not None and np.array_equal(op.system.bcol, bcol):
        return op.system
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
    return _keep_system(fam, _System(bcol, blocks, lam, on_gram))


def _keep_system(fam: MzFamily, system: _System) -> _System:
    """Keep the path gate in the operator's slot, read-only like the operator."""
    for arr in (system.bcol, system.lam, *(a for block in system.blocks for a in block),
                *(system.svd or ())):
        arr.flags.writeable = False
    object.__setattr__(fam, "_operator", fam._operator._replace(system=system))
    return system


def _filtered_rows(op: _Operator, bcol: np.ndarray) -> np.ndarray:
    """The filtered matrix B_w D on the active columns."""
    cols = np.flatnonzero(bcol)
    return _rows(op)[:, cols] * bcol[None, cols]


def _filtered_svd(fam: MzFamily, system: _System, mat: Optional[np.ndarray] = None) -> tuple:
    """(U, sigma, V^T) of the filtered matrix mat (built here if not given),
    taken once per path gate."""
    if system.svd is None:
        if mat is None:
            mat = _filtered_rows(fam._operator, system.bcol)
        system = _keep_system(fam, system._replace(svd=np.linalg.svd(mat, full_matrices=False)))
    return system.svd


def design_matrix(filt: MultiplierFilter, fam: MzFamily, m: int):
    """Weighted sampling matrix of the filtered basis.

    Rows are nodes, columns the basis functions of active degrees; the entry
    is sqrt(tau_j) * b_{m'} * Y_{m'}^ell(x_j).  Returns (matrix, column
    indices into the full degree-major layout).
    """
    bcol = _column_multipliers(filt, fam, m)
    return _filtered_rows(_operator(fam, m), bcol), np.flatnonzero(bcol)


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
    system = _active_system(filt, fam, m)
    bcol, op = system.bcol, fam._operator
    cols = np.flatnonzero(bcol)
    ytil = y * np.sqrt(fam.weights)
    coeffs = np.zeros(num_coeffs(m))
    if system.on_gram:
        d = np.zeros(num_coeffs(m))
        rhs = _adjoint(op, ytil)
        for b, g in system.blocks:
            d[b] = np.linalg.solve(g, rhs[b])
        coeffs[cols] = d[cols] / bcol[cols]
        residual = float(np.linalg.norm(_apply(op, d) - ytil))
        rank = cols.size
        # d solves the unfiltered system, whose smallest squared singular
        # value is lambda_min(G_act).
        solved, lower = d, system.lam[0]
    else:
        mat = _filtered_rows(op, bcol)
        u, sv, vt = _filtered_svd(fam, system, mat)
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
    system = _active_system(filt, fam, m)
    if not system.on_gram:
        return _filtered_svd(fam, system)[1]
    big, inv_big = [], []
    for b, g in system.blocks:
        scale = system.bcol[b]
        inv_scale = 1.0 / scale
        big.append(scale[:, None] * g * scale[None, :])
        inv_big.append(inv_scale[:, None] * np.linalg.inv(g) * inv_scale[None, :])
    big = _block_eigenvalues(big)
    small = 1.0 / _block_eigenvalues(inv_big)[::-1]
    sq = np.where(big >= np.sqrt(big[-1] * small[0]), big, small)
    return np.sqrt(sq[::-1])


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
