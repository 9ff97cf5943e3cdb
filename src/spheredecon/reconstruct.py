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

B_w and G are the sampling operator of one (family, degree) pair.
``_operator`` builds it once and keeps it in the family's one slot, so the
frame constants (certify.mz_constants) and every solve of that pair share
one basis build.  The operator keeps what it computes later: the extremes
of G's spectrum on first read, and the path gate of the last filter
(below), so the solve and the singular values of one filter share one
eigensolve or SVD.  It takes one of two paths, picked from the family.  On
the ring path (every colatitude ring keeps its aliasing pattern and the
rings are mirror-symmetric, as with area-center nodes) it forms neither B_w
nor G whole: it holds the ring factors (O(N): the ring colatitudes, the
ring of each node, the longitudes and sqrt(tau)), applied by per-ring
synthesis and analysis, which step the Legendre factors from the ring
colatitudes degree by degree and make the weighted azimuthal factors chunk
by chunk, and G as four blocks, cosine or sine side times the parity of
n - |k|, built order pair by order pair; every solve and eigensolve then
runs per block.  The extremes of G's spectrum come there from the order
blocks inside the class blocks, widened by their block Gershgorin margin
(Feingold & Varga, Pacific J. Math. 12, 1962) where that margin stays
within the rounding budget eps N trace G, and from the class blocks
elsewhere.  On the dense path (every
other family) it holds B_w and G = B_w^T B_w as one block, and the extremes
are those of eigvalsh(G).

The SVD pseudoinverse of the filtered matrix, with relative cutoff 1e-12,
runs instead when G is singular to half the working precision or when the
multipliers spread so widely that the cutoff could drop a direction; only
then can its minimum-norm answer differ from d / b.

The extreme singular values of the filtered matrix B_w D, D = diag(b), are
no frame constants and enter no certificate; ``filtered_singular_values``
computes the pair (sigma_max, sigma_min) on request, for the solution JSON,
each end from its own eigensolve, block by block of G: sigma_max^2 is the
top eigenvalue of D G D and sigma_min^2 the inverse of the top eigenvalue
of D^{-1} G^{-1} D^{-1}, so each is resolved to eps relative to itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .filters import MultiplierFilter
from .harmonics import (
    CoefficientVector,
    _analysis,
    _basis_rows,
    _degrees,
    _legendre_steps,
    _synthesis,
    _trig_chunks,
    basis_matrix,
    num_coeffs,
)
from .sphere_geometry import MzFamily

__all__ = ["LsqReport", "filtered_singular_values", "lsq_solve", "solution_to_json"]

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


class _Operator:
    """The sampling operator B_w of one (family, degree) pair.

    On the ring path (``_operator``) it holds the ring factors (the ring
    colatitudes, the ring of each node, the longitudes, sqrt(tau): O(N), no
    (N, 2m+1) table and no table of Legendre factors) in rings and bw is
    None; on the dense path B_w itself in bw and rings is None.  G is held
    as its diagonal blocks (b, G[b, b]) over column index blocks b: the four
    parity classes on the ring path, one block on the dense path.  slack
    bounds the spectral norm of what the blocks leave out of G (ring
    remainders and the entries between the parity classes; 0 on the dense
    path), which the frame constants add to their rounding margin.  These
    arrays are made read-only here.  lam, the read-only (lower, upper)
    bounds on G's spectrum (``_gram_extremes``), is computed on first read;
    system is the path gate of the last filter solved with
    (``_active_system``).
    """

    def __init__(self, m: int, bw: Optional[np.ndarray], rings: Optional[tuple],
                 blocks: tuple, slack: float):
        for arr in (*(rings or (bw,)), *(a for block in blocks for a in block)):
            arr.flags.writeable = False
        self.m, self.bw, self.rings, self.blocks, self.slack = m, bw, rings, blocks, slack
        self.system: Optional[_System] = None

    @functools.cached_property
    def lam(self) -> np.ndarray:
        return _gram_extremes(self, self.blocks)


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
    parities of one side are summed from those entries as they are made,
    and P is never stored.  Each ring's T is taken from its rows of one
    ``_trig_chunks`` chunk; the order-major Legendre factors of the rings
    that the pairs need are stepped once for the build and not kept.

    Ring path: every colatitude holds >= 2 nodes, every ring keeps to its
    pattern and max ||P|| is below eps N trace G.  The operator holds the
    ring factors (O(N): ring colatitudes, ring of each node, longitudes,
    sqrt(tau)) and the four class blocks, and slack is the sum of the ring
    remainders and max ||P|| (Weyl: it bounds the spectral norm of the
    entries left out).  Its lam is taken from the order blocks of the class
    blocks and their block Gershgorin margin, or from the class blocks where
    that margin passes eps N trace G (``_gram_extremes``).  Dense path,
    every other family (scattered nodes): B_w and one block
    G = B_w^T B_w, slack 0, and lam from eigvalsh(G).

    The family keeps the last degree's operator in its one slot, written
    here only, once per build; a call at another degree replaces it.
    """
    if fam._operator is None or fam._operator.m != m:
        op = _ring_operator(fam, m)
        if op is None:
            bw = basis_matrix(m, fam.nodes[:, 0], fam.nodes[:, 1])
            bw *= np.sqrt(fam.weights)[:, None]
            gram = bw.T @ bw
            op = _Operator(m, bw, None, ((np.arange(gram.shape[0]), gram),), 0.0)
        object.__setattr__(fam, "_operator", op)
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


def _ring_operator(fam: MzFamily, m: int) -> Optional[_Operator]:
    """The ring path of ``_operator``, or None where the family leaves it."""
    eps = np.finfo(float).eps
    colat, ring_of, counts = np.unique(fam.nodes[:, 0], return_inverse=True,
                                       return_counts=True)
    if counts.min() < 2:
        return None
    phis, sqrt_w = fam.nodes[:, 1], np.sqrt(fam.weights)
    qt = np.zeros((m + 1, m + 1, colat.size))  # Q[r, n, a] at qt[a, n, r]
    for n, qn in enumerate(_legendre_steps(m, colat)):
        qt[: n + 1, n] = qn
    k = np.arange(-m, m + 1)
    abs_k = np.abs(k)
    c = np.where(abs_k > 0, math.sqrt(2.0), 1.0)
    col = c * np.sqrt(np.sum(qt**2, axis=1)).T[:, abs_k]  # norms of the columns c_k Q[:, |k|]
    same_side = (k >= 0)[:, None] == (k >= 0)
    patterns, slack, pairs = {}, 0.0, []  # per ring: kept j <= j' and their weights
    rings = (ring for _, _, starts, rows in _trig_chunks(m, phis, ring_of, sqrt_w)
             for ring in np.split(rows, starts[1:]))  # the weighted trig of each ring in turn
    for i, t in enumerate(rings):
        ell = t.shape[0]
        period = min(ell, 2 * m + 1)  # beyond 2m nodes the pattern is the diagonal
        if period not in patterns:
            keep = same_side & (((abs_k[:, None] - abs_k) % period == 0)
                                | ((abs_k[:, None] + abs_k) % period == 0))
            patterns[period] = keep, np.nonzero(np.triu(keep))
        keep, (j, jj) = patterns[period]
        gram_t = t.T @ t.copy()  # GEMM: numpy sends t.T @ t to SYRK, erratic at 2 threads
        off = np.where(keep, 0.0, gram_t)
        if np.max(np.abs(off)) > (2 * m + 1) * ell * eps * gram_t.diagonal().max():
            return None
        slack += float(np.linalg.norm(off * np.outer(col[i], col[i])))
        pairs.append((np.full(j.size, i), j, jj, c[j] * gram_t[j, jj] * c[jj]))
    pairs = tuple(np.concatenate(x) for x in zip(*pairs))
    classes = _class_blocks(m, qt, pairs, eps * len(fam.nodes))
    if classes is None:
        return None
    blocks, between = classes
    return _Operator(m, None, (colat, ring_of, phis, sqrt_w), blocks, slack + between)


def _class_blocks(m: int, qt: np.ndarray, pairs: tuple, eps_n: float):
    """The four class blocks of G and max ||P|| (see ``_operator``), or None
    when max ||P|| reaches the budget eps_n trace G.

    qt holds the Legendre factors of the rings order-major (order, degree,
    ring), and pairs = (r, j, j', w) their kept order pairs j <= j' with
    weights c_k c_k' T[j, j'] (j = m + k); every ring keeps the diagonal.
    """
    cols, off = _class_columns(m)
    gram = [np.zeros((b.size, b.size)) for b in cols]
    between_sq = [0.0, 0.0]  # squared Frobenius norm of P on each side
    order = np.argsort(pairs[1] * (2 * m + 1) + pairs[2], kind="stable")
    ring, j, jj, w = (x[order] for x in pairs)
    first = np.flatnonzero((np.diff(j, prepend=-1) != 0) | (np.diff(jj, prepend=-1) != 0))
    for lo, hi in zip(first.tolist(), first[1:].tolist() + [j.size]):
        # order pair (k, k') = (j - m, j' - m): blk has rows n = |k|.. and
        # columns n' = |k'|.., the even offsets in parity class 0 and the odd
        # ones in class 1; its entries between the parities only add to P
        s, a, b, r = int(j[lo] < m), abs(int(j[lo]) - m), abs(int(jj[lo]) - m), ring[lo:hi]
        left = qt[a, a:][:, r]
        blk = (left * w[lo:hi]) @ (left if a == b else qt[b, b:][:, r]).T
        o0, o1 = off[2 * s], off[2 * s + 1]
        gram[2 * s][o0[a]:o0[a + 1], o0[b]:o0[b + 1]] = blk[0::2, 0::2]
        gram[2 * s + 1][o1[a]:o1[a + 1], o1[b]:o1[b + 1]] = blk[1::2, 1::2]
        between_sq[s] += np.vdot(blk[0::2, 1::2], blk[0::2, 1::2])
        if a != b:  # the mirror image across the diagonal
            gram[2 * s][o0[b]:o0[b + 1], o0[a]:o0[a + 1]] = blk[0::2, 0::2].T
            gram[2 * s + 1][o1[b]:o1[b + 1], o1[a]:o1[a + 1]] = blk[1::2, 1::2].T
            between_sq[s] += np.vdot(blk[1::2, 0::2], blk[1::2, 0::2])
    between = math.sqrt(max(between_sq))
    if between >= eps_n * sum(np.trace(g) for g in gram):
        return None
    return tuple((b, g) for b, g in zip(cols, gram) if b.size), between


def _block_gershgorin(blocks, budget: float) -> Optional[tuple]:
    """Block Gershgorin enclosure of the spectrum of the symmetric
    block-diagonal matrix of the given (g, starts), each g split at starts
    into blocks g_ij: (lower, upper, block_lower, block_upper), or None where
    it widens the extremes of the g_ii by more than budget.

    Every eigenvalue lies within R_i = sum_{j != i} ||g_ij||_2 of the
    spectrum of some g_ii (Feingold & Varga, "Block diagonally dominant
    matrices and generalizations of the Gerschgorin circle theorem", Pacific
    J. Math. 12, 1962); the Frobenius norm stands in for ||g_ij||_2, which it
    never undercuts.  So lower = min_i (lambda_min(g_ii) - R_i) and upper =
    max_i (lambda_max(g_ii) + R_i), while block_lower and block_upper are the
    extremes of the g_ii alone.  block_lower - lower is at least R_i of the
    g_ii that holds block_lower, so a min_i R_i above budget returns None
    before any eigensolve.  All g_ii are solved in one eigvalsh call, each
    padded to the largest size with copies of its first diagonal entry,
    which lies in its spectrum and so leaves its extremes as they are.
    """
    diag, radii = [], []
    for g, starts in blocks:
        norms = np.sqrt(np.add.reduceat(np.add.reduceat(g * g, starts, axis=0), starts, axis=1))
        np.fill_diagonal(norms, 0.0)
        radii.append(norms.sum(axis=1))
        bounds = np.append(starts, g.shape[0]).tolist()
        diag += [g[lo:hi, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    radii = np.concatenate(radii)
    if radii.min() > budget:
        return None
    sizes = np.array([d.shape[0] for d in diag])
    size = int(sizes.max())
    stack = np.zeros((sizes.size, size, size))
    for out, d in zip(stack, diag):
        out[: d.shape[0], : d.shape[0]] = d
    diagonal = stack.reshape(sizes.size, -1)[:, :: size + 1]  # a view of each diagonal
    diagonal[np.arange(size) >= sizes[:, None]] = np.repeat(diagonal[:, 0], size - sizes)
    lam = np.linalg.eigvalsh(stack)
    lower, upper = float(np.min(lam[:, 0] - radii)), float(np.max(lam[:, -1] + radii))
    block_lower, block_upper = float(lam[:, 0].min()), float(lam[:, -1].max())
    if max(block_lower - lower, upper - block_upper) > budget:
        return None
    return lower, upper, block_lower, block_upper


def _gram_extremes(op: _Operator, blocks) -> np.ndarray:
    """Read-only (lower, upper) bounds on the spectrum of the block-diagonal
    matrix of the given blocks (b, G[b, b]) of the operator's G.

    Dense path: the extremes of eigvalsh of its one block.  Ring path: a
    class block is order-major, so the columns of one order |k| make a run
    and the block splits into order blocks, coupled only through the
    aliasing rings of at most 2m nodes.  Their ``_block_gershgorin``
    enclosure is taken where it widens the extremes of the order blocks by
    at most eps N trace G, the rounding budget ``_class_blocks`` gives the
    parity coupling; elsewhere the extremes of eigvalsh of the class blocks.
    """
    blocks = list(blocks)
    bounds = None
    if op.rings is not None:
        degree, runs = _degrees(op.m), []
        for b, g in blocks:
            order = np.abs(b - degree[b] * (degree[b] + 1))  # |k| of column n^2 + n + k
            runs.append((g, np.flatnonzero(np.diff(order, prepend=-1))))
        # op.rings[1], the ring of each node, has N entries
        budget = np.finfo(float).eps * op.rings[1].size * sum(np.trace(g) for _, g in blocks)
        bounds = _block_gershgorin(runs, budget)
    if bounds is None:
        spectra = [np.linalg.eigvalsh(g) for _, g in blocks]
        bounds = min(s[0] for s in spectra), max(s[-1] for s in spectra)
    lam = np.array(bounds[:2])
    lam.flags.writeable = False
    return lam


def _apply(op: _Operator, d: np.ndarray) -> np.ndarray:
    """B_w d."""
    return op.bw @ d if op.rings is None else _synthesis(op.m, *op.rings, d)


def _adjoint(op: _Operator, v: np.ndarray) -> np.ndarray:
    """B_w^T v."""
    return op.bw.T @ v if op.rings is None else _analysis(op.m, *op.rings, v)


def _rows(op: _Operator) -> np.ndarray:
    """B_w itself, for the SVD fallback (on the ring path built whole from the
    ring factors, its one (N, 2m+1) table of azimuthal factors)."""
    return op.bw if op.rings is None else _basis_rows(op.m, *op.rings)


def _column_multipliers(filt: MultiplierFilter, fam: MzFamily, m: int) -> np.ndarray:
    """The multiplier of every column of the degree-m basis (0 on inactive degrees)."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    if filt.m_max < m:
        raise ValueError(f"filter stores degrees up to {filt.m_max}, requested {m}")
    if len(fam.nodes) == 0:
        raise ValueError("empty sampling family")
    bcol = filt.b[_degrees(m)]
    if not np.any(bcol):
        raise ValueError("all multipliers vanish up to the requested degree")
    return bcol


class _System:
    """The path gate of one filter on the operator (``_active_system``).

    bcol holds the column multipliers and lam the (lower, upper) bounds on
    the spectrum of G restricted to the active columns, by the same route
    as op.lam (``_gram_extremes``; op.lam itself when every column is
    active).
    on_gram says whether the normal equations stand for the SVD with relative
    cutoff 1e-12 (see the module docstring).  The restricted blocks of G are
    made on demand, and that SVD is taken once, on first need.  The methods
    take the operator rather than keep it: the operator holds the gate, and
    a gate holding the operator would make a reference cycle.
    """

    def __init__(self, op: _Operator, bcol: np.ndarray):
        self.bcol, self._svd = bcol, None
        self.lam = op.lam if np.all(bcol != 0.0) else _gram_extremes(op, self.blocks(op))
        scale = np.abs(bcol[bcol != 0.0])
        spread = np.max(scale) / np.min(scale)
        self.on_gram = bool(self.lam[0] > _GRAM_RCOND * self.lam[-1]
                            and np.sqrt(self.lam[0] / self.lam[-1]) > _SVD_RCOND * spread)

    def blocks(self, op: _Operator):
        """(b, G[b, b]) over the blocks of G restricted to the active columns:
        G's own block where all its columns are active, else a copy."""
        for b, g in op.blocks:
            act = self.bcol[b] != 0.0
            if act.all():
                yield b, g
            elif act.any():
                yield b[act], g[np.ix_(act, act)]

    def rows(self, op: _Operator) -> np.ndarray:
        """The filtered matrix B_w D on the active columns."""
        cols = np.flatnonzero(self.bcol)
        return _rows(op)[:, cols] * self.bcol[None, cols]

    def svd(self, op: _Operator, rows: Optional[np.ndarray] = None) -> tuple:
        """Read-only (U, sigma, V^T) of the filtered matrix (rows, made here if
        not given), taken once."""
        if self._svd is None:
            self._svd = np.linalg.svd(self.rows(op) if rows is None else rows,
                                      full_matrices=False)
            for arr in self._svd:
                arr.flags.writeable = False
        return self._svd


def _active_system(filt: MultiplierFilter, fam: MzFamily, m: int) -> tuple:
    """The operator of the family at degree m and the path gate of the filter on it.

    The operator keeps the gate, so the solve and ``filtered_singular_values``
    of one filter share it and its eigensolve (or SVD) runs once; another
    filter replaces it.
    """
    bcol = _column_multipliers(filt, fam, m)
    op = _operator(fam, m)
    if op.system is None or not np.array_equal(op.system.bcol, bcol):
        op.system = _System(op, bcol)
    return op, op.system


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
    op, system = _active_system(filt, fam, m)
    bcol = system.bcol
    cols = np.flatnonzero(bcol)
    ytil = y * np.sqrt(fam.weights)
    coeffs = np.zeros(num_coeffs(m))
    if system.on_gram:
        d = np.zeros(num_coeffs(m))
        rhs = _adjoint(op, ytil)
        for b, g in system.blocks(op):
            d[b] = np.linalg.solve(g, rhs[b])
        coeffs[cols] = d[cols] / bcol[cols]
        residual = float(np.linalg.norm(_apply(op, d) - ytil))
        rank = cols.size
        # d solves the unfiltered system, whose smallest squared singular
        # value is lambda_min(G_act).
        solved, lower = d, system.lam[0]
    else:
        mat = system.rows(op)
        u, sv, vt = system.svd(op, mat)
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


def filtered_singular_values(filt: MultiplierFilter, fam: MzFamily, m: int) -> tuple:
    """(sigma_max, sigma_min), the extreme singular values of the filtered
    matrix B_w D on the active degrees.

    Where ``lsq_solve`` takes the normal equations, each end comes from the
    eigensolve that resolves it to eps relative to itself (Demmel &
    Veselic, SIAM J. Matrix Anal. Appl. 13, 1992): sigma_max^2 is the top
    eigenvalue of D G D and sigma_min^2 the inverse of the top eigenvalue of
    D^{-1} G^{-1} D^{-1}.  D is diagonal, so both are maxima over the blocks
    of G, taken one block at a time.  Elsewhere they are the two ends of the
    SVD of B_w D.
    """
    op, system = _active_system(filt, fam, m)
    if not system.on_gram:
        sv = system.svd(op)[1]
        return float(sv[0]), float(sv[-1])
    top = inv_top = 0.0
    for b, g in system.blocks(op):
        scale = system.bcol[b]
        inv_scale = 1.0 / scale
        top = max(top, np.linalg.eigvalsh(scale[:, None] * g * scale[None, :])[-1])
        inv_top = max(inv_top, np.linalg.eigvalsh(
            inv_scale[:, None] * np.linalg.inv(g) * inv_scale[None, :])[-1])
    # on one column, or a flat spectrum, the two estimates can lie an ulp
    # apart in either order; the min keeps the pair descending
    return math.sqrt(top), math.sqrt(min(top, 1.0 / inv_top))


def solution_to_json(report: LsqReport, sv: tuple) -> dict:
    """Solution and diagnostics; sv = (sigma_max, sigma_min), the pair
    ``filtered_singular_values`` returns for the same solve (the top
    eigenvalue of D G D and the inverse top eigenvalue of
    D^{-1} G^{-1} D^{-1} on the normal-equations path, the ends of the SVD
    elsewhere).

    frame_lower / frame_upper are sigma_min^2 / sigma_max^2 of the filtered
    matrix, not the MZ frame constants of the family (certify.mz_constants).
    """
    sigma_max, sigma_min = sv
    return {
        "m_max": report.solution.m_max,
        "coeffs": [float(v) for v in report.solution.coeffs],
        "report": {
            "residual": report.residual,
            "rank": report.rank,
            "full_rank": report.full_rank,
            "frame_lower": sigma_min**2,
            "frame_upper": sigma_max**2,
            "sigma_max": sigma_max,
            "sigma_min": sigma_min,
            "active_degrees": list(report.active_degrees),
        },
    }
