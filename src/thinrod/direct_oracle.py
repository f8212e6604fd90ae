"""Direct eigensolve of the straightened-rod operator, for verification.

The curved, twisted rod of half-width ``eps`` is mapped onto the fixed
cylinder (0, s0) x omega.  In the straightened coordinates the Dirichlet
Laplacian becomes a generalized pencil (H(eps), B(eps)) on the tensor grid
shared with :mod:`thinrod.asymptotic_engine`:

    H(eps) = eps^-2 * (transverse flux, edge weight p)          p = 1 - eps q
           + (flux along s, edge weight 1/(1 - eps q_mid))
           - [D_s c R + R c D_s]                                c = k3 / p
           - R (k3^2 / p) R

    B(eps) = diag(1 - eps q)

with q = kappa1 xi2 - kappa2 xi3 and R the discrete angular derivative.
Every block is in divergence (flux) form with midpoint coefficient
averaging, so H is symmetric; because q is affine on the section, the
transverse block collapses exactly to a combination of the shared section
stencils, which keeps the two computation routes on identical discrete
operators.  Expanding the coefficients in powers of eps reproduces, order
by order, the operators applied by the asymptotic engine; that identity is
exposed as :func:`series_defect`, which sums the F_j through the same
coupling apply as the recurrence, and is checked by the selftest and the
test-suite.

Unknowns are the interior nodes in every direction, ordered s-major
(flat index = s_index * n_omega + section_index), matching
``field[1:-1].reshape(-1)`` for the engine's full-grid fields.

Only the coefficients depend on eps.  A :class:`PencilFamily` holds
everything else for one (frame, grid): H's sparsity pattern (int32, laid
out from one interior s-slab), the section-sized maps from per-node
coefficients to block values, the int32 index that gathers H.data from
those values, and the separable eigenbasis.  A run that solves several eps
builds one family and fills only H.data per eps; :func:`assemble` is the
one-off form of the same path.

The separable part of the pencil, eps^-2 S (x) I + I (x) D_s, has the
two-parametric spectrum eps^-2 lambda_n(omega) + theta_m, one rung per
section mode n and axial sine mode m, and the eigenbasis axial sine (x)
section mode.  The family holds it once: the section basis
(:attr:`PencilFamily.section_basis`), the axial sines and the rung array
(:meth:`PencilFamily.rungs`).  The start block (the lowest rungs' basis
vectors), the preconditioner's denominators and the CLI's eigenpair count
all read it; :func:`separable_eigenvalues` solves the section separately,
as an independent reference.

Solves are deterministic: one block LOBPCG run, implemented here, starts
from the start block and is preconditioned by the exact shifted inverse of
the separable part (applied as matrix products, in float32; everything
else in the solve is float64).  The section eigenbasis is
:func:`thinrod.cross_section.section_basis`: two sine transforms with
closed-form eigenvalues on a full rectangular mask, on any other a dense
eigh per parity block of the mask's mirror symmetries, which refuses a
section whose blocks' squares sum above 4096^2 (a mask with no mirror
symmetry above 4096 interior nodes, a disk above section.n 101; the CLI
runs the same check first).

One residual serves the stop test, the acceptance, the window edge and the
certificate: rho = ||B^-1/2 (H u - lambda B u)|| / ||B^1/2 u||, so that
some eigenvalue of the pencil lies within rho of lambda (Parlett, The
Symmetric Eigenvalue Problem).  The run stops at the first step where the
K requested pairs reach ``target = max(tol, 8 * eps_mach * ||H||_inf)``
(tol is 1e-8 by default; the second term estimates rho's floating-point
floor, which on a very thin rod can lie above it: see the README) and rho
recomputed from H meets it as well; a run that ends at
maxiter must still meet it, or the solve raises SolverFail with LOBPCG's
residual history.  The guard columns beyond K only set the window edge and
need not converge.
"""

from __future__ import annotations

import functools
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import asymptotic_engine as engine
from .cross_section import (
    SectionGrid,
    _cast_once,
    _dirichlet_eigenvalues,
    _sine_matrix,
    build_operators,
    section_basis,
    solve_section,
)
from .errors import SolverFail, UnderresolvedWindow
from .geometry import FrameField

__all__ = [
    "TransformedOperator",
    "DirectSolution",
    "CompareRow",
    "assemble",
    "solve_direct",
    "residual_certificate",
    "compare",
    "series_defect",
    "separable_eigenvalues",
    "operator_checks",
    "dump_matrix",
    "to_vector",
    "to_field",
]

_MACH = float(np.finfo(float).eps)


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------


def _pattern(*mats) -> sp.csr_matrix:
    """Structural union of section matrices: CSR, sorted, no cancellation
    (the absolute values are summed), data not meaningful."""
    P = abs(mats[0])
    for A in mats[1:]:
        P = P + abs(A)
    P = P.tocsr()
    P.sum_duplicates()
    P.sort_indices()
    return P


def _entry_index(P: sp.csr_matrix, rows, cols) -> np.ndarray:
    """Position in P.data of each (row, col), which must be in P's pattern."""
    nw = P.shape[1]
    key = np.repeat(np.arange(nw, dtype=np.int64), np.diff(P.indptr)) * nw + P.indices
    return np.searchsorted(key, np.asarray(rows, np.int64) * nw + cols)


def _on_pattern(P: sp.csr_matrix, A) -> np.ndarray:
    """The values of A (pattern inside P's) aligned with P.data."""
    A = sp.coo_matrix(A)
    out = np.zeros(P.nnz)
    np.add.at(out, _entry_index(P, A.row, A.col), A.data)
    return out


class PencilFamily:
    """Everything about the pencil on one (frame, grid) that does not
    depend on eps, built once so that each eps only fills values.

    H is block tridiagonal in the s-slabs.  Every diagonal block has the
    section pattern of S and R^T R, every off-diagonal block that of R and
    I.  H's CSR pattern (int32 indices and row pointer, shared by every
    pencil of the family) comes from one interior slab, whose rows hold the
    blocks (i, i-1), (i, i) and (i, i+1): slab i shifts its columns by
    (i - 1) n_omega and drops those outside H, which are exactly the first
    slab's block (0, -1) and the last slab's (M_s - 3, M_s - 2).  On slab
    i, with c = 1 / (1 - eps q_mid) on the s-edges and (k3 / p) on the
    nodes, the blocks are

      (i, i)    eps^-2 S - eps^-1 (k1 G2 + k2 G3) + R^T (k3^2 / p) R
                + diag(c_{i-1/2} + c_{i+1/2}) / h_s^2
      (i, i+1)  -diag(c_{i+1/2}) / h_s^2
                - [R diag(k3/p)_i + diag(k3/p)_{i+1} R] / (2 h_s)

    The transverse flux with edge weight p = 1 - eps q is exactly
    eps^-2 S - eps^-1 [kappa1 G2 + kappa2 G3] because q is affine on the
    section, with G2 = xi2 S - D2 and G3 = D3 - xi3 S averaged with their
    transposes.  Each block is linear in its coefficients, so one
    section-sized sparse map per block kind takes a stack of coefficient
    rows (one column per slab) to the values of every slab at once: a fill
    is two sparse products and one gather into H.data, through an int32
    index with one entry per entry of H, built with the pattern.  Only the
    upper triangle of a diagonal block is computed: a strictly lower entry
    reads its upper mirror, and an entry of block (i, i-1) the mirrored
    entry of block (i-1, i), so H is exactly symmetric as stored.
    Every rod takes this one path, and its only choice is R: on an
    untwisted rod it stores no entry, so the pattern leaves out every R
    term and H holds no explicit zeros.  G2 and G3 have S's pattern, so on
    a straight rod their zero coefficients add only +-0 to S's entries.

    The family also keeps the separable eigenbasis every solve reads at
    every eps: the section basis, the axial sine transform and, from
    both, the rungs.
    """

    def __init__(self, frame: FrameField, grid: SectionGrid):
        self.frame, self.grid = frame, grid
        self.q = engine._tilt(frame, grid)
        ms, nw = frame.s_grid.size - 2, grid.n_interior
        hs = frame.h
        ops = build_operators(grid)
        I_w = sp.identity(nw, format="csr")
        # the one choice of rod kind: no R term on an untwisted rod
        R = ops.R if np.abs(frame.kappa3).max() > 0.0 else sp.csr_matrix((nw, nw))
        Rc = R.tocoo()

        # diagonal blocks: pattern, and the map from coefficient rows to
        # the upper triangle
        Pd = _pattern(ops.S, R.T @ R)
        row_d = np.repeat(np.arange(nw), np.diff(Pd.indptr))
        upper = np.flatnonzero(Pd.indices >= row_d)
        G2 = sp.diags(grid.xi2) @ ops.S - ops.D2
        G3 = ops.D3 - sp.diags(grid.xi3) @ ops.S
        stencils = [ops.S, (G2 + G2.T) * 0.5, (G3 + G3.T) * 0.5]
        cols = [sp.csr_matrix(np.column_stack([_on_pattern(Pd, A) for A in stencils]))]
        # R^T diag(c) R at (a, e) is the sum over b of R[b, a] R[b, e] c_b:
        # one term per pair (t, u) of stored entries in the same row b
        row = sp.csr_matrix((np.ones(Rc.nnz), (np.arange(Rc.nnz), Rc.row)),
                            shape=(Rc.nnz, nw))
        pairs = (row @ row.T).tocoo()
        t, u = pairs.row, pairs.col
        cols.append(sp.csr_matrix(
            (Rc.data[t] * Rc.data[u],
             (_entry_index(Pd, Rc.col[t], Rc.col[u]), Rc.row[t])),
            shape=(Pd.nnz, nw),
        ))
        diag = _entry_index(Pd, np.arange(nw), np.arange(nw))
        cols.append(sp.csr_matrix((np.ones(nw), (diag, np.arange(nw))),
                                  shape=(Pd.nnz, nw)))
        self._diag_map = sp.hstack(cols, format="csr")[upper]

        # off-diagonal blocks (i, i+1)
        Po = _pattern(I_w, R)
        row_o, col_o = np.repeat(np.arange(nw), np.diff(Po.indptr)), Po.indices
        ident = _entry_index(Po, np.arange(nw), np.arange(nw))
        cols = [sp.csr_matrix((np.ones(nw), (ident, np.arange(nw))),
                              shape=(Po.nnz, nw))]
        r_at = _entry_index(Po, Rc.row, Rc.col)
        r = Rc.data * (-0.5 / hs)
        for node in (Rc.col, Rc.row):  # (k3/p)_i at b, (k3/p)_{i+1} at a
            cols.append(sp.csr_matrix((r, (r_at, node)), shape=(Po.nnz, nw)))
        self._off_map = sp.hstack(cols, format="csr")

        # H's pattern from one interior slab, whose rows hold the blocks
        # (i, i-1) = O_{i-1}^T, (i, i) and (i, i+1) at column offsets 0, nw
        # and 2 nw.  On slab i its entry e reads entry at[e] + i of the
        # block values `assemble` computes, [Du.ravel(), Ov.ravel()] with
        # one column per slab: a strictly lower entry of the diagonal block
        # reads its upper mirror, an entry of O_{i-1}^T the mirrored entry
        # of O_{i-1}
        read = np.empty(Pd.nnz, dtype=np.int64)
        read[upper] = np.arange(upper.size) * ms
        low = np.flatnonzero(Pd.indices < row_d)
        read[low] = read[_entry_index(Pd, Pd.indices[low], row_d[low])]
        off = upper.size * ms + np.arange(Po.nnz) * (ms - 1)
        rows = np.concatenate([col_o, row_d, row_o])
        cols = np.concatenate([row_o, Pd.indices + nw, col_o + 2 * nw])
        order = np.argsort(rows * 3 * nw + cols)
        cols = cols[order].astype(np.int32)
        at = np.concatenate([off - 1, read, off])[order].astype(np.int32)

        # slab i shifts the columns by (i - 1) nw and drops those outside H,
        # which are the first slab's block (0, -1) and the last's (ms-1, ms)
        nnz = ms * cols.size - 2 * Po.nnz
        if nnz >= 2**31:
            raise SolverFail(f"H would have {nnz} nonzeros, past int32 indices")
        i = np.arange(ms, dtype=np.int32)[:, None]
        shifted = cols + (i - 1) * nw  # (ms, slab entries)
        keep = (shifted >= 0) & (shifted < ms * nw)
        self.indices = shifted[keep]
        self._gather = np.add(at, i, out=shifted)[keep]  # columns spent
        # row a of slab i: row a of the diagonal block, and of the blocks
        # (i, i-1) and (i, i+1) where they lie inside H
        lens = (np.diff(Pd.indptr) + np.bincount(col_o, minlength=nw) * (i > 0)
                + np.diff(Po.indptr) * (i < ms - 1))
        self.indptr = np.zeros(ms * nw + 1, dtype=np.int32)
        np.cumsum(lens, out=self.indptr[1:])

    @functools.cached_property
    def section_basis(self):
        """(lam_sec, to_modes, from_modes) of the section Laplacian S, from
        :func:`thinrod.cross_section.section_basis`, built once."""
        return section_basis(self.grid)

    @functools.cached_property
    def axial_sine(self) -> np.ndarray:
        """The orthonormal sine transform along the interior s-nodes."""
        return _sine_matrix(self.frame.s_grid.size - 2)

    def rungs(self, eps: float, m_max: int) -> np.ndarray:
        """The separable rungs eps^-2 lambda_n + theta_m, shape (n_omega,
        m_max): one row per entry of the section basis's lam_sec, in its
        order, and one column per axial sine mode m = 1..m_max."""
        theta = _dirichlet_eigenvalues(self.frame.h, self.frame.s0, m_max)
        return eps**-2.0 * self.section_basis[0][:, None] + theta[None, :]

    def assemble(self, eps: float) -> "TransformedOperator":
        """The pencil at `eps`: a fresh H.data on the family's pattern.

        Requires eps * max|q| < 1/2 (else EpsilonOutOfRange), so the weight
        1 - eps q stays in [1/2, 3/2].
        """
        q, frame = self.q, self.frame
        engine.check_epsilon(q, eps)
        k1, k2, k3 = frame.kappa1[1:-1], frame.kappa2[1:-1], frame.kappa3[1:-1]
        ms, nw, hs = q.shape[0] - 2, q.shape[1], frame.h

        # edge coefficient of the flux along s, boundary edges included
        c_s = 1.0 / (1.0 - eps * (0.5 * (q[:-1] + q[1:])))  # (M_s - 1, n_omega)
        p_int = 1.0 - eps * q[1:-1]
        coef = np.vstack([np.full((1, ms), eps**-2.0), -k1[None, :] / eps,
                          -k2[None, :] / eps, (k3[:, None] ** 2 / p_int).T,
                          ((c_s[:-1] + c_s[1:]) / hs**2).T])
        Du = self._diag_map @ coef  # (upper entries, ms)
        c = (k3[:, None] / p_int).T
        coef = np.vstack([(-c_s[1:-1] / hs**2).T, c[:, :-1], c[:, 1:]])
        Ov = self._off_map @ coef  # (R u I entries, ms - 1)
        data = np.concatenate([Du.ravel(), Ov.ravel()])[self._gather]

        n = ms * nw
        H = sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))
        H.has_sorted_indices = True
        return TransformedOperator(
            eps=float(eps), family=self, H=H, B=p_int.reshape(-1).copy()
        )


@dataclass
class TransformedOperator:
    """Sparse symmetric pencil (H, B) for one rod geometry and eps."""

    eps: float
    family: PencilFamily
    H: sp.csr_matrix
    B: np.ndarray  # diagonal of the weight matrix, interior tensor nodes

    @property
    def frame(self) -> FrameField:
        return self.family.frame

    @property
    def grid(self) -> SectionGrid:
        return self.family.grid

    @property
    def q(self) -> np.ndarray:
        """Full-grid (M_s, n_omega) tilt field."""
        return self.family.q

    @property
    def M_s(self) -> int:
        return self.frame.s_grid.size

    @property
    def n_omega(self) -> int:
        return self.grid.n_interior

    @property
    def n(self) -> int:
        return (self.M_s - 2) * self.n_omega

    @property
    def p(self) -> np.ndarray:
        """Nodal weight 1 - eps q on the full grid."""
        return 1.0 - self.eps * self.q


def to_vector(op: TransformedOperator, field: np.ndarray) -> np.ndarray:
    """Flatten a full-grid (M_s, n_omega) field to the unknown vector."""
    field = np.asarray(field, dtype=float)
    if field.shape != (op.M_s, op.n_omega):
        raise ValueError(f"expected field shape {(op.M_s, op.n_omega)}")
    return field[1:-1].reshape(-1).copy()


def to_field(op: TransformedOperator, vec: np.ndarray) -> np.ndarray:
    """Lift an unknown vector to a full-grid field with zero end rows."""
    out = np.zeros((op.M_s, op.n_omega))
    out[1:-1] = np.asarray(vec, dtype=float).reshape(op.M_s - 2, op.n_omega)
    return out


def assemble(frame: FrameField, grid: SectionGrid, eps: float) -> TransformedOperator:
    """Build the sparse symmetric pencil (H(eps), B(eps)) on the section grid.

    The library entry point for one pencil: a one-off :class:`PencilFamily`
    filled at eps.  A caller that solves several eps on the same (frame,
    grid) builds the family once and calls its `assemble` per eps instead.
    Requires eps * max|q| < 1/2 (else EpsilonOutOfRange).  Dirichlet rows
    are eliminated: unknowns are interior nodes only.  H is exactly
    symmetric as stored.
    """
    return PencilFamily(frame, grid).assemble(eps)


def operator_checks(op: TransformedOperator) -> dict:
    """Measured invariants of an assembled pencil, each O(nnz(H)).

    symmetry_defect : max |H - H^T| entry (0.0 by construction)
    b_range         : (min, max) of the weight diagonal, inside [1/2, 3/2]
    Positivity of H needs a dense Cholesky, O(n^3): the tests and the
    selftest take one of their small H.
    """
    dif = (op.H - op.H.T).tocsr()
    sym = float(np.abs(dif.data).max()) if dif.nnz else 0.0
    return {
        "symmetry_defect": sym,
        "b_range": (float(op.B.min()), float(op.B.max())),
    }


def dump_matrix(op: TransformedOperator, path) -> None:
    """Write H as `row col value` with 0-based indices.

    The header line follows the MatrixMarket coordinate format; only the
    lower triangle is stored (the matrix is exactly symmetric).  Note the
    0-based indices, stated in the comment line.
    """
    coo = sp.tril(op.H).tocoo()
    with open(path, "w", encoding="ascii") as f:
        f.write("%%MatrixMarket matrix coordinate real symmetric\n")
        f.write("% 0-based indices; lower triangle of the symmetric H\n")
        f.write(f"{op.H.shape[0]} {op.H.shape[1]} {coo.nnz}\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            f.write(f"{i} {j} {v:.17g}\n")


# ----------------------------------------------------------------------
# coefficient series identity against the order-by-order appliers
# ----------------------------------------------------------------------


def _probe_field(op: TransformedOperator) -> np.ndarray:
    """Deterministic dense probe field with zero end rows."""
    idx = np.arange(op.n, dtype=float)
    z = np.sin(0.7 + 1.9 * idx) + 0.5 * np.cos(0.3 + 0.11 * idx)
    return to_field(op, z)


def series_defect(
    op: TransformedOperator, K: int, field: np.ndarray | None = None
) -> float:
    """Residual of the eps-power-series identity for H, truncated at order K.

    || H z - [eps^-2 S z - sum_{j=1..K} eps^{j-2} F_j z] || / ||H z||,
    with F_1 from the asymptotic engine's F_1 stencil and the j >= 2 terms
    from one call of its coupling sum on [eps^k z for k < K - 1], the
    recurrence's Horner apply (no call for K = 1).  The tail is geometric
    in eps*max|q| (the transverse block is exact for K >= 1); it reaches
    the floating-point floor once (eps max|q|)^{K-1} does.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    spectrum = solve_section(op.grid, 2)
    ctx = engine.build_context(op.frame, spectrum)
    Z = _probe_field(op) if field is None else np.asarray(field, float)
    z = to_vector(op, Z)
    acc = to_field(op, op.H @ z)
    acc[1:-1] -= op.eps**-2.0 * (spectrum.ops.S @ Z[1:-1].T).T
    acc += engine._f1_minus_lq(ctx, Z, 0.0) / op.eps
    if K > 1:
        acc += engine.apply_Fj(ctx, [op.eps**k * Z for k in range(K - 1)])
    return float(
        np.sqrt(np.sum(acc**2)) / np.sqrt(np.sum((op.H @ z) ** 2))
    )


# ----------------------------------------------------------------------
# eigensolve
# ----------------------------------------------------------------------


@dataclass
class DirectSolution:
    """Lowest eigenpairs of H u = lambda B u, ascending and B-orthonormal.

    `residuals` holds rho = ||B^-1/2 (H u - lambda B u)|| / ||B^1/2 u|| per
    returned pair, each at most `target` = max(tol, 8 eps_mach ||H||_inf);
    `ritz_all` includes the guard values computed beyond the requested K and
    `window_guard` = top guard value minus its rho, the reliable upper edge
    for nearest-eigenvalue claims; `history` is described in
    :func:`solve_direct`.
    """

    op: TransformedOperator
    lam: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    ritz_all: np.ndarray
    window_guard: float
    target: float
    history: list = field(default_factory=list)


def _column_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of A, in one pass and no temporary of
    A's size (np.linalg.norm squares A into a copy first); on a C-ordered
    block of two or more columns it has norm's bits."""
    return np.sqrt(np.einsum("ij,ij->j", A, A))


def _rho(H, Bd, U, lam):
    """rho = ||B^-1/2 (H u - lam B u)|| / ||B^1/2 u|| of the vector u = U, or
    of each column u of U with its entry of lam (B is diagonal, so the
    scaling is exact): some eigenvalue of the pencil lies within rho of lam."""
    s, norm = np.sqrt(Bd), np.linalg.norm  # a vector's norm is one dot product
    if U.ndim == 2:
        s, Bd, norm = s[:, None], Bd[:, None], _column_norms
    den = norm(s * U)
    # in place, at most two arrays of U's size at a time, with the bits of
    # (H @ U - (Bd * U) * lam) / s
    R = H @ U
    T = Bd * U
    T *= lam
    R -= T
    del T
    R /= s
    return norm(R) / den


def _start_block(op: TransformedOperator, nb: int) -> np.ndarray:
    """Separable starting vectors: the basis vectors of the nb lowest rungs.

    The column of rung (i, m) of :meth:`PencilFamily.rungs` is axial sine m
    times section basis vector i; a stable sort keeps tied rungs in the
    rung array's order.  nb <= n / 4 (the solver's block limit) guarantees
    nb rungs.
    """
    family = op.family
    _, _, from_modes = family.section_basis
    rungs = family.rungs(op.eps, min(nb, op.M_s - 2))
    i, m = np.unravel_index(
        np.argsort(rungs, axis=None, kind="stable")[:nb], rungs.shape
    )
    unit = np.zeros((op.n_omega, nb))
    unit[i, np.arange(nb)] = 1.0
    section = from_modes(unit)  # (n_omega, nb)
    axial = family.axial_sine[:, m]  # (M_s - 2, nb)
    return (axial[:, None, :] * section[None, :, :]).reshape(op.n, nb)


def _separable_preconditioner(op: TransformedOperator):
    """Exact shifted inverse of the separable part of the pencil, as a
    function of a vector or a column stack.

    H splits as eps^-2 S (x) I + I (x) D_s plus curvature/twist blocks that
    are relatively bounded, so (sep - sigma I)^{-1} with sigma = eps^-2
    lambda_1(S) is spectrally equivalent to (H - sigma B)^{-1}: it resolves
    the eps^-2 anisotropy that defeats black-box multigrid at small eps.
    Applied as matrix products on the s-major unknowns: the orthonormal
    type-I discrete sine transform matrix along the axis (symmetric, its own
    inverse), the transposed section eigenbasis, the diagonal scaling, and
    back.  The denominators are the family's rungs, minus sigma.  That
    shift removes exactly the transverse eps^-2 lambda_1 of the ansatz
    Psi(s) phi_1(xi), so the (1, m) denominators are theta_m,
    the axial operator alone, and do not depend on eps: the LOBPCG count
    stays flat as the rod thins (a shift a fixed fraction below eps^-2
    lambda_1 leaves the wanted pairs O(eps^-2) above it, and the
    preconditioned gaps shrink like eps^2).  Every denominator is at least
    theta_1 > 0, so the operator stays SPD.  The section eigenbasis is the
    family's (:func:`thinrod.cross_section.section_basis`).

    The apply runs in the dtype of its input, and `_lobpcg` hands it
    float32 blocks: the axial sine, the section products and the
    denominators are float64 and get float32 copies on the first float32
    input, which halves the bytes of every transform and runs its GEMMs in
    single precision.  The preconditioner only picks search directions;
    rho, the Rayleigh-Ritz step and every certificate stay float64 (mixed
    precision: Higham & Mary, Acta Numerica 31, 2022), so its float32
    rounding moves where a step searches, not what a solve accepts.  A
    float64 input gets the float64 apply, the exact inverse to rounding.
    """
    ms, nw = op.M_s - 2, op.n_omega
    family = op.family
    lam_sec, to_modes, from_modes = family.section_basis
    sine = _cast_once(family.axial_sine)
    inv_denom = _cast_once(
        1.0 / (family.rungs(op.eps, ms) - op.eps**-2.0 * lam_sec.min())
    )

    def apply(X):
        k = X.size // op.n
        U = sine(X.dtype) @ X.reshape(ms, nw * k)
        U = U.reshape(ms, nw, k).transpose(1, 0, 2).reshape(nw, ms * k)
        U = to_modes(U).reshape(nw, ms, k)
        U *= inv_denom(X.dtype)[:, :, None]
        U = from_modes(U.reshape(nw, ms * k))
        U = U.reshape(nw, ms, k).transpose(1, 0, 2).reshape(ms, nw * k)
        return (sine(X.dtype) @ U).reshape(X.shape)

    return apply


def _svqb(S: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning S (SVQB): eigh of the column-scaled Gram
    matrix, dropping directions below 1e-10 of the largest."""
    G = S.T @ S
    d = 1.0 / np.sqrt(np.diag(G))
    theta, V = np.linalg.eigh(G * d[:, None] * d[None, :])
    keep = theta > 1e-10 * theta[-1]
    return S @ (d[:, None] * V[:, keep] / np.sqrt(theta[keep]))


def _lobpcg(H, Bd, X, prec, K: int, target: float, maxiter: int):
    """Lowest Ritz pairs of H u = lambda B u by block LOBPCG from the block X.

    Knyazev's iteration with the explicit orthonormalization of Duersch,
    Shao, Yang & Gu (SIAM J. Sci. Comput. 40, 2018), in y = B^1/2 u, where
    every inner product is Euclidean.  Each step preconditions the residuals
    (W = M R), orthogonalizes [W, P] against X twice, orthonormalizes it by
    SVQB twice, applies H to it explicitly and does the Rayleigh-Ritz step
    with X^T H X = diag(lambda).  In y, AX - X lambda = B^-1/2 (H u -
    lambda B u): its column norms over those of X are the rho of
    :func:`_rho`, and B^1/2 (AX - X lambda) is what M is applied to, in
    float32: the casts to float32 and back to float64 ride on the two B^1/2
    scalings around M, so they add no pass over a block, and everything
    else is float64.  It
    has one stop test, made before each preconditioner apply: the first K
    pairs have rho <= target.  Near the rounding floor of rho the
    accumulated AX drifts from H X by a few percent of rho, so the stop is
    taken only if rho recomputed from H (:func:`_rho`) also meets the
    target; a refused check leaves the iterate as it was.  It always stops
    after maxiter steps.  The other columns are guards, carried but not
    required to converge.  Returns (lambda, B-orthonormal u, history entry,
    recomputed rho of every column).

    Its working set, in blocks of n x nb doubles beyond H and the start
    block, is X, AX and the [W, P] buffer (two), with every other block
    freed once spent: R once it is cast to float32 for M (whose own
    temporaries are float32 too, half a block each), S and AS at the end of
    their step, V when the recomputed rho refuses a stop.  Once
    orthonormalized, [W, P] is scratch: it takes S / B^1/2 for the H-apply,
    then AS Zs and AX Zx.  So the H-apply holds X, AX, [W, P], S and AS (S
    of up to 2 nb columns), and the stop X, AX, [W, P], R, V and the two
    temporaries of :func:`_rho`: eight blocks each.
    """
    nb = X.shape[1]
    s = np.sqrt(Bd)[:, None]
    WP = np.empty((X.shape[0], 2 * nb))  # [W, P], P empty on the first step
    spent = WP.reshape(-1)  # the same memory, for scratch once [W, P] is read
    stage = {
        "stage": "lobpcg",
        "preconditioner": "separable",
        "iterations": 0,
        "residual_history": [],
    }

    def apply_h(Y):
        # Y / s goes contiguously into [W, P], which no caller still needs
        AY = H @ np.divide(Y, s, out=spent[: Y.size].reshape(Y.shape))
        AY /= s
        return AY

    X = _svqb(_svqb(s * X))
    if X.shape[1] < nb:
        raise SolverFail("degenerate start block")
    AX = apply_h(X)
    lam, C = np.linalg.eigh(X.T @ AX)
    X, AX = X @ C, AX @ C
    n_p = 0
    while True:
        R = X * -lam
        R += AX  # B^-1/2 (H u - lambda B u)
        rho = _column_norms(R) / _column_norms(X)
        history = stage["residual_history"]
        history.append(float(rho[:K].max()))
        if history[-1] <= target or stage["iterations"] == maxiter:
            V = X / s
            res = _rho(H, Bd, V, lam)
            if res[:K].max() <= target or stage["iterations"] == maxiter:
                return lam, V, stage, res
            del V
        # H u - lambda B u in float32, and M R back to float64 in [W, P]:
        # each cast rides on a B^1/2 scaling the step makes anyway
        R = np.multiply(R, s, dtype=np.float32)
        stage["iterations"] += 1
        np.multiply(prec(R), s, out=WP[:, :nb])
        del R
        S = WP[:, : nb + n_p]
        for _ in range(2):
            S -= X @ (X.T @ S)
        S = _svqb(_svqb(S))
        AS = apply_h(S)
        XAS = X.T @ AS
        theta, Z = np.linalg.eigh(np.block([[np.diag(lam), XAS], [XAS.T, S.T @ AS]]))
        lam, Zx, Zs = theta[:nb], Z[:nb, :nb], Z[nb:, :nb]
        # AS Zs and AX Zx go into the spent [W, P], so AX is updated in
        # place: no block is made while S and AS are live
        ASZ = np.matmul(AS, Zs, out=spent[: X.size].reshape(X.shape))
        AXZ = np.matmul(AX, Zx, out=spent[X.size : 2 * X.size].reshape(X.shape))
        np.add(AXZ, ASZ, out=AX)
        del AS
        np.matmul(S, Zs, out=WP[:, nb:])
        del S
        n_p = nb
        X = X @ Zx
        X += WP[:, nb:]


def _inf_norm(H: sp.csr_matrix) -> float:
    """max_i sum_j |H_ij|, in one pass over the CSR row segments of H.data.
    Every row of a pencil holds its positive diagonal, so no segment is
    empty (np.add.reduceat reads an empty one as the next row's first
    entry)."""
    return float(np.add.reduceat(np.abs(H.data), H.indptr[:-1]).max())


_MIN_GUARDS = 3


def max_pairs(n: int) -> int:
    """Largest K `solve_direct` accepts on n unknowns: LOBPCG's block limit
    of n // 4 columns less the guard columns it always keeps."""
    return n // 4 - _MIN_GUARDS


def solve_direct(
    op: TransformedOperator,
    K: int,
    *,
    tol: float = 1e-8,
    maxiter: int = 150,
) -> DirectSolution:
    """Lowest K eigenpairs of H u = lambda B u, deterministically.

    One preconditioned block LOBPCG run (Knyazev, SIAM J. Sci. Comput. 23,
    2001; see `_lobpcg`) of at most `maxiter` iterations on a block of
    min(K + max(3, K), n // 4) columns.  At least three of them are guards,
    so K may be at most `max_pairs(n)` = n // 4 - 3 (else SolverFail before
    any iteration): with no guard, a cluster cut by the block edge can stall
    LOBPCG short of the target.  It stops at the first step where the K
    requested pairs have rho = ||B^-1/2 (H u - lambda B u)|| / ||B^1/2 u||
    <= target, where target = max(tol, 8 eps_mach ||H||_inf) (the norm in
    one pass over H's rows, :func:`_inf_norm`), and rho recomputed from H
    (:func:`_rho`) meets the target too; after maxiter steps each requested
    pair must still meet it, or SolverFail is raised with the history.  The
    solution records the target.  The window edge is the top guard's Ritz
    value minus its rho: an unconverged guard only lowers it.  SolverFail
    is also raised for a start block of fewer than nb independent columns,
    for a ground eigenvalue that is not simple (K >= 2), and, before any
    iteration, for a non-rectangular section whose parity blocks' squares
    sum above cross_section._SPECTRAL_CUTOFF^2, when the preconditioner
    reads the section basis.

    The history has one entry: `stage` (always "lobpcg"), `preconditioner`
    (always "separable"), `iterations` (preconditioned steps, each one
    preconditioner apply and one block product with H, after the start
    block's), `residual_history` (per iteration, starting with the start
    block, the largest rho over the K requested pairs) and `max_resid` (the
    largest recomputed rho over all pairs, guards included).

    The preconditioner applies in float32 (see
    `_separable_preconditioner`); the H-applies, the orthonormalization,
    the Rayleigh-Ritz step, rho, the stop test and the returned pairs are
    float64.  Beyond H, B and the pencil family, the solve's working set is
    about eight blocks of n x nb doubles, reached during each H-apply (X,
    AX, [W, P], S, AS) and at the stop (X, AX, [W, P], R, V and the
    recomputed rho's two temporaries); see `_lobpcg`.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    n = op.n
    if K > n - 1:
        raise ValueError(f"K = {K} too large for {n} unknowns")
    H, Bd = op.H, op.B
    hnorm = _inf_norm(H)
    target = max(tol, 8 * _MACH * hnorm)
    if K > max_pairs(n):
        raise SolverFail(
            f"K = {K} leaves fewer than {_MIN_GUARDS} guard columns in the block "
            f"of {n // 4}; at most {max_pairs(n)} pairs, or refine the grid"
        )
    nb = min(K + max(_MIN_GUARDS, K), n // 4)
    prec = _separable_preconditioner(op)
    w, V, stage, res = _lobpcg(H, Bd, _start_block(op, nb), prec, K, target, maxiter)
    stage["max_resid"] = float(res.max())
    history = [stage]

    if res[:K].max() > target:
        raise SolverFail(
            f"direct solve stalled at residual {res[:K].max():.3e} "
            f"(target {target:.3e})",
            history=history,
        )
    if K >= 2 and not w[0] < w[1]:
        raise SolverFail("ground eigenvalue not simple", history=history)
    return DirectSolution(
        op=op,
        lam=w[:K].copy(),
        vectors=V[:, :K].copy(),
        residuals=res[:K].copy(),
        ritz_all=w.copy(),
        window_guard=float(w[nb - 1] - res[nb - 1]),
        target=target,
        history=history,
    )


# ----------------------------------------------------------------------
# certificates and comparison
# ----------------------------------------------------------------------


def residual_certificate(
    op: TransformedOperator,
    lam_val: float,
    psi,
    solution: DirectSolution | None = None,
):
    """(rho, bound_check) for a candidate eigenpair (lam_val, psi).

    rho = ||B^-1/2 (H - lam_val B) psi|| / ||B^1/2 psi||, by :func:`_rho`,
    for psi a full-grid field or an unknown vector.  Some eigenvalue of the
    pencil lies within rho of lam_val; when `solution` is given and
    lam_val + rho sits below its certified window edge, bound_check states
    whether the nearest *computed* eigenvalue realizes that distance.  The
    nearest is taken over the K requested eigenvalues and the guard Ritz
    values above them (`ritz_all[K:]`), which set the window edge.  Outside
    the window, or when the nearest value is a guard, which the solve
    does not certify, the check is skipped (bound_check None) with an
    UnderresolvedWindow warning.
    """
    v = np.asarray(psi, dtype=float)
    if v.ndim == 2:
        v = to_vector(op, v)
    if v.shape != (op.n,):
        raise ValueError(f"expected field ({op.M_s}, {op.n_omega}) or vector ({op.n},)")
    if not np.linalg.norm(v) > 0:
        raise ValueError("zero candidate eigenfunction")
    rho = float(_rho(op.H, op.B, v, lam_val))
    if solution is None:
        return rho, None
    if not lam_val + rho < solution.window_guard:
        warnings.warn(
            UnderresolvedWindow(
                f"candidate {lam_val:.6g} + rho {rho:.3g} reaches past the "
                f"computed window edge {solution.window_guard:.6g}; "
                "compute more eigenpairs to certify"
            )
        )
        return rho, None
    K = solution.lam.size
    computed = np.concatenate([solution.lam, solution.ritz_all[K:]])
    j = int(np.argmin(np.abs(computed - lam_val)))
    if j >= K:
        warnings.warn(
            UnderresolvedWindow(
                f"candidate {lam_val:.6g} lies nearest the guard value "
                f"{computed[j]:.6g}, above the {K} requested eigenpairs; "
                "raise solver.count to certify"
            )
        )
        return rho, None
    return rho, bool(abs(computed[j] - lam_val) <= rho)


@dataclass
class CompareRow:
    """One row of the verify/sweep report; its fields are the JSON keys."""

    eps: float
    n: int
    m: int
    match_index: int
    lambda_direct: float
    lambda_partial: float
    abs_gap: float
    residual_rho: float
    sin_angle: float
    neighbor_gap: float | None  # None when no other eigenvalue was computed
    bound_ok: bool | None
    flags: list = field(default_factory=list)


def compare(solution: DirectSolution, states) -> list[CompareRow]:
    """Pair expansion partial sums with the direct eigenpairs.

    Each expansion state contributes one row, in the order given: its
    partial sum at the operator's eps is matched to the nearest computed
    eigenvalue, the eigenfunction alignment is measured as sin of the
    B-weighted angle, and the residual certificate is evaluated (it warns
    UnderresolvedWindow when the computed window cannot certify the row).
    The sine is the B-norm of the partial sum's part B-orthogonal to the
    eigenvector over the partial sum's B-norm, which resolves angles far
    below the 1.5e-8 at which sqrt(1 - cos^2) cancels to 0.  Non-injective
    matching adds the flag "pairing", once, to every row whose match
    another row shares; nothing is raised, the caller decides what fails.
    """
    op = solution.op
    eps, Bd = op.eps, op.B
    rows = []
    for st in states:
        lam_p, psi_p = engine.partial_sums(st, eps)
        v = to_vector(op, psi_p)
        j = int(np.argmin(np.abs(solution.lam - lam_p)))
        u = solution.vectors[:, j]
        r = v - (v @ (Bd * u)) / (u @ (Bd * u)) * u
        sin_angle = np.sqrt((r @ (Bd * r)) / (v @ (Bd * v)))
        rho, bound_ok = residual_certificate(op, lam_p, v, solution)
        others = np.abs(np.delete(solution.lam, j) - solution.lam[j])
        rows.append(
            CompareRow(
                eps=float(eps),
                n=st.n,
                m=st.m,
                match_index=j,
                lambda_direct=float(solution.lam[j]),
                lambda_partial=float(lam_p),
                abs_gap=float(abs(solution.lam[j] - lam_p)),
                residual_rho=rho,
                sin_angle=float(sin_angle),
                neighbor_gap=float(others.min()) if others.size else None,
                bound_ok=bound_ok,
            )
        )
    shared = Counter(r.match_index for r in rows)
    for r in rows:
        if shared[r.match_index] > 1:
            r.flags.append("pairing")
    return rows


def separable_eigenvalues(op: TransformedOperator, count: int):
    """Exact discrete eigenvalues for the straight untwisted rod.

    With all curvatures zero, H splits as a Kronecker sum, so its spectrum
    is the separable set eps^-2 lambda_n + theta_m.  Returns the `count`
    smallest as (value, n, m) triples, ascending, from a sparse section
    solve independent of the family's section basis.
    """
    if np.abs(op.q).max() > 0 or np.abs(op.frame.kappa3).max() > 0:
        raise ValueError("separable reference requires a straight untwisted rod")
    lam_sec = solve_section(op.grid, min(count, op.n_omega - 2)).lam
    theta = _dirichlet_eigenvalues(op.frame.h, op.frame.s0, min(count, op.M_s - 2))
    return sorted(
        (op.eps**-2.0 * lam + th, n, m)
        for n, lam in enumerate(lam_sec, start=1)
        for m, th in enumerate(theta, start=1)
    )[:count]
