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
Every block is assembled in divergence (flux) form with midpoint coefficient
averaging, so H is symmetric; because q is affine on the section, the
transverse block collapses exactly to a Kronecker combination of the shared
section stencils, which keeps the two computation routes on identical
discrete operators.  Expanding the coefficients in powers of eps reproduces,
order by order, the operators applied by the asymptotic engine; that identity
is exposed as :func:`series_defect` and checked in the test-suite.

Unknowns are the interior nodes in every direction, ordered s-major
(flat index = s_index * n_omega + section_index), matching
``field[1:-1].reshape(-1)`` for the engine's full-grid fields.

The separable part of the pencil, eps^-2 S (x) I + I (x) D_s, has the
two-parametric spectrum eps^-2 lambda_n(omega) + theta_m, one rung per
section mode n and axial sine mode m.  It is defined once: theta_m by
``_dirichlet_eigenvalues`` on the axis, the sorted rungs in
:func:`separable_ladder`.  The start block, the preconditioner's
denominators, the straight-rod reference and the CLI's eigenpair count all
read that definition.

Solves are deterministic: the starting block is the lowest rungs of the
ladder (1D sine profiles times section modes solved sparsely on the
operator's grid) and one block LOBPCG run, implemented here, is
preconditioned by the exact shifted inverse of the separable part (section
eigenbasis times a sine transform along the axis, applied as matrix
products).  On a full rectangular mask the section eigenbasis is itself a
product of two sine transforms with closed-form eigenvalues; any other mask
takes a dense eigenbasis from eigh.  The run stops as soon as the K
requested pairs reach a quarter of the target below; the guard columns
beyond K only set the window edge and are not required to converge.
Non-rectangular sections with more than 4096 interior nodes are too large
for the dense eigenbasis: the solve of a curved or twisted rod on such a
section raises SolverFail before it starts (:func:`_check_section_size`,
which the CLI also runs before any work), and a straight untwisted rod
solves at any size because its separable start block is already
converged.  Rectangular sections have no such limit.  Every requested pair
must meet ``max(tol, 8 * eps_mach * ||H||_inf)`` in the B-scaled norm (tol
is 1e-8 by default; the second term is the floating-point floor of the
residual), or the solve raises SolverFail with LOBPCG's residual history.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

from . import asymptotic_engine as engine
from .cross_section import SectionGrid, build_operators, laplacian, solve_section
from .errors import SolverFail, UnderresolvedWindow
from .geometry import FrameField

__all__ = [
    "TransformedOperator",
    "DirectSolution",
    "CompareRow",
    "CompareReport",
    "assemble",
    "solve_direct",
    "residual_certificate",
    "compare",
    "series_defect",
    "separable_ladder",
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


@dataclass
class TransformedOperator:
    """Sparse symmetric pencil (H, B) for one rod geometry and eps."""

    eps: float
    frame: FrameField
    grid: SectionGrid
    H: sp.csr_matrix
    B: np.ndarray  # diagonal of the weight matrix, interior tensor nodes
    q: np.ndarray  # full-grid (M_s, n_omega) tilt field

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

    Requires eps * max|q| < 1/2 so the weight 1 - eps q stays in [1/2, 3/2];
    raises EpsilonOutOfRange otherwise.  Dirichlet rows are eliminated:
    unknowns are interior nodes only.  H is exactly symmetric as stored.
    The operator carries no section modes; whatever needs them solves them
    from its grid.
    """
    ops = build_operators(grid)
    k1, k2, k3 = frame.kappa1, frame.kappa2, frame.kappa3
    q = engine._tilt(frame, grid)
    engine.check_epsilon(q, eps)

    M_s, n_omega = frame.s_grid.size, grid.n_interior
    ms = M_s - 2
    hs = frame.h
    I_s = sp.identity(ms, format="csr")
    I_w = sp.identity(n_omega, format="csr")

    # flux along s: edge coefficient 1/(1 - eps * mean of nodal q),
    # boundary edges included (they reach the zero end rows).
    q_mid = 0.5 * (q[:-1] + q[1:])
    c_s = 1.0 / (1.0 - eps * q_mid)  # (M_s - 1, n_omega)
    diag0 = ((c_s[:-1] + c_s[1:]) / hs**2).ravel()
    diag1 = (-c_s[1:-1] / hs**2).ravel()
    H = sp.diags([diag1, diag0, diag1], [-n_omega, 0, n_omega], format="csr")

    # transverse flux, edge weight p = 1 - eps q.  Because q is affine on
    # the section, the edge-midpoint flux form equals
    #   eps^-2 S - eps^-1 [kappa1 (X2 S - D2) + kappa2 (D3 - X3 S)]
    # exactly, including boundary edges; the small section factors are
    # averaged with their transposes once to pin down exact symmetry.
    H = H + sp.kron(I_s, ops.S, format="csr") * (eps**-2.0)
    if max(np.abs(k1).max(), np.abs(k2).max()) > 0.0:
        G2 = sp.diags(grid.xi2) @ ops.S - ops.D2
        G3 = ops.D3 - sp.diags(grid.xi3) @ ops.S
        G2 = ((G2 + G2.T) * 0.5).tocsr()
        G3 = ((G3 + G3.T) * 0.5).tocsr()
        bend = sp.kron(sp.diags(k1[1:-1]), G2, format="csr") + sp.kron(
            sp.diags(k2[1:-1]), G3, format="csr"
        )
        H = H - bend * (1.0 / eps)

    # twist blocks, nodal coefficients on interior rows.
    if np.abs(k3).max() > 0.0:
        p_int = 1.0 - eps * q[1:-1]
        D_s = sp.diags(
            [np.full(ms - 1, -0.5 / hs), np.full(ms - 1, 0.5 / hs)],
            [-1, 1],
            format="csr",
        )
        R_blk = sp.kron(I_s, ops.R, format="csr")
        C1 = sp.diags((k3[1:-1, None] / p_int).ravel())
        T = R_blk @ (C1 @ sp.kron(D_s, I_w, format="csr"))
        H = H - (T + T.T)
        C2 = sp.diags((k3[1:-1, None] ** 2 / p_int).ravel())
        rmr = (R_blk.T @ (C2 @ R_blk)).tocsr()
        H = H + (rmr + rmr.T) * 0.5

    H = H.tocsr()
    H.sum_duplicates()
    H.sort_indices()
    B = (1.0 - eps * q[1:-1]).reshape(-1).copy()
    return TransformedOperator(
        eps=float(eps),
        frame=frame,
        grid=grid,
        H=H,
        B=B,
        q=q,
    )


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
    with F_j applied by the asymptotic engine on the same grid.  The tail
    is geometric in eps*max|q| (the transverse block is exact for K >= 1);
    it reaches the floating-point floor once (eps max|q|)^{K-1} does.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    spectrum = solve_section(op.grid, 2)
    ctx = engine.build_context(op.frame, spectrum)
    Z = _probe_field(op) if field is None else np.asarray(field, float)
    z = to_vector(op, Z)
    acc = to_field(op, op.H @ z)
    acc[1:-1] -= op.eps**-2.0 * (spectrum.ops.S @ Z[1:-1].T).T
    for j in range(1, K + 1):
        acc += op.eps ** (j - 2.0) * engine.apply_Fj(ctx, j, Z)
    return float(
        np.sqrt(np.sum(acc**2)) / np.sqrt(np.sum((op.H @ z) ** 2))
    )


# ----------------------------------------------------------------------
# eigensolve
# ----------------------------------------------------------------------


@dataclass
class DirectSolution:
    """Lowest eigenpairs of H u = lambda B u, ascending and B-orthonormal.

    `residuals` holds ||H u - lambda B u|| / ||B u|| per returned pair;
    `ritz_all` includes the guard values computed beyond the requested K and
    `window_guard` = top certified value minus its residual, the reliable
    upper edge for nearest-eigenvalue claims.
    """

    op: TransformedOperator
    lam: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    ritz_all: np.ndarray
    window_guard: float
    history: list = field(default_factory=list)


def _residual_norms(H, Bd, U, lam):
    R = H @ U - (Bd[:, None] * U) * lam[None, :]
    return np.sqrt(np.sum(R**2, axis=0)) / np.sqrt(
        np.sum((Bd[:, None] * U) ** 2, axis=0)
    )


def _dirichlet_eigenvalues(h: float, length: float, count: int) -> np.ndarray:
    """The lowest `count` eigenvalues (4/h^2) sin^2(m pi h / (2 length)),
    m = 1, 2, ..., of the Dirichlet second-difference matrix -d^2 with
    spacing h on an interval of that length (length / h - 1 interior
    nodes).  Along the axis (h, s0) they are theta_m."""
    m = np.arange(1, count + 1)
    return (4 / h**2) * np.sin(m * np.pi * h / (2 * length)) ** 2


def _sine_matrix(n: int) -> np.ndarray:
    """Orthonormal type-I discrete sine transform matrix of order n.

    Column m samples the m-th eigenvector of the n-node Dirichlet second
    difference (eigenvalue order of :func:`_dirichlet_eigenvalues`); the
    matrix is symmetric and its own inverse.
    """
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))


def separable_ladder(frame: FrameField, lam_sec, eps: float, m_max: int) -> list:
    """The separable two-parametric set eps^-2 lambda_n + theta_m, ascending.

    One rung per section eigenvalue lambda_n in `lam_sec` (n = 1, 2, ...)
    and axial sine mode m = 1..m_max, as (value, n, m) triples.  This is
    the exact spectrum of the pencil on a straight untwisted rod and the
    leading order of the paper's expansions on any rod.
    """
    theta = _dirichlet_eigenvalues(frame.h, frame.s0, m_max)
    return sorted(
        (eps**-2.0 * lam + th, n, m)
        for n, lam in enumerate(lam_sec, start=1)
        for m, th in enumerate(theta, start=1)
    )


def _start_block(op: TransformedOperator, nb: int) -> np.ndarray:
    """Separable starting vectors: the nb lowest rungs of the ladder.

    Each column is a 1D sine profile times a section mode.  The section
    modes are solved sparsely on the operator's grid, the same way at every
    section size; nb <= n / 4 (the solver's block limit) guarantees the
    ladder has nb rungs.
    """
    spectrum = solve_section(op.grid, min(nb, op.n_omega - 2))
    ladder = separable_ladder(op.frame, spectrum.lam, op.eps, min(nb, op.M_s - 2))
    s_int = op.frame.s_grid[1:-1]
    X = np.empty((op.n, nb))
    for col, (_, n, m) in enumerate(ladder[:nb]):
        X[:, col] = (
            np.sin(m * np.pi * s_int / op.frame.s0)[:, None]
            * spectrum.phi[n - 1][None, :]
        ).reshape(-1)
    return X


# Non-rectangular sections up to this many interior nodes get a dense
# section eigenbasis (its eigh costs O(n_omega^3) time and O(n_omega^2)
# memory); a full rectangular mask needs none.
_SPECTRAL_CUTOFF = 4096


def _section_too_large(nw: int) -> SolverFail:
    return SolverFail(
        f"section has {nw} interior nodes, above the limit of "
        f"{_SPECTRAL_CUTOFF} for the dense section eigenbasis a curved or "
        "twisted rod's direct solve needs on a non-rectangular section; "
        "lower section.n"
    )


def _check_section_size(frame: FrameField, grid: SectionGrid):
    """Raise SolverFail if the solve would need a dense section basis above
    _SPECTRAL_CUTOFF interior nodes: only a curved or twisted rod applies
    it, and only on a non-rectangular mask."""
    nw = grid.n_interior
    curved_or_twisted = any(
        np.abs(k).max() > 0 for k in (frame.kappa1, frame.kappa2, frame.kappa3)
    )
    if curved_or_twisted and not grid.mask.all() and nw > _SPECTRAL_CUTOFF:
        raise _section_too_large(nw)


def _separable_preconditioner(op: TransformedOperator):
    """Exact shifted inverse of the separable part of the pencil.

    H splits as eps^-2 S (x) I + I (x) D_s plus curvature/twist blocks that
    are relatively bounded, so (sep - sigma I)^{-1} with sigma = eps^-2
    lambda_1(S) is spectrally equivalent to (H - sigma B)^{-1}: it resolves
    the eps^-2 anisotropy that defeats black-box multigrid at small eps.
    Applied as matrix products on the s-major unknowns: the orthonormal
    type-I discrete sine transform matrix along the axis (symmetric, its own
    inverse), the transposed section eigenbasis, the diagonal scaling, and
    back.  The denominators are the rungs of the separable ladder, minus
    sigma.  That shift removes exactly the transverse eps^-2 lambda_1 of
    the ansatz Psi(s) phi_1(xi), so the (1, m) denominators are theta_m,
    the axial operator alone, and do not depend on eps: the LOBPCG count
    stays flat as the rod thins (a shift a fixed fraction below eps^-2
    lambda_1 leaves the wanted pairs O(eps^-2) above it, and the
    preconditioned gaps shrink like eps^2).  Every denominator is at least
    theta_1 > 0, so the operator stays SPD.  On a full rectangular mask
    (`grid.mask.all()`) S is a Kronecker sum of 1D Dirichlet second
    differences, so its eigenbasis is the sine matrix along xi2 (mask axis
    0) times the one along xi3 (axis 1) and its eigenvalues are closed-form
    sums (fast diagonalization: Lynch, Rice & Thomas, Numer. Math. 6,
    1964); any other mask gets a dense eigenbasis from LAPACK's
    divide-and-conquer eigh (driver "evd"), several times faster than the
    default MRRR driver on the section Laplacian's clustered spectrum.
    Fully deterministic.  The basis stays inside the returned
    LinearOperator and is built on its first apply, so a solve that never
    applies the operator skips it (the straight untwisted rod, whose start
    block is already converged).  On a non-rectangular section with more
    than _SPECTRAL_CUTOFF interior nodes that first apply raises the
    SolverFail of :func:`_check_section_size` instead.
    """
    ms, nw = op.M_s - 2, op.n_omega

    @functools.cache
    def basis():
        grid = op.grid
        if grid.mask.all():
            n2, n3 = grid.mask.shape
            lam_sec = (
                _dirichlet_eigenvalues(grid.h, (n2 + 1) * grid.h, n2)[:, None]
                + _dirichlet_eigenvalues(grid.h, (n3 + 1) * grid.h, n3)[None, :]
            ).ravel()
            sine2, sine3 = _sine_matrix(n2), _sine_matrix(n3)

            def to_modes(U):  # sine2 (x) sine3, symmetric and its own inverse
                cols = U.shape[1]
                U = (sine2 @ U.reshape(n2, n3 * cols)).reshape(n2, n3, cols)
                return (sine3 @ U).reshape(nw, cols)

            from_modes = to_modes
        else:
            if nw > _SPECTRAL_CUTOFF:
                raise _section_too_large(nw)
            lam_sec, Phi = scipy.linalg.eigh(
                laplacian(grid).toarray(), driver="evd"
            )
            to_modes = np.ascontiguousarray(Phi.T).__matmul__
            from_modes = Phi.__matmul__
        sigma = op.eps**-2.0 * lam_sec.min()
        inv_denom = 1.0 / (
            op.eps**-2.0 * lam_sec[:, None]
            + _dirichlet_eigenvalues(op.frame.h, op.frame.s0, ms)[None, :]
            - sigma
        )  # (n_omega, ms)
        return _sine_matrix(ms), to_modes, from_modes, inv_denom

    def apply(X):
        sine, to_modes, from_modes, inv_denom = basis()
        k = X.size // op.n
        U = sine @ X.reshape(ms, nw * k)
        U = U.reshape(ms, nw, k).transpose(1, 0, 2).reshape(nw, ms * k)
        U = to_modes(U).reshape(nw, ms, k)
        U *= inv_denom[:, :, None]
        U = from_modes(U.reshape(nw, ms * k))
        U = U.reshape(nw, ms, k).transpose(1, 0, 2).reshape(ms, nw * k)
        return (sine @ U).reshape(X.shape)

    return LinearOperator((op.n, op.n), matvec=apply, matmat=apply, dtype=float)


def _svqb(S: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning S (SVQB): eigh of the column-scaled Gram
    matrix, dropping directions below 1e-10 of the largest."""
    G = S.T @ S
    d = 1.0 / np.sqrt(np.diag(G))
    theta, V = np.linalg.eigh(G * d[:, None] * d[None, :])
    keep = theta > 1e-10 * theta[-1]
    return S @ (d[:, None] * V[:, keep] / np.sqrt(theta[keep]))


def _lobpcg(H, Bd, X, prec, K: int, stop: float, maxiter: int):
    """Lowest Ritz pairs of H u = lambda B u by block LOBPCG from the block X.

    Knyazev's iteration with the explicit orthonormalization of Duersch,
    Shao, Yang & Gu (SIAM J. Sci. Comput. 40, 2018), in y = B^1/2 u, where
    every inner product is Euclidean.  Each step preconditions the residuals
    (W = M R), orthogonalizes [W, P] against X twice, orthonormalizes it by
    SVQB twice, applies H to it explicitly and does the Rayleigh-Ritz step
    with X^T H X = diag(lambda).  It stops once the first K pairs have
    ||H u - lambda B u|| / ||B u|| <= stop, checked before each
    preconditioner apply, or after maxiter steps; the other columns are
    guards, carried but not required to converge.  Returns (lambda,
    B-orthonormal u, history entry).
    """
    nb = X.shape[1]
    s = np.sqrt(Bd)[:, None]
    stage = {
        "stage": "lobpcg",
        "preconditioner": "separable",
        "iterations": 0,
        "h_applies": 0,
        "prec_applies": 0,
        "residual_history": [],
    }

    def apply_h(Y):
        stage["h_applies"] += 1
        AY = H @ (Y / s)
        AY /= s
        return AY

    X = _svqb(_svqb(s * X))
    if X.shape[1] < nb:
        raise SolverFail("degenerate start block")
    AX = apply_h(X)
    lam, C = np.linalg.eigh(X.T @ AX)
    X, AX = X @ C, AX @ C
    WP = np.empty((X.shape[0], 2 * nb))  # [W, P], P empty on the first step
    n_p = 0
    while True:
        R = X * -lam
        R += AX
        R *= s  # H u - lambda B u
        res = np.linalg.norm(R, axis=0) / np.sqrt(np.einsum("i,ij,ij->j", Bd, X, X))
        stage["residual_history"].append(float(res[:K].max()))
        if res[:K].max() <= stop or stage["iterations"] == maxiter:
            return lam, X / s, stage
        stage["iterations"] += 1
        stage["prec_applies"] += 1
        np.multiply(prec @ R, s, out=WP[:, :nb])
        S = WP[:, : nb + n_p]
        for _ in range(2):
            S -= X @ (X.T @ S)
        S = _svqb(_svqb(S))
        AS = apply_h(S)
        XAS = X.T @ AS
        theta, Z = np.linalg.eigh(np.block([[np.diag(lam), XAS], [XAS.T, S.T @ AS]]))
        lam, Zx, Zs = theta[:nb], Z[:nb, :nb], Z[nb:, :nb]
        np.matmul(S, Zs, out=WP[:, nb:])
        n_p = nb
        X = X @ Zx
        X += WP[:, nb:]
        AX = AX @ Zx
        AX += AS @ Zs


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
    LOBPCG short of the target.  It stops once the K requested pairs have
    ||H u - lambda B u|| / ||B u|| <= target / 4.  Afterwards the residuals
    are recomputed from H, and every requested pair must meet
    target = max(tol, 8 eps_mach ||H||_inf), or SolverFail is raised with
    the history.  Guard pairs beyond K are carried but need not converge:
    the window edge is the top guard's Ritz value minus its residual, so an
    unconverged guard only lowers the edge.

    The history has one entry: `stage` (always "lobpcg"), `iterations`
    (preconditioned steps), `h_applies` (block products with H inside the
    iteration: one for the start block and one per step), `prec_applies`,
    `residual_history` (per iteration, starting with the start block, the
    largest residual over the K requested pairs) and `max_resid` (the
    largest recomputed residual over all pairs, guards included).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    n = op.n
    if K > n - 1:
        raise ValueError(f"K = {K} too large for {n} unknowns")
    _check_section_size(op.frame, op.grid)
    H, Bd = op.H, op.B
    hnorm = float(np.abs(H).sum(axis=1).max())
    target = max(tol, 8 * _MACH * hnorm)
    if K > max_pairs(n):
        raise SolverFail(
            f"K = {K} leaves fewer than {_MIN_GUARDS} guard columns in the block "
            f"of {n // 4}; at most {max_pairs(n)} pairs, or refine the grid"
        )
    nb = min(K + max(_MIN_GUARDS, K), n // 4)
    w, V, stage = _lobpcg(
        H,
        Bd,
        _start_block(op, nb),
        _separable_preconditioner(op),
        K,
        0.25 * target,
        maxiter,
    )
    res = _residual_norms(H, Bd, V, w)
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

    rho = ||B^-1/2 (H - lam_val B) psi|| / ||B^1/2 psi|| (B is diagonal, so
    the scaling is exact).  Some eigenvalue of the pencil lies within rho of
    lam_val; when `solution` is given and lam_val + rho sits below its
    certified window edge, bound_check states whether the nearest *computed*
    eigenvalue realizes that distance.  Outside the window the check is
    skipped (bound_check None) with an UnderresolvedWindow warning.
    """
    v = np.asarray(psi, dtype=float)
    if v.ndim == 2:
        v = to_vector(op, v)
    if v.shape != (op.n,):
        raise ValueError(f"expected field ({op.M_s}, {op.n_omega}) or vector ({op.n},)")
    sq = np.sqrt(op.B)
    den = float(np.linalg.norm(sq * v))
    if not den > 0:
        raise ValueError("zero candidate eigenfunction")
    r = op.H @ v - lam_val * (op.B * v)
    rho = float(np.linalg.norm(r / sq)) / den
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
    dist = float(np.abs(solution.lam - lam_val).min())
    return rho, bool(dist <= rho)


@dataclass
class CompareRow:
    n: int
    m: int
    match_index: int
    lambda_direct: float
    lambda_partial: float
    abs_gap: float
    rho: float
    sin_angle: float
    neighbor_gap: float
    bound_ok: bool | None
    flags: list = field(default_factory=list)


@dataclass
class CompareReport:
    eps: float
    rows: list
    ambiguous: bool

    @property
    def ok(self) -> bool:
        return not self.ambiguous and all(
            r.bound_ok is not False for r in self.rows
        )


def compare(solution: DirectSolution, states, eps: float) -> CompareReport:
    """Pair expansion partial sums with the direct eigenpairs.

    Each expansion state contributes one row, in the order given: its
    partial sum at `eps` is matched to the nearest computed eigenvalue, the
    eigenfunction alignment is measured as sin of the B-weighted angle, and
    the residual certificate is evaluated (it warns UnderresolvedWindow
    when the computed window cannot certify the row).  The sine is the
    B-norm of the partial sum's part B-orthogonal to the eigenvector over
    the partial sum's B-norm, which resolves angles far below the 1.5e-8
    at which sqrt(1 - cos^2) cancels to 0.  Non-injective
    matching adds the flag "pairing" to every row involved and marks the
    report ambiguous; nothing is raised, the caller decides what fails.
    """
    op = solution.op
    if abs(eps - op.eps) > 0:
        raise ValueError(f"states evaluated at eps = {eps}, operator at {op.eps}")
    Bd = op.B
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
                n=st.n,
                m=st.m,
                match_index=j,
                lambda_direct=float(solution.lam[j]),
                lambda_partial=float(lam_p),
                abs_gap=float(abs(solution.lam[j] - lam_p)),
                rho=rho,
                sin_angle=float(sin_angle),
                neighbor_gap=float(others.min()) if others.size else np.inf,
                bound_ok=bound_ok,
            )
        )
    taken: dict = {}
    ambiguous = False
    for r in rows:
        if r.match_index in taken:
            ambiguous = True
            r.flags.append("pairing")
            taken[r.match_index].flags.append("pairing")
        else:
            taken[r.match_index] = r
    return CompareReport(eps=float(eps), rows=rows, ambiguous=ambiguous)


def separable_eigenvalues(op: TransformedOperator, count: int):
    """Exact discrete eigenvalues for the straight untwisted rod.

    With all curvatures zero, H splits as a Kronecker sum, so its spectrum
    is the separable ladder (see :func:`separable_ladder`).  Returns the
    `count` smallest as (value, n, m) triples, ascending.
    """
    if np.abs(op.q).max() > 0 or np.abs(op.frame.kappa3).max() > 0:
        raise ValueError("separable reference requires a straight untwisted rod")
    spectrum = solve_section(op.grid, min(count, op.n_omega - 2))
    return separable_ladder(
        op.frame, spectrum.lam, op.eps, min(count, op.M_s - 2)
    )[:count]
