"""Reduced 1D operator -d^2/ds^2 + V_n(s) on (0, s0), Dirichlet ends.

V_n = C_n kappa3^2 - (w2 kappa1^2 + w3 kappa2^2)/4. The default weights
(1, 1) give the continuum potential; the expansion engine passes the
neighbor-average moments (a2, a3) of the section mode instead, which
makes the transverse part of its solvability identities exact on the
grid (the weights differ from 1 by O(h^2), so the eigenvalues agree to
discretization order either way).

Profiles are stored on the full s-grid with explicit zero end values;
the 3-point operator acts on the interior nodes. Discrete inner
product: <u,v> = h_s * sum over interior nodes. ReducedOperator.L, built
once by build_reduced, is the one tridiagonal: the eigensolve reads its
diagonals, and the deflated resolvent hands it to
cross_section.deflated_solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .cross_section import deflated_solve
from .errors import DegenerateReduced, SolverFail
from .geometry import FrameField

_GAP_TOL = 1e-8


@dataclass
class ReducedOperator:
    """Tridiagonal Schrodinger operator for one section mode."""

    n: int
    s_grid: np.ndarray
    V: np.ndarray  # potential per node, full grid
    L: sp.csr_matrix  # interior-node matrix of -d^2/ds^2 + V
    _factors: dict = field(default_factory=dict, repr=False)

    @property
    def h(self) -> float:
        return float(self.s_grid[1] - self.s_grid[0])

    @property
    def s0(self) -> float:
        return float(self.s_grid[-1])


@dataclass(frozen=True)
class ReducedMode:
    """Eigenpair of the reduced operator; Psi0 vanishes at both ends.  gap
    is the next eigenvalue minus lam0."""

    n: int
    m: int
    lam0: float
    Psi0: np.ndarray
    gap: float


def build_reduced(
    frame: FrameField, C_n: float, n: int = 1, transverse_weights=(1.0, 1.0)
) -> ReducedOperator:
    """Assemble V_n from the stored curvature arrays, and the interior
    tridiagonal of -d^2/ds^2 + V_n."""
    w2, w3 = transverse_weights
    V = C_n * frame.kappa3**2 - (w2 * frame.kappa1**2 + w3 * frame.kappa2**2) / 4.0
    if not np.all(np.isfinite(V)):
        raise SolverFail("reduced potential is not finite")
    V = V.copy()
    V.setflags(write=False)
    h2 = float(frame.s_grid[1] - frame.s_grid[0]) ** 2
    off = np.full(V.size - 3, -1.0 / h2)
    L = sp.diags([off, 2.0 / h2 + V[1:-1], off], offsets=(-1, 0, 1), format="csr")
    return ReducedOperator(n, frame.s_grid, V, L)


def solve_reduced(op: ReducedOperator, count: int) -> list[ReducedMode]:
    """Lowest `count` eigenpairs, ascending, normalized, sign-fixed; the
    solve computes one eigenvalue more, for the degeneracy check and gaps."""
    if count < 1:
        raise ValueError("count must be >= 1")
    m_int = op.s_grid.size - 2
    if count + 1 > m_int:
        raise SolverFail(f"count {count} too large for {m_int} interior nodes")
    lam, vecs = eigh_tridiagonal(
        op.L.diagonal(), op.L.diagonal(1), select="i", select_range=(0, count)
    )
    scale = max(np.abs(lam).max(), 1.0 / op.s0**2)
    gaps = np.diff(lam)
    if np.any(gaps <= _GAP_TOL * scale):
        k = int(np.argmin(gaps))
        raise DegenerateReduced(
            f"section mode {op.n}, reduced modes {k + 1},{k + 2}: "
            f"gap {lam[k + 1] - lam[k]:.3e}"
        )
    out = []
    for k in range(count):
        psi = np.zeros(op.s_grid.size)
        psi[1:-1] = vecs[:, k]
        psi /= np.sqrt(op.h) * np.linalg.norm(psi[1:-1])
        if psi[np.argmax(np.abs(psi))] < 0:
            psi = -psi
        psi.setflags(write=False)
        out.append(ReducedMode(op.n, k + 1, float(lam[k]), psi, float(gaps[k])))
    return out


def deflated_reduced_resolvent(
    op: ReducedOperator, mode: ReducedMode, rhs: np.ndarray, noise_floor: float
) -> tuple[np.ndarray, float]:
    """(u, defect): u with (L - lam0) u = P rhs, <u, Psi0> = 0, Dirichlet
    ends, and the rhs's solvability defect (see deflated_solve).

    rhs and u are full-grid profiles; the end values of rhs are not read,
    and those of u are zero.  The bordered LU is kept per (n, m) on the
    operator.
    """
    if rhs.shape != op.s_grid.shape:
        raise ValueError(f"rhs shape {rhs.shape}, not the grid's {op.s_grid.shape}")
    (u,), defect = deflated_solve(
        op.L, mode.lam0, mode.Psi0[1:-1], op.h, rhs[None, 1:-1],
        noise_floor, op._factors, (mode.n, mode.m),
    )
    return np.pad(u, 1), defect
