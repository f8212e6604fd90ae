"""Order-by-order expansion of the rod eigenvalue problem.

The small parameter eps scales the cross-section; matching powers of
eps in (H_eps - lambda B_eps) psi = 0 on the straightened rod yields a
recurrence: each order solves a deflated section problem per s-node, a
deflated reduced 1D problem in s, and fixes one eigenvalue coefficient
lambda_i through the solvability (orthogonality) conditions.  Both
deflated problems go through cross_section.deflated_solve: closed-form
sine transforms for the section problem on a full rectangular mask, a
bordered sparse LU for any other section and for the reduced problem.

Everything here is built from the same discrete stencils the direct
solver uses, so the solvability conditions hold to rounding, not just
to discretization order. The identities that make that work, with
q(s,xi) = kappa1 xi2 - kappa2 xi3 linear in xi and arithmetic-mean
edge coefficients:

    div_xi(q grad u)   = q Delta_h u + (k1 D2 - k2 D3) u     (exact)
    Delta_h(q u)       = q Delta_h u + 2 (k1 D2 - k2 D3) u   (exact)
    <D phi, phi>       = 0, <R phi, phi> = 0                 (skewness)
    <M2 phi, phi> = a2, <R phi, R phi> = C_int               (weights of
                                 the reduced potential, see curve_operator)

s-direction flux coefficients use the arithmetic mean of nodal q first
and the power afterwards, matching the eps-Taylor expansion of the
direct operator's 1/(1 - eps q_mid) coefficient term by term. Fields
are (M_s, n_section) arrays on the full s-grid with zero end rows.

Each step needs the coupling sum sum_{j=2}^{i+2} F_j psi_{i+2-j}.  The
F_j with j >= 2 share one stencil and differ only by the weight
c_j = q^(j-2), so apply_Fj, the one coupling apply, takes the list of
fields and returns sum_k F_{2+k} U[k], the only form anything calls
(the recurrence, and direct_oracle.series_defect for the eps series of
H): the fields' s-differences, central differences and R psi are
Horner-summed in q (in q_mid for the flux), then differenced once; the
two twist terms under R share one product,
R(k3 (c D_s U + k3 c R U)), since k3 is a per-row scalar.  R psi_k is
computed once per finished field.  Structural zeros stay exact: where
q == 0 each Horner step multiplies by an exact zero before adding the
next field, and the twist terms carry kappa3, an exact zero on an
untwisted rod.

F~ = (1/2)(F_1 - lam_n q)(q .) + F_2 meets only the rank-one field
Psi_{i-1}(s) phi(xi) of the ansatz.  As q is linear in xi and the
curvatures are per-row scalars, F~(Psi phi) is exactly C W: six section
vectors W built once per context (three curvature blocks of the F_1 part,
phi, R phi and R R phi) weighted by six per-row coefficients C (k1^2 Psi,
k1 k2 Psi, k2^2 Psi; D_ss Psi, k3 D_s Psi + D_s(k3 Psi), k3^2 Psi), so no
sparse product is left in it; a zero curvature gives an exactly zero
column.  One order thus costs one block section solve (on a full
rectangular mask four products of the s-rows with the two sine matrices,
plus one sparse product for its residual check) and five
sparse section products.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .cross_section import SectionSpectrum, assert_simple, deflated_resolvent
from .curve_operator import (
    ReducedOperator,
    build_reduced,
    deflated_reduced_resolvent,
    solve_reduced,
)
from .errors import EpsilonOutOfRange
from .geometry import FrameField

TensorField = np.ndarray  # (M_s, n_interior) values, zero rows at s = 0, s0

N_MAX_DEFAULT = 6


def _tilt(frame: FrameField, grid) -> TensorField:
    """Nodal q = kappa1 xi2 - kappa2 xi3, the one definition shared by the
    recurrence, the assembled pencil and the CLI's epsilon check."""
    return (
        frame.kappa1[:, None] * grid.xi2[None, :]
        - frame.kappa2[:, None] * grid.xi3[None, :]
    )


def q_field(frame: FrameField, spectrum: SectionSpectrum, n: int = 1):
    """Nodal q = kappa1 xi2 - kappa2 xi3 and its mode moment q_n(s)."""
    q = _tilt(frame, spectrum.grid)
    q_n = frame.kappa1 * spectrum.m2[n - 1] - frame.kappa2 * spectrum.m3[n - 1]
    return q, q_n


@dataclass
class EngineContext:
    """Shared immutable data for one (frame, section, n) configuration."""

    frame: FrameField
    spectrum: SectionSpectrum
    n: int
    lam_n: float
    phi: np.ndarray
    Rphi: np.ndarray
    q: TensorField
    q_n: np.ndarray
    C_n: float  # interior |R phi|^2, the reduced-potential coefficient
    reduced: ReducedOperator
    W: np.ndarray  # (6, n_interior) section vectors of F~ on Psi phi


def _ftilde_basis(spectrum: SectionSpectrum, lam_n: float, phi, Rphi) -> np.ndarray:
    """The six section vectors W with F~(Psi phi) = C W (see _ftilde).

    With x = xi2 phi, y = xi3 phi and S' = S - lam_n, the first three are
    the k1^2, k1 k2 and k2^2 blocks of (1/2)(q S' q - (k1 D2 - k2 D3) q) phi.
    """
    ops, g = spectrum.ops, spectrum.grid
    x, y = g.xi2 * phi, g.xi3 * phi
    Sx = ops.S @ x - lam_n * x
    Sy = ops.S @ y - lam_n * y
    return np.stack([
        0.5 * (g.xi2 * Sx - ops.D2 @ x),
        0.5 * (-g.xi3 * Sx - g.xi2 * Sy + ops.D3 @ x + ops.D2 @ y),
        0.5 * (g.xi3 * Sy - ops.D3 @ y),
        phi,
        Rphi,
        ops.R @ Rphi,
    ])


def build_context(frame: FrameField, spectrum: SectionSpectrum, n: int = 1) -> EngineContext:
    assert_simple(spectrum, n)
    lam_n, phi = spectrum.mode(n)
    Rphi = spectrum.ops.R @ phi
    q, q_n = q_field(frame, spectrum, n)
    k = n - 1
    reduced = build_reduced(
        frame,
        float(spectrum.C_int[k]),
        n=n,
        transverse_weights=(float(spectrum.a2[k]), float(spectrum.a3[k])),
    )
    return EngineContext(
        frame, spectrum, n, lam_n, phi, Rphi, q, q_n,
        float(spectrum.C_int[k]), reduced, _ftilde_basis(spectrum, lam_n, phi, Rphi),
    )


def _sec(M, U):
    """Apply a section operator to every s-row."""
    return (M @ U.T).T


def _f1_minus_lq(ctx: EngineContext, U: TensorField, lam: float) -> TensorField:
    """(F_1 - lam q) U; F_1 = -div_xi(q grad_xi .) in flux form.

    Uses the exact factorization q (S - lam) - (k1 D2 - k2 D3); this is
    the same matrix as the midpoint-flux assembly because q is linear in xi.
    """
    ops = ctx.spectrum.ops
    out = ctx.q * (_sec(ops.S, U) - lam * U)
    out -= ctx.frame.kappa1[:, None] * _sec(ops.D2, U)
    out += ctx.frame.kappa2[:, None] * _sec(ops.D3, U)
    return out


def apply_Fj(ctx: EngineContext, U, RU=None) -> TensorField:
    """The coupling sum sum_k F_{2+k} U[k] of a list of fields U, symmetric
    by construction in each term.

    F_j = d/ds c d/ds + R k3 c d/ds + d/ds k3 c R + k3^2 R c R with
    c = q^(j-2); s-fluxes with mean-then-power midpoint coefficients,
    first s-derivatives central, zero extension at the rod ends.  The
    sum is Horner-summed in q (see the module docstring); F_1 is
    _f1_minus_lq at lam = 0.  RU, if given, holds the list R U, and the
    sum makes one section product.
    """
    ops = ctx.spectrum.ops
    if RU is None:
        RU = [_sec(ops.R, u) for u in U]
    hs = ctx.frame.h
    q = ctx.q
    k3 = ctx.frame.kappa3[:, None]

    last = U[-1]
    flux = last[1:] - last[:-1]
    ds = last[2:] - last[:-2]
    V = RU[-1].copy()
    q_mid = 0.5 * (q[1:] + q[:-1])
    d = np.empty_like(last)  # scratch for the differences of one field
    for u, ru in zip(U[-2::-1], RU[-2::-1]):
        flux *= q_mid
        flux += np.subtract(u[1:], u[:-1], out=d[:-1])
        ds *= q[1:-1]
        ds += np.subtract(u[2:], u[:-2], out=d[:-2])
        V *= q
        V += ru

    out = np.zeros_like(last)
    o = out[1:-1]
    flux /= hs
    np.subtract(flux[1:], flux[:-1], out=o)
    o /= hs
    # V = k3 c R U; R(k3 c D_s U) + k3^2 R(c R U) = R(k3 (c D_s U + V))
    V *= k3
    ds /= 2 * hs
    ds += V[1:-1]
    ds *= k3[1:-1]
    o += _sec(ops.R, ds)
    o += (V[2:] - V[:-2]) / (2 * hs)
    return out


def _ftilde_coefficients(ctx: EngineContext, Psi: np.ndarray) -> np.ndarray:
    """The (M_s, 6) weights C of the rows of ctx.W in F~(Psi phi) = C W.

    k1^2 Psi, k1 k2 Psi and k2^2 Psi, then on interior rows D_ss Psi,
    k3 D_s Psi + D_s(k3 Psi) and k3^2 Psi (the F_2 stencil on Psi phi).
    """
    fr = ctx.frame
    hs = fr.h
    k1, k2, k3 = fr.kappa1, fr.kappa2, fr.kappa3
    C = np.zeros((Psi.size, 6))
    C[:, 0] = k1 * k1 * Psi
    C[:, 1] = k1 * k2 * Psi
    C[:, 2] = k2 * k2 * Psi
    flux = (Psi[1:] - Psi[:-1]) / hs
    C[1:-1, 3] = (flux[1:] - flux[:-1]) / hs
    k3Psi = k3 * Psi
    C[1:-1, 4] = (k3[1:-1] * (Psi[2:] - Psi[:-2]) + k3Psi[2:] - k3Psi[:-2]) / (2 * hs)
    C[1:-1, 5] = k3[1:-1] ** 2 * Psi[1:-1]
    return C


def _ftilde(ctx: EngineContext, Psi: np.ndarray) -> TensorField:
    """F~(Psi phi) = (1/2)(F_1 - lam_n q)(q Psi phi) + F_2(Psi phi)."""
    return _ftilde_coefficients(ctx, Psi) @ ctx.W


@dataclass
class ExpansionState:
    """Coefficients and correction fields of one (n, m) expansion.

    lam holds lambda_{-2} .. lambda_{N-2} (lam[i + 2] = lambda_i);
    lam_diag is the next, truncated coefficient lambda_{N-1}, kept as a
    convergence hint. Psi rows are the longitudinal profiles Psi_0..Psi_N
    (Psi_N = 0 by truncation), psi the correction fields, with
    psi_i = psi~_i + (1/2) Psi_{i-1} q phi + Psi_i phi and psi~_i orthogonal
    to phi on every s-row (the recurrence holds only psi~_i and psi~_{i+1}).
    solve_defects records the relative orthogonality defect that
    cross_section.deflated_solve measured on every deflated solve's
    right-hand side (0.0 where it cancelled to residue and was not solved).
    """

    n: int
    m: int
    N: int
    lam: np.ndarray
    lam_diag: float
    Psi: np.ndarray
    psi: np.ndarray
    ctx: EngineContext
    lam0: float
    reduced_gap: float  # next reduced eigenvalue minus lam0
    solve_defects: list = field(default_factory=list)

    def lam_i(self, i: int) -> float:
        """lambda_i, i from -2 to N-2."""
        return float(self.lam[i + 2])

    @property
    def max_defect(self) -> float:
        return max((d for _, d in self.solve_defects), default=0.0)


def _row_scale(h2: float, T: TensorField) -> float:
    return float(np.sqrt(h2 * np.sum(T[1:-1] ** 2, axis=1)).max(initial=0.0))


def run_recurrence(
    frame: FrameField, spectrum: SectionSpectrum, n: int, m: int, N: int
) -> ExpansionState:
    """Run the recurrence to order N for section mode n, reduced mode m."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > N_MAX_DEFAULT:
        warnings.warn(
            f"N = {N} > {N_MAX_DEFAULT}: finite-difference error in high "
            "s-derivatives of the correction fields may dominate",
            stacklevel=2,
        )
    ctx = build_context(frame, spectrum, n)
    modes = solve_reduced(ctx.reduced, m)
    md = modes[m - 1]
    lam0, Psi0 = md.lam0, md.Psi0

    M_s = frame.s_grid.size
    nw = ctx.phi.size
    hs = frame.h

    # lam_all[k] = lambda_{k-2}; filled through lambda_{N-1}
    lam_all = np.zeros(N + 2)
    lam_all[0] = ctx.lam_n
    lam_all[1] = 0.0  # <(k1 D2 - k2 D3) phi, phi> = 0 by skewness
    lam_all[2] = lam0

    Psi = np.zeros((N + 1, M_s))
    Psi[0] = Psi0
    pt = np.zeros((M_s, nw))  # psi~_i entering step i; psi~_1 = 0
    psi = np.zeros((N + 1, M_s, nw))
    qphi = ctx.q * ctx.phi[None, :]
    psi[0] = Psi0[:, None] * ctx.phi[None, :]
    # R psi_k for k < N - 1, computed once and read by every later step
    Rpsi = np.empty((N, M_s, nw))
    Rpsi[0] = Psi0[:, None] * ctx.Rphi[None, :]
    defects = []

    h2 = ctx.spectrum.h**2
    # scale of the largest quantity the recurrence has touched; right-hand
    # sides more than 10 orders below it are cancellation residue and their
    # solutions are exact zeros, so structural zeros propagate exactly
    base = max(abs(ctx.lam_n), abs(lam0))
    # _row_scale of every finished psi_k; that of lambda_j psi_k is
    # |lambda_j| times it
    psi_scale = np.zeros(N)
    psi_scale[0] = _row_scale(h2, psi[0])
    Ft_next = np.zeros((M_s, nw))  # F~_{i+1} entering step i; F~_2 = 0
    for i in range(1, N):
        # section solve for psi~_{i+1}
        t = _ftilde(ctx, Psi[i - 1])
        g_scale = max(_row_scale(h2, Ft_next), _row_scale(h2, t))
        G = Ft_next + t
        for j in range(2, i + 2):
            g_scale = max(g_scale, abs(lam_all[j]) * psi_scale[i + 1 - j])
            G += lam_all[j] * psi[i + 1 - j]
        base = max(base, g_scale)
        pt_next = np.zeros((M_s, nw))  # psi~_{i+1}
        if _row_scale(h2, G) <= 1e-10 * base:
            defects.append((f"section i={i + 1} (zero rhs)", 0.0))
        else:
            pt_next[1:-1], defect = deflated_resolvent(
                spectrum, n, G[1:-1], noise_floor=g_scale
            )
            defects.append((f"section i={i + 1}", defect))

        # F~_{i+2}: F_2 takes psi_i without its Psi_i phi part (not known
        # yet; _ftilde adds it next step), and the lambda terms fold into
        # one q sum_{j=3}^{i+2} lambda_{j-3} psi_{i+2-j}
        U2 = pt + 0.5 * Psi[i - 1][:, None] * qphi
        RU2 = _sec(ctx.spectrum.ops.R, U2)
        Ft = _f1_minus_lq(ctx, pt_next, ctx.lam_n)
        Ft += apply_Fj(ctx, [U2, *psi[i - 1::-1]], [RU2, *Rpsi[i - 1::-1]])
        Ft -= ctx.q * np.tensordot(lam_all[i + 1:1:-1], psi[:i], axes=1)
        Ft_next = Ft

        # reduced solve for Psi_i; lambda_i makes its rhs orthogonal to Psi_0
        def _p_scale(v):
            return float(np.sqrt(hs * np.sum(v[1:-1] ** 2)))

        f = h2 * (Ft @ ctx.phi)
        for j in range(i):
            f += 0.5 * lam_all[j + 2] * Psi[i - j - 1] * ctx.q_n
        lam_all[i + 2] = -hs * float(f @ Psi0)
        rhs = f.copy()
        r_scale = _p_scale(f)
        for j in range(1, i + 1):
            t = lam_all[j + 2] * Psi[i - j]
            r_scale = max(r_scale, _p_scale(t))
            rhs += t
        base = max(base, r_scale)
        if _p_scale(rhs) <= 1e-10 * base:
            defects.append((f"reduced i={i} (zero rhs)", 0.0))
        else:
            Psi[i], defect = deflated_reduced_resolvent(
                ctx.reduced, md, rhs, noise_floor=r_scale
            )
            defects.append((f"reduced i={i}", defect))

        psi[i] = U2 + Psi[i][:, None] * ctx.phi[None, :]
        psi_scale[i] = _row_scale(h2, psi[i])
        if i < N - 1:
            Rpsi[i] = RU2 + Psi[i][:, None] * ctx.Rphi[None, :]
        pt = pt_next

    # truncation: Psi_N = 0
    psi[N] = pt + 0.5 * Psi[N - 1][:, None] * qphi

    return ExpansionState(
        n=n,
        m=m,
        N=N,
        lam=lam_all[: N + 1].copy(),
        lam_diag=float(lam_all[N + 1]),
        Psi=Psi,
        psi=psi,
        ctx=ctx,
        lam0=lam0,
        reduced_gap=md.gap,
        solve_defects=defects,
    )


def lambda1_closed(ctx: EngineContext, Psi0: np.ndarray, lam0: float) -> float:
    """First-order coefficient from the closed-form quadrature,
    (psi0, Q psi0) + 2 (R psi0, k3^2 q R psi0), with
    Q = (2 lam0 - (2 C_n - 1/2) k3^2) q + (1/2) d^2q/ds^2 + (1/2) k3' (R q);
    R q = kappa1 xi3 + kappa2 xi2 evaluated in closed form.
    """
    fr = ctx.frame
    g = ctx.spectrum.grid
    hs, h2 = fr.h, ctx.spectrum.h**2
    k3 = fr.kappa3

    d2q = np.zeros_like(ctx.q)
    d2q[1:-1] = (ctx.q[2:] - 2 * ctx.q[1:-1] + ctx.q[:-2]) / hs**2
    Rq = fr.kappa1[:, None] * g.xi3[None, :] + fr.kappa2[:, None] * g.xi2[None, :]
    Qf = (
        (2 * lam0 - (2 * ctx.C_n - 0.5) * k3**2)[:, None] * ctx.q
        + 0.5 * d2q
        + 0.5 * fr.kappa3_prime[:, None] * Rq
    )
    psi0 = Psi0[:, None] * ctx.phi[None, :]
    Rpsi0 = Psi0[:, None] * ctx.Rphi[None, :]
    term1 = hs * h2 * np.sum(psi0 * Qf * psi0)
    term2 = 2 * hs * h2 * np.sum(Rpsi0 * (k3**2)[:, None] * ctx.q * Rpsi0)
    return float(term1 + term2)


def partial_sums(state: ExpansionState, eps: float):
    """(lambda_{eps,N}, psi_{eps,N}): truncated eigenvalue and field sums."""
    check_epsilon(state.ctx.q, eps)
    lam = state.lam[0] / eps**2
    for i in range(state.N - 1):
        lam += eps**i * state.lam[i + 2]
    psi_eps = np.zeros_like(state.psi[0])
    for i in range(state.N + 1):
        psi_eps += eps**i * state.psi[i]
    return float(lam), psi_eps


def check_epsilon(q: TensorField, eps: float) -> None:
    """Require 0 < eps < 0.5/max|q| so the weight 1 - eps q stays above 1/2."""
    qmax = float(np.abs(q).max())
    bound = 0.5 / qmax if qmax > 0 else np.inf
    if not 0 < eps < bound:
        raise EpsilonOutOfRange(f"eps = {eps:g} outside (0, {bound:g})")
