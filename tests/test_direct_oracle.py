"""Tests for the direct straightened-domain eigensolve.

Expected values come from closed forms computed in each test: Kronecker-sum
spectra for the straight rod and the quasimode distance bound, which is an
identity for symmetric pencils.  The pencil family's H is checked against
a full-size Kronecker assembly kept here as the reference, as the solves
are checked against a dense eigh.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from thinrod import asymptotic_engine as engine
from thinrod import cli
from thinrod import cross_section
from thinrod import direct_oracle
from thinrod.cross_section import (
    build_operators,
    disk_grid,
    laplacian,
    mask_grid,
    solve_section,
    square_grid,
)
from thinrod.direct_oracle import (
    assemble,
    compare,
    dump_matrix,
    operator_checks,
    residual_certificate,
    separable_eigenvalues,
    series_defect,
    solve_direct,
    to_field,
    to_vector,
)
from thinrod.errors import EpsilonOutOfRange, SolverFail
from thinrod.geometry import CurveSpec, build_frame


def _square(n=12, side=1.0, center=(0.0, 0.0), count=3):
    return solve_section(square_grid(side, n, center=center), count=count)


def _sine_eigenvalue(m, h, s0):
    return (4.0 / h**2) * np.sin(m * np.pi * h / (2 * s0)) ** 2


def _dense_reference(op, k):
    """The k lowest eigenvalues of the pencil by a full dense eigh, the
    reference every LOBPCG solve is checked against."""
    return scipy.linalg.eigh(
        op.H.toarray(), np.diag(op.B), subset_by_index=[0, k - 1], eigvals_only=True
    )


def _helix(n=12, M_s=24, kind="square"):
    fr = build_frame(
        CurveSpec("helix", s0=3.0, a=1.0, b=0.5, twist="linear", twist_rate=0.6),
        M_s,
    )
    center = (0.12, -0.07)
    if kind == "disk":
        return fr, disk_grid(0.5, n, center=center)
    return fr, square_grid(1.0, n, center=center)


def _helix_op(eps=0.25, n=12, M_s=24, kind="square"):
    return assemble(*_helix(n, M_s, kind), eps)


def _kron_assembly(frame, grid, eps):
    """H(eps) as a chain of full-size Kronecker products and sparse sums,
    term by term as written in the direct_oracle module notes."""
    ops = build_operators(grid)
    k1, k2, k3 = frame.kappa1, frame.kappa2, frame.kappa3
    q = engine._tilt(frame, grid)
    ms, nw, hs = frame.s_grid.size - 2, grid.n_interior, frame.h
    I_s = sp.identity(ms, format="csr")
    I_w = sp.identity(nw, format="csr")
    c_s = 1.0 / (1.0 - eps * 0.5 * (q[:-1] + q[1:]))
    diag0 = ((c_s[:-1] + c_s[1:]) / hs**2).ravel()
    diag1 = (-c_s[1:-1] / hs**2).ravel()
    H = sp.diags([diag1, diag0, diag1], [-nw, 0, nw], format="csr")
    H = H + sp.kron(I_s, ops.S, format="csr") * (eps**-2.0)
    if max(np.abs(k1).max(), np.abs(k2).max()) > 0.0:
        G2 = sp.diags(grid.xi2) @ ops.S - ops.D2
        G3 = ops.D3 - sp.diags(grid.xi3) @ ops.S
        G2 = ((G2 + G2.T) * 0.5).tocsr()
        G3 = ((G3 + G3.T) * 0.5).tocsr()
        bend = sp.kron(sp.diags(k1[1:-1]), G2) + sp.kron(sp.diags(k2[1:-1]), G3)
        H = H - bend * (1.0 / eps)
    if np.abs(k3).max() > 0.0:
        p_int = 1.0 - eps * q[1:-1]
        D_s = sp.diags([np.full(ms - 1, -0.5 / hs), np.full(ms - 1, 0.5 / hs)], [-1, 1])
        R_blk = sp.kron(I_s, ops.R, format="csr")
        T = R_blk @ (sp.diags((k3[1:-1, None] / p_int).ravel()) @ sp.kron(D_s, I_w))
        H = H - (T + T.T)
        rmr = R_blk.T @ (sp.diags((k3[1:-1, None] ** 2 / p_int).ravel()) @ R_blk)
        H = H + (rmr + rmr.T) * 0.5
    H = H.tocsr()
    H.sum_duplicates()
    H.sort_indices()
    return H


# the four kinds of rod, bend and twist each present or absent: one path
# builds them all, and only the twisted ones carry R terms.  The helix on
# the full 11 x 17 mask has unequal section sides; the untwisted arc on a
# disk has no R, so its off-diagonal blocks are the identity alone.  Both
# run at M_s 16, 14 slabs.
RECTANGLE = Path(__file__).parent / "data" / "rectangle_11x17.mask"
RODS = {
    "straight": lambda: (build_frame(CurveSpec("straight", s0=np.pi), 20),
                         square_grid(1.0, 10), 0.1),
    "straight-twisted": lambda: (
        build_frame(CurveSpec("straight", s0=np.pi, twist="linear",
                              twist_rate=0.8), 20),
        square_grid(1.0, 10), 0.2),
    "helix-square": lambda: (*_helix(), 0.25),
    "helix-disk": lambda: (*_helix(kind="disk"), 0.25),
    "helix-mask": lambda: (_helix(M_s=16)[0], mask_grid(RECTANGLE), 0.2),
    "arc-disk": lambda: (build_frame(CurveSpec("circular_arc", s0=2.0, radius=1.5), 16),
                         disk_grid(0.5, 14, center=(0.1, 0.05)), 0.05),
}


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rod", sorted(RODS))
def test_family_matches_the_kronecker_assembly(rod):
    # same pattern (no explicit zeros for absent bend or twist terms, so
    # equal nnz) and the same values to rounding, exactly symmetric
    frame, grid, eps = RODS[rod]()
    ref = _kron_assembly(frame, grid, eps)
    op = assemble(frame, grid, eps)
    assert op.H.nnz == ref.nnz
    assert np.array_equal(op.H.indptr, ref.indptr)
    assert np.array_equal(op.H.indices, ref.indices)
    scale = np.abs(ref.data).max()
    assert np.abs(op.H.data - ref.data).max() <= 8 * np.finfo(float).eps * scale
    assert operator_checks(op)["symmetry_defect"] == 0.0


def test_untwisted_helix_pencil_has_no_twist_entries():
    # twist "none" gives kappa3 exactly 0, so H holds the section
    # Laplacian's pattern in each slab and the identity between slabs, and
    # no entry of the angular derivative R
    fr = build_frame(CurveSpec("helix", s0=3.0, a=1.0, b=0.5), 20)
    grid = square_grid(1.0, 10, center=(0.12, -0.07))
    op = assemble(fr, grid, 0.2)
    ms, nw = fr.s_grid.size - 2, grid.n_interior
    assert op.H.nnz == ms * laplacian(grid).nnz + 2 * (ms - 1) * nw


def test_family_fills_each_eps_as_a_one_off_assembly():
    # one family carries no values from one eps to the next, and its
    # pencils share the family's int32 pattern
    frame, grid = _helix(kind="disk")
    family = direct_oracle.PencilFamily(frame, grid)
    for eps in (0.25, 0.1, 0.05):
        op = family.assemble(eps)
        one_off = assemble(frame, grid, eps)
        assert np.array_equal(op.H.data, one_off.H.data)
        assert np.array_equal(op.B, one_off.B)
        assert np.shares_memory(op.H.indices, family.indices)
        assert np.shares_memory(op.H.indptr, family.indptr)
        assert op.H.indices.dtype == np.int32


def test_straight_rod_assembles_to_kronecker_sum():
    # with every curvature zero the pencil must reduce, bit for bit, to
    # 1D Dirichlet tridiagonal (x) I + eps^-2 I (x) section Laplacian, B = I
    fr = build_frame(CurveSpec("straight", s0=np.pi), 20)
    grid = square_grid(1.0, 10)
    eps = 0.1
    op = assemble(fr, grid, eps)
    ms, nw = fr.s_grid.size - 2, grid.n_interior
    hs = fr.h
    diag0 = np.full(ms * nw, 2.0 / hs**2)
    diag1 = np.full((ms - 1) * nw, -1.0 / hs**2)
    ref = sp.diags([diag1, diag0, diag1], [-nw, 0, nw], format="csr")
    ref = ref + sp.kron(sp.identity(ms, format="csr"), laplacian(grid), format="csr") * (
        eps**-2.0
    )
    dif = (op.H - ref).tocsr()
    assert dif.nnz == 0 or np.abs(dif.data).max() == 0.0
    assert np.all(op.B == 1.0)


def test_assemble_rejects_large_epsilon():
    fr = build_frame(CurveSpec("circular_arc", s0=2.0, radius=1.0), 20)
    grid = square_grid(1.0, 10)
    qmax = np.abs(grid.xi2).max() / 1.0  # |q| = |xi2| / R on the arc
    with pytest.raises(EpsilonOutOfRange):
        assemble(fr, grid, 0.5 / qmax * 1.05)


def test_weight_minimum_matches_tilt_maximum():
    op = _helix_op(eps=0.25)
    # B is the weight 1 - eps q on the interior nodes
    assert op.B.min() == 1.0 - 0.25 * op.q[1:-1].max()
    lo, hi = operator_checks(op)["b_range"]
    assert 0.5 < lo <= hi < 1.5


def test_assembled_matrix_is_exactly_symmetric():
    op = _helix_op(eps=0.25)
    assert operator_checks(op)["symmetry_defect"] == 0.0
    # positive definite: the dense Cholesky of the small H succeeds
    np.linalg.cholesky(op.H.toarray())


def test_series_defect_decays_geometrically():
    op = _helix_op(eps=0.25)
    x = 0.25 * np.abs(op.q).max()
    d = {K: series_defect(op, K) for K in (1, 2, 4, 6, 40)}
    with pytest.raises(ValueError, match="K must be >= 1"):
        series_defect(op, 0)
    assert d[2] < d[1] * 8 * x
    assert d[4] < d[2] * 8 * x**2
    assert d[6] < d[4] * 8 * x**2
    assert d[40] < 1e-12


@pytest.mark.parametrize("K", [1, 2, 12])
def test_series_defect_sums_the_couplings_in_one_apply(monkeypatch, K):
    # F_2..F_K go through the recurrence's coupling sum in one call of
    # K - 1 fields; F_1 alone makes none
    calls = []
    inner = engine.apply_Fj

    def counting(ctx, U, RU=None):
        calls.append(len(U))
        return inner(ctx, U, RU)

    monkeypatch.setattr(engine, "apply_Fj", counting)
    series_defect(_helix_op(eps=0.25), K)
    assert calls == ([K - 1] if K > 1 else [])


def test_series_defect_straight_twisted_is_machine_level():
    # q = 0 makes every coefficient series terminate at its first term
    fr = build_frame(
        CurveSpec("straight", s0=np.pi, twist="linear", twist_rate=0.8), 20
    )
    op = assemble(fr, square_grid(1.0, 10), 0.2)
    assert series_defect(op, 2) < 1e-13


# ----------------------------------------------------------------------
# eigensolve
# ----------------------------------------------------------------------


def test_straight_rod_eigenvalues_are_separable_sums():
    fr = build_frame(CurveSpec("straight", s0=np.pi), 20)
    op = assemble(fr, square_grid(1.0, 10), 0.2)
    sol = solve_direct(op, 4)
    ladder = separable_eigenvalues(op, 4)
    # the transverse gap eps^-2 (lambda_2 - lambda_1) ~ 740 is far above
    # theta_4 ~ 16, so the four lowest rungs are the n = 1 axial ladder
    lam_1 = solve_section(op.grid, 2).lam[0]
    assert [(n, m) for _, n, m in ladder] == [(1, 1), (1, 2), (1, 3), (1, 4)]
    for v, _, m in ladder:
        theta = _sine_eigenvalue(m, fr.h, fr.s0)
        assert v == pytest.approx(0.2**-2 * lam_1 + theta, rel=1e-12)
    ref = [v for v, _, _ in ladder]
    assert sol.lam == pytest.approx(ref, rel=1e-9)
    assert np.all(sol.residuals < 1e-8)
    assert np.all(np.diff(sol.lam) > 0)
    gram = sol.vectors.T @ (op.B[:, None] * sol.vectors)
    assert np.abs(gram - np.eye(4)).max() < 1e-8
    # a bent rod (q nonzero) and a twisted one (kappa3 nonzero) do not split
    for spec in (CurveSpec("circular_arc", s0=np.pi, radius=2.0),
                 CurveSpec("straight", s0=np.pi, twist="linear", twist_rate=0.8)):
        bent = assemble(build_frame(spec, 20), square_grid(1.0, 10), 0.2)
        with pytest.raises(ValueError, match="straight untwisted rod"):
            separable_eigenvalues(bent, 4)


def test_iterative_solver_matches_dense_solver():
    fr = build_frame(CurveSpec("straight", s0=np.pi), 20)
    op = assemble(fr, square_grid(1.0, 10), 0.2)
    it = solve_direct(op, 3)
    assert it.lam == pytest.approx(_dense_reference(op, 3), abs=1e-7)
    assert np.all(it.residuals < 1e-8)
    assert [h["stage"] for h in it.history] == ["lobpcg"]


def test_iterative_solver_on_curved_twisted_rod():
    op = _helix_op(eps=0.2, n=10, M_s=20)
    it = solve_direct(op, 3)
    assert it.lam == pytest.approx(_dense_reference(op, 3), abs=1e-7)


def _straight_op(tmp_path, section):
    """The straight untwisted rod at eps 0.2 on one of three sections.  The
    square and the 7 x 11 all-ones mask take the sine (x) sine basis (the
    mask's unequal sides catch swapped xi2 / xi3 axes), the disk the dense
    eigenbasis."""
    if section == "square":
        grid = square_grid(1.0, 10)
    elif section == "mask":
        path = tmp_path / "rect.mask"
        path.write_text("7 11 0.1\n" + "\n".join(["1" * 11] * 7))
        grid = mask_grid(path)
        assert grid.mask.shape == (7, 11) and grid.mask.all()
    else:
        grid = disk_grid(0.5, 12)
        assert not grid.mask.all()
    return assemble(build_frame(CurveSpec("straight", s0=np.pi), 20), grid, 0.2)


def _probe_block(op):
    return np.cos(0.37 * np.arange(op.n * 4, dtype=float)).reshape(op.n, 4)


@pytest.mark.parametrize("section", ["square", "mask", "disk"])
def test_preconditioner_is_exact_separable_inverse(tmp_path, section):
    # a straight untwisted rod has B = I and H equal to its separable part,
    # so the float64 apply inverts H - sigma I exactly, applied to a block
    # of columns and to a vector
    op = _straight_op(tmp_path, section)
    assert np.all(op.B == 1.0)
    prec = direct_oracle._separable_preconditioner(op)
    lam_1 = scipy.linalg.eigvalsh(laplacian(op.grid).toarray())[0]
    sigma = op.eps**-2.0 * lam_1  # the documented shift
    A = op.H - sigma * sp.identity(op.n, format="csr")
    X = _probe_block(op)
    assert np.abs(prec(A @ X) - X).max() < 1e-12
    x = X[:, 1].copy()
    y = prec(A @ x)
    assert y.shape == x.shape
    assert np.abs(y - x).max() < 1e-12


@pytest.mark.parametrize("section", ["square", "mask", "disk"])
def test_preconditioner_applies_in_the_dtype_of_its_block(tmp_path, section):
    # a float32 block gets the float32 apply, the one LOBPCG uses: float32
    # out, within 1e-5 relative of the float64 apply.  The block is smooth,
    # itself preconditioned (measured 4.2e-7 to 6.0e-7 relative); on the
    # oscillating probe block, whose image M shrinks 1e4-fold, rounding the
    # input to float32 alone moves the image by up to 2.7e-5 relative
    op = _straight_op(tmp_path, section)
    prec = direct_oracle._separable_preconditioner(op)
    X = prec(_probe_block(op))
    ref = prec(X)
    Y = prec(X.astype(np.float32))
    assert Y.dtype == np.float32 and Y.shape == X.shape
    assert np.abs(Y - ref).max() <= 1e-5 * np.abs(ref).max()
    # the float32 copies leave the float64 apply as it was
    assert np.array_equal(prec(X), ref)


def test_lobpcg_hands_the_preconditioner_float32_blocks(monkeypatch):
    # every preconditioner apply of a solve gets and returns a float32
    # block, and the pairs still meet the float64 target
    seen = []
    separable = direct_oracle._separable_preconditioner

    def recording(op):
        prec = separable(op)

        def apply(R):
            out = prec(R)
            seen.append((R.dtype, out.dtype))
            return out

        return apply

    monkeypatch.setattr(direct_oracle, "_separable_preconditioner", recording)
    for kind in ("square", "disk"):
        seen.clear()
        sol = solve_direct(_helix_op(eps=0.2, n=10, M_s=20, kind=kind), 3)
        assert len(seen) == sol.history[0]["iterations"] > 0
        assert set(seen) == {(np.dtype(np.float32), np.dtype(np.float32))}
        assert sol.lam.dtype == sol.vectors.dtype == np.float64
        assert np.all(sol.residuals <= sol.target)


def _count_eigh(monkeypatch):
    """The shapes of the section basis's eighs, in call order; LOBPCG's own
    eighs are not counted."""
    calls = []
    eigh = cross_section.eigh

    def counting(A):
        calls.append(A.shape)
        return eigh(A)

    monkeypatch.setattr(cross_section, "eigh", counting)
    return calls


def _parity_eighs(grid):
    """The eighs of a disk's section basis: one per mirror-parity block, in
    block order, four blocks whose sizes sum to n_omega."""
    sizes = cross_section._parity_basis(grid)[1]
    assert len(sizes) == 4 and sum(sizes) == grid.n_interior
    return [(b, b) for b in sizes]


@pytest.mark.parametrize("section", ["square", "disk"])
def test_straight_untwisted_solve_never_applies_the_preconditioner(
    monkeypatch, section
):
    # the start block is columns of the separable eigenbasis, exact on a
    # straight untwisted rod, so LOBPCG never applies the preconditioner;
    # the square's basis is closed-form, the disk's one dense eigh per
    # mirror-parity block
    calls = _count_eigh(monkeypatch)
    fr = build_frame(CurveSpec("straight", s0=np.pi), 20)
    grid = square_grid(1.0, 10) if section == "square" else disk_grid(0.5, 12)
    op = assemble(fr, grid, 0.2)
    sol = solve_direct(op, 3)
    assert [h["stage"] for h in sol.history] == ["lobpcg"]
    assert sol.history[0]["iterations"] == 0
    assert calls == ([] if section == "square" else _parity_eighs(grid))
    assert np.all(sol.residuals <= sol.target)


def test_curved_solve_builds_section_basis_once(monkeypatch):
    # a disk section needs the dense eigenbasis, built once per family:
    # one eigh per mirror-parity block
    calls = _count_eigh(monkeypatch)
    op = _helix_op(eps=0.2, n=10, M_s=20, kind="disk")
    sol = solve_direct(op, 3)
    assert sol.history[0]["iterations"] > 0
    assert calls == _parity_eighs(op.grid)


def test_disk_family_solves_three_eps_with_one_basis_and_no_section_solve(
    monkeypatch,
):
    # the separable eigenbasis does not depend on eps: a family solved at
    # three eps builds it once, and the start block reads it too, so the
    # family never runs the sparse section solve
    eighs = _count_eigh(monkeypatch)
    sections = []
    solve_section_ = direct_oracle.solve_section

    def counting(grid, count):
        sections.append(count)
        return solve_section_(grid, count)

    monkeypatch.setattr(direct_oracle, "solve_section", counting)
    family = direct_oracle.PencilFamily(*_helix(n=10, M_s=20, kind="disk"))
    for eps in (0.2, 0.1, 0.05):
        op = family.assemble(eps)
        assert solve_direct(op, 3).history[0]["iterations"] > 0
    assert eighs == _parity_eighs(op.grid)
    assert sections == []


def test_disk_solve_needs_no_scipy_eigh(monkeypatch):
    # numpy's eigh is the package's one dense symmetric eigensolver
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.eigh called")

    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    op = _helix_op(eps=0.2, n=10, M_s=20, kind="disk")
    sol = solve_direct(op, 3)
    assert np.all(sol.residuals <= sol.target)


def test_curved_square_solve_runs_no_eigh(monkeypatch):
    # a full rectangular mask has a closed-form sine (x) sine basis
    calls = _count_eigh(monkeypatch)
    op = _helix_op(eps=0.2, n=10, M_s=20)
    sol = solve_direct(op, 3)
    assert sol.history[0]["iterations"] > 0
    assert calls == []


def test_curved_solve_reports_its_iterations():
    op = _helix_op(eps=0.2, n=10, M_s=20)
    sol = solve_direct(op, 3)
    (stage,) = sol.history
    assert stage["iterations"] > 0
    # one entry for the start block and one per iteration
    assert len(stage["residual_history"]) == stage["iterations"] + 1
    assert "warnings" not in stage


@pytest.mark.parametrize("kind, n", [("square", 10), ("disk", 12)])
def test_iterations_do_not_grow_as_the_rod_thins(kind, n):
    # shifted by exactly eps^-2 lambda_1, the preconditioner's denominators
    # of the wanted (1, m) rungs are theta_m, independent of eps, so the
    # LOBPCG count stays flat (measured 7 / 6 / 6 on both sections; a
    # shift of 0.9 eps^-2 lambda_1 gives 11 / 14 / 24 and 11 / 15 / 23)
    iterations = []
    for eps in (0.2, 0.1, 0.05):
        op = _helix_op(eps=eps, n=n, M_s=40, kind=kind)
        sol = solve_direct(op, 3)
        iterations.append(sol.history[0]["iterations"])
    assert iterations[-1] <= iterations[0], iterations


def test_solve_stops_when_requested_pairs_converge():
    # only the K requested pairs must meet the target; the guards are
    # carried along and the top one stops well short of it (measured:
    # ritz_all[-1] - window_guard = 2.8e-6, 280 times the 1e-8 target)
    op = _helix_op(eps=0.2, n=10, M_s=20)
    target = max(1e-8, 8 * np.finfo(float).eps * np.abs(op.H).sum(axis=1).max())
    sol = solve_direct(op, 3)
    assert np.all(sol.residuals <= target)
    assert sol.lam == pytest.approx(_dense_reference(op, 3), abs=1e-7)
    assert sol.ritz_all[-1] - sol.window_guard > target


@pytest.mark.parametrize("kind, n", [("square", 10), ("disk", 12)])
def test_solution_residuals_are_the_certificate_rho(kind, n):
    # one residual throughout: the solve certifies every pair, guards'
    # window edge included, in the rho of residual_certificate
    op = _helix_op(eps=0.2, n=n, M_s=20, kind=kind)
    sol = solve_direct(op, 3)
    for j, lam in enumerate(sol.lam):
        rho, _, _ = residual_certificate(op, float(lam), sol.vectors[:, j])
        assert sol.residuals[j] == pytest.approx(rho, rel=1e-12, abs=0)
    assert sol.residuals.max() <= sol.target
    target = max(1e-8, 8 * np.finfo(float).eps * np.abs(op.H).sum(axis=1).max())
    assert sol.target == pytest.approx(target, rel=1e-14)


def test_inf_norm_reads_the_csr_rows():
    # the largest absolute row sum, in one pass over the row segments of
    # H.data
    op = _helix_op(eps=0.2, n=10, M_s=20)
    ref = np.abs(op.H).sum(axis=1).max()
    assert direct_oracle._inf_norm(op.H) == pytest.approx(ref, rel=1e-14)


def test_degenerate_start_block_raises_solver_fail(monkeypatch):
    # a start block with two equal columns spans fewer than nb directions
    start_block = direct_oracle._start_block

    def repeated(op, nb):
        X = start_block(op, nb)
        X[:, 1] = X[:, 0]
        return X

    monkeypatch.setattr(direct_oracle, "_start_block", repeated)
    with pytest.raises(SolverFail, match="degenerate start block"):
        solve_direct(_helix_op(eps=0.2, n=10, M_s=20), 3)


def test_double_ground_eigenvalue_raises_solver_fail(monkeypatch):
    # the expansion pairs its modes with a simple ground state; a solve
    # whose two lowest values coincide is refused, with its history
    lobpcg = direct_oracle._lobpcg

    def doubled(*args, **kwargs):
        lam, V, stage, res = lobpcg(*args, **kwargs)
        lam[1] = lam[0]
        return lam, V, stage, res

    monkeypatch.setattr(direct_oracle, "_lobpcg", doubled)
    with pytest.raises(SolverFail, match="ground eigenvalue not simple") as exc:
        solve_direct(_helix_op(eps=0.2, n=10, M_s=20), 3)
    assert [h["stage"] for h in exc.value.history] == ["lobpcg"]


def test_section_above_spectral_cutoff_raises_solver_fail(monkeypatch):
    # only a non-rectangular section needs the dense basis
    op = _helix_op(eps=0.2, n=10, M_s=20, kind="disk")
    monkeypatch.setattr("thinrod.cross_section._SPECTRAL_CUTOFF", 16)
    assert op.n_omega > 16
    with pytest.raises(SolverFail, match=r"limit of 16\b.*section\.n"):
        solve_direct(op, 3)


def test_preconditioner_above_spectral_cutoff_refuses_on_build(monkeypatch):
    # the preconditioner reads the section basis when it is built, so a
    # section above the limit is refused before anything is applied; a
    # rectangle of the same size needs no dense basis and builds
    op = _helix_op(eps=0.2, n=10, M_s=20, kind="disk")
    monkeypatch.setattr("thinrod.cross_section._SPECTRAL_CUTOFF", 16)
    with pytest.raises(SolverFail, match=r"limit of 16\b.*section\.n"):
        direct_oracle._separable_preconditioner(op)
    square = _helix_op(eps=0.2, n=10, M_s=20)
    assert square.n_omega > 16
    prec = direct_oracle._separable_preconditioner(square)
    assert np.all(np.isfinite(prec(np.ones(square.n))))


def test_lobpcg_short_of_target_raises_solver_fail_with_history():
    # one LOBPCG iteration cannot reach the target; the failure carries the
    # per-iteration residual history instead of accepting a looser limit
    op = _helix_op(eps=0.2, n=10, M_s=20)
    with pytest.raises(SolverFail, match="stalled") as exc:
        solve_direct(op, 3, maxiter=1)
    (stage,) = exc.value.history
    assert stage["stage"] == "lobpcg"
    assert stage["residual_history"]
    assert stage["residual_history"][-1] > 1e-8


def test_lobpcg_stops_at_the_rounding_floor_of_rho():
    # near its rounding floor rho wanders instead of falling.  With the
    # target at 3x the lowest rho of a 40-step run, a quarter of the target
    # is never reached, and the run stops at the first step whose rho meets
    # the target itself (measured: 7 steps, rho 0.72x the target)
    op = _helix_op(eps=0.05, n=10, M_s=20)
    X = direct_oracle._start_block(op, 6)
    prec = direct_oracle._separable_preconditioner(op)
    _, _, probe, _ = direct_oracle._lobpcg(op.H, op.B, X, prec, 3, 0.0, 40)
    assert probe["iterations"] == 40
    target = 3 * min(probe["residual_history"])
    lam, V, stage, res = direct_oracle._lobpcg(op.H, op.B, X, prec, 3, target, 40)
    assert stage["iterations"] <= 15
    history = stage["residual_history"]
    assert target / 4 < history[-1] <= target
    assert np.all(direct_oracle._rho(op.H, op.B, V[:, :3], lam[:3]) <= target)
    assert np.all(res[:3] <= target)


def test_lobpcg_stops_at_the_first_step_that_meets_the_target():
    # the target only decides where the run stops, so a run to a target
    # follows a 40-step probe's rho step for step.  With the target just
    # above the probe's last rho of more than 100x its floor (measured:
    # step 5, rho 8.0e-8, 456x the floor), the run stops at exactly the
    # first step whose rho meets it, though a quarter of the target is
    # reached one step later
    op = _helix_op(eps=0.05, n=10, M_s=20)
    X = direct_oracle._start_block(op, 6)
    prec = direct_oracle._separable_preconditioner(op)
    _, _, probe, _ = direct_oracle._lobpcg(op.H, op.B, X, prec, 3, 0.0, 40)
    rho = probe["residual_history"]
    step = max(i for i, r in enumerate(rho) if r > 100 * min(rho))
    target = 1.01 * rho[step]
    first = next(i for i, r in enumerate(rho) if r <= target)
    assert first == step > 0
    lam, V, stage, res = direct_oracle._lobpcg(op.H, op.B, X, prec, 3, target, 40)
    assert stage["iterations"] == first
    assert stage["residual_history"] == rho[: first + 1]
    assert np.all(res[:3] <= target)


def test_lobpcg_floor_stop_is_certified_by_the_recomputed_rho():
    # near the rounding floor the iteration's own rho can meet the target
    # while rho recomputed from H does not; with no check, solve_direct
    # then raised "stalled".  A floor stop needs the recomputed rho to meet
    # the target, and that rho is what _lobpcg returns.  With the target at
    # 1.5x and 2x the lowest rho of a 40-step run, the recomputed rho
    # refused a stop (measured: at step 12, own rho 0.965x and recomputed
    # 1.015x; at step 8, 0.986x and 1.010x), and the run stopped at the
    # next step that met the target: step 14 (own 0.871x, recomputed
    # 0.937x) and step 9 (0.891x, 0.917x).  Which target meets such a step
    # moves with the rounding of every step, hence two
    op = _helix_op(eps=0.05, n=10, M_s=20)
    X = direct_oracle._start_block(op, 6)
    prec = direct_oracle._separable_preconditioner(op)
    _, _, probe, _ = direct_oracle._lobpcg(op.H, op.B, X, prec, 3, 0.0, 40)
    for factor in (1.5, 2.0):
        target = factor * min(probe["residual_history"])
        lam, V, stage, res = direct_oracle._lobpcg(op.H, op.B, X, prec, 3, target, 40)
        assert stage["iterations"] < 40
        assert np.all(res[:3] <= target)
        assert np.array_equal(res, direct_oracle._rho(op.H, op.B, V, lam))


def test_solve_working_set_is_eight_blocks():
    # in blocks of n x nb doubles, LOBPCG keeps X, AX and the [W, P] buffer;
    # the H-apply adds S and AS (two each), and the stop R, V and the two
    # temporaries of _rho.  Measured peak over what is held before the
    # call: 8.7 blocks, 0.2 of them the float32 copy of the section basis
    # that the first preconditioner apply makes (8.4 with a float64
    # preconditioner, 13.4 when R, S and AS outlived their use and rho was
    # formed in whole-block temporaries)
    fr, grid = _helix(n=16, M_s=48, kind="disk")
    op = assemble(fr, grid, 0.05)
    op.family.section_basis  # the preconditioner's basis, built once per family
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        sol = solve_direct(op, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = op.n * sol.ritz_all.size * 8
    assert sol.ritz_all.size == 10
    assert (peak - held) / block < 10.5


def test_rho_has_the_bits_of_the_whole_block_expression():
    # _rho forms H U - (B U) lam in place; certificates and residual_rho
    # keep the bits of the expression it replaced, near an eigenpair (where
    # the difference cancels) and away from one
    op = _helix_op(eps=0.1, n=12, M_s=24, kind="disk")
    H, Bd = op.H, op.B
    sol = solve_direct(op, 3)
    rng = np.random.default_rng(5)
    blocks = [
        (sol.vectors, sol.lam),
        (rng.standard_normal((op.n, 4)), rng.uniform(0.0, 2.0 * sol.lam[-1], 4)),
    ]
    for U, lam in blocks:
        s = np.sqrt(Bd)[:, None]
        whole = np.linalg.norm(
            (H @ U - (Bd[:, None] * U) * lam) / s, axis=0
        ) / np.linalg.norm(s * U, axis=0)
        assert np.array_equal(direct_oracle._rho(H, Bd, U, lam), whole)
        u, mu, s = U[:, 1], lam[1], np.sqrt(Bd)
        whole = np.linalg.norm((H @ u - (Bd * u) * mu) / s) / np.linalg.norm(s * u)
        assert np.array_equal(direct_oracle._rho(H, Bd, u, mu), whole)


def test_solver_keeps_three_guard_columns_at_the_block_limit(monkeypatch):
    # the centred 25-node square under the helix at M_s 16: 350 unknowns,
    # a block of at most 87 columns.  With no guard (K = 87) LOBPCG stalls
    # for 150 iterations at residual 1.7e-8 against 1e-8, since the 87th
    # and 88th eigenvalues differ by 1.2e-5 relative; K = 84 keeps three
    # guards and converges in 12 iterations
    fr = build_frame(
        CurveSpec("helix", s0=3.0, a=1.0, b=0.5, twist="linear", twist_rate=0.6),
        16,
    )
    op = assemble(fr, square_grid(1.0, 5), 0.2)
    assert (op.n, direct_oracle.max_pairs(op.n)) == (350, 84)
    sol = solve_direct(op, 84)
    assert sol.history[0]["iterations"] <= 20
    assert sol.lam == pytest.approx(_dense_reference(op, 84), rel=1e-9)

    def no_iteration(*args):
        raise AssertionError("LOBPCG ran")

    # K = 85 is refused before LOBPCG starts
    monkeypatch.setattr(direct_oracle, "_lobpcg", no_iteration)
    with pytest.raises(SolverFail, match="fewer than 3 guard columns"):
        solve_direct(op, 85)


def test_solver_rejects_bad_sizes():
    op = _helix_op(eps=0.2, n=10, M_s=20)
    with pytest.raises(ValueError):
        solve_direct(op, 0)
    with pytest.raises(ValueError):
        solve_direct(op, op.n)


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------


def test_certificate_on_exact_eigenpair():
    op = _helix_op(eps=0.2, n=10, M_s=20)
    sol = solve_direct(op, 3)
    rho, ok, note = residual_certificate(
        op, float(sol.lam[0]), sol.vectors[:, 0], sol
    )
    assert rho < 1e-8
    assert ok is True
    assert note is None
    assert np.abs(sol.lam - sol.lam[0]).min() == 0.0 <= rho
    # a full-grid field, flattened, gives the same certificate; without a
    # solution there is nothing to check the bound against
    v = to_vector(op, to_field(op, sol.vectors[:, 0]))
    assert residual_certificate(op, float(sol.lam[0]), v, sol) == (rho, ok, None)
    assert residual_certificate(op, float(sol.lam[0]), v) == (rho, None, None)


def test_certificate_distance_bound_holds_for_any_quasimode():
    # |nearest eigenvalue - mu| <= rho is an identity for symmetric pencils;
    # probe it with deliberately poor candidates
    op = _helix_op(eps=0.2, n=10, M_s=20)
    sol = solve_direct(op, 6)
    v = sol.vectors[:, 0] + 0.3 * sol.vectors[:, 1] + 0.05 * sol.vectors[:, 2]
    for mu in (float(sol.lam[0]) + 0.5, float(sol.lam[1]) - 0.2):
        rho, ok, note = residual_certificate(op, mu, v, sol)
        dist = np.abs(sol.lam - mu).min()
        assert dist <= rho
        assert ok is True and note is None


def test_certificate_notes_outside_window():
    # a probe past the window edge is left unchecked, and the note says why
    op = _helix_op(eps=0.2, n=10, M_s=20)
    sol = solve_direct(op, 2)
    probe = float(sol.ritz_all[-1]) + 100.0
    rho, ok, note = residual_certificate(op, probe, sol.vectors[:, 0], sol)
    assert ok is None and rho > 0
    assert note == (
        f"candidate {probe:.6g} + rho {rho:.3g} reaches past the computed "
        f"window edge {sol.window_guard:.6g}; compute more eigenpairs to certify"
    )


def test_certificate_rejects_zero_candidate():
    op = _helix_op(eps=0.2, n=10, M_s=20)
    with pytest.raises(ValueError, match="zero candidate"):
        residual_certificate(op, 1.0, np.zeros(op.n))
    # the candidate is an unknown vector; a full-grid field is refused
    field = to_field(op, np.ones(op.n))
    with pytest.raises(ValueError, match="expected an unknown vector"):
        residual_certificate(op, 1.0, field)


# ----------------------------------------------------------------------
# comparison against the expansion
# ----------------------------------------------------------------------


def test_compare_straight_rod_gaps_at_machine_level():
    # the expansion of a straight rod terminates: partial sums equal the
    # separable eigenvalues, so gaps and angles sit at solver level
    fr = build_frame(CurveSpec("straight", s0=np.pi), 20)
    spec = _square(n=10, count=3)
    eps = 0.2
    op = assemble(fr, spec.grid, eps)
    sol = solve_direct(op, 4)
    states = [engine.run_recurrence(fr, spec, 1, m, N=3) for m in (1, 2, 3)]
    rows, notes = compare(sol, states)
    assert notes == []
    assert cli._row_failures(rows) == []
    assert [r.match_index for r in rows] == [0, 1, 2]
    for r in rows:
        assert r.abs_gap < 1e-7
        assert r.sin_angle < 1e-6
        assert r.bound_ok is True
        assert r.neighbor_gap > 10 * r.abs_gap


def test_compare_curved_twisted_rod_certifies():
    fr = build_frame(
        CurveSpec("helix", s0=3.0, a=1.0, b=0.5, twist="linear", twist_rate=0.6),
        22,
    )
    spec = _square(n=10, center=(0.12, -0.07))
    eps = 0.1
    op = assemble(fr, spec.grid, eps)
    sol = solve_direct(op, 5)
    states = [engine.run_recurrence(fr, spec, 1, m, N=3) for m in (1, 2)]
    rows, notes = compare(sol, states)
    assert notes == []
    assert cli._row_failures(rows) == []
    for r in rows:
        assert r.bound_ok is True  # nearest-distance bound, zero tolerance
        assert r.abs_gap <= r.residual_rho
        assert r.abs_gap < 1.0
        assert r.sin_angle < 0.05


def test_compare_twisted_straight_rod_small_gap():
    # q = 0: corrections enter only through even orders; at N = 6 the
    # truncation remainder sits far below the eps^2 shift itself
    fr = build_frame(
        CurveSpec("straight", s0=np.pi, twist="linear", twist_rate=0.8), 20
    )
    spec = _square(n=10)
    eps = 0.1
    op = assemble(fr, spec.grid, eps)
    sol = solve_direct(op, 3)
    st = engine.run_recurrence(fr, spec, 1, 1, N=6)
    (row,), notes = compare(sol, [st])
    assert notes == []
    assert row.abs_gap < 1e-4
    assert row.bound_ok is True


def test_compare_resolves_angles_below_the_cosine_floor():
    # at order 5 the partial sum's angle to the direct eigenvector falls
    # below 1.5e-8, where sqrt(1 - cos^2) cancels to exactly 0; the
    # projection residual keeps resolving it (measured 5.4e-7 / 1.0e-8 /
    # 1.8e-10 at eps 0.1 / 0.05 / 0.025)
    fr = build_frame(
        CurveSpec("helix", s0=3.0, a=1.0, b=0.5, twist="linear", twist_rate=0.6),
        48,
    )
    spec = _square(n=12, center=(0.12, -0.07))
    st = engine.run_recurrence(fr, spec, 1, 1, N=5)
    angles = []
    for eps in (0.1, 0.05, 0.025):
        op = assemble(fr, spec.grid, eps)
        sol = solve_direct(op, 3)
        (row,), _ = compare(sol, [st])
        angles.append(row.sin_angle)
    assert 0.0 < angles[2] < angles[1] < angles[0], angles
    v = to_vector(op, engine.partial_sums(st, eps)[1])
    u = sol.vectors[:, row.match_index]
    cos2 = (v @ (op.B * u)) ** 2 / ((v @ (op.B * v)) * (u @ (op.B * u)))
    assert np.sqrt(max(0.0, 1.0 - min(1.0, cos2))) == 0.0


def test_compare_flags_ambiguous_pairing():
    fr = build_frame(CurveSpec("straight", s0=np.pi), 20)
    spec = _square(n=10)
    eps = 0.2
    op = assemble(fr, spec.grid, eps)
    sol = solve_direct(op, 3)
    st = engine.run_recurrence(fr, spec, 1, 1, N=2)
    rows, _ = compare(sol, [st, st])
    assert any("pairing" in r.flags for r in rows)
    assert cli._row_failures(rows) != []
    assert all("pairing" in r.flags for r in rows)


def test_compare_flags_a_shared_match_once_per_row():
    # three rows share one match: each carries the flag once, however many
    # other rows share it
    fr = build_frame(CurveSpec("straight", s0=np.pi), 20)
    spec = _square(n=10)
    eps = 0.2
    op = assemble(fr, spec.grid, eps)
    sol = solve_direct(op, 3)
    st = engine.run_recurrence(fr, spec, 1, 1, N=2)
    rows, _ = compare(sol, [st, st, st])
    assert [r.match_index for r in rows] == [0, 0, 0]
    assert [r.flags for r in rows] == [["pairing"]] * 3
    assert [f["kind"] for f in cli._row_failures(rows)] == ["pairing"] * 3


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------


def test_field_vector_roundtrip():
    op = _helix_op(eps=0.2, n=10, M_s=20)
    v = np.sin(0.1 + np.arange(op.n))
    f = to_field(op, v)
    assert f.shape == (op.M_s, op.n_omega)
    assert np.all(f[0] == 0.0) and np.all(f[-1] == 0.0)
    assert np.array_equal(to_vector(op, f), v)
    with pytest.raises(ValueError):
        to_vector(op, np.zeros((3, 3)))


def test_matrix_dump_roundtrips(tmp_path):
    op = _helix_op(eps=0.2, n=10, M_s=20)
    path = tmp_path / "H.mtx"
    dump_matrix(op, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("%%MatrixMarket matrix coordinate real symmetric")
    n_rows, n_cols, nnz = (int(t) for t in lines[2].split())
    assert (n_rows, n_cols) == op.H.shape
    entries = [ln.split() for ln in lines[3:]]
    assert len(entries) == nnz
    rows = np.array([int(e[0]) for e in entries])
    cols = np.array([int(e[1]) for e in entries])
    vals = np.array([float(e[2]) for e in entries])
    assert np.all(rows >= cols)  # lower triangle, 0-based
    low = sp.coo_matrix((vals, (rows, cols)), shape=op.H.shape).tocsr()
    strict = sp.triu(low.T, k=1)
    dif = (low + strict - op.H).tocsr()
    assert dif.nnz == 0 or np.abs(dif.data).max() == 0.0


def test_solution_is_deterministic():
    op1 = _helix_op(eps=0.2, n=10, M_s=20)
    op2 = _helix_op(eps=0.2, n=10, M_s=20)
    dif = (op1.H - op2.H).tocsr()
    assert dif.nnz == 0 or np.abs(dif.data).max() == 0.0
    s1 = solve_direct(op1, 3)
    s2 = solve_direct(op2, 3)
    assert np.array_equal(s1.lam, s2.lam)
