"""Section eigenproblem, rotational coefficient, deflated resolvent."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence
from scipy.special import jn_zeros

from thinrod import cross_section, direct_oracle
from thinrod.cross_section import (
    SectionSpectrum,
    _component_count,
    _finish_grid,
    _sine_resolvent,
    assert_simple,
    deflated_resolvent,
    deflated_solve,
    disk_grid,
    laplacian,
    mask_grid,
    section_basis,
    solve_section,
    square_grid,
)
from thinrod.errors import (
    ConfigError,
    MultipleEigenvalue,
    SolvabilityViolation,
    SolverFail,
)
from thinrod.geometry import CurveSpec, build_frame

C1_SQUARE = np.pi**2 / 6 - 1.5  # |R phi_1|^2 for the centered unit square,
# from the separable integrals of phi_1 = 2 cos(pi xi2) cos(pi xi3):
# int xi^2 cos^2 = 1/24 - 1/(4 pi^2), int xi^2 sin^2 = 1/24 + 1/(4 pi^2),
# int xi sin cos = 1/(4 pi) on (-1/2, 1/2), assembled with the cross term.

# full 11 x 17 rectangular mask, h = 1/18: its lowest section modes are
# simple, so the second branch n = 2 is reachable on it
RECTANGLE = Path(__file__).parent / "data" / "rectangle_11x17.mask"


def test_square_eigenvalue_closed_form():
    n = 48
    g = square_grid(1.0, n)
    s = solve_section(g, 1)
    lam_exact = (2.0 / g.h**2) * (2.0 - 2.0 * np.cos(np.pi * g.h))
    assert abs(s.lam[0] - lam_exact) < 1e-11 * lam_exact


def test_normalization_and_orthogonality():
    s = solve_section(square_grid(1.0, 32), 4)
    h2 = s.h**2
    for k in range(4):
        assert abs(h2 * np.sum(s.phi[k] ** 2) - 1.0) < 1e-10
        assert s.phi[k][np.argmax(np.abs(s.phi[k]))] > 0
        for j in range(k):
            assert abs(h2 * np.sum(s.phi[k] * s.phi[j])) < 1e-8
    assert np.all(np.diff(s.lam) >= 0)
    assert np.all(s.lam > 0)


def test_simplicity_guard():
    s = solve_section(square_grid(1.0, 24), 4)
    assert_simple(s, 1)
    with pytest.raises(MultipleEigenvalue, match=r"relative gap .* <= 1e-06$"):
        assert_simple(s, 2)
    # the gap above mode 4 needs mode 5, which is not stored; modes 0 and 5
    # are not modes of the spectrum
    with pytest.raises(IndexError, match="need mode 5 stored"):
        assert_simple(s, 4)
    for n in (0, 5):
        with pytest.raises(IndexError, match=f"mode {n} not stored"):
            s.mode(n)


def test_solve_section_refuses_counts_outside_the_grid():
    # 25 interior nodes: at least one mode, and at most 23, two spare
    grid = square_grid(1.0, 5)
    with pytest.raises(ValueError, match="count must be >= 1"):
        solve_section(grid, 0)
    with pytest.raises(SolverFail, match="count 24 too large for 25 interior nodes"):
        solve_section(grid, 24)
    assert solve_section(grid, 23).count == 23


def test_disk_ground_state():
    g = disk_grid(1.0, 64)
    s = solve_section(g, 2)
    assert_simple(s, 1)
    # staircase mask: only O(h) accuracy on a curved boundary
    assert abs(s.lam[0] - jn_zeros(0, 1)[0] ** 2) < 0.2


# test oracle: C_n with the field R phi_n it integrates
def rotational_coefficient(spectrum: SectionSpectrum, n: int):
    """C_n = |R phi_n|^2 (closure quadrature) and the interior field R phi_n."""
    _, p = spectrum.mode(n)
    return float(spectrum.C[n - 1]), spectrum.ops.R @ p


def test_square_c1_closed_form():
    s = solve_section(square_grid(1.0, 96), 1)
    assert abs(s.C[0] - C1_SQUARE) < 1e-3
    c, rphi = rotational_coefficient(s, 1)
    assert c == s.C[0]
    assert rphi.shape == s.phi[0].shape


def test_square_c1_second_order():
    e48 = abs(solve_section(square_grid(1.0, 48), 1).C[0] - C1_SQUARE)
    e96 = abs(solve_section(square_grid(1.0, 96), 1).C[0] - C1_SQUARE)
    assert 2.5 < e48 / e96 < 5.5


def _blob_grid(mask, h):
    ny, nz = mask.shape
    x2 = h * (np.arange(ny) - (ny - 1) / 2)
    x3 = h * (np.arange(nz) - (nz - 1) / 2)
    return _finish_grid("mask", h, mask, x2, x3)


def test_c1_rotation_invariance():
    m = np.zeros((30, 22), dtype=bool)
    m[4:26, 3:19] = True
    m[4:9, 3:8] = False
    m[20:26, 14:19] = False
    s1 = solve_section(_blob_grid(m, 0.05), 1)
    s2 = solve_section(_blob_grid(np.rot90(m).copy(), 0.05), 1)
    c1, _ = rotational_coefficient(s1, 1)
    c2, _ = rotational_coefficient(s2, 1)
    assert abs(c1 - c2) < 1e-10
    assert c1 >= 0.0


def test_moments_track_center_offset():
    s = solve_section(square_grid(1.0, 31, center=(0.15, 0.0)), 1)
    assert abs(s.m2[0] - 0.15) < 1e-12
    assert abs(s.m3[0]) < 1e-12


def test_neighbor_average_factor_square():
    g = square_grid(1.0, 32)
    s = solve_section(g, 1)
    # sine modes are exact eigenvectors of the neighbor-average stencils
    assert abs(s.a2[0] - np.cos(np.pi * g.h)) < 1e-12
    assert abs(s.a3[0] - np.cos(np.pi * g.h)) < 1e-12


def test_stencil_symmetries():
    g = disk_grid(1.0, 24)
    s = solve_section(g, 1)
    assert abs(s.ops.S - s.ops.S.T).max() == 0.0
    assert abs(s.ops.R + s.ops.R.T).max() == 0.0
    assert abs(s.ops.D2 + s.ops.D2.T).max() == 0.0


def test_deflated_resolvent_eigenbasis():
    s = solve_section(square_grid(1.0, 24), 4)
    (u,), defect = deflated_resolvent(s, 1, s.phi[1:2], 0.0)
    assert np.abs(u - s.phi[1] / (s.lam[1] - s.lam[0])).max() < 1e-12
    assert abs(s.h**2 * np.sum(u * s.phi[0])) < 1e-12
    assert defect < 1e-14
    # a 1e-10 part along phi_1 passes the 1e-8 check, is returned as the
    # defect and is projected off: the solution is that of phi_2 alone
    (u,), defect = deflated_resolvent(s, 1, s.phi[1:2] + 1e-10 * s.phi[0:1], 0.0)
    assert defect == pytest.approx(1e-10, rel=1e-5)
    assert np.abs(u - s.phi[1] / (s.lam[1] - s.lam[0])).max() < 1e-12


def test_deflated_resolvent_roundtrip():
    s = solve_section(square_grid(1.0, 24), 1)
    rng = np.random.default_rng(3)
    w = rng.standard_normal(s.phi[0].size)
    w -= s.h**2 * np.sum(w * s.phi[0]) * s.phi[0]
    rhs = s.ops.S @ w - s.lam[0] * w
    (u,), _ = deflated_resolvent(s, 1, rhs[None, :], 0.0)
    assert np.abs(u - w).max() < 1e-10 * np.abs(w).max()


def test_deflated_resolvent_batch():
    s = solve_section(square_grid(1.0, 24), 3)
    U, _ = deflated_resolvent(s, 1, s.phi[1:3], 0.0)
    assert U.shape == (2, s.phi[0].size)
    assert np.abs(U[0] - s.phi[1] / (s.lam[1] - s.lam[0])).max() < 1e-12


def test_solvability_violation():
    # the square and the rectangle take the closed-form sine resolvent, the
    # disk the bordered LU; the pre-check runs before either
    for grid in (square_grid(1.0, 24), mask_grid(RECTANGLE), disk_grid(1.0, 24)):
        s = solve_section(grid, 1)
        with pytest.raises(SolvabilityViolation):
            deflated_resolvent(s, 1, s.phi[0:1], 0.0)
        assert not s._factors  # refused before any solver is built


def test_deflated_solve_residual_guard():
    # bordered by a phi tilted towards phi_2, the matrix stays regular, but
    # a rhs orthogonal to that phi keeps a part along the true eigenvector,
    # which no u can produce: the solution misses its rhs and the guard fires
    s = solve_section(square_grid(1.0, 24), 2)
    lam, phi = s.mode(1)
    w = s.h**2
    off = phi + 1e-3 * s.phi[1]
    off /= np.sqrt(w * np.sum(off**2))
    rhs = s.phi[1] - w * np.sum(s.phi[1] * off) * off
    with pytest.raises(SolverFail, match="residual"):
        deflated_solve(s.ops.S, lam, off, w, rhs[None, :], 0.0, {}, 1)
    u, _ = deflated_solve(s.ops.S, lam, phi, w, s.phi[1:2], 0.0, {}, 1)
    assert np.abs(u[0] - s.phi[1] / (s.lam[1] - lam)).max() < 1e-12

    # the rectangle twin: the closed form drops the sine mode of lambda_1
    # and projects off the tilted phi, so it misses the rhs's part along
    # that sine mode, and the same guard fires
    s = solve_section(mask_grid(RECTANGLE), 2)
    lam, phi = s.mode(1)
    w = s.h**2
    off = phi + 1e-3 * s.phi[1]
    off /= np.sqrt(w * np.sum(off**2))
    rhs = s.phi[1] - w * np.sum(s.phi[1] * off) * off

    def sine(p):
        return lambda: _sine_resolvent(s.grid, lam, p, w)

    with pytest.raises(SolverFail, match="residual"):
        deflated_solve(s.ops.S, lam, off, w, rhs[None, :], 0.0, {}, 1, sine(off))
    u, _ = deflated_solve(s.ops.S, lam, phi, w, s.phi[1:2], 0.0, {}, 1, sine(phi))
    assert np.abs(u[0] - s.phi[1] / (s.lam[1] - lam)).max() < 1e-12


def test_double_eigenvalue_fails_the_residual_guard():
    # on the square lambda_2 = lambda_3: deflating phi_2 leaves its tied
    # partner in the kernel, and neither solver may return a solution.  At
    # n = 11 the partner's closed-form eigenvalue equals lambda_2 exactly,
    # so its scaling is infinite and the residual NaN, which fails too
    for n, residual in ((30, "residual [0-9]"), (11, "residual nan")):
        s = solve_section(square_grid(1.0, n), 4)
        lam, phi = s.mode(2)
        w = s.h**2
        rows = np.random.default_rng(5).standard_normal((4, phi.size))
        rows -= (w * (rows @ phi))[:, None] * phi[None, :]
        with pytest.raises(SolverFail, match=residual):
            deflated_resolvent(s, 2, rows, 0.0)  # closed form
        with pytest.raises(SolverFail, match="residual"):
            deflated_solve(s.ops.S, lam, phi, w, rows, 0.0, {}, 2)  # bordered LU


def _count_bordered_lu(monkeypatch):
    built = []
    real = cross_section._bordered_lu

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(cross_section, "_bordered_lu", counting)
    return built


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sine_resolvent_matches_bordered_lu(n, monkeypatch):
    # mode n picked out of the unsorted closed-form eigenvalues gives the
    # bordered LU's solution on a 62-row batch
    s = solve_section(mask_grid(RECTANGLE), 4)
    lam, phi = s.mode(n)
    w = s.h**2
    rows = np.random.default_rng(n).standard_normal((62, phi.size))
    rows -= (w * (rows @ phi))[:, None] * phi[None, :]
    built = _count_bordered_lu(monkeypatch)
    u, _ = deflated_resolvent(s, n, rows, 0.0)
    assert not built
    ref, _ = deflated_solve(s.ops.S, lam, phi, w, rows, 0.0, {}, n)
    assert len(built) == 1
    assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(w * (u @ phi)).max() <= 1e-12


@pytest.mark.parametrize("kind", ["rectangle", "disk"])
def test_section_basis_products_follow_the_dtype_of_their_input(kind):
    # the sine (x) sine map on the 11 x 17 rectangle, the dense eigenbasis
    # on the disk: both diagonalize S, take float32 stacks to float32
    # within float32 rounding, and keep their float64 products as they were
    grid = mask_grid(RECTANGLE) if kind == "rectangle" else disk_grid(0.5, 12)
    lam_sec, to_modes, from_modes = section_basis(grid)
    U = np.cos(0.37 * np.arange(grid.n_interior * 5)).reshape(-1, 5)
    modes, back = to_modes(U), from_modes(U)
    S = laplacian(grid)
    assert np.abs(to_modes(S @ U) - lam_sec[:, None] * modes).max() <= (
        1e-12 * lam_sec.max() * np.abs(modes).max()
    )
    assert np.abs(from_modes(modes) - U).max() <= 1e-13
    for product, ref in ((to_modes, modes), (from_modes, back)):
        single = product(U.astype(np.float32))
        assert single.dtype == np.float32
        assert np.abs(single - ref).max() <= 1e-5 * np.abs(ref).max()
        assert np.array_equal(product(U), ref)
    if kind == "rectangle":
        # the row-stack entry of the section resolvent: the same products
        for rows in (U.T.copy(), U.T.astype(np.float32)):
            assert np.abs(to_modes.rows(rows) - modes.T).max() <= (
                1e-6 if rows.dtype == np.float32 else 1e-15
            ) * np.abs(modes).max()


def _stair_mask(mirrored: bool):
    """A 9 x 12 staircase, left-aligned, row i of width 12 - |i - 4| (even
    under the mirror of axis 0 alone, row 4 on its axis) or 12 - i (no
    mirror symmetry)."""
    widths = [12 - (abs(i - 4) if mirrored else i) for i in range(9)]
    mask = np.arange(12)[None, :] < np.array(widths)[:, None]
    x2, x3 = 0.1 * (np.arange(9) - 4.0), 0.1 * (np.arange(12) - 5.5)
    return _finish_grid("mask", 0.1, mask, x2, x3)


# every kind of mirror symmetry: both mirrors with nodes on their axes
# (disk n 9: orbits of one, two and four nodes), both without (disk n 10,
# and n 24, the benchmark's, whose one 484 x 484 eigh becomes four of 121),
# one mirror with a row on its axis, and none
PARITY_GRIDS = {
    "disk9": (lambda: disk_grid(0.5, 9), [22, 17, 17, 13]),
    "disk10": (lambda: disk_grid(0.5, 10), [22, 22, 22, 22]),
    "disk24": (lambda: disk_grid(0.5, 24), [121, 121, 121, 121]),
    "one_mirror": (lambda: _stair_mask(True), [50, 38]),
    "no_mirror": (lambda: _stair_mask(False), [72]),
}


@pytest.mark.parametrize("kind", sorted(PARITY_GRIDS))
def test_parity_basis_is_orthonormal_and_block_diagonalizes_s(kind):
    make, sizes = PARITY_GRIDS[kind]
    grid = make()
    Q, got = cross_section._parity_basis(grid)
    assert got == sizes and sum(sizes) == grid.n_interior
    Qd = Q.toarray()
    assert np.abs(Qd.T @ Qd - np.eye(grid.n_interior)).max() <= 1e-15
    assert set(np.abs(Q.data)) <= {0.5, np.sqrt(0.5), 1.0}
    A = Qd.T @ laplacian(grid).toarray() @ Qd
    edges = np.cumsum([0, *sizes])
    for a, b in zip(edges[:-1], edges[1:]):
        A[a:b, a:b] = 0.0
    assert np.abs(A).max() <= 1e-12 * np.abs(laplacian(grid).data).max()


@pytest.mark.parametrize("kind", sorted(PARITY_GRIDS))
def test_parity_section_basis_matches_one_dense_eigh(kind, monkeypatch):
    # one eigh per parity block; together their eigenvalues are a dense
    # eigh's, and the products diagonalize S and invert each other
    make, sizes = PARITY_GRIDS[kind]
    grid = make()
    calls = []
    eigh = cross_section.eigh

    def counting(A):
        calls.append(A.shape)
        return eigh(A)

    monkeypatch.setattr(cross_section, "eigh", counting)
    lam_sec, to_modes, from_modes = section_basis(grid)
    assert calls == [(b, b) for b in sizes]
    S = laplacian(grid)
    ref = np.linalg.eigvalsh(S.toarray())
    assert np.abs(np.sort(lam_sec) - ref).max() <= 1e-12 * ref.max()
    U = np.cos(0.37 * np.arange(grid.n_interior * 5)).reshape(-1, 5)
    modes = to_modes(U)
    assert np.abs(to_modes(S @ U) - lam_sec[:, None] * modes).max() <= (
        1e-12 * lam_sec.max() * np.abs(modes).max()
    )
    assert np.abs(from_modes(modes) - U).max() <= 1e-13


@pytest.mark.parametrize("kind", sorted(PARITY_GRIDS))
def test_parity_preconditioner_equals_the_dense_eigenbasis_one(kind):
    # the separable preconditioner is the exact shifted inverse whatever
    # eigenbasis it is built from: in float64 the parity blocks give that
    # of one dense eigh of S
    grid = PARITY_GRIDS[kind][0]()
    frame = build_frame(CurveSpec("helix", s0=3.0, a=1.0, b=0.5,
                                  twist="linear", twist_rate=0.6), 20)
    family = direct_oracle.PencilFamily(frame, grid)
    op = family.assemble(0.1)
    X = np.cos(0.37 * np.arange(op.n * 3)).reshape(-1, 3)
    parity = direct_oracle._separable_preconditioner(op)(X)
    lam, Phi = np.linalg.eigh(laplacian(grid).toarray())
    family.section_basis = (lam, lambda U: Phi.T @ U, lambda U: Phi @ U)
    dense = direct_oracle._separable_preconditioner(op)(X)
    assert np.abs(parity - dense).max() <= 1e-12 * np.abs(dense).max()


def test_section_size_limit_counts_the_parity_blocks():
    # sum(block^2) <= 4096^2: a disk is accepted up to section.n 101 and
    # refused at 102, a mask with no mirror symmetry above 4096 nodes, with
    # the message of a single dense basis; the advice names the field to
    # change, section.n for the disk and the mask file for the mask
    assert disk_grid(0.5, 101).n_interior == 8161
    cross_section._check_section_size(disk_grid(0.5, 101))
    with pytest.raises(SolverFail, match=(
        r"^section has 8304 interior nodes in mirror-parity blocks of 2076, "
        r"2076, 2076, 2076, whose dense eigenbases hold as many entries as "
        r"one of 4152 nodes, above the limit of 4096 .*; lower section\.n$"
    )):
        cross_section._check_section_size(disk_grid(0.5, 102))
    mask = np.ones((65, 65), dtype=bool)
    mask[0, 0] = False
    x = 0.01 * np.arange(65.0)
    asymmetric = _finish_grid("mask", 0.01, mask.copy(), x, x)
    assert cross_section._parity_basis(asymmetric)[1] == [4224]
    with pytest.raises(SolverFail) as exc:
        cross_section._check_section_size(asymmetric)
    assert str(exc.value) == (
        "section has 4224 interior nodes, above the limit of 4096 for the "
        "dense section eigenbasis the direct solve needs on a non-rectangular "
        "section; use a mask file of fewer interior nodes in section.path"
    )
    mask[0, -1] = mask[-1, 0] = mask[-1, -1] = False
    cross_section._check_section_size(_finish_grid("mask", 0.01, mask, x, x))


def test_disk_mask_is_exact_on_the_circle():
    # nodes on the circle are out, so every disk keeps both mirrors and the
    # diagonal one; at n 101 floating point put 4 of its 8 on-circle nodes in
    for n in (9, 33, 57, 101, 102):
        mask = disk_grid(0.5, n).mask
        assert np.array_equal(mask, mask[::-1])
        assert np.array_equal(mask, mask[:, ::-1])
        assert np.array_equal(mask, mask.T)


def test_cast_once_keeps_its_own_dtype_and_one_copy_of_another():
    A = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    cast = cross_section._cast_once(A)
    assert cast(np.dtype(np.float64)) is A  # float64 products use A itself
    single = cast(np.dtype(np.float32))
    assert single.dtype == np.float32 and np.array_equal(single, A.astype(np.float32))
    assert cast(np.dtype(np.float32)) is single


def test_disk_resolvent_caches_a_bordered_lu(monkeypatch):
    s = solve_section(disk_grid(1.0, 24), 3)
    built = _count_bordered_lu(monkeypatch)
    for _ in range(2):
        (u,), _ = deflated_resolvent(s, 1, s.phi[1:2], 0.0)
        assert np.abs(u - s.phi[1] / (s.lam[1] - s.lam[0])).max() < 1e-12
    assert len(built) == 1 and list(s._factors) == [1]


def test_mask_file_roundtrip(tmp_path):
    p = tmp_path / "sec.mask"
    rows = ["1" * 8 for _ in range(7)]
    p.write_text("7 8 0.125\n" + "\n".join(rows) + "\n")
    g = mask_grid(p)
    assert g.n_interior == 56
    assert abs(g.xi2.mean()) < 1e-14
    solve_section(g, 1)


def test_mask_rows_split_on_any_whitespace(tmp_path):
    # the same 6 x 7 mask with tab-separated, space-separated and compact
    # rows loads to one grid
    rows = ["0111110", "1111111", "1111111", "1111111", "1111111", "0111110"]
    grids = []
    for name, sep in (("tab", "\t"), ("space", " "), ("compact", "")):
        p = tmp_path / f"{name}.mask"
        p.write_text("6 7 0.1\n" + "\n".join(sep.join(r) for r in rows) + "\n")
        grids.append(mask_grid(p))
    for g in grids[1:]:
        for name in ("h", "mask", "idx", "xi2", "xi3"):
            assert np.array_equal(getattr(g, name), getattr(grids[0], name)), name
    assert grids[0].n_interior == 38


def test_mask_file_rejects_bad_input(tmp_path):
    p = tmp_path / "bad.mask"
    p.write_text("not a header\n")
    with pytest.raises(ConfigError):
        mask_grid(p)
    p.write_text("2 3 0.1\n111\n11\n")
    with pytest.raises(ConfigError):
        mask_grid(p)
    # a spacing that is not a finite positive number
    for h in ("0", "-0.1", "nan", "inf"):
        p.write_text(f"6 7 {h}\n" + "\n".join(["1111111"] * 6) + "\n")
        with pytest.raises(ConfigError) as e:
            mask_grid(p)
        assert e.value.path == "section.path"
    # two components
    p.write_text("7 11 0.1\n" + "\n".join(["11111011111"] * 7) + "\n")
    with pytest.raises(ConfigError):
        mask_grid(p)


def test_mask_blocks_touching_at_a_corner_are_two_components(tmp_path):
    # connectivity follows the 5-point stencil: two 5 x 5 blocks that meet
    # only diagonally share no edge, as under ndimage.label's cross structure
    rows = ["1111100000"] * 5 + ["0000011111"] * 5
    p = tmp_path / "corner.mask"
    p.write_text("10 10 0.1\n" + "\n".join(rows) + "\n")
    with pytest.raises(ConfigError, match=r"\(2 components\)"):
        mask_grid(p)
    # one node beside the corner joins them
    rows[4] = "1111110000"
    p.write_text("10 10 0.1\n" + "\n".join(rows) + "\n")
    assert mask_grid(p).n_interior == 51


def test_component_count_matches_ndimage_label():
    from scipy.ndimage import label

    rng = np.random.default_rng(5)
    for _ in range(300):
        mask = rng.random(tuple(rng.integers(1, 20, size=2))) < rng.uniform(0.3, 0.9)
        n = int(mask.sum())
        idx = -np.ones(mask.shape, dtype=np.int64)
        idx[mask] = np.arange(n)
        assert _component_count(idx, n) == label(mask)[1]


def test_solve_section_reports_an_arpack_failure(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    monkeypatch.setattr(cross_section, "eigsh", no_convergence)
    with pytest.raises(SolverFail, match="section eigensolve failed: ARPACK error"):
        solve_section(square_grid(1.0, 10), 2)


def test_solve_section_refuses_a_nonpositive_eigenvalue(monkeypatch):
    # the Dirichlet Laplacian is positive definite; an eigensolve that
    # returns otherwise is refused, not passed on
    eigsh = cross_section.eigsh

    def negated(*args, **kwargs):
        lam, vecs = eigsh(*args, **kwargs)
        return -lam, vecs

    monkeypatch.setattr(cross_section, "eigsh", negated)
    with pytest.raises(SolverFail, match="nonpositive section eigenvalue"):
        solve_section(square_grid(1.0, 10), 2)


def test_minimum_size_enforced():
    with pytest.raises(ConfigError):
        square_grid(1.0, 4)
    with pytest.raises(ConfigError):
        disk_grid(1.0, 6)


@settings(deadline=None, max_examples=15)
@given(n=st.integers(8, 24), side=st.floats(0.6, 1.8))
def test_square_spectrum_properties(n, side):
    s = solve_section(square_grid(side, n), 2)
    assert abs(s.h**2 * np.sum(s.phi[0] ** 2) - 1.0) < 1e-10
    assert 0.0 < s.lam[0] < s.lam[1]
    assert s.C[0] >= 0.0
    # closed form: h = side/(n+1), lowest mode (1,1)
    lam_exact = (4.0 / s.h**2) * (1.0 - np.cos(np.pi * s.h / side))
    assert abs(s.lam[0] - lam_exact) < 1e-9 * lam_exact


# sys.modules holds each module from the start of its loading on, in order
IMPORT_ORDER_SCRIPT = """
import sys
import thinrod.cli
order = list(sys.modules)
print(order.index("scipy.sparse"), order.index("scipy.linalg"))
"""


def test_scipy_linalg_is_imported_after_scipy_sparse(tmp_path):
    # loaded first (isort's order), scipy.linalg made `import thinrod.cli`
    # about 15% slower, which every run pays in its start-up
    env = dict(os.environ)
    src = str(Path(cross_section.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ORDER_SCRIPT],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    sparse, linalg = map(int, proc.stdout.split())
    assert sparse < linalg
