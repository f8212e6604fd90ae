from pathlib import Path

import numpy as np
import pytest

from thinrod import asymptotic_engine
from thinrod.asymptotic_engine import (
    ExpansionState,
    _f1_minus_lq,
    _ftilde,
    _ftilde_coefficients,
    _sec,
    apply_Fj,
    build_context,
    check_epsilon,
    lambda1_closed,
    partial_sums,
    q_field,
    run_recurrence,
)
from thinrod.cross_section import disk_grid, mask_grid, solve_section, square_grid
from thinrod.errors import EpsilonOutOfRange
from thinrod.geometry import CurveSpec, build_frame


def _square(n=20, side=1.0, center=(0.0, 0.0), count=3):
    return solve_section(square_grid(side, n, center=center), count=count)


def _sine_eigenvalue(m, h, s0):
    return (4.0 / h**2) * np.sin(m * np.pi * h / (2 * s0)) ** 2


def _twisted_lam0_oracle(fr, C, m):
    # V = C kappa3^2 with kappa3 ~ const; exact to first order in the
    # kappa3 extraction error, against the exact discrete sine mode
    psi = np.sin(m * np.pi * fr.s_grid[1:-1] / fr.s0)
    psi /= np.sqrt(fr.h * np.sum(psi**2))
    return _sine_eigenvalue(m, fr.h, fr.s0) + C * fr.h * np.sum(
        fr.kappa3[1:-1] ** 2 * psi**2
    )


def test_q_field_straight_twisted_is_zero():
    fr = build_frame(CurveSpec("straight", s0=np.pi, twist="linear", twist_rate=0.9), 40)
    spec = _square()
    q, q_n = q_field(fr, spec)
    assert np.all(q == 0.0)
    assert np.all(q_n == 0.0)


def test_q_field_arc_centered_square():
    # planar arc: kappa1 = 1/R in the transported frame, kappa2 = 0
    R = 2.0
    fr = build_frame(CurveSpec("circular_arc", s0=2.0, radius=R), 60)
    spec = _square()
    q, q_n = q_field(fr, spec)
    assert np.allclose(q, spec.grid.xi2[None, :] / R, atol=1e-7)
    assert np.max(np.abs(q_n)) < 1e-13  # centered: m2 = m3 = 0


def test_q_field_offcenter_moment():
    R = 2.0
    fr = build_frame(CurveSpec("circular_arc", s0=2.0, radius=R), 60)
    spec = _square(center=(0.15, 0.0))
    _, q_n = q_field(fr, spec)
    assert np.allclose(q_n, 0.15 / R, atol=1e-9)


def _helix_ctx(n=14, M_s=48):
    fr = build_frame(
        CurveSpec("helix", s0=3.0, a=1.0, b=0.5, twist="linear", twist_rate=0.6), M_s
    )
    spec = _square(n=n, center=(0.12, -0.07))
    return build_context(fr, spec)


def _rand_field(ctx, seed):
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((ctx.frame.s_grid.size, ctx.phi.size))
    U[0] = U[-1] = 0.0
    return U


def _Fj(ctx, j, U):
    """F_j U through the engine: the F_1 stencil for j = 1, else the
    coupling sum on U padded in front with j - 2 zero fields."""
    if j == 1:
        return _f1_minus_lq(ctx, U, 0.0)
    return apply_Fj(ctx, [np.zeros_like(U)] * (j - 2) + [U])


@pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
def test_apply_Fj_symmetric(j):
    # <F_j U, V> == <U, F_j V> on zero-extended fields
    ctx = _helix_ctx()
    U, V = _rand_field(ctx, 11 + j), _rand_field(ctx, 47 + j)
    w = ctx.frame.h * ctx.spectrum.h**2
    a = w * np.sum(_Fj(ctx, j, U) * V)
    b = w * np.sum(U * _Fj(ctx, j, V))
    scale = w * np.sqrt(np.sum(U**2) * np.sum(V**2))
    assert abs(a - b) < 1e-10 * max(scale, abs(a))


def _reference_Fj(ctx, j, U):
    """F_j U for j >= 2, term by term with three section products: an
    independent reference for the Horner-summed stencil in apply_Fj."""
    R = ctx.spectrum.ops.R
    hs = ctx.frame.h
    k3 = ctx.frame.kappa3
    p = j - 2
    c = np.ones_like(ctx.q) if p == 0 else ctx.q**p
    c_mid = np.ones_like(ctx.q[:-1]) if p == 0 else (0.5 * (ctx.q[1:] + ctx.q[:-1])) ** p

    out = np.zeros_like(U)
    flux = c_mid * (U[1:] - U[:-1]) / hs
    out[1:-1] = (flux[1:] - flux[:-1]) / hs

    DsU = np.zeros_like(U)
    DsU[1:-1] = (U[2:] - U[:-2]) / (2 * hs)
    out[1:-1] += _sec(R, k3[:, None] * c * DsU)[1:-1]

    W = k3[:, None] * c * _sec(R, U)
    out[1:-1] += (W[2:] - W[:-2]) / (2 * hs)

    out[1:-1] += (k3**2)[1:-1, None] * _sec(R, c * _sec(R, U))[1:-1]
    return out


@pytest.mark.parametrize("j", [2, 3, 5])
def test_apply_Fj_one_field_matches_reference(j):
    ctx = _helix_ctx()
    U = _rand_field(ctx, 7 + j)
    want = _reference_Fj(ctx, j, U)
    assert np.abs(_Fj(ctx, j, U) - want).max() <= 1e-12 * np.abs(want).max()


def test_apply_Fj_list_equals_sum_of_reference():
    # the Horner-summed couplings j = 2..7 against the term-by-term reference
    ctx = _helix_ctx()
    assert np.abs(ctx.q).max() > 0 and np.abs(ctx.frame.kappa3).max() > 0
    U = [_rand_field(ctx, 100 + j) for j in range(2, 8)]
    RU = [_sec(ctx.spectrum.ops.R, u) for u in U]
    got = apply_Fj(ctx, U, RU)
    want = sum(_reference_Fj(ctx, j, u) for j, u in zip(range(2, 8), U))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _count_sec(monkeypatch):
    calls = []
    inner = asymptotic_engine._sec

    def counting(M, U):
        calls.append(1)
        return inner(M, U)

    monkeypatch.setattr(asymptotic_engine, "_sec", counting)
    return calls


def test_section_products_per_coupling(monkeypatch):
    # F~ on Psi phi is a dense (M_s x 6)(6 x n) product; the coupling sum
    # of any number of fields makes one section product once R U is known
    ctx = _helix_ctx()
    U = [_rand_field(ctx, 200 + k) for k in range(4)]
    RU = [_sec(ctx.spectrum.ops.R, u) for u in U]
    Psi = np.sin(np.pi * ctx.frame.s_grid / ctx.frame.s0)
    calls = _count_sec(monkeypatch)
    _ftilde(ctx, Psi)
    assert len(calls) == 0
    apply_Fj(ctx, U, RU)
    assert len(calls) == 1


def _ftilde_reference(ctx, Psi):
    V = Psi[:, None] * ctx.phi[None, :]
    return 0.5 * _f1_minus_lq(ctx, ctx.q * V, ctx.lam_n) + apply_Fj(ctx, [V])


def _profile(fr):
    Psi = np.sin(np.pi * fr.s_grid / fr.s0) * (1 + 0.3 * fr.s_grid)
    Psi[0] = Psi[-1] = 0.0
    return Psi


@pytest.mark.parametrize(
    "grid",
    [
        square_grid(1.0, 14, center=(0.12, -0.07)),
        disk_grid(0.5, 16, center=(0.12, -0.07)),
    ],
    ids=["square", "disk"],
)
def test_ftilde_closed_form_matches_stencils(grid):
    fr = build_frame(
        CurveSpec("helix", s0=3.0, a=1.0, b=0.5, twist="linear", twist_rate=0.6), 48
    )
    ctx = build_context(fr, solve_section(grid, 3))
    Psi = _profile(fr)
    want = _ftilde_reference(ctx, Psi)
    assert np.abs(_ftilde(ctx, Psi) - want).max() <= 1e-12 * np.abs(want).max()


def test_ftilde_straight_rod_is_s_laplacian():
    fr = build_frame(CurveSpec("straight", s0=np.pi), 40)
    ctx = build_context(fr, _square())
    Psi = _profile(fr)
    flux = (Psi[1:] - Psi[:-1]) / fr.h
    d2 = np.zeros_like(Psi)
    d2[1:-1] = (flux[1:] - flux[:-1]) / fr.h
    assert np.array_equal(_ftilde(ctx, Psi), d2[:, None] * ctx.phi[None, :])


def test_ftilde_straight_twisted_rod_has_no_curvature_part():
    # kappa1 = kappa2 = 0 exactly: the F_1 blocks of F~ are exact zeros,
    # leaving the F_2 stencil on Psi phi, whose R terms carry kappa3
    fr = build_frame(CurveSpec("straight", s0=np.pi, twist="linear", twist_rate=0.8), 40)
    ctx = build_context(fr, _square(center=(0.1, -0.05)))
    Psi = _profile(fr)
    C = _ftilde_coefficients(ctx, Psi)
    assert np.all(C[:, :3] == 0.0)
    assert np.all(C[1:-1, 5] != 0.0)
    want = _ftilde_reference(ctx, Psi)
    assert np.abs(_ftilde(ctx, Psi) - want).max() <= 1e-12 * np.abs(want).max()


def test_F2_no_twist_is_s_laplacian_on_profiles():
    fr = build_frame(CurveSpec("circular_arc", s0=2.5, radius=1.5), 50)
    spec = _square()
    ctx = build_context(fr, spec)
    s = fr.s_grid
    Psi = np.sin(np.pi * s / fr.s0) * (1 + 0.3 * s)
    Psi[0] = Psi[-1] = 0.0
    V = Psi[:, None] * ctx.phi[None, :]
    got = apply_Fj(ctx, [V])
    d2 = np.zeros_like(Psi)
    d2[1:-1] = (Psi[2:] - 2 * Psi[1:-1] + Psi[:-2]) / fr.h**2
    assert np.allclose(got, d2[:, None] * ctx.phi[None, :], atol=1e-10)


def test_f1_identity_on_mode():
    # (F_1 - lam_n q)(Psi phi) = -Psi (k1 D2 - k2 D3) phi, exact for linear q
    ctx = _helix_ctx()
    ops = ctx.spectrum.ops
    Psi = np.sin(np.pi * ctx.frame.s_grid / ctx.frame.s0)
    Psi[0] = Psi[-1] = 0.0
    V = Psi[:, None] * ctx.phi[None, :]
    got = _Fj(ctx, 1, V) - ctx.lam_n * ctx.q * V
    grad = ctx.frame.kappa1[:, None] * (ops.D2 @ ctx.phi)[None, :] - ctx.frame.kappa2[
        :, None
    ] * (ops.D3 @ ctx.phi)[None, :]
    assert np.allclose(got, -Psi[:, None] * grad, atol=1e-11)


def test_straight_rod_all_corrections_vanish():
    fr = build_frame(CurveSpec("straight", s0=np.pi), 64)
    spec = _square()
    st = run_recurrence(fr, spec, n=1, m=1, N=4)
    assert st.lam[0] == spec.lam[0]
    assert st.lam[1] == 0.0
    assert abs(st.lam[2] - _sine_eigenvalue(1, fr.h, fr.s0)) < 1e-12
    # cancellation residue is zero-propagated, so the zeros are exact
    assert np.all(st.lam[3:] == 0.0)
    assert st.lam_diag == 0.0
    assert np.all(st.psi[1:] == 0.0)
    assert st.max_defect == 0.0


def test_twisted_straight_rod_even_series():
    # q == 0 kills every odd coefficient exactly; lambda_2 is the negative
    # second-order coupling through the section gap
    c = 0.8
    fr = build_frame(CurveSpec("straight", s0=np.pi, twist="linear", twist_rate=c), 64)
    spec = _square()
    st = run_recurrence(fr, spec, n=1, m=1, N=6)
    assert abs(st.lam[2] - _twisted_lam0_oracle(fr, spec.C_int[0], 1)) < 1e-12
    assert st.lam[3] == 0.0 and st.lam[5] == 0.0
    assert st.lam[4] < 0.0
    assert st.lam[6] != 0.0
    assert st.max_defect < 1e-10


def test_lambda_minus1_zero_every_config():
    for st in [
        run_recurrence(
            build_frame(CurveSpec("circular_arc", s0=2.0, radius=1.2), 40),
            _square(center=(0.1, -0.2)),
            1, 1, 3,
        ),
        run_recurrence(
            build_frame(
                CurveSpec("helix", s0=3.0, a=1.0, b=0.5, twist="linear", twist_rate=0.4),
                40,
            ),
            _square(center=(0.1, 0.0)),
            1, 2, 3,
        ),
    ]:
        assert st.lam[1] == 0.0


def test_solvability_defects_small():
    fr = build_frame(
        CurveSpec("helix", s0=3.0, a=1.0, b=0.5, twist="linear", twist_rate=0.6), 48
    )
    spec = _square(n=16, center=(0.12, -0.07))
    st = run_recurrence(fr, spec, n=1, m=1, N=6)
    assert st.max_defect < 1e-10
    assert len(st.solve_defects) == 2 * 5


def test_expansion_orthogonality_invariants():
    fr = build_frame(CurveSpec("circular_arc", s0=2.0, radius=1.5), 48)
    spec = _square(n=16, center=(0.15, 0.0))
    st = run_recurrence(fr, spec, n=1, m=1, N=4)
    h2 = spec.h**2
    hs = fr.h
    qphi = st.ctx.q * st.ctx.phi[None, :]
    for i in range(st.N + 1):
        # psi~_i from psi_i = psi~_i + (1/2) Psi_{i-1} q phi + Psi_i phi
        psi_tilde = st.psi[i] - st.Psi[i][:, None] * st.ctx.phi[None, :]
        if i > 0:
            psi_tilde -= 0.5 * st.Psi[i - 1][:, None] * qphi
        assert np.max(np.abs(h2 * (psi_tilde @ st.ctx.phi))) < 1e-10
    for i in range(1, st.N):
        assert abs(hs * np.dot(st.Psi[i], st.Psi[0])) < 1e-10


# test oracle: the defect of one order equation of the recurrence
def order_equation_residual(state: ExpansionState, i: int) -> float:
    """Grid norm of the order-i equation defect,
    (S - lam_n) psi_i - sum_j lambda_{j-2} psi_{i-j} - F_i,
    F_i = sum_{j=1}^{i} (F_j - lambda_{j-3} q) psi_{i-j}; rounding-level
    for 0 <= i <= N-2 (higher orders are truncated).
    """
    if not 0 <= i <= state.N - 2:
        raise ValueError("residual defined for 0 <= i <= N-2")
    ctx = state.ctx
    r = _sec(ctx.spectrum.ops.S, state.psi[i]) - ctx.lam_n * state.psi[i]
    for j in range(1, i + 1):
        r -= state.lam[j] * state.psi[i - j]  # lam[j] = lambda_{j-2}
        r -= _Fj(ctx, j, state.psi[i - j])
        if j != 2:  # lambda_{j-3}: lam_n at j=1, 0 at j=2
            r += state.lam[j - 1] * ctx.q * state.psi[i - j]
    return float(np.sqrt(ctx.frame.h * ctx.spectrum.h**2 * np.sum(r**2)))


def test_order_equation_residuals():
    fr = build_frame(
        CurveSpec("helix", s0=3.0, a=1.0, b=0.5, twist="linear", twist_rate=0.6), 48
    )
    spec = _square(n=16, center=(0.12, -0.07))
    st = run_recurrence(fr, spec, n=1, m=1, N=6)
    scale = max(1.0, abs(st.lam[0]))
    for i in range(st.N - 1):
        assert order_equation_residual(st, i) < 1e-9 * scale
    with pytest.raises(ValueError):
        order_equation_residual(st, st.N - 1)


def test_second_branch_on_a_rectangle():
    # (n, m) = (2, 1) on the full 11 x 17 rectangle (h = 1/18), whose
    # lambda_2 is simple; the section solves take the closed-form sine
    # resolvent, which must pick mode 2 out of its unsorted eigenvalues
    fr = build_frame(
        CurveSpec("helix", s0=3.0, a=1.0, b=0.5, twist="linear", twist_rate=0.6), 64
    )
    spec = solve_section(
        mask_grid(Path(__file__).parent / "data" / "rectangle_11x17.mask"), 3
    )
    st = run_recurrence(fr, spec, n=2, m=1, N=4)
    assert st.lam[0] == spec.lam[1]
    scale = max(1.0, abs(st.lam[0]))
    for i in range(st.N - 1):
        assert order_equation_residual(st, i) < 1e-11 * scale
    assert st.max_defect < 1e-8


def test_lambda1_closed_matches_recurrence_on_arc():
    # off-center square on a planar arc: the two routes agree to rounding
    fr = build_frame(CurveSpec("circular_arc", s0=2.0, radius=1.5), 56)
    spec = _square(n=18, center=(0.15, 0.0))
    st = run_recurrence(fr, spec, n=1, m=1, N=3)
    lam1_closed = lambda1_closed(st.ctx, st.Psi[0], st.lam0)
    assert st.lam_i(1) != 0.0
    assert abs(lam1_closed - st.lam_i(1)) < 1e-10 * abs(st.lam_i(1))


def test_lambda1_closed_twisted_straight_zero():
    fr = build_frame(CurveSpec("straight", s0=np.pi, twist="linear", twist_rate=0.7), 48)
    spec = _square(n=16)
    st = run_recurrence(fr, spec, n=1, m=1, N=3)
    assert lambda1_closed(st.ctx, st.Psi[0], st.lam0) == 0.0
    assert st.lam_i(1) == 0.0


def test_lambda1_second_order_in_h():
    # refine section and s-grid together; lambda_1 converges at order 2
    R, s0, off = 1.5, 2.0, 0.15
    vals = []
    for n, M_s in [(12, 33), (24, 65), (48, 129)]:
        fr = build_frame(CurveSpec("circular_arc", s0=s0, radius=R), M_s)
        spec = _square(n=n, center=(off, 0.0))
        st = run_recurrence(fr, spec, 1, 1, 3)
        vals.append(st.lam_i(1))
    e1, e2 = vals[0] - vals[2], vals[1] - vals[2]
    ratio = e1 / e2
    assert 4 / 1.5 < ratio < 4 * 1.5


def test_partial_sums_definition_and_range():
    fr = build_frame(CurveSpec("circular_arc", s0=2.0, radius=1.5), 40)
    spec = _square(n=14, center=(0.1, 0.0))
    st = run_recurrence(fr, spec, 1, 1, 2)
    lam, psi = partial_sums(st, 0.1)
    assert lam == st.lam[0] / 0.1**2 + st.lam[2]
    assert psi.shape == st.psi[0].shape
    np.testing.assert_allclose(
        psi, st.psi[0] + 0.1 * st.psi[1] + 0.01 * st.psi[2], rtol=0, atol=1e-15
    )
    qmax = np.abs(st.ctx.q).max()
    with pytest.raises(EpsilonOutOfRange):
        partial_sums(st, 0.5 / qmax)
    with pytest.raises(EpsilonOutOfRange):
        partial_sums(st, 0.0)
    check_epsilon(st.ctx.q, 0.49 / qmax)


def test_epsilon_unbounded_for_straight():
    check_epsilon(np.zeros((5, 4)), 10.0)


def test_recurrence_bit_identical_rerun():
    fr = build_frame(
        CurveSpec("helix", s0=3.0, a=1.0, b=0.5, twist="linear", twist_rate=0.6), 40
    )
    spec = _square(n=14, center=(0.1, -0.05))
    a = run_recurrence(fr, spec, 1, 1, 4)
    b = run_recurrence(fr, spec, 1, 1, 4)
    assert np.array_equal(a.lam, b.lam)
    assert np.array_equal(a.psi, b.psi)


def test_N_above_six_warns():
    fr = build_frame(CurveSpec("circular_arc", s0=2.0, radius=1.5), 36)
    spec = _square(n=12, center=(0.1, 0.0))
    with pytest.warns(UserWarning, match="N = 7"):
        run_recurrence(fr, spec, 1, 1, 7)
    # and an order below 1 is refused
    with pytest.raises(ValueError, match="N must be >= 1"):
        run_recurrence(fr, spec, 1, 1, 0)


def test_higher_reduced_mode():
    # m = 2 on the twisted rod still has the exact shifted-sine lambda_0
    c = 0.5
    fr = build_frame(CurveSpec("straight", s0=np.pi, twist="linear", twist_rate=c), 80)
    spec = _square(n=16)
    st = run_recurrence(fr, spec, 1, 2, 3)
    assert abs(st.lam[2] - _twisted_lam0_oracle(fr, spec.C_int[0], 2)) < 1e-12
