"""Reduced 1D operator: potential assembly, eigensolve, deflation."""

import numpy as np
import pytest

from thinrod.curve_operator import (
    ReducedOperator,
    build_reduced,
    deflated_reduced_resolvent,
    solve_reduced,
)
from thinrod.errors import DegenerateReduced, SolvabilityViolation
from thinrod.geometry import CurveSpec, build_frame

C1_SQUARE = np.pi**2 / 6 - 1.5


def _sine_eigenvalue(m, h, s0):
    # 3-point Dirichlet stencil, exact discrete eigenvalue
    return (4.0 / h**2) * np.sin(m * np.pi * h / (2 * s0)) ** 2


def test_potential_straight_untwisted():
    fr = build_frame(CurveSpec("straight", s0=np.pi), 64)
    op = build_reduced(fr, 0.3)
    assert np.all(op.V == 0.0)


def test_potential_straight_twisted_constant():
    c = 0.8
    fr = build_frame(CurveSpec("straight", s0=np.pi, twist="linear", twist_rate=c), 64)
    op = build_reduced(fr, C1_SQUARE)
    assert np.abs(op.V - C1_SQUARE * c**2).max() < 1e-6


def test_potential_arc_constant_shift():
    fr = build_frame(CurveSpec("circular_arc", s0=np.pi, radius=1.0), 128)
    op = build_reduced(fr, 0.25)
    assert np.abs(op.V + 0.25).max() < 1e-7


def test_twisted_rod_eigenvalues_closed_form():
    c = 1.0
    fr = build_frame(CurveSpec("straight", s0=np.pi, twist="linear", twist_rate=c), 128)
    op = build_reduced(fr, C1_SQUARE)
    modes = solve_reduced(op, 3)
    for md in modes:
        lam_ref = _sine_eigenvalue(md.m, op.h, op.s0) + C1_SQUARE * c**2
        # V is constant up to the kappa3 FD error (~1e-7)
        assert abs(md.lam0 - lam_ref) < 1e-6
        assert md.Psi0[0] == 0.0 and md.Psi0[-1] == 0.0
        assert abs(op.h * np.sum(md.Psi0[1:-1] ** 2) - 1.0) < 1e-10
        assert md.Psi0[np.argmax(np.abs(md.Psi0))] > 0
    assert modes[0].lam0 < modes[1].lam0 < modes[2].lam0


def test_arc_eigenvalue_shift():
    fr = build_frame(CurveSpec("circular_arc", s0=np.pi, radius=1.0), 128)
    op = build_reduced(fr, 0.7)  # C_n irrelevant, kappa3 = 0
    md = solve_reduced(op, 1)[0]
    assert abs(md.lam0 - (_sine_eigenvalue(1, op.h, op.s0) - 0.25)) < 1e-7


def test_reduced_shift_refines_second_order():
    c = 1.0
    errs = []
    for M_s in (64, 128):
        fr = build_frame(
            CurveSpec("straight", s0=np.pi, twist="linear", twist_rate=c), M_s
        )
        md = solve_reduced(build_reduced(fr, C1_SQUARE), 1)[0]
        errs.append(abs(md.lam0 - (1.0 + C1_SQUARE * c**2)))
    assert 2.5 < errs[0] / errs[1] < 5.5


def test_transverse_weights_enter_potential():
    fr = build_frame(CurveSpec("circular_arc", s0=np.pi, radius=2.0), 64)
    op = build_reduced(fr, 0.0, transverse_weights=(0.9, 1.0))
    assert np.abs(op.V + 0.9 * 0.25 / 4.0).max() < 1e-7


def test_deflated_reduced_eigenbasis_and_roundtrip():
    fr = build_frame(
        CurveSpec("helix", s0=2 * np.pi, a=1.0, b=0.4, twist="linear", twist_rate=0.3),
        96,
    )
    op = build_reduced(fr, 0.2)
    m1, m2 = solve_reduced(op, 2)
    u, defect = deflated_reduced_resolvent(op, m1, m2.Psi0)
    assert defect < 1e-14
    assert np.abs(u - m2.Psi0 / (m2.lam0 - m1.lam0)).max() < 1e-10
    assert abs(op.h * np.sum(u[1:-1] * m1.Psi0[1:-1])) < 1e-12
    # a 1e-10 part along Psi_1 is the returned defect and is projected off
    u, defect = deflated_reduced_resolvent(op, m1, m2.Psi0 + 1e-10 * m1.Psi0)
    assert defect == pytest.approx(1e-10, rel=1e-5)
    assert np.abs(u - m2.Psi0 / (m2.lam0 - m1.lam0)).max() < 1e-10

    rng = np.random.default_rng(11)
    w = rng.standard_normal(op.s_grid.size - 2)
    w -= op.h * np.sum(w * m1.Psi0[1:-1]) * m1.Psi0[1:-1]
    rhs = op.matrix() @ w - m1.lam0 * w
    u, _ = deflated_reduced_resolvent(op, m1, rhs)
    assert u.size == w.size
    assert np.abs(u - w).max() < 1e-9 * np.abs(w).max()


def test_deflated_reduced_solvability_violation():
    fr = build_frame(CurveSpec("straight", s0=np.pi), 64)
    op = build_reduced(fr, 0.0)
    md = solve_reduced(op, 1)[0]
    with pytest.raises(SolvabilityViolation):
        deflated_reduced_resolvent(op, md, md.Psi0)


def test_each_mode_carries_its_gap_to_the_next():
    # the solve of m modes computes lambda_{m+1} too; each mode's gap is
    # the next eigenvalue minus its own
    fr = build_frame(CurveSpec("circular_arc", s0=2.0, radius=1.5), 64)
    op = build_reduced(fr, 0.3)
    wider = solve_reduced(op, 4)
    modes = solve_reduced(op, 3)
    for k, md in enumerate(modes):
        ref = wider[k + 1].lam0 - wider[k].lam0
        assert md.gap == pytest.approx(ref, rel=1e-12)


def test_symmetric_double_well_is_degenerate():
    # two equal wells behind a barrier of height 1e4 and width about 1: the
    # lowest pair splits by about exp(-100), far below the gap test
    s = np.linspace(0.0, 3.0, 61)
    V = np.zeros(61)
    V[21:40] = 1e4  # symmetric about the middle node, 30
    with pytest.raises(DegenerateReduced, match="section mode 1, reduced modes 1,2"):
        solve_reduced(ReducedOperator(1, s, V), 2)
