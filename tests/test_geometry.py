"""Frame construction, curvature extraction, finite-difference kernels."""

import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinrod import geometry
from thinrod.errors import FrameDrift, InvalidCurve, ThinRodError
from thinrod.geometry import (
    CurveSpec,
    FrameField,
    _curvatures,
    _dots,
    build_frame,
    diff4,
    fd_weights,
)


# test oracles: frame identities no command needs
def curvatures_from_frame(frame: FrameField):
    """kappa1 = tau'.eta, kappa2 = -tau'.beta, kappa3 = eta'.beta by FD."""
    return _curvatures(frame.tau, frame.eta, frame.beta, frame.h)


def frame_ode_residual(frame: FrameField) -> float:
    """Max nodal residual of tau' = k1 eta - k2 beta, eta' = -k1 tau + k3 beta,
    beta' = k2 tau - k3 eta, with 4th-order FD derivatives."""
    h = frame.h
    taup = diff4(frame.tau, h)
    etap = diff4(frame.eta, h)
    betap = diff4(frame.beta, h)
    k1 = frame.kappa1[:, None]
    k2 = frame.kappa2[:, None]
    k3 = frame.kappa3[:, None]
    r1 = taup - (k1 * frame.eta - k2 * frame.beta)
    r2 = etap - (-k1 * frame.tau + k3 * frame.beta)
    r3 = betap - (k2 * frame.tau - k3 * frame.eta)
    return float(max(np.abs(r1).max(), np.abs(r2).max(), np.abs(r3).max()))


class FrenetUndefined(ThinRodError):
    """Curvature vanishes somewhere; the Frenet frame does not exist."""


@dataclass(frozen=True)
class FrenetReport:
    max_curvature_dev: float  # max |k1^2 + k2^2 - kappa^2|
    max_torsion_dev: float  # max |k3 - alpha' - torsion|
    kappa_min: float
    kappa_max: float


def frenet_consistency_check(frame: FrameField) -> FrenetReport:
    """Compare frame curvatures against Frenet quantities derived from r.

    Raises FrenetUndefined when the curvature vanishes somewhere (e.g.
    straight segments), in which case no Frenet frame exists.
    """
    h = frame.h
    r1 = diff4(frame.r, h)
    r2 = diff4(frame.r, h, order=2)
    r3 = diff4(frame.r, h, order=3)
    cr = np.cross(r1, r2)
    crn = np.linalg.norm(cr, axis=1)
    speed = np.linalg.norm(r1, axis=1)
    kappa = crn / speed**3
    kmin, kmax = float(kappa.min()), float(kappa.max())
    if kmin < 1e-6 * max(kmax, 1.0 / frame.s0):
        raise FrenetUndefined(
            f"curvature ~ {kmin:.3e} somewhere; Frenet frame undefined"
        )
    torsion = _dots(cr, r3) / crn**2

    # total angle between the Frenet normal and eta, from the frame itself
    alpha_total = np.unwrap(np.arctan2(frame.kappa2, frame.kappa1))
    alpha_prime = diff4(alpha_total, h)

    dev_k = np.abs(frame.kappa1**2 + frame.kappa2**2 - kappa**2)
    dev_t = np.abs(frame.kappa3 - alpha_prime - torsion)
    return FrenetReport(float(dev_k.max()), float(dev_t.max()), kmin, kmax)


def test_fd_weights_polynomial_exactness():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    z = 1.7
    for m in (1, 2, 3):
        w = fd_weights(x, z, m)
        for deg in range(5):
            val = np.dot(w, x**deg)
            d = deg
            exact = 0.0
            if deg >= m:
                exact = np.prod(np.arange(d, d - m, -1)) * z ** (d - m)
            assert abs(val - exact) < 1e-10 * max(1.0, abs(exact))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_diff4_fourth_order(order):
    errs = []
    for M in (40, 80):
        x = np.linspace(0.0, 2.0, M)
        f = np.sin(x)
        d = diff4(f, x[1] - x[0], order=order)
        exact = np.sin(x + order * np.pi / 2)
        errs.append(np.abs(d - exact).max())
    assert errs[0] / errs[1] > 12.0


def test_straight_frame_trivial():
    fr = build_frame(CurveSpec("straight", s0=np.pi), 64)
    assert np.all(fr.kappa1 == 0.0)
    assert np.all(fr.kappa2 == 0.0)
    assert np.all(fr.kappa3 == 0.0)
    assert np.abs(fr.tau - fr.tau[0]).max() == 0.0
    assert frame_ode_residual(fr) < 1e-13


def test_straight_twist_constant_rate():
    c = 0.7
    fr = build_frame(CurveSpec("straight", s0=np.pi, twist="linear", twist_rate=c), 64)
    assert np.all(fr.kappa1 == 0.0)
    assert np.all(fr.kappa2 == 0.0)
    assert np.abs(fr.kappa3 - c).max() < 1e-6
    assert np.abs(fr.alpha - c * fr.s_grid).max() < 1e-14


def test_arc_curvature_and_inward_normal():
    R = 2.0
    fr = build_frame(CurveSpec("circular_arc", s0=3.0, radius=R), 256)
    assert np.abs(fr.kappa1 - 1.0 / R).max() < 1e-7
    assert np.abs(fr.kappa2).max() < 1e-7
    assert np.abs(fr.kappa3).max() < 1e-7
    # eta(0) points from r(0) toward the arc center
    assert np.abs(fr.eta[0] - np.array([0.0, 1.0, 0.0])).max() < 1e-10


def test_helix_transport_minimizes_rotation():
    a, b = 1.0, 0.5
    kappa = a / (a**2 + b**2)
    fr = build_frame(CurveSpec("helix", s0=8.0, a=a, b=b), 256)
    assert np.abs(fr.kappa1**2 + fr.kappa2**2 - kappa**2).max() < 1e-6
    # an untwisted frame does not turn about tau: kappa3 is exactly 0, not
    # the transport's finite-difference residue
    assert np.all(fr.kappa3 == 0.0)
    assert np.all(fr.kappa3_prime == 0.0)


def test_frame_ode_residual_refines():
    spec = CurveSpec("helix", s0=8.0, a=1.0, b=0.5)
    r1 = frame_ode_residual(build_frame(spec, 128))
    r2 = frame_ode_residual(build_frame(spec, 256))
    assert r1 / r2 >= 3.0


def test_frenet_consistency_helix():
    a, b = 1.0, 0.5
    fr = build_frame(CurveSpec("helix", s0=8.0, a=a, b=b), 256)
    rep = frenet_consistency_check(fr)
    assert rep.max_curvature_dev < 1e-5
    assert rep.max_torsion_dev < 1e-5
    kappa = a / (a**2 + b**2)
    assert abs(rep.kappa_min - kappa) < 1e-6
    assert abs(rep.kappa_max - kappa) < 1e-6


def test_frenet_consistency_twisted_arc():
    fr = build_frame(
        CurveSpec("circular_arc", s0=3.0, radius=2.0, twist="linear", twist_rate=0.4),
        256,
    )
    rep = frenet_consistency_check(fr)
    assert rep.max_curvature_dev < 1e-5
    assert rep.max_torsion_dev < 1e-5


def test_frenet_undefined_for_straight():
    fr = build_frame(CurveSpec("straight", s0=np.pi), 64)
    with pytest.raises(FrenetUndefined):
        frenet_consistency_check(fr)


def test_sampled_circle_roundtrip():
    R = 2.0
    t = np.linspace(0.0, 1.5 * np.pi, 400)
    pts = np.stack([R * np.cos(t), R * np.sin(t), np.zeros_like(t)], axis=1)
    fr = build_frame(CurveSpec("sampled", points=pts), 256)
    assert abs(fr.s0 - 1.5 * np.pi * R) < 1e-6 * fr.s0
    k1, k2, k3 = curvatures_from_frame(fr)
    assert np.abs(k1**2 + k2**2 - 1.0 / R**2).max() < 1e-4


def test_sampled_self_intersection_rejected():
    t = np.linspace(0.0, 2 * np.pi, 200)
    pts = np.stack([np.sin(t), np.sin(t) * np.cos(t), np.zeros_like(t)], axis=1)
    with pytest.raises(InvalidCurve):
        build_frame(CurveSpec("sampled", points=pts), 64)


def _dense_min_nonadjacent_distance(r):
    """The all-pairs formula: an (M, M, 3) difference array and the pairs
    j >= i + 2 from triu_indices."""
    d = np.linalg.norm(r[:, None, :] - r[None, :, :], axis=2)
    ii, jj = np.triu_indices(r.shape[0], k=2)
    return float(d[ii, jj].min())


@pytest.mark.parametrize("M", [3, 4, 17, 300])
def test_min_nonadjacent_distance_equals_the_dense_formula(monkeypatch, M):
    # same pairs, same arithmetic: bit-identical, also across many blocks
    r = np.random.default_rng(M).standard_normal((M, 3))
    dense = _dense_min_nonadjacent_distance(r)
    assert geometry._min_nonadjacent_distance(r) == dense
    monkeypatch.setattr(geometry, "_DISTANCE_BLOCK", 5 * M)
    assert geometry._min_nonadjacent_distance(r) == dense


def test_min_nonadjacent_distance_memory_is_linear():
    # the dense formula holds 2000^2 x 3 doubles (96 MB) and more; a block
    # of rows holds about 2^16 pairs (measured peak 4.5 MB)
    t = np.linspace(0.0, 6.0, 2000)
    r = np.stack([np.cos(t), np.sin(t), 0.15 * t], axis=1)
    tracemalloc.start()
    try:
        dmin = geometry._min_nonadjacent_distance(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert dmin == _dense_min_nonadjacent_distance(r)


@pytest.mark.parametrize("spec, message", [
    # the CLI refuses an unknown kind first, on curve.kind
    (CurveSpec("spiral", s0=1.0), "unknown curve kind 'spiral'"),
    (CurveSpec("circular_arc", s0=7.0, radius=1.0), "arc length covers a full circle"),
    (CurveSpec("helix", s0=7.0, a=1.0, b=0.0), "flat helix covers a full circle"),
], ids=["unknown-kind", "full-arc", "full-flat-helix"])
def test_curves_without_a_frame_are_refused(spec, message):
    with pytest.raises(InvalidCurve, match=message):
        build_frame(spec, 20)


def test_transport_refuses_a_step_that_drifts_off_the_unit_sphere():
    # the tangent turns by a right angle every half-step: one RK4 step of
    # the transport equation moves eta far off unit length
    tau = np.eye(3)
    taup = 50.0 * np.roll(np.eye(3), 1, axis=1)
    with pytest.raises(FrameDrift, match="transport step 0: renormalization"):
        geometry._transport(tau, taup, 0.1)


@pytest.mark.parametrize("defect", ["norm", "orthogonality", "handedness"])
def test_validate_refuses_a_frame_that_is_not_orthonormal(defect):
    fr = build_frame(
        CurveSpec("helix", s0=3.0, a=1.0, b=0.5, twist="linear", twist_rate=0.6), 20
    )
    geometry._validate(fr)
    bad, message = {
        "norm": ({"tau": 1.001 * fr.tau}, r"\|tau\| deviates from 1"),
        # eta turned by 1e-6 rad towards tau: unit, but not orthogonal
        "orthogonality": ({"eta": np.cos(1e-6) * fr.eta + np.sin(1e-6) * fr.tau},
                          "tau.eta = "),
        # a left-handed frame: orthonormal, but beta = -(tau x eta)
        "handedness": ({"beta": -fr.beta}, r"beta != tau x eta"),
    }[defect]
    with pytest.raises(FrameDrift, match=message):
        geometry._validate(replace(fr, **bad))


def test_grid_too_coarse():
    with pytest.raises(InvalidCurve):
        build_frame(CurveSpec("straight", s0=1.0), 8)


def test_tabulated_twist_shape_checked():
    spec = CurveSpec(
        "straight", s0=1.0, twist="tabulated", twist_values=np.zeros(10)
    )
    with pytest.raises(InvalidCurve):
        build_frame(spec, 32)
    vals = np.linspace(0.0, 0.3, 32) ** 2
    fr = build_frame(
        CurveSpec("straight", s0=1.0, twist="tabulated", twist_values=vals), 32
    )
    assert np.abs(fr.alpha - vals).max() == 0.0


@settings(deadline=None, max_examples=20)
@given(R=st.floats(0.5, 5.0), frac=st.floats(0.3, 1.2))
def test_arc_curvature_property(R, frac):
    fr = build_frame(CurveSpec("circular_arc", s0=frac * np.pi * R, radius=R), 64)
    assert np.abs(fr.kappa1 - 1.0 / R).max() < 1e-5 / R
    assert np.abs(fr.kappa2).max() < 1e-5 / R
