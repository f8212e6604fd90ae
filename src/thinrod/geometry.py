"""Reference curve, rotating frame, and curvature functions.

Each curve source has one sampler that returns r, tau and tau' at given
arc lengths: `_analytic` in closed form for the built-in kinds, the
sampler of `_sampled` from splines through a point list. build_frame
calls it once, on the 2x refined grid whose even nodes are the s-grid.
The frame is built by rotation-minimizing transport (RK4 on
eta' = -(eta . tau') tau with re-orthonormalization per step), then
twisted by the angle alpha(s) in the (eta, beta) plane. The Frenet
frame is only used for the optional consistency check, since it does
not exist on straight segments.

Conventions: s_grid has M_s nodes including both endpoints,
h = s0/(M_s-1). All derivative stencils are 4th order (central in the
interior, one-sided 5-point at the ends).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FrameDrift, InvalidCurve

_AXES = np.eye(3)


@dataclass(frozen=True)
class CurveSpec:
    """Curve + twist description.

    kind: "straight" | "circular_arc" | "helix" | "sampled"
    s0: arc length (derived from the data for sampled curves)
    radius: arc radius (circular_arc)
    a, b: helix radius and pitch parameters, r(s) lies on radius a
    points: (K,3) array of samples (sampled)
    twist: "none" | "linear" | "tabulated"
    twist_rate: d(alpha)/ds for linear twist
    twist_values: alpha per s-grid node for tabulated twist
    """

    kind: str
    s0: float = 0.0
    radius: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    points: Optional[np.ndarray] = None
    twist: str = "none"
    twist_rate: float = 0.0
    twist_values: Optional[np.ndarray] = None


@dataclass(frozen=True)
class FrameField:
    """Sampled curve, orthonormal frame and curvatures on a uniform s-grid."""

    s_grid: np.ndarray
    r: np.ndarray
    tau: np.ndarray
    eta: np.ndarray
    beta: np.ndarray
    kappa1: np.ndarray
    kappa2: np.ndarray
    kappa3: np.ndarray
    kappa3_prime: np.ndarray
    alpha: np.ndarray  # applied twist angle per node

    @property
    def h(self) -> float:
        return float(self.s_grid[1] - self.s_grid[0])

    @property
    def s0(self) -> float:
        return float(self.s_grid[-1])


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)


def fd_weights(x: np.ndarray, z: float, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at z from nodes x
    (Fornberg's recursion)."""
    n = len(x)
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def diff4(f: np.ndarray, h: float, order: int = 1) -> np.ndarray:
    """4th-order-accurate derivative of given order on a uniform grid.

    Central stencils in the interior, one-sided near the ends, applied in
    a single pass (composing first derivatives loses accuracy at the
    boundary). Works on (M,) or (M,3) arrays along axis 0.
    """
    f = np.asarray(f, dtype=float)
    M = f.shape[0]
    w = (order + 1) // 2 + 1
    npts = order + 4
    if M < npts:
        raise ValueError(f"diff4(order={order}) needs at least {npts} nodes")
    out = np.zeros_like(f)
    cw = fd_weights(np.arange(-w, w + 1, dtype=float), 0.0, order)
    for k, o in enumerate(range(-w, w + 1)):
        out[w : M - w] += cw[k] * f[w + o : M - w + o]
    base = np.arange(npts, dtype=float)
    for i in range(w):
        ci = fd_weights(base, float(i), order)
        out[i] = np.tensordot(ci, f[:npts], axes=(0, 0))
        cj = fd_weights(base, float(npts - 1 - i), order)
        out[M - 1 - i] = np.tensordot(cj, f[M - npts :], axes=(0, 0))
    return out / h**order


def _dots(u, v):
    return np.einsum("ij,ij->i", u, v)


def _analytic(spec: CurveSpec, s: np.ndarray):
    """r, tau and tau' of a straight, circular_arc or helix curve at the arc
    lengths s, in closed form."""
    z = np.zeros_like(s)
    if spec.kind == "straight":
        tau = np.zeros((s.size, 3))
        tau[:, 0] = 1.0
        return np.column_stack([s, z, z]), tau, np.zeros((s.size, 3))
    if spec.kind == "circular_arc":
        R = spec.radius
        if not R or R <= 0:
            raise InvalidCurve("circular_arc needs radius > 0")
        if spec.s0 >= 2 * np.pi * R:
            raise InvalidCurve("arc length covers a full circle")
        return (
            np.column_stack([R * np.sin(s / R), R * (1 - np.cos(s / R)), z]),
            np.column_stack([np.cos(s / R), np.sin(s / R), z]),
            np.column_stack([-np.sin(s / R) / R, np.cos(s / R) / R, z]),
        )
    a, b = spec.a, spec.b
    if a is None or b is None or a <= 0:
        raise InvalidCurve("helix needs a > 0 and b")
    if b == 0 and spec.s0 >= 2 * np.pi * a:
        raise InvalidCurve("flat helix covers a full circle")
    c = np.hypot(a, b)
    c2 = a * a + b * b
    return (
        np.column_stack([a * np.cos(s / c), a * np.sin(s / c), b * s / c]),
        np.column_stack(
            [-(a / c) * np.sin(s / c), (a / c) * np.cos(s / c), np.full_like(s, b / c)]
        ),
        np.column_stack(
            [-(a / c2) * np.cos(s / np.sqrt(c2)), -(a / c2) * np.sin(s / np.sqrt(c2)), z]
        ),
    )


def _sampled(spec: CurveSpec, M_s: int):
    """(s0, sampler) of the arc-length reparameterization of a point list.

    Coordinates are C^2 cubic splines in cumulative chord length; the
    chord->arc-length map and its inverse use monotone cubic (PCHIP)
    interpolation so the parameterization never backtracks. The sampler
    returns r, tau and tau' at uniformly spaced arc lengths s, tau' from
    4th-order differences of the resampled tangent.
    """
    # imported here because only this curve kind needs them: with what
    # they pull in (scipy.optimize, scipy.spatial, scipy.special,
    # scipy.fft) they would add about 0.24 s to every run's import
    from scipy.integrate import cumulative_trapezoid
    from scipy.interpolate import CubicSpline, PchipInterpolator

    pts = np.asarray(spec.points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 4:
        raise InvalidCurve("sampled curve needs at least 4 points in R^3")
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if np.any(seg <= 0):
        raise InvalidCurve("duplicate consecutive points")
    t = np.concatenate([[0.0], np.cumsum(seg)])
    p = CubicSpline(t, pts, axis=0)
    tq = np.linspace(0.0, t[-1], max(4096, 8 * M_s))
    speed = np.linalg.norm(p(tq, 1), axis=1)
    if np.any(speed <= 0):
        raise InvalidCurve("vanishing speed after reparameterization")
    s_of_t = cumulative_trapezoid(speed, tq, initial=0.0)
    s0 = float(s_of_t[-1])  # positive, since every speed is
    t_of_s = PchipInterpolator(s_of_t, tq)

    def sample(s):
        ts = t_of_s(s)
        v = p(ts, 1)
        tau = v / np.linalg.norm(v, axis=1)[:, None]
        return p(ts), tau, diff4(tau, s[1] - s[0])

    return s0, sample


def _pick_eta0(tau0: np.ndarray) -> np.ndarray:
    """e1, or e2 where |tau0 . e1| >= 0.9, projected off the unit tau0: then
    |tau0 . e2| <= sqrt(1 - 0.9^2) < 0.44, so the projection never nears 0."""
    ax = _AXES[0] if abs(float(tau0 @ _AXES[0])) < 0.9 else _AXES[1]
    e = ax - (ax @ tau0) * tau0
    return e / np.linalg.norm(e)


def _transport(tau_f: np.ndarray, taup_f: np.ndarray, h: float) -> np.ndarray:
    """Rotation-minimizing eta on the coarse grid from fine-grid tau data.

    tau_f/taup_f live on the 2x refined grid (2M-1 nodes) so RK4 can use
    exact half-step samples.
    """
    M = (tau_f.shape[0] + 1) // 2
    eta = np.empty((M, 3))
    e = _pick_eta0(tau_f[0])
    eta[0] = e
    for i in range(M - 1):
        t0, tm, t1 = tau_f[2 * i], tau_f[2 * i + 1], tau_f[2 * i + 2]
        d0, dm, d1 = taup_f[2 * i], taup_f[2 * i + 1], taup_f[2 * i + 2]
        k1 = -(e @ d0) * t0
        k2 = -((e + 0.5 * h * k1) @ dm) * tm
        k3 = -((e + 0.5 * h * k2) @ dm) * tm
        k4 = -((e + h * k3) @ d1) * t1
        e = e + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        e = e - (e @ t1) * t1
        n = np.linalg.norm(e)
        if abs(n - 1.0) > 1e-3:
            raise FrameDrift(f"transport step {i}: renormalization {n:.3e}")
        e = e / n
        eta[i + 1] = e
    return eta


def _twist_angle(spec: CurveSpec, s: np.ndarray) -> np.ndarray:
    if spec.twist == "none":
        return np.zeros_like(s)
    if spec.twist == "linear":
        return spec.twist_rate * s
    if spec.twist == "tabulated":
        vals = np.asarray(spec.twist_values, dtype=float)
        if vals.shape != s.shape:
            raise InvalidCurve("tabulated twist needs one value per s node")
        return vals
    raise InvalidCurve(f"unknown twist kind {spec.twist!r}")


def build_frame(spec: CurveSpec, M_s: int) -> FrameField:
    """Construct the rotation-minimizing-then-twisted frame on M_s nodes."""
    if M_s < 16:
        raise InvalidCurve("M_s must be at least 16")

    if spec.kind == "sampled":
        s0, sample = _sampled(spec, M_s)
    else:
        if spec.kind not in ("straight", "circular_arc", "helix"):
            raise InvalidCurve(f"unknown curve kind {spec.kind!r}")
        if spec.s0 <= 0:
            raise InvalidCurve("s0 must be positive")
        s0, sample = spec.s0, functools.partial(_analytic, spec)

    # the even nodes of the fine grid are the s-grid, bit for bit
    s = np.linspace(0.0, s0, M_s)
    h = s[1] - s[0]
    r_f, tau_f, taup_f = sample(np.linspace(0.0, s0, 2 * M_s - 1))
    r, tau = r_f[::2], tau_f[::2]
    if spec.kind == "sampled" and _min_nonadjacent_distance(r) <= 1e-12 * max(1.0, s0):
        raise InvalidCurve("resampled curve is self-intersecting")

    eta_rm = _transport(tau_f, taup_f, h)
    beta_rm = np.cross(tau, eta_rm)

    alpha = _twist_angle(spec, s)
    ca, sa = np.cos(alpha)[:, None], np.sin(alpha)[:, None]
    eta = ca * eta_rm + sa * beta_rm
    beta = np.cross(tau, eta)

    k1, k2, k3 = _curvatures(tau, eta, beta, h)
    if spec.twist == "none":
        # the rotation-minimizing frame does not turn about tau: kappa3 is
        # exactly 0, and its finite-difference value (7.6e-7 on a helix at
        # M_s 64) is transport residue that would put R terms in H
        k3 = np.zeros_like(k3)
    k3p = diff4(k3, h)

    frame = FrameField(s, r, tau, eta, beta, k1, k2, k3, k3p, alpha)
    _freeze(s, r, tau, eta, beta, k1, k2, k3, k3p, alpha)
    _validate(frame)
    return frame


_DISTANCE_BLOCK = 2**16  # point pairs per block of _min_nonadjacent_distance


def _min_nonadjacent_distance(r: np.ndarray) -> float:
    """min |r_i - r_j| over the pairs j >= i + 2, a block of rows at a time
    (about _DISTANCE_BLOCK pairs each), so memory stays O(len(r))."""
    M = r.shape[0]
    step = max(1, _DISTANCE_BLOCK // M)
    best = np.inf
    for i0 in range(0, M - 2, step):
        i = np.arange(i0, min(i0 + step, M - 2))
        d = np.linalg.norm(r[i, None, :] - r[None, i0 + 2 :, :], axis=2)
        d[np.arange(i0 + 2, M)[None, :] < i[:, None] + 2] = np.inf
        best = min(best, float(d.min()))
    return best


def _curvatures(tau, eta, beta, h):
    taup = diff4(tau, h)
    etap = diff4(eta, h)
    k1 = _dots(taup, eta)
    k2 = -_dots(taup, beta)
    k3 = _dots(etap, beta)
    return k1, k2, k3


def _validate(frame: FrameField) -> None:
    for name, v in (("tau", frame.tau), ("eta", frame.eta), ("beta", frame.beta)):
        err = np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0))
        if err > 1e-10:
            raise FrameDrift(f"|{name}| deviates from 1 by {err:.3e}")
    for a, b, lbl in (
        (frame.tau, frame.eta, "tau.eta"),
        (frame.tau, frame.beta, "tau.beta"),
        (frame.eta, frame.beta, "eta.beta"),
    ):
        err = np.max(np.abs(_dots(a, b)))
        if err > 1e-8:
            raise FrameDrift(f"{lbl} = {err:.3e}")
    err = np.max(np.abs(frame.beta - np.cross(frame.tau, frame.eta)))
    if err > 1e-8:
        raise FrameDrift(f"beta != tau x eta by {err:.3e}")
