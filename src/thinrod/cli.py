"""Command-line front end: expand, verify, sweep, selftest.

`thinrod <command> --config <path> [--out <dir>]` reads a strict JSON
config, runs the requested computation, and writes diff-able CSV / JSON
outputs (no binary formats).  All floating-point values are printed with
17 significant digits, so files round-trip exactly and reruns are
byte-identical.  Exit code 0 means every enabled check passed; failures
are printed as a machine-readable JSON list and yield exit code 1
(2 for configuration or solver errors, and for any other exception, which
is reported as an "internal" failure instead of a traceback).

Config schema (unknown fields, and fields the chosen curve, twist or
section kind does not read, are rejected, naming the offending path; list
entries must be numbers, and an error names the entry, e.g.
`section.center[1]`; a number must be finite, so NaN and Infinity, which
json reads, are refused, and an integer must lie below 2**31 in magnitude;
a mask file that cannot be read or parsed is an error on `section.path`):

    {
      "curve":   {"kind": "straight"      with "s0": float
                        | "circular_arc"  with "s0", "radius": float
                        | "helix"         with "s0", "a", "b": float
                        | "sampled"       with "points": [[x,y,z], ...],
                  "twist": "none" (default)
                         | "linear"     with "twist_rate": float
                         | "tabulated"  with "twist_values": [float, ...]},
      "section": {"kind": "square"  with "side": float, "n": int,
                                         "center": [float, float]
                        | "disk"    with "radius": float, "n": int,
                                         "center": [float, float]
                        | "mask"    with "path": "mask-file"},
      "M_s":     int   (>= 16, default 256, grid nodes along the curve),
      "modes":   [[n, m], ...]  (distinct; 1 <= n <= interior section
                                 nodes - 3, 1 <= m <= M_s - 3;
                                 default [[1, 1]]),
      "order":   int   (default 4, expansion order N),
      "epsilon": float or [float, ...]  (required by verify/sweep),
      "solver":  {"tol": float  (> 0, default 1e-8),
                  "maxiter": int  (>= 1, default 150),
                  "count": int  (direct eigenpairs, at most a quarter
                                 of the unknowns less 3; default 0 = auto)},
      "output":  {"prefix": str  (a file-name stem: not empty, ".", ".."
                                 or holding "/", "\\" or NUL; default
                                 "thinrod")},
      "dump_matrix": bool  (write the assembled matrix per epsilon),
      "thresholds": {"slope_min": float  (default order - 1.5, at most
                                      slope_max),
                     "slope_max": float  (default order - 0.5),
                     "rho_slope_min": float  (default 1.5)},
      "rng_free": true  (informational; anything else is rejected)
    }

`verify` and `sweep` run one certification loop.  The section solve, the
recurrences, the pencil family (H's pattern and the separable eigenbasis)
and the eigenpair count are computed once; then each epsilon, in order (a
sweep goes from the largest down), has its values filled in, is solved,
optionally dumped and compared with the expansion before the next one
starts, and its operator and solution are released once its rows exist.
All result files are written at the end.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import asymptotic_engine as engine
from . import direct_oracle as oracle
from .cross_section import (
    _check_section_size,
    disk_grid,
    mask_grid,
    solve_section,
    square_grid,
)
from .curve_operator import solve_reduced  # noqa: F401 (perfbench/tracing.py wraps it)
from .errors import ConfigError, SolverFail, ThinRodError
from .geometry import CurveSpec, build_frame

_DEFAULT_ORDER = 4
_DEFAULT_M_S = 256
_DEFAULT_SECTION_N = 96
_DEFAULT_RHO_SLOPE_MIN = 1.5

# the verify/sweep CSV columns, read from each JSON row: n and m as
# integers, the rest with _f17
_VERIFY_COLUMNS = ("eps", "n", "m", "lambda_direct", "lambda_partial", "abs_gap",
                   "residual_rho", "sin_angle")
_EXPAND_HEADER = "n,m,i,lambda_i"

# glibc's DEFAULT_MMAP_THRESHOLD_MAX, the ceiling its dynamic mmap
# threshold ratchets up to after a large free (mallopt(3))
_MMAP_THRESHOLD_MAX = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)


def _f17(x) -> str:
    x = float(x)
    if x == 0.0:  # canonicalize -0.0 so exact zeros print as "0"
        x = 0.0
    return format(x, ".17g")


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


@dataclass
class RunConfig:
    """Parsed, validated run description with the geometry prebuilt."""

    raw: dict
    frame: object
    grid: object
    M_s: int
    modes: list
    order: int
    epsilons: list | None
    solver: dict
    prefix: str
    dump_matrix: bool
    thresholds: dict


def _reject_unknown(d: dict, allowed, path: str, message="unknown field") -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, message)


def _check(v, kind, where):
    """`v` as a float, int, bool, str, dict or list, or a ConfigError on
    `where`.  A number must be finite (json reads NaN and Infinity), and an
    integer is accepted as one if a float can hold it; an integer must lie
    below 2**31 in magnitude, the range of H's int32 indices."""
    if isinstance(v, bool) and kind is not bool:
        pass  # JSON's true and false are Python ints, never numbers here
    elif kind is float and isinstance(v, (int, float)):
        if abs(v) <= sys.float_info.max:  # false for NaN and +-inf
            return float(v)
        raise ConfigError(where, "expected a finite number")
    elif kind is int and isinstance(v, int):
        if abs(v) < 2**31:
            return v
        raise ConfigError(where, "expected an integer of magnitude below 2**31")
    elif isinstance(v, kind):
        return v
    expected = {float: "a number", int: "an integer", bool: "true or false"}
    raise ConfigError(where, f"expected {expected.get(kind, kind.__name__)}")


def _get(d, key, kind, path, default=None, required=False):
    where = f"{path}.{key}" if path else key
    if key not in d:
        if required:
            raise ConfigError(where, "missing field")
        return default
    return _check(d[key], kind, where)


def _vector(v, where, size=None) -> np.ndarray:
    """A list of numbers (exactly `size` of them, if given) as a float array;
    an entry that is not a number is reported as `where[k]`."""
    v = _check(v, list, where)
    if size is not None and len(v) != size:
        raise ConfigError(where, f"expected a list of {size} numbers")
    return np.array([_check(x, float, f"{where}[{k}]") for k, x in enumerate(v)])


def _parse_curve(d: dict) -> CurveSpec:
    kind = _get(d, "kind", str, "curve", required=True)
    fields = {"straight": {"s0"}, "circular_arc": {"s0", "radius"},
              "helix": {"s0", "a", "b"}, "sampled": {"points"}}.get(kind)
    if fields is None:
        raise ConfigError("curve.kind", f"unknown curve kind {kind!r}")
    twist = _get(d, "twist", str, "curve", default="none")
    twist_fields = {"linear": {"twist_rate"}, "tabulated": {"twist_values"}}
    _reject_unknown(d, {"kind", "twist"} | fields | twist_fields.get(twist, set()),
                    "curve", f"not read by a {kind} curve with twist {twist!r}")
    points = _get(d, "points", list, "curve")
    if points is not None:
        points = np.array(
            [_vector(p, f"curve.points[{k}]", 3) for k, p in enumerate(points)]
        ).reshape(-1, 3)
    tv = _get(d, "twist_values", list, "curve")
    return CurveSpec(
        kind=kind,
        s0=_get(d, "s0", float, "curve", default=0.0),
        radius=_get(d, "radius", float, "curve"),
        a=_get(d, "a", float, "curve"),
        b=_get(d, "b", float, "curve"),
        points=points,
        twist=twist,
        twist_rate=_get(d, "twist_rate", float, "curve", default=0.0),
        twist_values=None if tv is None else _vector(tv, "curve.twist_values"),
    )


def _parse_section(d: dict):
    kind = _get(d, "kind", str, "section", required=True)
    fields = {"square": {"side", "n", "center"}, "disk": {"radius", "n", "center"},
              "mask": {"path"}}.get(kind)
    if fields is None:
        raise ConfigError("section.kind", f"unknown section kind {kind!r}")
    _reject_unknown(d, {"kind"} | fields, "section", f"not read by a {kind} section")
    if kind == "mask":
        return mask_grid(_get(d, "path", str, "section", required=True))
    n = _get(d, "n", int, "section", default=_DEFAULT_SECTION_N)
    center = tuple(_vector(d.get("center", [0.0, 0.0]), "section.center", 2))
    if kind == "square":
        return square_grid(_get(d, "side", float, "section", default=1.0), n, center)
    return disk_grid(_get(d, "radius", float, "section", default=0.5), n, center)


def parse_config(path) -> RunConfig:
    """Read and validate a JSON run config; build the geometry it names.

    Any schema violation raises ConfigError carrying the offending field
    path; epsilon values are checked against the geometry (the transformed
    weight 1 - eps q must stay above 1/2).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(str(path), f"cannot read config: {e}") from e
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(str(path), f"invalid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "top level must be an object")
    _reject_unknown(
        raw,
        {"curve", "section", "M_s", "modes", "order", "epsilon", "solver",
         "output", "dump_matrix", "thresholds", "rng_free"},
        "",
    )
    if raw.get("rng_free", True) is not True:
        raise ConfigError("rng_free", "runs are always deterministic; must be true")

    curve = _parse_curve(_get(raw, "curve", dict, "", required=True))
    grid = _parse_section(_get(raw, "section", dict, "", required=True))
    M_s = _get(raw, "M_s", int, "", default=_DEFAULT_M_S)
    if M_s < 16:
        raise ConfigError("M_s", "expected an integer >= 16")
    order = _get(raw, "order", int, "", default=_DEFAULT_ORDER)
    if order < 1:
        raise ConfigError("order", "expansion order must be >= 1")

    modes = raw.get("modes", [[1, 1]])
    if not isinstance(modes, list) or not modes:
        raise ConfigError("modes", "expected a non-empty list of [n, m]")
    parsed_modes = []
    for k, nm in enumerate(modes):
        if (
            not isinstance(nm, list)
            or len(nm) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in nm)
            or nm[0] < 1
            or nm[1] < 1
        ):
            raise ConfigError(f"modes[{k}]", "expected [n >= 1, m >= 1]")
        # the section and reduced solves each compute one mode more, for
        # the gap, and keep two nodes spare
        if nm[0] > grid.n_interior - 3:
            raise ConfigError(
                f"modes[{k}]",
                f"section mode n = {nm[0]} above {grid.n_interior - 3}, the "
                f"interior section nodes ({grid.n_interior}) less 3",
            )
        if nm[1] > M_s - 3:
            raise ConfigError(
                f"modes[{k}]", f"axial mode m = {nm[1]} above M_s - 3 = {M_s - 3}"
            )
        if (nm[0], nm[1]) in parsed_modes:
            raise ConfigError(f"modes[{k}]", f"mode {nm} is listed twice")
        parsed_modes.append((nm[0], nm[1]))

    eps_raw = raw.get("epsilon")
    eps_is_list = isinstance(eps_raw, list)
    if eps_raw is None:
        epsilons = None
    else:
        values = eps_raw if eps_is_list else [eps_raw]
        epsilons = []
        for k, v in enumerate(values):
            where = f"epsilon[{k}]" if eps_is_list else "epsilon"
            epsilons.append(_check(v, float, where))
            if epsilons[-1] <= 0:
                raise ConfigError(where, "expected a positive number")
        if len(set(epsilons)) != len(epsilons):
            raise ConfigError("epsilon", "values must be distinct")

    solver = _get(raw, "solver", dict, "", default={})
    _reject_unknown(solver, {"tol", "maxiter", "count"}, "solver")
    solver = {
        "tol": _get(solver, "tol", float, "solver", default=1e-8),
        "maxiter": _get(solver, "maxiter", int, "solver", default=150),
        "count": _get(solver, "count", int, "solver", default=0),
    }
    if not solver["tol"] > 0:
        raise ConfigError("solver.tol", "expected a positive number")
    if solver["maxiter"] < 1:
        raise ConfigError("solver.maxiter", "expected an integer >= 1")
    output = _get(raw, "output", dict, "", default={})
    _reject_unknown(output, {"prefix"}, "output")
    prefix = _get(output, "prefix", str, "output", default="thinrod")
    if prefix in ("", ".", "..") or any(c in prefix for c in "/\\\0"):
        raise ConfigError("output.prefix", "expected a file-name stem: not empty, "
                          "'.' or '..', and no path separator or NUL")
    # a partial sum through lambda_{N-2} misses by O(eps^(N-1)), so the
    # default gap window is (N - 1) -+ 0.5
    thresholds = {"slope_min": order - 1.5, "slope_max": order - 0.5,
                  "rho_slope_min": _DEFAULT_RHO_SLOPE_MIN}
    user_thr = _get(raw, "thresholds", dict, "", default={})
    _reject_unknown(user_thr, set(thresholds), "thresholds")
    for key in user_thr:
        thresholds[key] = _get(user_thr, key, float, "thresholds")
    if thresholds["slope_min"] > thresholds["slope_max"]:
        raise ConfigError("thresholds", "slope_min above slope_max: no gap slope "
                          "can meet the window")
    dump = _get(raw, "dump_matrix", bool, "", default=False)

    try:
        frame = build_frame(curve, M_s)
    except ThinRodError as e:
        raise ConfigError("curve", str(e)) from e
    unknowns = (M_s - 2) * grid.n_interior
    limit = oracle.max_pairs(unknowns)
    if not 0 <= solver["count"] <= limit:
        raise ConfigError(
            "solver.count",
            f"expected 0 (auto) or 1 to {limit} (the solver's block limit, a "
            f"quarter of the unknowns, less 3 guard columns) for {unknowns} "
            "unknowns",
        )
    if epsilons:
        q = engine._tilt(frame, grid)
        for v in epsilons:
            try:
                engine.check_epsilon(q, v)
            except ThinRodError as e:
                raise ConfigError("epsilon", str(e)) from e

    return RunConfig(
        raw=raw,
        frame=frame,
        grid=grid,
        M_s=M_s,
        modes=parsed_modes,
        order=order,
        epsilons=epsilons,
        solver=solver,
        prefix=prefix,
        dump_matrix=dump,
        thresholds=thresholds,
    )


# ----------------------------------------------------------------------
# shared pipeline pieces
# ----------------------------------------------------------------------


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(text)


def _write_json(path: Path, obj) -> None:
    # strict JSON: a NaN or an infinity raises instead of being written
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    _write_text(path, text + "\n")


def _solve_spectrum(cfg: RunConfig):
    count = max(2, max(n for n, _ in cfg.modes) + 1)
    return solve_section(cfg.grid, count)


def _auto_count(cfg: RunConfig, family) -> int:
    """Direct eigenpairs needed to cover the requested modes, plus guards:
    every separable rung at the thinnest eps, over all section modes, at
    or below the highest configured one."""
    if cfg.solver["count"] > 0:
        return cfg.solver["count"]
    rungs = family.rungs(min(cfg.epsilons), cfg.M_s - 2)
    ladder = np.sort(rungs, axis=0)  # row n - 1 is section mode n
    # every configured mode is a rung: parse_config refuses m > M_s - 3
    top = max(ladder[n - 1, m - 1] for n, m in cfg.modes)
    return int(np.count_nonzero(rungs <= top)) + 2


def _row_failures(rows):
    """The one rule for a failed report row: a shared match (flag
    "pairing") and a nearest eigenvalue farther than rho each fail."""
    failures = []
    for r in rows:
        if "pairing" in r.flags:
            failures.append(
                {"kind": "pairing", "eps": r.eps, "n": r.n, "m": r.m,
                 "message": "nearest-eigenvalue matching not injective"}
            )
        if r.bound_ok is False:
            failures.append(
                {"kind": "certificate", "eps": r.eps, "n": r.n, "m": r.m,
                 "message": "nearest computed eigenvalue farther than rho"}
            )
    return failures


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def _pin_heap_thresholds() -> None:
    """Keep freed field-sized temporaries in the heap from the first order on.

    Sets glibc's mmap threshold to its ratchet ceiling and the trim
    threshold to twice that, the state its dynamic thresholds reach by
    themselves after one large free.  Until then every block of 128 KiB or
    more is mmapped and unmapped, and each reuse faults its pages in again.
    Set both or neither: either alone switches the ratchet off.  Without
    glibc's `mallopt` this does nothing; results never depend on it.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, _MMAP_THRESHOLD_MAX)  # M_MMAP_THRESHOLD
    mallopt(-1, 2 * _MMAP_THRESHOLD_MAX)  # M_TRIM_THRESHOLD


def cmd_expand(cfg: RunConfig, out_dir) -> list:
    """Expansion coefficients for every configured mode.

    Writes `<prefix>_coefficients.csv` with rows n,m,i,lambda_i for
    i = -2 .. N-2, and a JSON sidecar with the per-mode section data
    (rotational coefficient, moments, spectral gaps), solvability defects,
    and grid metadata; the reduced gap comes from the recurrence's own
    reduced solve.  Returns the failure list (always empty unless an engine
    invariant is violated, which raises instead).
    """
    _pin_heap_thresholds()
    out_dir = Path(out_dir)
    spectrum = _solve_spectrum(cfg)
    lines = [_EXPAND_HEADER]
    sidecar_modes = []
    for n, m in cfg.modes:
        st = engine.run_recurrence(cfg.frame, spectrum, n, m, cfg.order)
        for i in range(-2, st.N - 1):
            lines.append(f"{st.n},{st.m},{i},{_f17(st.lam_i(i))}")
        k = st.n - 1
        sidecar_modes.append(
            {
                "n": st.n,
                "m": st.m,
                "C_n": float(spectrum.C[k]),
                "C_n_interior": float(spectrum.C_int[k]),
                "moments": {
                    "m2": float(spectrum.m2[k]),
                    "m3": float(spectrum.m3[k]),
                    "a2": float(spectrum.a2[k]),
                    "a3": float(spectrum.a3[k]),
                },
                "gaps": {
                    "section": float(spectrum.lam[k + 1] - spectrum.lam[k]),
                    "reduced": st.reduced_gap,
                },
                "lambda_diag": float(st.lam_diag),
                "max_solve_defect": float(st.max_defect),
                "solve_defects": [[label, float(v)] for label, v in st.solve_defects],
            }
        )
        del st  # one mode's fields (Psi, psi) alive at a time
    sidecar = {
        "command": "expand",
        "config": cfg.raw,
        "order": cfg.order,
        "grid": _grid_metadata(cfg),
        "modes": sidecar_modes,
    }
    _write_text(out_dir / f"{cfg.prefix}_coefficients.csv", "\n".join(lines) + "\n")
    _write_json(out_dir / f"{cfg.prefix}_expand.json", sidecar)
    return []


def _grid_metadata(cfg: RunConfig) -> dict:
    return {
        "M_s": cfg.M_s,
        "h_s": float(cfg.frame.h),
        "s0": float(cfg.frame.s0),
        "section_kind": cfg.grid.kind,
        "section_h": float(cfg.grid.h),
        "section_interior_nodes": int(cfg.grid.n_interior),
    }


def _certify(cfg: RunConfig, out_dir: Path, eps_list) -> dict:
    """The certification loop verify and sweep share (see the module notes).

    Returns the report entries `eigenpairs_computed`, `residual_targets`
    ([eps, the residual target its solve certified], in solve order),
    `rows`, `warnings` (the notes `oracle.compare` returns for the rows
    whose certificate the computed window cannot check, in row order) and
    `failures`.
    """
    _pin_heap_thresholds()
    try:
        _check_section_size(cfg.grid)
    except SolverFail as e:
        field = "section.path" if cfg.grid.kind == "mask" else "section.n"
        raise ConfigError(field, str(e)) from e
    spectrum = _solve_spectrum(cfg)
    states = [
        engine.run_recurrence(cfg.frame, spectrum, n, m, cfg.order)
        for n, m in cfg.modes
    ]
    family = oracle.PencilFamily(cfg.frame, cfg.grid)
    K = _auto_count(cfg, family)
    rows, failures, notes, targets = [], [], [], []
    for eps in eps_list:
        op = family.assemble(eps)
        sol = oracle.solve_direct(
            op, K, tol=cfg.solver["tol"], maxiter=cfg.solver["maxiter"]
        )
        if cfg.dump_matrix:
            out_dir.mkdir(parents=True, exist_ok=True)
            oracle.dump_matrix(op, out_dir / f"{cfg.prefix}_H_eps{eps!r}.mtx")
        eps_rows, eps_notes = oracle.compare(sol, states)
        targets.append([eps, sol.target])
        del op, sol  # free this eps's pencil and eigenvectors before the next
        notes.extend(eps_notes)
        failures.extend(_row_failures(eps_rows))
        rows.extend(asdict(r) for r in eps_rows)
    return {
        "eigenpairs_computed": K,
        "residual_targets": targets,
        "rows": rows,
        "warnings": notes,
        "failures": failures,
    }


def _write_report(
    cfg: RunConfig, out_dir: Path, command: str, entries, **extra
) -> list:
    """Write `<prefix>_<command>.csv` (one line per entry of `rows`) and its
    JSON report; return the failures."""
    lines = [",".join(_VERIFY_COLUMNS)] + [
        ",".join(str(r[c]) if c in ("n", "m") else _f17(r[c])
                 for c in _VERIFY_COLUMNS)
        for r in entries["rows"]
    ]
    report = {
        "command": command,
        "config": cfg.raw,
        "grid": _grid_metadata(cfg),
        **entries,
        **extra,
        "ok": not entries["failures"],
    }
    _write_text(out_dir / f"{cfg.prefix}_{command}.csv", "\n".join(lines) + "\n")
    _write_json(out_dir / f"{cfg.prefix}_{command}.json", report)
    return report["failures"]


def cmd_verify(cfg: RunConfig, out_dir) -> list:
    """Single-epsilon comparison of the expansion against the direct solve.

    Writes the per-mode table `<prefix>_verify.csv` and a JSON report with
    certificates, the notes of any row left unchecked (`warnings`) and the
    solve's residual target.
    Returns the failure list.
    """
    if not cfg.epsilons or len(cfg.epsilons) != 1:
        raise ConfigError("epsilon", "verify needs exactly one epsilon value")
    out_dir = Path(out_dir)
    return _write_report(cfg, out_dir, "verify", _certify(cfg, out_dir, cfg.epsilons))


def _fit_slope(eps_list, values):
    """log-log least-squares slope of positive values against eps."""
    x, y = np.log(np.asarray(eps_list)), np.log(np.asarray(values))
    return float(np.polyfit(x, y, 1)[0])


def cmd_sweep(cfg: RunConfig, out_dir) -> list:
    """Epsilon sweep: per-epsilon comparison tables plus fitted rates.

    Needs at least two epsilon values, solved from the largest down.  Fits
    log-log slopes of the eigenvalue gap and of the residual certificate
    rho = ||B^-1/2 (H - lambda_partial B) psi|| / ||B^1/2 psi|| per mode.  A
    slope is reported as null when one of its values is at or below the
    residual target the solve at that eps certified (max(tol, 8 eps_mach
    ||H||_inf), written to the report as `residual_targets`): below it the
    gap is solver noise, as for a terminating expansion, and no rate can
    be fitted.  Returns the failure list.
    """
    if not cfg.epsilons or len(cfg.epsilons) < 2:
        raise ConfigError("epsilon", "sweep needs a list of at least two values")
    out_dir = Path(out_dir)
    eps_order = sorted(cfg.epsilons, reverse=True)
    entries = _certify(cfg, out_dir, eps_order)
    rows, failures = entries["rows"], entries["failures"]
    targets = [t for _, t in entries["residual_targets"]]

    def fit(values):
        if any(v <= t for v, t in zip(values, targets)):
            return None
        return _fit_slope(eps_order, values)

    slopes = {}
    for idx, (n, m) in enumerate(cfg.modes):
        mode_rows = rows[idx :: len(cfg.modes)]  # one row per eps, in eps_order
        gap_slope = fit([r["abs_gap"] for r in mode_rows])
        rho_slope = fit([r["residual_rho"] for r in mode_rows])
        slopes[f"n{n}_m{m}"] = {"gap": gap_slope, "rho": rho_slope}
        thr = cfg.thresholds
        if gap_slope is not None and not (
            thr["slope_min"] <= gap_slope <= thr["slope_max"]
        ):
            failures.append(
                {"kind": "rate", "n": n, "m": m, "slope": gap_slope,
                 "message": "eigenvalue gap rate outside configured window"}
            )
        if rho_slope is not None and rho_slope < thr["rho_slope_min"]:
            failures.append(
                {"kind": "rate", "n": n, "m": m, "slope": rho_slope,
                 "message": "residual certificate rate below threshold"}
            )
    return _write_report(
        cfg, out_dir, "sweep", entries,
        slopes=slopes, thresholds=cfg.thresholds,
    )


# ----------------------------------------------------------------------
# selftest
# ----------------------------------------------------------------------


def _expect(ok: bool, message: str) -> None:
    """Fail a selftest check with `message`; unlike `assert`, this also
    runs under `python -O`."""
    if not ok:
        raise AssertionError(message)


def _selftest_checks():
    """Quick end-to-end checks of the documented exact invariants."""
    checks = []

    def check(name):
        def wrap(fn):
            checks.append((name, fn))
            return fn

        return wrap

    @check("straight rod expansion terminates at order zero")
    def _(tmp):
        fr = build_frame(CurveSpec("straight", s0=np.pi), 20)
        spec = solve_section(square_grid(1.0, 10), 2)
        st = engine.run_recurrence(fr, spec, 1, 1, 4)
        _expect(st.lam_i(-1) == 0.0, "lambda_{-1} must vanish identically")
        _expect(all(st.lam_i(i) == 0.0 for i in range(1, st.N - 1)),
                "corrections above order zero must vanish")
        _expect(st.max_defect == 0.0, f"solvability defect {st.max_defect!r}, not 0")

    @check("lambda_{-1} vanishes identically on a curved rod")
    def _(tmp):
        fr = build_frame(CurveSpec("circular_arc", s0=2.0, radius=1.5), 20)
        spec = solve_section(square_grid(1.0, 10, center=(0.1, 0.0)), 2)
        st = engine.run_recurrence(fr, spec, 1, 1, 3)
        _expect(st.lam_i(-1) == 0.0, f"lambda_{{-1}} = {st.lam_i(-1)!r}, not 0")

    @check("assembled pencil is exactly symmetric and positive")
    def _(tmp):
        fr = build_frame(
            CurveSpec("helix", s0=3.0, a=1.0, b=0.5, twist="linear", twist_rate=0.6),
            20,
        )
        op = oracle.assemble(fr, square_grid(1.0, 10, center=(0.1, 0.0)), 0.2)
        res = oracle.operator_checks(op)
        _expect(res["symmetry_defect"] == 0.0,
                f"symmetry defect {res['symmetry_defect']!r}, not 0")
        np.linalg.cholesky(op.H.toarray())  # raises unless H is positive definite
        lo, hi = res["b_range"]
        _expect(0.5 < lo <= hi < 1.5,
                f"weight range ({lo!r}, {hi!r}) not inside (1/2, 3/2)")

    @check("direct solve reproduces the separable spectrum")
    def _(tmp):
        fr = build_frame(CurveSpec("straight", s0=np.pi), 20)
        op = oracle.assemble(fr, square_grid(1.0, 10), 0.2)
        sol = oracle.solve_direct(op, 3)
        ref = [v for v, _, _ in oracle.separable_eigenvalues(op, 3)]
        err = np.abs(sol.lam - np.asarray(ref)) / np.asarray(ref)
        _expect(err.max() < 1e-8, f"relative error {err.max():.3e}")

    @check("residual certificate bounds the nearest eigenvalue")
    def _(tmp):
        fr = build_frame(CurveSpec("straight", s0=np.pi, twist="linear",
                                   twist_rate=0.8), 20)
        op = oracle.assemble(fr, square_grid(1.0, 10), 0.2)
        sol = oracle.solve_direct(op, 3)
        rho, ok, note = oracle.residual_certificate(
            op, float(sol.lam[0]), sol.vectors[:, 0], sol
        )
        _expect(rho < 1e-8 and ok is True and note is None,
                f"rho {rho:.3e}, bound check {ok}, note {note}")

    @check("closed-form lambda_1 matches the recurrence")
    def _(tmp):
        fr = build_frame(CurveSpec("circular_arc", s0=2.0, radius=1.5), 24)
        spec = solve_section(square_grid(1.0, 10, center=(0.15, 0.0)), 2)
        st = engine.run_recurrence(fr, spec, 1, 1, 3)
        closed = engine.lambda1_closed(st.ctx, st.Psi[0], st.lam0)
        scale = max(abs(st.lam_i(1)), abs(st.lam_i(0)), 1.0)
        _expect(abs(st.lam_i(1) - closed) < 1e-10 * scale,
                f"recurrence {st.lam_i(1)!r} vs closed form {closed!r}")

    @check("coefficient series matches the assembled operator")
    def _(tmp):
        fr = build_frame(
            CurveSpec("helix", s0=3.0, a=1.0, b=0.5, twist="linear", twist_rate=0.6),
            20,
        )
        op = oracle.assemble(fr, square_grid(1.0, 10, center=(0.1, 0.0)), 0.2)
        defect = oracle.series_defect(op, 12)
        _expect(defect < 1e-9, f"series defect {defect:.3e} at order 12, limit 1e-9")

    @check("expansion output is byte-identical across reruns")
    def _(tmp):
        cfg = {
            "curve": {"kind": "circular_arc", "s0": 2.0, "radius": 1.5},
            "section": {"kind": "square", "side": 1.0, "n": 10,
                        "center": [0.1, 0.0]},
            "M_s": 20,
            "order": 3,
            "modes": [[1, 1]],
        }
        cfg_path = tmp / "selftest.json"
        _write_json(cfg_path, cfg)
        paths = []
        for run in ("a", "b"):
            run_cfg = parse_config(cfg_path)
            cmd_expand(run_cfg, tmp / run)
            paths.append((tmp / run / "thinrod_coefficients.csv").read_bytes())
        _expect(paths[0] == paths[1], "reruns differ")

    return checks


def cmd_selftest(out_dir) -> list:
    """Run the built-in invariant checks; one PASS/FAIL line each."""
    import tempfile

    failures = []
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, fn in _selftest_checks():
            try:
                fn(Path(tmp))
            except Exception as e:  # noqa: BLE001 - report, do not abort
                failures.append({"kind": "selftest", "name": name, "message": str(e)})
                results.append((name, f"FAIL ({e})"))
            else:
                results.append((name, "PASS"))
    for name, status in results:
        print(f"{status:4s} {name}")
    if out_dir is not None:
        _write_json(
            Path(out_dir) / "thinrod_selftest.json",
            {"command": "selftest",
             "results": [{"name": n, "status": s} for n, s in results],
             "failures": failures, "ok": not failures},
        )
    return failures


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thinrod",
        description="Asymptotic eigenvalue expansions for thin curved twisted "
        "rods, verified against a direct sparse eigensolve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (
        ("expand", True),
        ("verify", True),
        ("sweep", True),
        ("selftest", False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config)
        p.add_argument("--out", default=".")
    args = parser.parse_args(argv)

    try:
        if args.command == "selftest":
            failures = cmd_selftest(args.out)
        else:
            cfg = parse_config(args.config)
            failures = {
                "expand": cmd_expand,
                "verify": cmd_verify,
                "sweep": cmd_sweep,
            }[args.command](cfg, args.out)
    except ConfigError as e:
        print(json.dumps({"failures": [
            {"kind": "config", "path": e.path, "message": str(e)}
        ]}))
        return 2
    except ThinRodError as e:
        failure = {"kind": type(e).__name__, "message": str(e)}
        if isinstance(e, SolverFail):
            failure["history"] = e.history
        print(json.dumps({"failures": [failure]}))
        return 2
    except Exception as e:  # noqa: BLE001 - exit 1 is reserved for failed checks
        print(json.dumps({"failures": [
            {"kind": "internal", "type": type(e).__name__, "message": str(e)}
        ]}))
        return 2

    if failures:
        print(json.dumps({"failures": failures}))
        return 1
    print(json.dumps({"failures": []}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
