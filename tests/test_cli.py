"""Config parsing, command outputs, exit codes, and rerun determinism."""

import ctypes
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from thinrod import asymptotic_engine as engine
from thinrod import cli
from thinrod.curve_operator import solve_reduced
from thinrod.errors import ConfigError

# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

STRAIGHT = {
    "curve": {"kind": "straight", "s0": 3.141592653589793},
    "section": {"kind": "square", "side": 1.0, "n": 8},
    "M_s": 20,
    "order": 3,
    "modes": [[1, 1], [1, 2]],
}

HELIX = {
    "curve": {
        "kind": "helix", "s0": 3.0, "a": 1.0, "b": 0.5,
        "twist": "linear", "twist_rate": 0.6,
    },
    "section": {"kind": "square", "side": 1.0, "n": 8, "center": [0.12, -0.07]},
    "M_s": 20,
    "order": 3,
    "modes": [[1, 1]],
}

# the helix on a disk section, which needs the dense section eigenbasis
DISK_HELIX = {
    **HELIX,
    "section": {"kind": "disk", "radius": 0.5, "n": 10, "center": [0.12, -0.07]},
}


# five points on the unit helix (pitch 0.15 per 0.3 rad)
HELIX_POINTS = [[1.0, 0.0, 0.0], [0.9553, 0.2955, 0.15], [0.8253, 0.5646, 0.3],
                [0.6216, 0.7833, 0.45], [0.3624, 0.932, 0.6]]


# an 11 x 17 full rectangular mask
RECTANGLE = Path(__file__).parent / "data" / "rectangle_11x17.mask"


def write_config(tmp_path, overrides=None, base=STRAIGHT, name="cfg.json"):
    cfg = json.loads(json.dumps(base))
    for key, value in (overrides or {}).items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def config_error(tmp_path, overrides, base=STRAIGHT):
    path = write_config(tmp_path, overrides, base)
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(path)
    return exc.value


# ----------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------


def test_defaults_are_filled(tmp_path):
    path = write_config(
        tmp_path,
        base={"curve": {"kind": "straight", "s0": 2.0},
              "section": {"kind": "square"}},
    )
    cfg = cli.parse_config(path)
    assert cfg.order == 4
    assert cfg.M_s == 256
    assert cfg.grid.n_interior == 96 * 96
    assert cfg.modes == [(1, 1)]
    assert cfg.epsilons is None
    assert cfg.prefix == "thinrod"
    # the gap window is (order - 1) -+ 0.5: a partial sum through
    # lambda_{N-2} misses by O(eps^(N-1))
    assert cfg.thresholds == {"slope_min": 2.5, "slope_max": 3.5,
                              "rho_slope_min": 1.5}


def test_unknown_fields_name_the_path(tmp_path):
    assert config_error(tmp_path, {"wiggle": 1}).path == "wiggle"
    assert config_error(
        tmp_path, {"curve": {"kind": "straight", "s0": 1.0, "bend": 2}}
    ).path == "curve.bend"
    assert config_error(
        tmp_path, {"section": {"kind": "square", "n": 8, "mode": "x"}}
    ).path == "section.mode"
    assert config_error(tmp_path, {"solver": {"fast": True}}).path == "solver.fast"
    assert config_error(tmp_path, {"solver": {"dense_cutoff": 0}}
                        ).path == "solver.dense_cutoff"
    assert config_error(tmp_path, {"thresholds": {"slope": 2.0}}
                        ).path == "thresholds.slope"


def test_missing_and_mistyped_fields(tmp_path):
    assert config_error(tmp_path, {"curve": None}).path == "curve"
    assert config_error(tmp_path, {"section": {"side": 1.0}}).path == "section.kind"
    assert config_error(tmp_path, {"M_s": "many"}).path == "M_s"
    assert config_error(tmp_path, {"curve": {"kind": "zigzag", "s0": 1.0}}
                        ).path == "curve.kind"
    # an unknown kind is refused on the kind, before the fields it would read
    assert config_error(tmp_path, {"curve": {"kind": "zigzag", "radius": 1.0}}
                        ).path == "curve.kind"
    assert config_error(tmp_path, {"section": {"kind": "hexagon", "path": "x"}}
                        ).path == "section.kind"
    assert config_error(tmp_path, {"order": 0}).path == "order"
    assert config_error(
        tmp_path, {"section": {"kind": "square", "center": [0.0]}}
    ).path == "section.center"
    # a bool is not a number; the error names the entry
    assert config_error(
        tmp_path, {"section": {"kind": "square", "center": [True, 0]}}
    ).path == "section.center[0]"


def test_modes_validation(tmp_path):
    assert config_error(tmp_path, {"modes": []}).path == "modes"
    assert config_error(tmp_path, {"modes": [[0, 1]]}).path == "modes[0]"
    assert config_error(tmp_path, {"modes": [[1, 1], [1, 1.5]]}).path == "modes[1]"


def test_epsilon_validation(tmp_path):
    assert config_error(tmp_path, {"epsilon": -0.1}).path == "epsilon"
    assert config_error(tmp_path, {"epsilon": [0.2, 0.2]}).path == "epsilon"
    assert config_error(tmp_path, {"epsilon": [0.2, True]}).path == "epsilon[1]"


def test_epsilon_admissibility_is_checked_at_parse_time(tmp_path):
    # arc of curvature 2/3 with a far off-center section: 1 - eps q
    # would cross 1/2 at eps = 0.9, so parsing must refuse it
    base = {
        "curve": {"kind": "circular_arc", "s0": 1.5, "radius": 1.5},
        "section": {"kind": "square", "side": 1.0, "n": 10, "center": [0.45, 0.0]},
        "M_s": 20,
        "epsilon": 0.9,
    }
    assert config_error(tmp_path, {}, base=base).path == "epsilon"
    base["epsilon"] = 0.2
    cli.parse_config(write_config(tmp_path, base=base))


def test_rng_free_must_stay_true(tmp_path):
    assert config_error(tmp_path, {"rng_free": False}).path == "rng_free"
    path = write_config(tmp_path, {"rng_free": True})
    cli.parse_config(path)


def test_invalid_json_reports_the_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(path)
    assert str(path) in exc.value.path


# ----------------------------------------------------------------------
# expand
# ----------------------------------------------------------------------


def test_expand_straight_writes_exact_zero_rows(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path))
    assert cli.cmd_expand(cfg, tmp_path) == []
    lines = (tmp_path / "thinrod_coefficients.csv").read_text().splitlines()
    assert lines[0] == "n,m,i,lambda_i"
    table = {}
    for row in lines[1:]:
        n, m, i, v = row.split(",")
        table[(int(n), int(m), int(i))] = v
    # orders -2 .. N-2 for each mode
    assert set(table) == {(1, m, i) for m in (1, 2) for i in range(-2, 2)}
    for m in (1, 2):
        assert table[(1, m, -1)] == "0"
        assert table[(1, m, 1)] == "0"
        assert float(table[(1, m, -2)]) > 0
        assert float(table[(1, m, 0)]) > 0


def test_expand_sidecar_has_section_data(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, base=HELIX))
    cli.cmd_expand(cfg, tmp_path)
    side = json.loads((tmp_path / "thinrod_expand.json").read_text())
    assert side["command"] == "expand"
    assert side["grid"]["M_s"] == 20
    assert side["grid"]["section_interior_nodes"] == 64
    (mode,) = side["modes"]
    assert mode["n"] == 1 and mode["m"] == 1
    assert mode["C_n"] > 0
    assert set(mode["moments"]) == {"m2", "m3", "a2", "a3"}
    assert mode["gaps"]["section"] > 0
    assert mode["gaps"]["reduced"] > 0
    assert mode["max_solve_defect"] < 1e-10


@pytest.mark.parametrize(
    "command, epsilon",
    [("expand", None), ("verify", 0.2), ("sweep", [0.2, 0.1])],
    ids=["expand", "verify", "sweep"],
)
def test_reruns_are_byte_identical(tmp_path, command, epsilon):
    path = write_config(tmp_path, {"epsilon": epsilon}, base=HELIX)
    blobs = []
    for sub in ("one", "two"):
        code = cli.main([command, "--config", str(path), "--out", str(tmp_path / sub)])
        assert code == 0
        files = sorted((tmp_path / sub).iterdir())
        assert len(files) == 2  # the CSV table and its JSON sidecar
        blobs.append([(f.name, f.read_bytes()) for f in files])
    assert blobs[0] == blobs[1]


def test_expand_sampled_curve_with_tabulated_twist(tmp_path, capsys):
    # a sampled space curve with one twist angle per axial node
    base = {
        "curve": {
            "kind": "sampled",
            "points": [[0.0, 0.0, 0.0], [0.5, 0.1, 0.0], [1.0, 0.3, 0.05],
                       [1.5, 0.6, 0.1], [2.0, 1.0, 0.2]],
            "twist": "tabulated",
            "twist_values": [0.01 * k for k in range(20)],
        },
        "section": {"kind": "square", "side": 1.0, "n": 8},
        "M_s": 20,
        "order": 3,
    }
    path = write_config(tmp_path, base=base)
    code, payload = run_main(
        ["expand", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert payload == {"failures": []}
    lines = (tmp_path / "thinrod_coefficients.csv").read_text().splitlines()
    assert lines[0] == "n,m,i,lambda_i"
    assert float(lines[1].split(",")[3]) > 0
    assert lines[2] == "1,1,-1,0"


def test_expand_of_the_highest_axial_mode(tmp_path, capsys):
    # M_s 20 leaves 18 interior nodes, so m = 17 is the highest mode the
    # recurrence accepts; its reduced solve also computes lambda_18, and
    # the sidecar's reduced gap comes from that solve
    path = write_config(tmp_path, {"modes": [[1, 16], [1, 17]]}, base=HELIX)
    code, payload = run_main(
        ["expand", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert payload == {"failures": []}
    side = json.loads((tmp_path / "thinrod_expand.json").read_text())
    gaps = {mode["m"]: mode["gaps"]["reduced"] for mode in side["modes"]}
    assert gaps[17] > 0
    # the gap as a separate solve of m + 1 reduced modes reads it
    cfg = cli.parse_config(path)
    st = engine.run_recurrence(cfg.frame, cli._solve_spectrum(cfg), 1, 16, cfg.order)
    ref = solve_reduced(st.ctx.reduced, 17)[16].lam0 - st.lam0
    assert gaps[16] == pytest.approx(ref, rel=1e-12, abs=0)


def test_csv_floats_round_trip(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, base=HELIX))
    cli.cmd_expand(cfg, tmp_path)
    rows = (tmp_path / "thinrod_coefficients.csv").read_text().splitlines()[1:]
    values = [float(r.split(",")[3]) for r in rows]
    reprinted = [cli._f17(v) for v in values]
    assert [float(s) for s in reprinted] == values


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def test_verify_straight_passes_and_matches_header(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, {"epsilon": 0.2}))
    assert cli.cmd_verify(cfg, tmp_path) == []
    lines = (tmp_path / "thinrod_verify.csv").read_text().splitlines()
    assert lines[0] == (
        "eps,n,m,lambda_direct,lambda_partial,abs_gap,residual_rho,sin_angle"
    )
    assert len(lines) == 3
    report = json.loads((tmp_path / "thinrod_verify.json").read_text())
    assert report["ok"] is True
    assert report["failures"] == []
    for row in report["rows"]:
        assert row["bound_ok"] is True
        assert row["abs_gap"] <= row["residual_rho"]
        assert row["sin_angle"] < 1e-5


def test_verify_requires_exactly_one_epsilon(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, {"epsilon": [0.2, 0.1]}))
    with pytest.raises(ConfigError) as exc:
        cli.cmd_verify(cfg, tmp_path)
    assert exc.value.path == "epsilon"
    cfg = cli.parse_config(write_config(tmp_path))
    with pytest.raises(ConfigError):
        cli.cmd_verify(cfg, tmp_path)


def test_verify_underresolved_window_is_reported(tmp_path):
    # one computed eigenpair cannot certify the sixth axial mode: the
    # report must carry the window note and leave the bound unchecked
    cfg = cli.parse_config(
        write_config(tmp_path, {"epsilon": 0.2, "modes": [[1, 6]],
                                "solver": {"count": 1}})
    )
    failures = cli.cmd_verify(cfg, tmp_path)
    assert failures == []
    report = json.loads((tmp_path / "thinrod_verify.json").read_text())
    assert report["warnings"], "expected an underresolved-window note"
    assert report["rows"][0]["bound_ok"] is None


def test_verify_with_one_pair_writes_strict_json(tmp_path, capsys):
    # with one computed eigenvalue a row has no neighbour: its gap is null,
    # and the report holds no NaN or Infinity literal
    path = write_config(tmp_path, {"epsilon": 0.2, "solver": {"count": 1}},
                        base=HELIX)
    code, payload = run_main(
        ["verify", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert payload == {"failures": []}

    def refuse(literal):
        raise ValueError(f"non-JSON literal {literal}")

    report = json.loads((tmp_path / "thinrod_verify.json").read_text(),
                        parse_constant=refuse)
    (row,) = report["rows"]
    assert report["eigenpairs_computed"] == 1
    assert row["neighbor_gap"] is None
    assert row["bound_ok"] is True


def test_verify_flags_each_row_of_a_shared_match_once(tmp_path, capsys):
    # one computed pair for three modes: all three rows match it, and each
    # carries one "pairing" flag and one pairing failure
    path = write_config(
        tmp_path,
        {"epsilon": 0.2, "solver": {"count": 1}, "modes": [[1, 1], [1, 2], [1, 3]]},
        base=HELIX,
    )
    code, payload = run_main(
        ["verify", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 1
    pairing = [(f["n"], f["m"]) for f in payload["failures"] if f["kind"] == "pairing"]
    assert pairing == [(1, 1), (1, 2), (1, 3)]
    report = json.loads((tmp_path / "thinrod_verify.json").read_text())
    assert [row["flags"] for row in report["rows"]] == [["pairing"]] * 3
    # the partial sums of (1, 2) and (1, 3) lie nearest guard Ritz values,
    # which the solve does not certify: their checks are skipped with a
    # note naming solver.count, not failed against the one computed pair
    assert [row["bound_ok"] for row in report["rows"]] == [True, None, None]
    assert not [f for f in payload["failures"] if f["kind"] == "certificate"]
    guards = [w for w in report["warnings"] if "guard value" in w]
    assert len(guards) == 2 and all("solver.count" in w for w in guards)
    # a report row is a CompareRow, key for field
    fields = [f.name for f in dataclasses.fields(cli.oracle.CompareRow)]
    assert all(sorted(row) == sorted(fields) for row in report["rows"])


def test_write_json_refuses_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        cli._write_json(tmp_path / "x.json", {"gap": float("inf")})


def test_verify_dump_matrix_writes_file(tmp_path):
    cfg = cli.parse_config(
        write_config(tmp_path, {"epsilon": 0.2, "dump_matrix": True,
                                "modes": [[1, 1]]})
    )
    cli.cmd_verify(cfg, tmp_path)
    dump = tmp_path / "thinrod_H_eps0.2.mtx"
    assert dump.exists()
    assert dump.read_text().startswith("%%MatrixMarket")


def test_verify_dump_matrix_creates_the_out_directory(tmp_path, capsys):
    path = write_config(
        tmp_path, {"epsilon": 0.2, "dump_matrix": True, "modes": [[1, 1]]}
    )
    out = tmp_path / "not" / "there"
    code, payload = run_main(
        ["verify", "--config", str(path), "--out", str(out)], capsys
    )
    assert code == 0
    assert payload == {"failures": []}
    assert (out / "thinrod_H_eps0.2.mtx").read_text().startswith("%%MatrixMarket")
    assert (out / "thinrod_verify.json").exists()


def test_sweep_dump_matrix_writes_one_file_per_eps(tmp_path):
    # 0.1 and 0.1000001 print alike under "g"; the file names use repr
    cfg = cli.parse_config(
        write_config(tmp_path, {"epsilon": [0.1, 0.1000001], "dump_matrix": True,
                                "modes": [[1, 1]]})
    )
    cli.cmd_sweep(cfg, tmp_path)
    assert sorted(p.name for p in tmp_path.glob("*.mtx")) == [
        "thinrod_H_eps0.1.mtx", "thinrod_H_eps0.1000001.mtx"
    ]


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def test_sweep_needs_two_epsilons(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, {"epsilon": [0.2]}))
    with pytest.raises(ConfigError) as exc:
        cli.cmd_sweep(cfg, tmp_path)
    assert exc.value.path == "epsilon"


def test_sweep_straight_slopes_are_null(tmp_path):
    # the expansion of a straight rod terminates: gaps sit at solver
    # noise and no rate can honestly be fitted
    cfg = cli.parse_config(write_config(tmp_path, {"epsilon": [0.2, 0.1]}))
    assert cli.cmd_sweep(cfg, tmp_path) == []
    lines = (tmp_path / "thinrod_sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2
    report = json.loads((tmp_path / "thinrod_sweep.json").read_text())
    assert report["ok"] is True
    for fit in report["slopes"].values():
        assert fit["gap"] is None


def test_verify_rows_equal_the_sweep_rows_at_the_same_epsilon(tmp_path):
    # with a fixed eigenpair count both commands run the same solve and
    # comparison at eps = 0.2, so their rows agree byte for byte
    overrides = {"solver": {"count": 3}, "modes": [[1, 1], [1, 2]]}
    cli.cmd_verify(cli.parse_config(write_config(
        tmp_path, {**overrides, "epsilon": 0.2}, base=HELIX)), tmp_path)
    cli.cmd_sweep(cli.parse_config(write_config(
        tmp_path, {**overrides, "epsilon": [0.2, 0.1]}, base=HELIX)), tmp_path)
    verify_csv = (tmp_path / "thinrod_verify.csv").read_text().splitlines()
    sweep_csv = (tmp_path / "thinrod_sweep.csv").read_text().splitlines()
    assert len(verify_csv) == 3
    assert sweep_csv[:3] == verify_csv
    verify = json.loads((tmp_path / "thinrod_verify.json").read_text())
    sweep = json.loads((tmp_path / "thinrod_sweep.json").read_text())
    assert [r for r in sweep["rows"] if r["eps"] == 0.2] == verify["rows"]


def test_sweep_helix_fits_second_order_rate(tmp_path):
    cfg = cli.parse_config(
        write_config(tmp_path, {"epsilon": [0.2, 0.1]}, base=HELIX)
    )
    assert cli.cmd_sweep(cfg, tmp_path) == []
    report = json.loads((tmp_path / "thinrod_sweep.json").read_text())
    fit = report["slopes"]["n1_m1"]
    assert 1.5 <= fit["gap"] <= 2.5
    assert fit["rho"] >= 1.5
    # epsilon rows appear largest first, in config-independent order
    eps_col = [float(r.split(",")[0]) for r in
               (tmp_path / "thinrod_sweep.csv").read_text().splitlines()[1:]]
    assert eps_col == sorted(eps_col, reverse=True)


# the benchmark's helix sweep (draw 0 of its geometry jitter)
HELIX_SWEEP = {
    "curve": {**HELIX["curve"], "twist_rate": 0.603699},
    "section": {"kind": "square", "side": 1.0, "n": 16,
                "center": [0.113769, -0.053258]},
    "M_s": 64,
    "modes": [[1, 1], [1, 2], [1, 3]],
    "epsilon": [0.2, 0.1, 0.05],
    "solver": {"count": 5},
}


@pytest.mark.parametrize(
    "order, gap_slopes",
    [
        (4, {"n1_m1": 2.97, "n1_m2": 3.01, "n1_m3": 3.07}),
        # the (1, 2) gap at eps 0.05 (4.4e-10) is below the 1e-8 residual
        # target its solve certified: no rate can be fitted to it
        (5, {"n1_m1": 3.85, "n1_m2": None, "n1_m3": 4.01}),
    ],
)
def test_sweep_fits_the_gap_rate_of_its_order(tmp_path, capsys, order, gap_slopes):
    # a partial sum of order N misses by O(eps^(N-1)); every gap above the
    # certified residual target is fitted, inside the default window
    path = write_config(tmp_path, {"order": order}, base=HELIX_SWEEP)
    code, payload = run_main(
        ["sweep", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert (code, payload) == (0, {"failures": []})
    report = json.loads((tmp_path / "thinrod_sweep.json").read_text())
    for key, slope in gap_slopes.items():
        fit = report["slopes"][key]
        assert fit["gap"] == (None if slope is None else pytest.approx(slope, abs=0.01))
        assert fit["rho"] >= 3.5


def test_sweep_fails_the_rate_of_a_perturbed_expansion(tmp_path, capsys, monkeypatch):
    # lambda_2 doubled: the order-4 partial sum misses by about
    # lambda_2 eps^2, a slope near 2, outside the window [2.5, 3.5]
    run_recurrence = cli.engine.run_recurrence

    def perturbed(*args, **kwargs):
        st = run_recurrence(*args, **kwargs)
        st.lam = st.lam.copy()
        st.lam[4] *= 2.0  # lam[i + 2] = lambda_i
        return st

    monkeypatch.setattr(cli.engine, "run_recurrence", perturbed)
    path = write_config(
        tmp_path, {"order": 4, "modes": [[1, 1]]}, base=HELIX_SWEEP
    )
    code, payload = run_main(
        ["sweep", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 1
    (failure,) = payload["failures"]
    assert failure["kind"] == "rate"
    assert failure["message"] == "eigenvalue gap rate outside configured window"
    assert failure["slope"] < 2.5


def test_sweep_certifies_the_second_branch_on_a_rectangle(tmp_path, capsys):
    # the 11 x 17 rectangle has a simple lambda_2, so modes (2, 1) and
    # (2, 2) certify like (1, 1); its unequal sides run both users of the
    # sine basis, the preconditioner and the section resolvent (measured:
    # 26 pairs, gap slopes 2.000 / 2.015 / 2.035, (2, 1) at index 22)
    path = write_config(
        tmp_path,
        {"section": {"kind": "mask", "path": str(RECTANGLE)}, "M_s": 24,
         "modes": [[1, 1], [2, 1], [2, 2]], "epsilon": [0.2, 0.1]},
        base=HELIX,
    )
    code, payload = run_main(
        ["sweep", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert (code, payload) == (0, {"failures": []})
    report = json.loads((tmp_path / "thinrod_sweep.json").read_text())
    assert len(report["rows"]) == 6
    for row in report["rows"]:
        assert row["flags"] == [] and row["bound_ok"] is True
    assert sorted(report["slopes"]) == ["n1_m1", "n2_m1", "n2_m2"]
    # the CSV names each row's mode by n and m: (2, 1) is not (1, 1)
    lines = (tmp_path / "thinrod_sweep.csv").read_text().splitlines()
    assert [tuple(map(int, line.split(",")[1:3])) for line in lines[1:]] == [
        (1, 1), (2, 1), (2, 2)] * 2
    for fit in report["slopes"].values():
        assert 1.5 <= fit["gap"] <= 2.5  # the default window at order 3


# ----------------------------------------------------------------------
# entry point and exit codes
# ----------------------------------------------------------------------


def run_main(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1])


def test_main_exit_zero_on_success(tmp_path, capsys):
    # one expand per section kind; the mask is a 7 x 8 block with two
    # corners cut, so it is neither a square nor a disk
    mask = tmp_path / "section.mask"
    rows = ["00111111"] + ["11111111"] * 5 + ["11111100"]
    mask.write_text("7 8 0.125\n" + "\n".join(rows) + "\n")
    sections = {
        "square": {"kind": "square", "side": 1.0, "n": 8},
        "disk": {"kind": "disk", "radius": 0.5, "n": 9},
        "mask": {"kind": "mask", "path": str(mask)},
    }
    for kind, section in sections.items():
        path = write_config(tmp_path, {"section": section})
        out = tmp_path / kind
        code, payload = run_main(
            ["expand", "--config", str(path), "--out", str(out)], capsys
        )
        assert code == 0, kind
        assert payload == {"failures": []}
        side = json.loads((out / "thinrod_expand.json").read_text())
        assert side["grid"]["section_kind"] == kind


def test_main_exit_two_on_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {"modes": [[1]]})
    code, payload = run_main(
        ["expand", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 2
    (failure,) = payload["failures"]
    assert failure["kind"] == "config"
    assert failure["path"] == "modes[0]"


def _config_text(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return path


def _mask_config(tmp_path, data=None):
    # a mask section read from `data`, or from a missing file when None
    mask = tmp_path / "sec.mask"
    if data is not None:
        mask.write_bytes(data)
    return write_config(tmp_path, {"section": {"kind": "mask", "path": str(mask)}})


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda t: _config_text(t, "[1, 2]"), None),
        (lambda t: t, None),
        (lambda t: t / "absent.json", None),
        (lambda t: _config_text(t, "{not json"), None),
        (lambda t: write_config(t, {"curve": {"kind": "straight", "s0": "pi"}}),
         "curve.s0"),
        (lambda t: write_config(t, {"M_s": 20.0}), "M_s"),
        # build_frame's InvalidCurve, re-raised as a config error on "curve"
        (lambda t: write_config(
            t, {"curve": {**HELIX["curve"], "a": -1.0}}, base=HELIX), "curve"),
        (lambda t: write_config(
            t, {"curve": {"kind": "circular_arc", "s0": 2.0, "radius": 0.0}}),
         "curve"),
        # geometry's own checks of a sampled curve, the twist kind and s0
        (lambda t: write_config(
            t, {"curve": {"kind": "sampled", "points": HELIX_POINTS[:3]}}),
         "curve"),
        (lambda t: write_config(
            t, {"curve": {"kind": "sampled", "points": [
                *HELIX_POINTS[:2], HELIX_POINTS[1], *HELIX_POINTS[2:]]}}),
         "curve"),
        (lambda t: write_config(
            t, {"curve": {"kind": "straight", "s0": 3.0, "twist": "spiral"}}),
         "curve"),
        (lambda t: write_config(t, {"curve": {"kind": "straight", "s0": 0.0}}),
         "curve"),
        (lambda t: write_config(t, {"curve": {"kind": "straight", "s0": -1.0}}),
         "curve"),
        # a mode listed twice would pair twice with the same eigenvalue
        (lambda t: write_config(t, {"modes": [[1, 1], [1, 2], [1, 1]]}),
         "modes[2]"),
        # list entries go through the same typed reader as scalar fields
        (lambda t: write_config(
            t, {"section": {"kind": "square", "n": 8, "center": ["a", 0]}}),
         "section.center[0]"),
        (lambda t: write_config(
            t, {"section": {"kind": "square", "n": 8, "center": [True, 0]}}),
         "section.center[0]"),
        (lambda t: write_config(
            t, {"curve": {"kind": "sampled", "points": [[0, 0, "a"]]}}),
         "curve.points[0][2]"),
        (lambda t: write_config(
            t, {"curve": {"kind": "straight", "s0": 3.0, "twist": "tabulated",
                          "twist_values": ["x"]}}),
         "curve.twist_values[0]"),
        # an integer literal no float can hold
        (lambda t: write_config(t, {"curve": {"kind": "straight", "s0": 10**400}}),
         "curve.s0"),
        (lambda t: write_config(t, {"M_s": 10}), "M_s"),
        # json reads NaN and Infinity as numbers; each is refused on its
        # field, as is an integer beyond the int32 indices of H
        (lambda t: write_config(
            t, {"curve": {"kind": "straight", "s0": float("nan")}}),
         "curve.s0"),
        (lambda t: write_config(
            t, {"curve": {"kind": "straight", "s0": 3.0, "twist": "linear",
                          "twist_rate": float("nan")}}),
         "curve.twist_rate"),
        (lambda t: write_config(
            t, {"section": {"kind": "square", "n": 8,
                            "center": [float("nan"), 0]}}),
         "section.center[0]"),
        (lambda t: write_config(
            t, {"section": {"kind": "square", "n": 8, "side": float("inf")}}),
         "section.side"),
        (lambda t: write_config(t, {"M_s": 10**30}), "M_s"),
        (lambda t: write_config(
            t, {"section": {"kind": "square", "n": 10**30}}),
         "section.n"),
        (lambda t: _mask_config(t), "section.path"),
        (lambda t: write_config(
            t, {"section": {"kind": "mask", "path": str(t)}}), "section.path"),
        (lambda t: _mask_config(t, b"\xff\xfe 3 3\n"), "section.path"),
        (lambda t: _mask_config(t, b"not a header\n"), "section.path"),
        (lambda t: write_config(t, {"section": {"kind": "hexagon"}}),
         "section.kind"),
        # a header of three rows over two
        (lambda t: _mask_config(t, b"3 3 0.25\n111\n111\n"), "section.path"),
        # 16 interior nodes, below the 25 a mask section needs
        (lambda t: _mask_config(t, b"4 4 0.2\n" + b"1111\n" * 4), "section"),
        # a gap-slope window no slope can meet
        (lambda t: write_config(
            t, {"thresholds": {"slope_min": 2.5, "slope_max": 1.5}}),
         "thresholds"),
        # the prefix is a file-name stem inside --out: no directory part, and
        # not a name that is empty or a directory of its own
        (lambda t: write_config(t, {"output": {"prefix": "sub/run"}}),
         "output.prefix"),
        (lambda t: write_config(t, {"output": {"prefix": ""}}), "output.prefix"),
        (lambda t: write_config(t, {"output": {"prefix": ".."}}), "output.prefix"),
        (lambda t: write_config(t, {"output": {"prefix": "."}}), "output.prefix"),
        (lambda t: write_config(t, {"output": {"prefix": "a\\b"}}), "output.prefix"),
        (lambda t: write_config(t, {"output": {"prefix": "a\0b"}}), "output.prefix"),
        # a field the chosen kind never reads is refused, not ignored
        (lambda t: write_config(
            t, {"section": {"kind": "mask", "path": str(RECTANGLE),
                            "center": [0.3, 0.0]}}), "section.center"),
        (lambda t: write_config(
            t, {"section": {"kind": "mask", "path": str(RECTANGLE), "n": 50}}),
         "section.n"),
        (lambda t: write_config(
            t, {"section": {"kind": "mask", "path": str(RECTANGLE), "side": 9.0}}),
         "section.side"),
        (lambda t: write_config(
            t, {"section": {"kind": "square", "n": 8, "radius": 0.5}}),
         "section.radius"),
        (lambda t: write_config(
            t, {"section": {"kind": "disk", "n": 8, "side": 1.0}}), "section.side"),
        (lambda t: write_config(
            t, {"section": {"kind": "square", "n": 8, "path": str(RECTANGLE)}}),
         "section.path"),
        (lambda t: write_config(
            t, {"curve": {"kind": "sampled", "points": HELIX_POINTS, "s0": 99.0}}),
         "curve.s0"),
        (lambda t: write_config(
            t, {"curve": {"kind": "sampled", "points": HELIX_POINTS,
                          "radius": 5.0}}), "curve.radius"),
        (lambda t: write_config(
            t, {"curve": {"kind": "straight", "s0": 3.0, "radius": 1.5}}),
         "curve.radius"),
        (lambda t: write_config(
            t, {"curve": {"kind": "circular_arc", "s0": 2.0, "radius": 1.5,
                          "a": 1.0}}), "curve.a"),
        (lambda t: write_config(
            t, {"curve": {**HELIX["curve"], "radius": 1.5}}, base=HELIX),
         "curve.radius"),
        (lambda t: write_config(
            t, {"curve": {**HELIX["curve"], "points": HELIX_POINTS}}, base=HELIX),
         "curve.points"),
        (lambda t: write_config(
            t, {"curve": {"kind": "sampled", "points": HELIX_POINTS,
                          "twist_rate": 3.0}}), "curve.twist_rate"),
        (lambda t: write_config(
            t, {"curve": {**HELIX["curve"], "twist_values": [0.0] * 20}},
            base=HELIX), "curve.twist_values"),
        (lambda t: write_config(
            t, {"curve": {"kind": "straight", "s0": 3.0, "twist": "tabulated",
                          "twist_values": [0.0] * 20, "twist_rate": 0.5}}),
         "curve.twist_rate"),
    ],
    ids=["list", "directory", "missing", "invalid-json", "s0-string",
         "M_s-float", "helix-negative-a", "arc-zero-radius", "sampled-3-points",
         "sampled-duplicate-point", "twist-spiral", "s0-zero", "s0-negative",
         "modes-duplicate", "center-string", "center-bool", "points-string",
         "twist-values-string", "s0-huge-integer", "M_s-below-16",
         "s0-nan", "twist-rate-nan", "center-nan", "side-infinity",
         "M_s-huge-integer", "n-huge-integer", "mask-missing", "mask-directory", "mask-not-utf8", "mask-bad-header",
         "section-kind-unknown", "mask-row-count", "mask-below-25-nodes",
         "slope-window-empty", "prefix-subdir", "prefix-empty", "prefix-dotdot",
         "prefix-dot", "prefix-backslash", "prefix-nul", "mask-center", "mask-n",
         "mask-side", "square-radius", "disk-side", "square-path", "sampled-s0",
         "sampled-radius", "straight-radius", "arc-a", "helix-radius",
         "helix-points", "untwisted-twist-rate", "linear-twist-values",
         "tabulated-twist-rate"],
)
def test_main_exit_two_names_the_failing_config_path(tmp_path, capsys, make, field):
    # a config the parser refuses is one "config" failure naming the field,
    # or the file itself when it cannot be read as a JSON object
    path = make(tmp_path)
    code, payload = run_main(
        ["expand", "--config", str(path), "--out", str(tmp_path / "out")], capsys
    )
    assert code == 2
    (failure,) = payload["failures"]
    assert failure["kind"] == "config"
    assert failure["path"] == (str(path) if field is None else field)


def test_main_exit_two_on_section_above_spectral_cutoff(
    tmp_path, capsys, monkeypatch
):
    # a non-rectangular section above the limit is rejected before any
    # section solve, recurrence or assembly; a straight untwisted rod too,
    # since its start block reads the same dense section basis
    monkeypatch.setattr("thinrod.cross_section._SPECTRAL_CUTOFF", 16)

    def unreachable(*args, **kwargs):
        raise AssertionError("pre-flight check ran too late")

    monkeypatch.setattr(cli, "solve_section", unreachable)
    monkeypatch.setattr(cli.oracle, "solve_section", unreachable)
    monkeypatch.setattr(cli.engine, "run_recurrence", unreachable)
    monkeypatch.setattr(cli.oracle, "assemble", unreachable)
    monkeypatch.setattr(cli.oracle, "PencilFamily", unreachable)
    straight_disk = {**STRAIGHT, "section": DISK_HELIX["section"]}
    # a 7 x 8 mask less two opposite corners has no mirror symmetry; a mask
    # config has no section.n, so its refusal names the mask file
    mask = tmp_path / "section.mask"
    mask.write_text("7 8 0.125\n" + "\n".join(
        ["00111111"] + ["11111111"] * 5 + ["11111100"]) + "\n")
    mask_helix = {**HELIX, "section": {"kind": "mask", "path": str(mask)}}
    for base, command, eps, field, advice in (
        (DISK_HELIX, "verify", 0.2, "section.n", "lower section.n"),
        (DISK_HELIX, "sweep", [0.2, 0.1], "section.n", "lower section.n"),
        (straight_disk, "verify", 0.2, "section.n", "lower section.n"),
        (mask_helix, "verify", 0.2, "section.path",
         "use a mask file of fewer interior nodes in section.path"),
    ):
        path = write_config(tmp_path, {"epsilon": eps}, base=base)
        code, payload = run_main(
            [command, "--config", str(path), "--out", str(tmp_path)], capsys
        )
        assert code == 2
        (failure,) = payload["failures"]
        assert failure["kind"] == "config"
        assert failure["path"] == field
        assert "limit of 16" in failure["message"]
        assert failure["message"].endswith("; " + advice)


def test_square_helix_above_spectral_cutoff_still_solves(
    tmp_path, capsys, monkeypatch
):
    # a full rectangular mask needs no dense section basis: the solve runs
    # past the limit and agrees with a dense eigh of the assembled pencil
    monkeypatch.setattr("thinrod.cross_section._SPECTRAL_CUTOFF", 16)
    path = write_config(
        tmp_path, {"epsilon": 0.2, "modes": [[1, 1], [1, 2]]}, base=HELIX
    )
    cfg = cli.parse_config(path)
    assert cfg.grid.n_interior > 16
    code, payload = run_main(
        ["verify", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert payload == {"failures": []}
    report = json.loads((tmp_path / "thinrod_verify.json").read_text())
    lam = [r["lambda_direct"] for r in report["rows"]]
    op = cli.oracle.assemble(cfg.frame, cfg.grid, 0.2)
    ref = scipy.linalg.eigh(
        op.H.toarray(), np.diag(op.B), subset_by_index=[0, 1], eigvals_only=True
    )
    assert lam == pytest.approx(ref, abs=1e-7)


def test_straight_rod_above_spectral_cutoff_still_solves(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr("thinrod.cross_section._SPECTRAL_CUTOFF", 16)
    path = write_config(tmp_path, {"epsilon": 0.2})
    assert cli.parse_config(path).grid.n_interior > 16
    code, payload = run_main(
        ["verify", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert payload == {"failures": []}


def test_verify_runs_one_section_solve(tmp_path, monkeypatch):
    # the recurrences' section solve is the only one: the start block, the
    # preconditioner and the eigenpair count read the family's basis
    calls = []
    solve_section = cli.solve_section

    def counting(grid, count):
        calls.append(count)
        return solve_section(grid, count)

    monkeypatch.setattr(cli, "solve_section", counting)
    monkeypatch.setattr(cli.oracle, "solve_section", counting)
    for base in (HELIX, DISK_HELIX):
        calls.clear()
        path = write_config(tmp_path, {"epsilon": 0.2}, base=base)
        assert cli.cmd_verify(cli.parse_config(path), tmp_path) == []
        assert calls == [2]


def test_auto_count_covers_every_section_mode(tmp_path, capsys):
    # on the square lambda_2 = lambda_3: the rungs of section mode 3 lie
    # below (1, 22) at eps 0.3 and must be counted, or the window ends
    # below the mode (a ladder of two section modes computed 35 pairs and
    # matched eigenvalue 34, 592.8 against the exact 654.5)
    path = write_config(
        tmp_path,
        {"M_s": 64, "order": 2, "modes": [[1, 22]], "epsilon": 0.3},
    )
    code, payload = run_main(
        ["verify", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert payload == {"failures": []}
    report = json.loads((tmp_path / "thinrod_verify.json").read_text())
    assert report["eigenpairs_computed"] == 46
    (row,) = report["rows"]
    assert row["bound_ok"] is True
    assert row["match_index"] == 43
    assert row["abs_gap"] < 1e-9 * row["lambda_direct"]


@pytest.mark.parametrize("command, eps", [("verify", 0.2), ("sweep", [0.2, 0.1])])
def test_report_records_each_residual_target(tmp_path, monkeypatch, command, eps):
    # the target each solve certified, the sweep's noise floor, is in the
    # JSON report per eps, in solve order
    targets = []
    solve_direct = cli.oracle.solve_direct

    def recording(*args, **kwargs):
        sol = solve_direct(*args, **kwargs)
        targets.append([sol.op.eps, sol.target])
        return sol

    monkeypatch.setattr(cli.oracle, "solve_direct", recording)
    path = write_config(tmp_path, {"epsilon": eps}, base=HELIX)
    getattr(cli, f"cmd_{command}")(cli.parse_config(path), tmp_path)
    report = json.loads((tmp_path / f"thinrod_{command}.json").read_text())
    assert len(targets) == (1 if command == "verify" else 2)
    assert report["residual_targets"] == targets


def test_main_exit_two_on_solver_fail_reports_history(tmp_path, capsys):
    # one LOBPCG iteration leaves the solve short of its target
    path = write_config(
        tmp_path,
        {"epsilon": 0.2, "solver": {"maxiter": 1}},
        base=HELIX,
    )
    code, payload = run_main(
        ["verify", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 2
    (failure,) = payload["failures"]
    assert failure["kind"] == "SolverFail"
    stage = failure["history"][0]
    assert stage["stage"] == "lobpcg"
    assert stage["residual_history"]
    assert stage["residual_history"][-1] > 1e-8


@pytest.mark.parametrize(
    "key, value",
    [
        ("count", 1000000),  # the straight config has 18 * 64 = 1152 unknowns
        ("count", 1152 // 4 + 1),  # above the solver's block
        ("count", 1152 // 4 - 2),  # leaves fewer than 3 guard columns
        ("count", -1),
        ("tol", 0.0),
        ("tol", -1.0),
        ("maxiter", 0),
        ("dense_cutoff", -5),  # a removed key: rejected as an unknown field
    ],
)
def test_main_exit_two_on_solver_key_out_of_range(tmp_path, capsys, key, value):
    path = write_config(tmp_path, {"epsilon": 0.2, "solver": {key: value}})
    code, payload = run_main(
        ["verify", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 2
    (failure,) = payload["failures"]
    assert failure["kind"] == "config"
    assert failure["path"] == f"solver.{key}"


def test_verify_at_the_solver_block_limit(tmp_path, capsys):
    # solver.count may reach a quarter of the 1152 unknowns, LOBPCG's
    # block limit, less 3 guard columns, and every requested pair still
    # meets its target
    path = write_config(
        tmp_path, {"epsilon": 0.2, "solver": {"count": 1152 // 4 - 3}}
    )
    code, payload = run_main(
        ["verify", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert payload == {"failures": []}
    report = json.loads((tmp_path / "thinrod_verify.json").read_text())
    assert report["eigenpairs_computed"] == 285


def test_main_exit_two_names_the_mode_being_expanded(tmp_path, capsys):
    # the reduced solve needs m + 1 of the 18 interior nodes at M_s 20, so
    # m = 18 is refused at parse time, on its entry of modes
    path = write_config(tmp_path, {"epsilon": 0.2, "modes": [[1, 18]]})
    code, payload = run_main(
        ["verify", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert payload == {"failures": [
        {"kind": "config", "path": "modes[0]",
         "message": "modes[0]: axial mode m = 18 above M_s - 3 = 17"}
    ]}


def test_main_exit_two_on_a_section_mode_beyond_the_grid(tmp_path, capsys):
    # the 8 x 8 square has 64 interior nodes, too few for section mode 70
    path = write_config(tmp_path, {"modes": [[70, 1]]})
    code, payload = run_main(
        ["expand", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert payload == {"failures": [
        {"kind": "config", "path": "modes[0]",
         "message": "modes[0]: section mode n = 70 above 61, the interior "
                    "section nodes (64) less 3"}
    ]}


@pytest.mark.parametrize("mode", [[61, 1], [1, 17]])
def test_expand_at_the_mode_bounds(tmp_path, capsys, mode):
    # n = 64 - 3 on the 8 x 8 square and m = M_s - 3 at M_s 20 complete
    path = write_config(tmp_path, {"modes": [mode]}, base=HELIX)
    code, payload = run_main(
        ["expand", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert payload == {"failures": []}


@pytest.mark.parametrize("mode", [[62, 1], [1, 18]])
def test_modes_one_past_the_bounds_are_refused(tmp_path, mode):
    err = config_error(tmp_path, {"modes": [[1, 1], mode]}, base=HELIX)
    assert err.path == "modes[1]"
    err = config_error(tmp_path, {"modes": [mode]}, base=HELIX)
    assert err.path == "modes[0]"


def test_main_exit_two_on_internal_error(tmp_path, capsys, monkeypatch):
    # an exception outside the typed errors is reported, not raised, and
    # never takes exit code 1, which means "checks failed"
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("eigh did not converge")

    monkeypatch.setattr(cli.oracle, "solve_direct", broken)
    path = write_config(tmp_path, {"epsilon": 0.2})
    code, payload = run_main(
        ["verify", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert payload == {"failures": [
        {"kind": "internal", "type": "LinAlgError",
         "message": "eigh did not converge"}
    ]}


def test_main_exit_two_on_a_warning_raised_inside_compare(
    tmp_path, capsys, monkeypatch
):
    # the comparison's skip reasons are return values, so a warning raised
    # while comparing reaches the caller: under warnings-as-errors it is an
    # internal failure, not recorded and dropped
    compare = cli.oracle.compare

    def warned(*args, **kwargs):
        warnings.warn("divide by zero encountered", RuntimeWarning)
        return compare(*args, **kwargs)

    monkeypatch.setattr(cli.oracle, "compare", warned)
    path = write_config(tmp_path, {"epsilon": 0.2}, base=HELIX)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = run_main(
            ["verify", "--config", str(path), "--out", str(tmp_path)], capsys
        )
    assert code == 2
    assert payload == {"failures": [
        {"kind": "internal", "type": "RuntimeWarning",
         "message": "divide by zero encountered"}
    ]}


def test_main_exit_one_on_ambiguous_pairing(tmp_path, capsys, monkeypatch):
    # with the eigenvalue of mode (1, 2) moved far above the window, both
    # partial sums lie nearest the ground eigenvalue: the matching is not
    # injective, and the run completes and reports the pairing failure
    solve_direct = cli.oracle.solve_direct

    def moved(*args, **kwargs):
        sol = solve_direct(*args, **kwargs)
        sol.lam = sol.lam.copy()
        sol.lam[1] = 10.0 * sol.ritz_all[-1]
        return sol

    monkeypatch.setattr(cli.oracle, "solve_direct", moved)
    path = write_config(tmp_path, {"epsilon": 0.2})
    code, payload = run_main(
        ["verify", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 1
    assert any(f["kind"] == "pairing" for f in payload["failures"])
    report = json.loads((tmp_path / "thinrod_verify.json").read_text())
    assert report["ok"] is False


def test_main_exit_one_on_failed_certificate(tmp_path, capsys, monkeypatch):
    # the matched eigenvalue moved half way towards its neighbour lies
    # farther from the partial sum than the residual certificate allows
    solve_direct = cli.oracle.solve_direct

    def shifted(*args, **kwargs):
        sol = solve_direct(*args, **kwargs)
        sol.lam = sol.lam.copy()
        sol.lam[0] -= 0.5 * (sol.lam[1] - sol.lam[0])
        return sol

    monkeypatch.setattr(cli.oracle, "solve_direct", shifted)
    path = write_config(tmp_path, {"epsilon": 0.2})
    code, payload = run_main(
        ["verify", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 1
    assert payload == {"failures": [
        {"kind": "certificate", "eps": 0.2, "n": 1, "m": 1,
         "message": "nearest computed eigenvalue farther than rho"}
    ]}
    report = json.loads((tmp_path / "thinrod_verify.json").read_text())
    assert report["ok"] is False
    assert [r["bound_ok"] for r in report["rows"]] == [False, True]


@pytest.mark.parametrize(
    "thresholds, message",
    [
        ({"slope_min": 3.0, "slope_max": 4.0},
         "eigenvalue gap rate outside configured window"),
        ({"rho_slope_min": 3.0}, "residual certificate rate below threshold"),
    ],
    ids=["gap", "rho"],
)
def test_main_exit_one_on_rate_outside_thresholds(
    tmp_path, capsys, thresholds, message
):
    # the helix gap and certificate decay at about eps^2; demanding a slope
    # of at least 3 completes the sweep and reports the rate failure
    path = write_config(
        tmp_path, {"epsilon": [0.2, 0.1], "thresholds": thresholds}, base=HELIX
    )
    code, payload = run_main(
        ["sweep", "--config", str(path), "--out", str(tmp_path)], capsys
    )
    assert code == 1
    (failure,) = payload["failures"]
    assert failure["kind"] == "rate"
    assert failure["message"] == message
    assert (failure["n"], failure["m"]) == (1, 1)
    assert failure["slope"] < 3.0
    report = json.loads((tmp_path / "thinrod_sweep.json").read_text())
    assert report["ok"] is False
    assert report["failures"] == payload["failures"]


def test_main_selftest_passes(tmp_path, capsys):
    code = cli.main(["selftest", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 6
    assert all(l.startswith("PASS") for l in lines)
    assert code == 0
    report = json.loads((tmp_path / "thinrod_selftest.json").read_text())
    assert report["ok"] is True


def test_selftest_failure_reports_the_measured_value(tmp_path, capsys, monkeypatch):
    # a failed check names what it measured, on the console and in the report
    checks = cli.oracle.operator_checks
    monkeypatch.setattr(
        cli.oracle, "operator_checks", lambda op: {**checks(op), "symmetry_defect": 1.0}
    )
    code = cli.main(["selftest", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    name = "assembled pencil is exactly symmetric and positive"
    assert f"FAIL (symmetry defect 1.0, not 0) {name}" in out.splitlines()
    report = json.loads((tmp_path / "thinrod_selftest.json").read_text())
    (failure,) = report["failures"]
    assert failure == {"kind": "selftest", "name": name,
                       "message": "symmetry defect 1.0, not 0"}


# the selftest with a symmetry defect of 1.0 reported, run by main
PATCHED_SELFTEST_SCRIPT = """
import sys
from thinrod import cli
print("optimize", sys.flags.optimize)
checks = cli.oracle.operator_checks
cli.oracle.operator_checks = lambda op: {**checks(op), "symmetry_defect": 1.0}
sys.exit(cli.main(["selftest", "--out", sys.argv[1]]))
"""


def test_selftest_fails_under_python_O(tmp_path):
    # python -O strips assert statements; the selftest's checks still run
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", PATCHED_SELFTEST_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "optimize 1"
    name = "assembled pencil is exactly symmetric and positive"
    assert f"FAIL (symmetry defect 1.0, not 0) {name}" in lines
    assert proc.returncode == 1, proc.stderr


# ----------------------------------------------------------------------
# cold start: what a run imports
# ----------------------------------------------------------------------

# loaded by the sampled curve kind alone (scipy.interpolate,
# scipy.integrate and what they pull in) or by no code path at all
DEFERRED = [
    "scipy.interpolate",
    "scipy.integrate",
    "scipy.ndimage",
    "scipy.optimize",
    "scipy.spatial",
    "scipy.special",
    "scipy.fft",
]

# runs every (command, config, out) of argv[1] in turn, then prints which
# deferred modules were loaded after the import and after the runs
IMPORT_SET_SCRIPT = """
import json, sys
from thinrod import cli
deferred = json.loads(sys.argv[2])
after_import = [m for m in deferred if m in sys.modules]
for command, config, out in json.loads(sys.argv[1]):
    getattr(cli, "cmd_" + command)(cli.parse_config(config), out)
after_runs = [m for m in deferred if m in sys.modules]
print(json.dumps({"after_import": after_import, "after_runs": after_runs}))
"""


def run_fresh(tmp_path, script, *args) -> list:
    """Run `script` in a fresh interpreter that imports this `thinrod`;
    return its stdout lines."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def deferred_modules_loaded(tmp_path, runs):
    """Run the commands in one fresh interpreter, since this one has long
    since imported whatever the other tests needed."""
    jobs = []
    for k, (command, overrides, base) in enumerate(runs):
        config = write_config(tmp_path, overrides, base, name=f"cfg{k}.json")
        jobs.append([command, str(config), str(tmp_path / f"out{k}")])
    lines = run_fresh(tmp_path, IMPORT_SET_SCRIPT, json.dumps(jobs), json.dumps(DEFERRED))
    return json.loads(lines[-1])


def test_analytic_curve_runs_load_no_deferred_scipy_module(tmp_path):
    loaded = deferred_modules_loaded(
        tmp_path,
        [
            ("verify", {"epsilon": 0.2}, HELIX),
            ("sweep", {"epsilon": [0.2, 0.1]}, HELIX),
            ("expand", None, DISK_HELIX),
        ],
    )
    assert loaded == {"after_import": [], "after_runs": []}


def test_sampled_curve_loads_the_deferred_modules_and_runs(tmp_path):
    curve = {
        "kind": "sampled",
        "points": [[0.0, 0.0, 0.0], [0.5, 0.1, 0.0], [1.0, 0.3, 0.05],
                   [1.5, 0.6, 0.1], [2.0, 1.0, 0.2]],
        "twist": "linear", "twist_rate": 0.3,
    }
    loaded = deferred_modules_loaded(tmp_path, [("expand", {"curve": curve}, HELIX)])
    assert loaded["after_import"] == []
    assert {"scipy.interpolate", "scipy.integrate"} <= set(loaded["after_runs"])
    lines = (tmp_path / "out0" / "thinrod_coefficients.csv").read_text().splitlines()
    assert lines[0] == "n,m,i,lambda_i"
    assert float(lines[1].split(",")[3]) > 0


# ----------------------------------------------------------------------
# heap thresholds
# ----------------------------------------------------------------------

# runs the expand of argv[1] twice and prints each run's minor page faults
REFAULT_SCRIPT = """
import resource, sys
from thinrod import cli
cfg = cli.parse_config(sys.argv[1])
for out in ("first", "second"):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cli.cmd_expand(cfg, out)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_expand_without_mallopt_sets_nothing_and_writes_the_same_files(
    tmp_path, monkeypatch
):
    # a libc without mallopt (not glibc): the thresholds are left alone,
    # and the results do not depend on them
    cfg = cli.parse_config(write_config(tmp_path, base=HELIX))
    cli.cmd_expand(cfg, tmp_path / "glibc")

    class NoMallopt:
        pass

    opened = []
    monkeypatch.setattr(cli.ctypes, "CDLL",
                        lambda name: opened.append(name) or NoMallopt())
    cli.cmd_expand(cfg, tmp_path / "other")
    assert opened == [None]
    for name in ("thinrod_coefficients.csv", "thinrod_expand.json"):
        assert ((tmp_path / "other" / name).read_bytes()
                == (tmp_path / "glibc" / name).read_bytes())


@pytest.mark.skipif(
    not hasattr(ctypes.CDLL(None), "mallopt"), reason="no glibc mallopt"
)
def test_a_second_expand_reuses_the_heap_of_the_first(tmp_path):
    # the arc of the benchmark's order-6 expansion on a smaller grid: with
    # glibc's default thresholds each freed field-sized temporary went back
    # to the kernel, and the second run took 2 430 faults after 6 031
    arc = {
        "curve": {"kind": "circular_arc", "s0": 2.0, "radius": 1.5,
                  "twist": "linear", "twist_rate": 0.4},
        "section": {"kind": "square", "side": 1.0, "n": 20, "center": [0.15, 0.05]},
        "M_s": 80,
        "order": 6,
        "modes": [[1, 1], [1, 2]],
    }
    first, second = map(int, run_fresh(tmp_path, REFAULT_SCRIPT,
                                       str(write_config(tmp_path, base=arc))))
    assert second <= first / 10, (first, second)
