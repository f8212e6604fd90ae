"""Toy-size runs of every workload through the real harness, and the gate."""

import copy
import json
from pathlib import Path

import pytest

from perfbench import gate, make_references, run, workloads

ROOT = Path(__file__).resolve().parents[2]


def _toy(config: dict) -> dict:
    config = copy.deepcopy(config)
    config["M_s"] = 24
    config["section"]["n"] = 10 if config["section"]["kind"] == "disk" else 8
    return config


@pytest.fixture
def toy(monkeypatch, tmp_path):
    """Shrink every workload to one jitter draw; work in tmp_path."""
    monkeypatch.setattr(workloads, "DRAWS", 1)
    monkeypatch.setattr(run, "ROOT", ROOT)
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path / "work"))
    monkeypatch.setattr(run, "REFERENCE_DIR", tmp_path / "references")
    for name, spec in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(
            workloads.WORKLOADS, name, {**spec, "config": _toy(spec["config"])}
        )
    return tmp_path / "references"


def _operations(workload: str) -> int:
    """Certificate rows (verify, sweep) or expanded modes (expand) per run."""
    config = workloads.WORKLOADS[workload]["config"]
    eps = config.get("epsilon", 0.0)
    return len(config["modes"]) * (len(eps) if isinstance(eps, list) else 1)


def _result(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_toy_workload_passes_the_gate(toy, capsys, workload):
    make_references.make(workload, draws=[0])
    result = _result(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0"])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == _operations(workload)
    assert set(result["metrics"]) == {"setup_s", "run_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_toy_traced_run_reports_every_per_layer_metric(toy, capsys):
    make_references.make("helix_sweep", draws=[0])
    result = _result(capsys, ["--workload", "helix_sweep", "--seed", "0",
                              "--seconds", "0", "--trace", "1"])
    assert result["correct"] is True
    assert result["attempted"] == 2 * _operations("helix_sweep")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["direct_oracle.h_apply.calls"]["value"] > 0
    assert metrics["direct_oracle.solve_direct.busy_s"]["value"] > 0
    assert metrics["asymptotic_engine.apply_Fj.calls"]["value"] > 0


def test_perturbed_reference_fails_the_gate(toy, capsys):
    make_references.make("disk_verify_thin", draws=[0])
    path = toy / "disk_verify_thin.json"
    ref = json.loads(path.read_text())
    row = next(iter(ref["draws"]["0"]["ops"].values()))
    row["lambda_direct"] *= 1 + 1e-8
    path.write_text(json.dumps(ref))
    result = _result(capsys, ["--workload", "disk_verify_thin", "--seed", "0",
                              "--seconds", "0"])
    assert result["correct"] is False
    assert result["failed"] == 1


@pytest.mark.parametrize("name", sorted(gate.REL_TOL))
def test_gate_tolerances(name):
    tol = gate.REL_TOL[name]
    ref = [1.0, -2.5] if name == "lambda_i" else 2.5

    def ops(scale):
        value = [v * scale for v in ref] if isinstance(ref, list) else ref * scale
        return {"k": {"values": {name: value}, "problems": []}}

    assert gate.compare(ops(1 + tol / 2), {"k": {name: ref}}) == {"k": []}
    assert gate.compare(ops(1 + 2 * tol), {"k": {name: ref}})["k"]
    assert gate.compare({}, {"k": {name: ref}}) == {"k": ["missing from output"]}
