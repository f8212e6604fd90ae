"""thinrod benchmark: time one workload end to end, or per layer, and gate it.

    python3 perfbench/run.py --workload helix_sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each repetition is a fresh interpreter
(perfbench/worker.py) that imports `thinrod.cli` from `src/`, parses the
workload's config and runs the command, so import cost and peak memory
belong to that repetition.  Repetitions run one after another until
`--seconds` have passed; every one is checked by the correctness gate
(perfbench/gate.py) and for byte-identical output files.

With `--trace 0` the result holds the end-to-end metrics: medians of
setup_s, run_s and peak_rss_mb over the repetitions.  With `--trace 1`
traced and untraced repetitions alternate; the result holds the medians of
the per-layer metrics of the traced ones, and trace.overhead_s, the
difference between the traced and untraced run_s medians.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment and any gate problems.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import gate, workloads  # noqa: E402

ROOT = Path.cwd()
WORK_DIR = ".perfbench_work"
REFERENCE_DIR = HERE / "references"
# a run must end within 180 s; no repetition starts that could end later
RUN_LIMIT_S = 165.0


@dataclass
class Repetition:
    """Timings, gate outcome and output digest of one worker process.

    `problems` maps every operation the repetition should have produced to
    its gate problems (an empty list when it passed).
    """

    draw: int
    traced: bool
    wall_s: float
    result: dict
    problems: dict
    ops: dict | None = None
    digest: dict | None = None
    output_bytes: int = 0

    @property
    def ok(self) -> bool:
        return self.result.get("error") is None and self.result.get("run_s") is not None


def load_references(workload: str, draws) -> dict:
    """{draw: committed operations}; exits if one is missing or stale."""
    path = REFERENCE_DIR / f"{workload}.json"
    committed = json.loads(path.read_text())["draws"]
    out = {}
    for draw in draws:
        entry = committed.get(str(draw))
        if entry is None or entry["config"] != workloads.make_config(workload, draw):
            raise SystemExit(
                f"{path}: no reference for draw {draw} of the current config; "
                "regenerate with perfbench/make_references.py"
            )
        out[draw] = entry["ops"]
    return out


def run_repetition(workload: str, draw: int, work_dir: Path, traced: bool,
                   reference: dict | None, timeout: float) -> Repetition:
    """Run one worker on a draw; gate its outputs against `reference` (if given)."""
    command = workloads.WORKLOADS[workload]["command"]
    keys = list(reference) if reference is not None else []
    cfg_path = work_dir / f"config{draw}.json"
    cfg_path.write_text(json.dumps(workloads.make_config(workload, draw)))
    out_dir = work_dir / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [sys.executable, str(HERE / "worker.py"), "--config", str(cfg_path),
            "--command", command, "--out", str(out_dir)]
    if traced:
        argv.append("--trace")
    spawned = time.monotonic()
    argv += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return Repetition(draw, traced, time.monotonic() - spawned,
                          {"error": f"timed out after {timeout:.0f} s"},
                          {k: ["timed out"] for k in keys})
    wall = time.monotonic() - spawned
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}
    if result.get("error"):
        sys.stderr.write(proc.stderr[-4000:])
        return Repetition(draw, traced, wall, result,
                          {k: [result["error"]] for k in keys})
    try:
        ops = gate.extract(command, out_dir)
    except (OSError, KeyError, ValueError) as e:
        error = f"unreadable output: {type(e).__name__}: {e}"
        return Repetition(draw, traced, wall, {"error": error}, {k: [error] for k in keys})
    if reference is None:
        problems = {k: v["problems"] for k, v in ops.items()}
    else:
        problems = gate.compare(ops, reference)
    return Repetition(draw, traced, wall, result, problems, ops,
                      gate.digest(out_dir), gate.output_bytes(out_dir))


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summarize(reps: list, trace: bool) -> dict:
    """Metric name -> value over the repetitions, as the result reports it."""
    plain = [r for r in reps if not r.traced and r.ok]
    if not trace:
        return {name: median(r.result[name] for r in plain)
                for name in ("setup_s", "run_s", "peak_rss_mb")}
    traced = [r for r in reps if r.traced and r.ok]
    layers = {}
    for name in (traced[0].result["layers"] if traced else {}):
        layers[name] = median(r.result["layers"][name] for r in traced)
    layers["cli.output_bytes"] = median(r.output_bytes for r in traced)
    traced_run = median(r.result["run_s"] for r in traced)
    plain_run = median(r.result["run_s"] for r in plain)
    layers["trace.run_s"] = traced_run
    if traced_run is not None and plain_run is not None:
        layers["trace.overhead_s"] = traced_run - plain_run
    return layers


def metric_units(trace: bool) -> dict:
    """Name -> unit of the metrics a result reports, from BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "thinrod" / "__init__.py").is_file():
        print(f"no thinrod sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    draws = workloads.draws_of(args.seed)
    references = load_references(args.workload, draws)
    units = metric_units(bool(args.trace))

    run_dir = ROOT / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    reps: list[Repetition] = []
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            kinds = {r.traced for r in reps}
            minimum = False in kinds and (True in kinds or not args.trace)
            longest = max((r.wall_s for r in reps), default=0.0)
            if elapsed > RUN_LIMIT_S or minimum and (
                elapsed >= args.seconds or elapsed + 1.2 * longest > RUN_LIMIT_S
            ):
                break
            # with tracing, each draw runs untraced and then traced
            k = len(reps)
            traced = bool(args.trace) and k % 2 == 1
            draw = draws[(k // 2 if args.trace else k) % len(draws)]
            reps.append(run_repetition(args.workload, draw, run_dir, traced,
                                       references[draw],
                                       timeout=RUN_LIMIT_S + 10 - elapsed))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass

    first = {}
    attempted = failed = 0
    problems = []
    for k, rep in enumerate(reps):
        if rep.digest is not None and first.setdefault(rep.draw, rep.digest) != rep.digest:
            for key in rep.problems:
                rep.problems[key].append("output bytes differ from the draw's first run")
        attempted += len(rep.problems)
        for key, probs in rep.problems.items():
            if probs:
                failed += 1
                problems.append(f"rep {k} draw {rep.draw} {key}: {'; '.join(probs)}")

    values = summarize(reps, bool(args.trace))
    missing = [name for name in units if values.get(name) is None]
    env = next((r.result["env"] for r in reps if "env" in r.result), None)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "draws": draws, "repetitions": len(reps),
        "traced_repetitions": sum(r.traced for r in reps),
        "failed_frac": failed / attempted if attempted else None,
        "samples": {name: [r.result.get(name) for r in reps if not r.traced]
                    for name in ("setup_s", "run_s", "peak_rss_mb")},
        "env": env, "problems": problems[:20],
    }))
    if missing:
        print(f"no value for {missing}: every repetition failed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
