"""Correctness gate for one repetition's output files.

An operation is one (eps, mode) certificate row for `verify` and `sweep`,
and one mode's expansion for `expand`.  An operation fails when

* its row is flagged, its `bound_ok` is not true, or the run reported a
  failure naming its mode (a sweep rate outside the window);
* for `expand`, a deflated solve of its mode left a solvability defect of
  1e-8 or more;
* it misses the committed reference for the seed's draw: `lambda_direct`
  by more than 1e-9 relative, `lambda_partial` or a `lambda_i` by more
  than 1e-10 relative;
* or it is missing from the output.

Byte identity across repetitions and raised exceptions are judged by the
caller, which sees every repetition.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REL_TOL = {"lambda_direct": 1e-9, "lambda_partial": 1e-10, "lambda_i": 1e-10}
DEFECT_LIMIT = 1e-8
PREFIX = "thinrod"


def op_key(row: dict) -> str:
    if "eps" in row:
        return f"eps={row['eps']!r},n={row['n']},m={row['m']}"
    return f"n={row['n']},m={row['m']}"


def extract(command: str, out_dir: Path) -> dict:
    """{op key: {"values": {...}, "problems": [...]}} from a run's files."""
    out_dir = Path(out_dir)
    ops = {}
    if command == "expand":
        sidecar = json.loads((out_dir / f"{PREFIX}_expand.json").read_text())
        lam = {}
        lines = (out_dir / f"{PREFIX}_coefficients.csv").read_text().splitlines()
        for line in lines[1:]:
            n, m, i, value = line.split(",")
            lam.setdefault(op_key({"n": int(n), "m": int(m)}), []).append(
                (int(i), float(value))
            )
        for mode in sidecar["modes"]:
            key = op_key(mode)
            problems = []
            if not mode["max_solve_defect"] < DEFECT_LIMIT:
                problems.append(f"solvability defect {mode['max_solve_defect']:.3e}")
            ops[key] = {
                "values": {"lambda_i": [v for _, v in sorted(lam.get(key, []))]},
                "problems": problems,
            }
        return ops

    report = json.loads((out_dir / f"{PREFIX}_{command}.json").read_text())
    for row in report["rows"]:
        problems = []
        if row["flags"]:
            problems.append(f"flags {row['flags']}")
        if row["bound_ok"] is not True:
            problems.append(f"bound_ok {row['bound_ok']}")
        ops[op_key(row)] = {
            "values": {k: row[k] for k in ("lambda_direct", "lambda_partial")},
            "problems": problems,
        }
    for f in report["failures"]:
        if f.get("kind") in ("pairing", "certificate"):
            continue  # already seen on the row's flags and bound_ok
        mode = f",n={f.get('n')},m={f.get('m')}"
        named = [k for k in ops if k.endswith(mode)] or list(ops)
        for k in named:
            ops[k]["problems"].append(f"{f['kind']}: {f['message']}")
    return ops


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / abs(b) if b != 0 else float("inf")


def compare(ops: dict, reference: dict) -> dict:
    """{op key: [problems]} for every reference operation.

    Adds reference misses to the problems `extract` found.
    """
    out = {}
    for key, ref_values in reference.items():
        got = ops.get(key)
        if got is None:
            out[key] = ["missing from output"]
            continue
        problems = list(got["problems"])
        for name, ref in ref_values.items():
            value = got["values"].get(name)
            tol = REL_TOL[name]
            if isinstance(ref, list):
                if value is None or len(value) != len(ref):
                    problems.append(f"{name}: {len(value or [])} values, expected {len(ref)}")
                    continue
                for i, (v, r) in enumerate(zip(value, ref)):
                    if _rel(v, r) > tol:
                        problems.append(f"{name}[{i}] {v!r} vs reference {r!r}")
            elif _rel(value, ref) > tol:
                problems.append(f"{name} {value!r} vs reference {ref!r}")
        out[key] = problems
    for key in ops.keys() - reference.keys():
        out[key] = ["not in the reference"]
    return out


def digest(out_dir: Path) -> dict:
    """sha256 of every output file, by name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
        if p.is_file()
    }


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).iterdir() if p.is_file())
