"""Write the committed correctness references, one file per workload.

    python3 perfbench/make_references.py [WORKLOAD ...]

Run from the root of a checkout whose outputs are known to be right.  For
every jitter draw it runs the workload once, requires the run's own checks
(no flags, every bound_ok true, no reported failure) to pass, and records
lambda_direct / lambda_partial per certificate row, or lambda_i per mode
for expand, in perfbench/references/<workload>.json.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run, workloads  # noqa: E402


def make(workload: str, draws=range(workloads.DRAWS)) -> None:
    """Run `workload` once per draw and write its reference file."""
    entries = {}
    work = run.ROOT / run.WORK_DIR / f"references-{workload}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for draw in draws:
            rep = run.run_repetition(workload, draw, work, traced=False,
                                     reference=None, timeout=600)
            bad = {k: v for k, v in rep.problems.items() if v}
            if not rep.ok or bad or not rep.ops:
                raise SystemExit(f"{workload} draw {draw}: {rep.result.get('error')} {bad}")
            entries[str(draw)] = {
                "config": workloads.make_config(workload, draw),
                "ops": {k: v["values"] for k, v in rep.ops.items()},
            }
            print(f"{workload} draw {draw}: {len(rep.ops)} operations, "
                  f"run_s {rep.result['run_s']:.2f}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.REFERENCE_DIR / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"workload": workload, "draws": entries}, indent=1) + "\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(workloads.WORKLOADS):
        make(name)
