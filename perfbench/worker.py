"""One timed repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --config CFG --command sweep --out DIR \
        --spawned T [--trace]

Run from the root of a checkout; `thinrod` is imported from `src/` there
and nowhere else.  `--spawned` is the parent's `time.monotonic()` just
before it started this process, so `setup_s` covers interpreter start,
`import thinrod.cli` and `cli.parse_config` (which builds the frame).
Prints one JSON line: setup_s, run_s, peak_rss_mb, error, the environment
and, with --trace, the per-layer metrics of this repetition.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()


def environment() -> dict:
    """Interpreter, library and threading facts the timings depend on."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as e:  # noqa: BLE001 - report what the build says, or why not
        blas = f"unknown ({type(e).__name__})"
    try:
        import pyamg  # noqa: F401

        pyamg_imports = True
    except ImportError:
        pyamg_imports = False
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "pyamg_imports": pyamg_imports,
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--config", required=True)
    p.add_argument("--command", required=True, choices=["expand", "verify", "sweep"])
    p.add_argument("--out", required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    result = {"setup_s": None, "run_s": None, "error": None}
    try:
        from thinrod import cli

        if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"thinrod imported from {cli.__file__}, not src/")
        tracer = uninstall = None
        if args.trace:
            sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
            from perfbench import tracing

            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
        cfg = cli.parse_config(args.config)
        result["setup_s"] = time.monotonic() - args.spawned

        command = getattr(cli, f"cmd_{args.command}")
        t0 = time.perf_counter()
        if tracer is None:
            command(cfg, args.out)
        else:
            try:
                with tracer.span(f"cli.cmd_{args.command}", root=True):
                    command(cfg, args.out)
            finally:
                uninstall()
        result["run_s"] = time.perf_counter() - t0
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer)
    except Exception as e:  # noqa: BLE001 - the parent counts it as failed rows
        result["error"] = f"{type(e).__name__}: {e}"
        traceback.print_exc()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
