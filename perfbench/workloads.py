"""The benchmark's fixed workloads and their seeded geometry jitter.

Each workload is one `thinrod` command on one config.  A jitter draw moves
only the geometry (section centre within +-0.02 on each axis, twist rate
within +-0.05); grid sizes, modes, order and epsilon stay fixed.  There are
`DRAWS` draws, each with a committed reference in
`references/<workload>.json`, so every run is gated against known-good
numbers.  A seed picks `GROUP` of them and a run cycles through those:
LOBPCG iteration counts differ by up to 20% between draws, and averaging
over several keeps the work of a run nearly the same for every seed.

The sizes are the workloads named in the benchmark README scaled down
(M_s and section n together, keeping their ratio) until one command runs
in about 3.5 s on a 2-core machine; the layer that dominates each
workload is unchanged by the scaling.
"""

from __future__ import annotations

import copy
import random

DEFAULT_SEED = 0
HELD_OUT_SEED = 27
DRAWS = 16
GROUP = 4

CENTER_JITTER = 0.02
TWIST_JITTER = 0.05

_HELIX = {
    "kind": "helix",
    "s0": 3.0,
    "a": 1.0,
    "b": 0.5,
    "twist": "linear",
    "twist_rate": 0.6,
}

WORKLOADS = {
    # LOBPCG-dominated certification over three thicknesses; the only
    # workload that runs cmd_sweep's per-epsilon thread pool, on a full
    # rectangular mask.
    "helix_sweep": {
        "command": "sweep",
        "config": {
            "curve": _HELIX,
            "section": {"kind": "square", "side": 1.0, "n": 16,
                        "center": [0.12, -0.07]},
            "M_s": 64,
            "modes": [[1, 1], [1, 2], [1, 3]],
            "order": 3,
            "epsilon": [0.2, 0.1, 0.05],
            "solver": {"count": 5},
        },
    },
    # One solve at the thinnest epsilon, no pool, on a non-rectangular
    # (disk) mask.
    "disk_verify_thin": {
        "command": "verify",
        "config": {
            "curve": _HELIX,
            "section": {"kind": "disk", "radius": 0.5, "n": 24,
                        "center": [0.1, 0.05]},
            "M_s": 80,
            "modes": [[1, 1], [1, 2], [1, 3]],
            "order": 3,
            "epsilon": 0.05,
            "solver": {"count": 5},
        },
    },
    # The expansion path alone: no direct solve at all.
    "arc_expand_o6": {
        "command": "expand",
        "config": {
            "curve": {"kind": "circular_arc", "s0": 2.0, "radius": 1.5,
                      "twist": "linear", "twist_rate": 0.4},
            "section": {"kind": "square", "side": 1.0, "n": 30,
                        "center": [0.15, 0.05]},
            "M_s": 160,
            "modes": [[1, 1], [1, 2], [1, 3], [1, 4]],
            "order": 6,
        },
    },
}


def draws_of(seed: int) -> list:
    """The jitter draws a run with `seed` cycles through, in order."""
    return random.Random(seed).sample(range(DRAWS), min(GROUP, DRAWS))


def make_config(workload: str, draw: int) -> dict:
    """The config of `workload` under jitter draw `draw`."""
    cfg = copy.deepcopy(WORKLOADS[workload]["config"])
    rng = random.Random(f"{workload}/{draw}")
    c2, c3 = cfg["section"]["center"]
    cfg["section"]["center"] = [
        round(c2 + rng.uniform(-CENTER_JITTER, CENTER_JITTER), 6),
        round(c3 + rng.uniform(-CENTER_JITTER, CENTER_JITTER), 6),
    ]
    curve = cfg["curve"]
    curve["twist_rate"] = round(
        curve["twist_rate"] + rng.uniform(-TWIST_JITTER, TWIST_JITTER), 6
    )
    return cfg

