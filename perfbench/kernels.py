"""L0 kernel block: ns per point of single map evaluations, untraced.

Each kernel calls one method of one map on a scalar (a Python float) or on
a 1024-point array, in batches long enough to dwarf the clock, and reports
the median batch.  `USES` names the workload whose use of the map each
kernel matches, so a change to one evaluation path can be read against the
workload it should move.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

GOLDEN = 0.6180339887498949
ARRAY_POINTS = 1024
BATCH_S = 0.004
BATCHES = 5

# (kind, method, shape) -> workload whose use of the map it matches.
USES = {
    ("rotation", "lift", "scalar"): "markov",  # orbit_to_csv_rows steps
    ("rotation", "lift", "array"): "classify",  # branch_lift_array, masked walks
    ("rotation", "deriv", "scalar"): "sweep",  # branch_deriv multipliers
    ("rotation", "deriv", "array"): "certify",  # contraction grids
    ("rotation", "inverse_lift", "scalar"): "markov",  # covering_count pullbacks
    ("rotation", "inverse_lift", "array"): "certify",  # backward re-verification
    ("sine", "lift", "scalar"): "markov",
    ("sine", "lift", "array"): "classify",
    ("sine", "deriv", "scalar"): "sweep",
    ("sine", "deriv", "array"): "certify",
    ("sine", "inverse_lift", "scalar"): "sweep",  # Newton solves under Inverse.lift
    ("sine", "inverse_lift", "array"): "certify",
    ("composition", "lift", "scalar"): "sweep",  # fixed-point bisection on words
    ("composition", "lift", "array"): "certify",  # perturbed generators
    ("composition", "deriv", "scalar"): "sweep",
    ("composition", "deriv", "array"): "certify",
    ("composition", "inverse_lift", "scalar"): "sweep",
    ("composition", "inverse_lift", "array"): "certify",
    ("inverse", "lift", "scalar"): "sweep",  # inverse-IFS branches
    ("inverse", "lift", "array"): "certify",
    ("inverse", "deriv", "scalar"): "sweep",
    ("inverse", "deriv", "array"): "certify",
    ("inverse", "inverse_lift", "scalar"): "sweep",
    ("inverse", "inverse_lift", "array"): "certify",
}


def kernel_maps(circle_maps) -> dict:
    sine = circle_maps.SinePerturbed(0.0, -0.5)
    return {
        "rotation": circle_maps.Rotation(GOLDEN),
        "sine": sine,
        "composition": circle_maps.Composition([circle_maps.Rotation(GOLDEN), sine]),
        "inverse": circle_maps.Inverse(sine),
    }


def _batch_ns(fn, x, calls: int) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        fn(x)
    return (time.perf_counter() - t0) * 1e9 / calls


def ns_per_call(fn, x, batch_s: float) -> float:
    """Median over BATCHES of the mean call time, batches of >= batch_s."""
    calls = 1
    while _batch_ns(fn, x, calls) * calls < batch_s * 1e9:
        calls *= 2
    return statistics.median(_batch_ns(fn, x, calls) for _ in range(BATCHES))


def metric_name(kind: str, method: str, shape: str) -> str:
    return f"circle_maps.{kind}.{method}.ns_per_point.{shape}"


def run_kernels(circle_maps, batch_s: float = BATCH_S) -> dict[str, float]:
    """`circle_maps.<kind>.<method>.ns_per_point.{scalar,array}` for every
    (kind, method, shape) in USES."""
    maps = kernel_maps(circle_maps)
    scalar = 0.3
    array = np.arange(ARRAY_POINTS) / ARRAY_POINTS
    out = {}
    for kind, method, shape in USES:
        fn = getattr(maps[kind], method)
        if shape == "scalar":
            value = ns_per_call(fn, scalar, batch_s)
        else:
            value = ns_per_call(fn, array, batch_s) / ARRAY_POINTS
        out[metric_name(kind, method, shape)] = value
    return out
