#!/usr/bin/env python3
"""Layered benchmark of circle_ifs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Runs one workload (classify, sweep, markov or certify; see workloads.py)
from the repository root, against the sources in `src/`, repeating it for
about `--seconds` seconds (at least three times) and checking every output.

With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json:
set-up time (median of fresh interpreters importing circle_ifs and building
the workload's maps and models), the median time of a repetition, peak
resident memory, and the median and 75th percentile over the workload's
items of each item's median time.  Those times are in reference seconds
(calibrate.py): each stretch of a run is scaled by the speed at which the
host ran a fixed reference loop right before and after it, so that the
host's swings between fast and slow states do not show as changes of the
program.  The report on stderr gives the raw wall times as well.
With `--trace 1` it alternates untraced and traced
repetitions and reports the per-layer metrics (spans.py), the L0 kernel
block (kernels.py) and the change against the seed-output snapshot
(snapshot.py).  `--smoke` runs toy sizes for the benchmark's own tests.

A human-readable report goes to stderr; stdout ends with a provenance line
and then one JSON line: {"correct", "attempted", "failed", "metrics"}.
fail_frac, the share of failed checks, is failed / attempted.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import kernels  # noqa: E402
import snapshot  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Rep, run_rep  # noqa: E402

MIN_REPS = 3
SETUP_REPEATS = 9
# numpy is imported before the clock starts: its import is not the
# program's set-up, and it reads enough files to swing with the host's
# file cache (setup medians moved by a third between runs that included it).
# The reference loop runs right before and after the timed part.
SETUP_SCRIPT = """
import sys, time
import numpy
sys.path.insert(0, sys.argv[1])
from calibrate import reference_loop, reference_seconds

def reference():
    t = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t

reference()
before = reference()
t0 = time.perf_counter()
from circle_ifs import cli
from circle_ifs.circle_maps import map_from_json
from circle_ifs.ifs_core import IFS
from circle_ifs.symbolic import model_from_json
for path in sys.argv[2:]:
    cfg = cli.load_config(path)
    IFS([map_from_json(g) for g in cfg["generators"]])
    model_from_json(cfg["model"])
t1 = time.perf_counter()
print(reference_seconds(t1 - t0, before, reference()))
"""
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "item_s_p50": "s",
    "item_s_p75": "s",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no circle_ifs sources to benchmark."""


def workload_names() -> list[str]:
    return list(WORKLOADS)


def per_layer_names() -> list[str]:
    """Every metric of a traced run, in report order."""
    return [
        *spans.Tracer({}).aggregate(),
        *(kernels.metric_name(*key) for key in kernels.USES),
        "cli.output_bytes",
        "cli.bytes_changed",
        "trace.overhead_s",
    ]


def load_program() -> dict:
    """Import circle_ifs from this checkout's src/, never from elsewhere."""
    init = SRC / "circle_ifs" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"{init.relative_to(ROOT)} not found")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("circle_ifs")
    if Path(package.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"circle_ifs imported from {package.__file__}")
    modules = {"package": package}
    for layer in spans.LAYERS:
        modules[layer] = importlib.import_module(f"circle_ifs.{layer}")
    return modules


class Session:
    """Loaded program plus a scratch directory inside the checkout."""

    def __init__(self, workdir: Path, modules: dict | None = None):
        self.modules = modules or load_program()
        self.workdir = workdir

    def paths(self, name: str, seed: int, size: str) -> dict[str, str]:
        """Write the workload's configs; label -> path."""
        paths = {}
        for label, cfg in WORKLOADS[name].configs(seed, size).items():
            path = self.workdir / f"{name}-{label}-{seed}-{size}.json"
            path.write_text(json.dumps(cfg))
            paths[label] = str(path)
        return paths

    def rep(self, name: str, seed: int, size: str = "full", tracer=None, clock=None) -> Rep:
        gc.collect()
        rep = Rep(self.modules, self.workdir, seed, size)
        return run_rep(WORKLOADS[name], rep, self.paths(name, seed, size), tracer, clock)

    def tracer(self) -> spans.Tracer:
        return spans.Tracer(self.modules)


def single_rep(name: str, seed: int, size: str = "full") -> Rep:
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        return Session(Path(tmp)).rep(name, seed, size)


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


def measure_setup(paths: list[str], repeats: int = SETUP_REPEATS) -> float:
    """Median over fresh interpreters of import + config load + construction,
    in reference seconds, after one untimed interpreter has warmed the file
    cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(HERE), *paths],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times[1:])


def quartiles(values: list[float]) -> tuple[float, float]:
    """(median, 75th percentile); a single value stands for both."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[1], q[2]


def item_quartiles(reps: list[Rep]) -> tuple[float, float]:
    """Each item's median over the repetitions, then (median, 75th
    percentile) over the items."""
    return quartiles([statistics.median(times) for times in zip(*(rep.items for rep in reps))])


def repeat(run_once, seconds: float, min_reps: int) -> list:
    """Call run_once() at least min_reps times, and again while another
    call of typical length still ends within `seconds`."""
    results, durations = [], []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(run_once())
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - t0
        if len(results) >= min_reps and elapsed + statistics.median(durations) > seconds:
            return results


def check_repeatable(reps: list[Rep]) -> None:
    """Every repetition, traced or not, must print the first one's bytes."""
    for rep in reps[1:]:
        rep.check(rep.outputs == reps[0].outputs, "outputs differ between repetitions")


def timed_run(session: Session, name: str, seed: int, size: str,
              seconds: float) -> tuple[dict, list[Rep]]:
    paths = session.paths(name, seed, size)
    setup_s = measure_setup(list(paths.values()), SETUP_REPEATS if size == "full" else 1)
    first: list[Rep] = []

    def run_once() -> Rep:
        rep = session.rep(name, seed, size, clock=clock)
        if not first:
            first.append(rep)
        else:
            check_repeatable([first[0], rep])
            # One copy of the outputs is kept, so that peak memory does not
            # grow with the number of repetitions that fit in the run.
            rep.outputs, rep.captured = {}, {}
        return rep

    with calibrate.HostClock() as clock:
        reps = repeat(run_once, seconds, MIN_REPS if size == "full" else 1)
    p50, p75 = item_quartiles(reps)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(rep.wall_s for rep in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "item_s_p50": p50,
        "item_s_p75": p75,
    }
    return metrics, reps


def traced_run(session: Session, name: str, seed: int, size: str,
               seconds: float) -> tuple[dict, list[Rep], list]:
    tracer = session.tracer()
    pairs = []

    def pair():
        untraced = session.rep(name, seed, size)
        tracer.clear()
        traced = session.rep(name, seed, size, tracer)
        metrics, table = tracer.aggregate(), tracer.span_table()
        tracer.clear()
        pairs.append((untraced, traced, metrics, table))

    repeat(pair, seconds, 1)
    reps = [r for untraced, traced, _, _ in pairs for r in (untraced, traced)]
    check_repeatable(reps)
    metrics = {key: statistics.median(p[2][key] for p in pairs) for key in pairs[0][2]}
    metrics["trace.overhead_s"] = (statistics.median(t.wall_s for _, t, _, _ in pairs)
                                   - statistics.median(u.wall_s for u, _, _, _ in pairs))
    outputs = pairs[0][0].outputs
    metrics["cli.output_bytes"] = sum(len(text.encode()) for text in outputs.values())
    changed = 0
    if size == "full":
        workload = WORKLOADS[name]
        if workload.configs(seed, size) != workload.configs(DEFAULT_SEED, size):
            reference = session.rep(name, DEFAULT_SEED, size)
            reps.append(reference)
            outputs = reference.outputs
        stored = {k: v for k, v in snapshot.load().items() if k.startswith(f"{name}/")}
        changed = snapshot.bytes_changed(
            stored, {f"{name}/{label}": text for label, text in outputs.items()})
    metrics["cli.bytes_changed"] = changed
    metrics.update(kernels.run_kernels(session.modules["circle_maps"],
                                       kernels.BATCH_S if size == "full" else 0.0005))
    return {k: metrics[k] for k in per_layer_names()}, reps, pairs[0][3]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(name: str, seed: int, traced: bool, size: str, seconds: float,
               load_1m: float) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "size": size,
        "seconds": seconds,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_1m": load_1m,
    }


def report(name: str, metrics: dict, units: dict, reps: list[Rep], table: list | None) -> None:
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    err = sys.stderr
    err.write(f"== {name} (item = {WORKLOADS[name].item})\n")
    err.write("repetition times (s): " + " ".join(f"{r.wall_s:.3f}" for r in reps) + "\n")
    err.write("raw wall times (s):   " + " ".join(f"{r.raw_wall_s:.3f}" for r in reps) + "\n")
    for key, value in metrics.items():
        err.write(f"{key:58s} {value:16.6g} {units[key]}\n")
    err.write(f"{'fail_frac':58s} {failed / max(attempted, 1):16.6g} ratio"
              f"  ({failed} of {attempted} checks failed)\n")
    for rep in reps:
        for line in rep.failures:
            err.write(f"FAILED: {line}\n")
    if table is not None:
        layers = {layer: metrics[f"{layer}.self_s"] for layer in spans.LAYERS}
        top = max(layers, key=layers.get)
        err.write(f"dominant layer by self time: {top} ({layers[top]:.3f} s)\n")
        err.write("spans by self time (name, calls, total s, self s):\n")
        for span, stat in table[:20]:
            err.write(f"  {span:52s} {stat.calls:9d} {stat.total_s:10.4f} {stat.self_s:10.4f}\n")
        for (kind, method, shape), use in kernels.USES.items():
            err.write(f"  L0 {kind}.{method}.{shape} matches workload {use}\n")
    err.write(f"verdict: {'correct' if failed == 0 else 'INCORRECT'}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names())
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, one repetition")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    load_1m = os.getloadavg()[0]
    size = "smoke" if args.smoke else "full"
    # Turn SIGTERM into SystemExit so the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        modules = load_program()
    except (ProgramMissing, ImportError) as exc:
        sys.stderr.write(f"cannot load the program: {exc}\n")
        return 2

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        session = Session(Path(tmp), modules)
        table = None
        try:
            if args.trace:
                metrics, reps, table = traced_run(session, args.workload, args.seed, size,
                                                  args.seconds)
                units = {k: spans.metric_unit(k) for k in metrics}
            else:
                metrics, reps = timed_run(session, args.workload, args.seed, size, args.seconds)
                units = END_TO_END
        except Exception:
            sys.stderr.write(traceback.format_exc())
            return 1
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    report(args.workload, metrics, units, reps, table)
    print(json.dumps({"provenance": provenance(args.workload, args.seed, bool(args.trace),
                                               size, args.seconds, load_1m)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
