"""The four benchmark workloads: configs, timed execution and output checks.

Every workload runs on the golden-sine pair (the golden-mean rotation and
`SinePerturbed(0, -0.5)`) and calls the program the way a user does, through
`circle_ifs.cli.main` in-process, or through the public API where the
paper's procedure has no CLI command.  `execute` is the timed part; `verify`
checks the captured outputs afterwards, with tolerances taken from the
acceptance suite.  Program names are looked up on their modules at call
time so that a tracer installed on those modules sees the calls.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

GOLDEN = 0.6180339887498949
ROTATION = {"kind": "rotation", "alpha": GOLDEN}
SINE = {"kind": "sine", "a": 0.0, "b": -0.5}
# Commutes with the half-turn, so branches contract off two points.
SINE_HALF_TURN = {"kind": "sine", "a": 0.0, "b": -0.5, "harmonics": 2}
FAIR_COIN = {"kind": "bernoulli", "weights": [0.5, 0.5]}
MARKOV = {"kind": "markov", "rows": [[0.7, 0.3], [0.4, 0.6]]}
TARGET = {"start": 0.3, "length": 0.05}

# Tolerances of tests/test_acceptance.py.
TOL_RESIDUAL = 1e-9
MINIMALITY_EPS = 0.01
UNIVERSAL_MAX_LEN = 500
TAIL_SIGMAS = 3.0

# Perturbation draw i of the certify workload uses Philox key
# [PERTURB_KEY + seed - DEFAULT_SEED, i]; the default seed reproduces the
# acceptance suite's keys [2024, i].
DEFAULT_SEED = 7
PERTURB_KEY = 2024

# label -> (generators' second map, expected case, expected ell)
CLASSIFY_EXPECTED = {
    "golden-sine": (SINE, "case2", 1),
    "half-turn": (SINE_HALF_TURN, "case3", 2),
}

SIZES = {
    "full": {
        "classify": {},
        "sweep": {"mesh": 20},
        "tail": {"target": TARGET, "n_trials": 2000},
        "orbit": {"length": 200_000},
        "draws": 20,
    },
    "smoke": {
        "classify": {"n_pairs": 100, "sync_horizon": 400, "n_seeds": 3,
                     "word_length": 1000, "m_levels": 8},
        "sweep": {"mesh": 2},
        "tail": {"target": TARGET, "n_trials": 200},
        "orbit": {"length": 2000},
        "draws": 2,
    },
}


def config(label: str, seed: int, params: dict, *, sine=SINE, model=FAIR_COIN) -> dict:
    return {
        "schema": 1,
        "label": label,
        "generators": [ROTATION, sine],
        "model": model,
        "seed": seed,
        "params": params,
    }


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------


@dataclass
class Rep:
    """One execution of a workload and what it produced."""

    modules: dict
    workdir: Path
    seed: int
    size: str
    outputs: dict[str, str] = field(default_factory=dict)
    exit_codes: dict[str, tuple[int, str]] = field(default_factory=dict)
    # Each item is a list of (start, end) perf_counter readings; `items`
    # holds their lengths once the repetition has run (see run_rep).
    item_intervals: list[list[tuple[float, float]]] = field(default_factory=list)
    items: list[float] = field(default_factory=list)
    captured: dict[str, list] = field(default_factory=dict)
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def sizes(self) -> dict:
        return SIZES[self.size]

    def check(self, ok: bool, what: str) -> bool:
        self.tally(1 if ok else 0, 1, what)
        return ok

    def tally(self, n_ok: int, n_total: int, what: str) -> None:
        self.attempted += n_total
        if n_ok < n_total:
            self.failed += n_total - n_ok
            self.failures.append(f"{what} ({n_total - n_ok} of {n_total} failed)")

    def cli(self, label: str, argv: list[str]) -> str:
        """Run `circle-ifs argv --threads 1` in-process, keeping its stdout."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.modules["cli"].main([*argv, "--threads", "1"])
        self.exit_codes[label] = (code, err.getvalue().strip())
        self.outputs[label] = out.getvalue()
        return self.outputs[label]

    def check_exit_codes(self) -> None:
        for label, (code, err) in self.exit_codes.items():
            self.check(code == 0, f"{label}: exit code {code} {err}")


@contextlib.contextmanager
def timing_calls(owner, attr: str, sink: list[tuple[float, float]]):
    """Append the (start, end) of every call of owner.attr to sink."""
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append((t0, time.perf_counter()))

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextlib.contextmanager
def capturing_results(owner, attr: str, sink: list):
    """Append the return value of every call of owner.attr to sink."""
    original = getattr(owner, attr)

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(owner, attr, capture)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


def _number(cell: str) -> float:
    # density-sweep writes some residuals as the repr of a numpy float,
    # e.g. "np.float64(1.2e-13)"; the value is what is checked here.
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def classify_configs(seed: int, size: str) -> dict[str, dict]:
    params = SIZES[size]["classify"]
    return {
        label: config(label, seed, params, sine=sine)
        for label, (sine, _, _) in CLASSIFY_EXPECTED.items()
    }


def classify_execute(rep: Rep, paths: dict[str, str]) -> None:
    sync = rep.modules["synchronization"]
    detections = []
    with timing_calls(sync, "detect_repellers", detections):
        for label, path in paths.items():
            rep.cli(f"classify.{label}", ["classify", "--config", path])
    rep.item_intervals = [[d] for d in detections]


def classify_verify(rep: Rep) -> None:
    n_seeds = rep.sizes["classify"].get("n_seeds", 20)
    rep.check(len(rep.item_intervals) == n_seeds * len(CLASSIFY_EXPECTED),
              f"classify: {len(rep.item_intervals)} timed detections")
    for label, (_, case, ell) in CLASSIFY_EXPECTED.items():
        out = json.loads(rep.outputs[f"classify.{label}"] or "{}")
        rep.check(out.get("case") == case, f"classify.{label}: case {out.get('case')} != {case}")
        rep.check(out.get("ell") == ell, f"classify.{label}: ell {out.get('ell')} != {ell}")
        # Each per-seed detection must be polarized with the expected ell.
        matching = out.get("ell_counts", {}).get(str(ell), 0)
        rep.tally(matching, n_seeds, f"classify.{label}: detections polarized with ell={ell}")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep_configs(seed: int, size: str) -> dict[str, dict]:
    # The branch seed picks the attractor every construction starts from, and
    # the cost follows it (3 to 13 s at mesh 20 over seeds 0-15), so a
    # seed-dependent branch would make run-to-run spread measure the seed.
    # The sweep therefore always uses the default seed's branch.
    del seed
    return {"golden-sine": config("golden-sine", DEFAULT_SEED, SIZES[size]["sweep"])}


def sweep_execute(rep: Rep, paths: dict[str, str]) -> None:
    periodic = rep.modules["periodic_points"]
    reports = rep.captured.setdefault("density_sweep", [])
    constructions = rep.captured.setdefault("constructions", [])
    with timing_calls(periodic, "periodic_in_interval", constructions), \
            capturing_results(rep.modules["cli"], "density_sweep", reports):
        rep.cli("density-sweep", ["density-sweep", "--config", paths["golden-sine"]])
    # One item per arc: its attracting plus its repelling construction
    # (density_sweep runs every attracting arc first).  Single constructions
    # split into a cheap and an expensive cluster whose median is unstable.
    mesh = rep.sizes["sweep"]["mesh"]
    if len(constructions) == 2 * mesh:
        rep.item_intervals = [[a, r] for a, r in zip(constructions[:mesh], constructions[mesh:])]


def sweep_verify(rep: Rep) -> None:
    maps, ifs_core = rep.modules["circle_maps"], rep.modules["ifs_core"]
    mesh = rep.sizes["sweep"]["mesh"]
    timed = len(rep.captured.get("constructions", []))
    rep.check(timed == 2 * mesh, f"sweep: {timed} timed constructions")
    header, rows = _csv_rows(rep.outputs["density-sweep"])
    rep.check(header == ["arc_index", "stability", "found", "word_length", "residual",
                         "multiplier"], f"sweep: header {header}")
    reports = rep.captured.get("density_sweep", [])
    if not rep.check(len(rows) == 2 * mesh and len(reports) == 1,
                     f"sweep: {len(rows)} rows, {len(reports)} captured reports"):
        return
    ifs = ifs_core.IFS([maps.map_from_json(ROTATION), maps.map_from_json(SINE)])
    records = iter(reports[0].records)
    for k, row in enumerate(rows):
        side = "attracting" if k < mesh else "repelling"
        arc = maps.Arc(k % mesh / mesh, 1.0 / mesh)
        ok = (
            int(row[0]) == k % mesh
            and row[1] == side
            and row[2] == "1"
            and _number(row[4]) < TOL_RESIDUAL
            and (_number(row[5]) < 1.0 if side == "attracting" else _number(row[5]) > 1.0)
        )
        rec = next(records, None) if row[2] == "1" else None
        if ok and rec is not None:
            point = float(rec.point)
            image = float(ifs_core.branch_apply(ifs, rec.word, point))
            offset = (point - arc.start) % 1.0
            ok = (
                rec.stability == side
                and (offset <= arc.length + TOL_RESIDUAL or offset >= 1.0 - TOL_RESIDUAL)
                and maps.circle_distance(image, point) < TOL_RESIDUAL
            )
        rep.check(ok and rec is not None, f"sweep: arc {k % mesh} {side}: {row}")


# ---------------------------------------------------------------------------
# markov
# ---------------------------------------------------------------------------


def markov_configs(seed: int, size: str) -> dict[str, dict]:
    sizes = SIZES[size]
    return {
        "tail": config("golden-sine-markov", seed, sizes["tail"], model=MARKOV),
        "orbit": config("golden-sine-markov", seed, sizes["orbit"], model=MARKOV),
    }


def markov_execute(rep: Rep, paths: dict[str, str]) -> None:
    for label, command in (("tail", "tail-bound"), ("orbit", "simulate-orbit")):
        t0 = time.perf_counter()
        rep.cli(command, [command, "--config", paths[label]])
        rep.item_intervals.append([(t0, time.perf_counter())])


def markov_verify(rep: Rep) -> None:
    header, rows = _csv_rows(rep.outputs["tail-bound"])
    rep.check(header == ["n", "empirical_miss", "bound", "stderr"] and len(rows) == 10,
              f"tail-bound: header {header}, {len(rows)} rows")
    for row in rows:
        emp, bound, stderr = (float(v) for v in row[1:])
        rep.check(emp <= bound + TAIL_SIGMAS * stderr, f"tail-bound: row {row} not dominated")

    length = rep.sizes["orbit"]["length"]
    header, rows = _csv_rows(rep.outputs["simulate-orbit"])
    rep.check(header == ["n", "letter", "point"] and len(rows) == length,
              f"simulate-orbit: header {header}, {len(rows)} rows")
    points = np.array([float(r[2]) for r in rows])
    rep.check(bool(np.all((points >= 0.0) & (points < 1.0))), "simulate-orbit: point outside [0,1)")
    rep.check([int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
              and {r[1] for r in rows} <= {"1", "2"}, "simulate-orbit: n or letter column")
    # Replay a prefix of the orbit from its letters.
    maps = rep.modules["circle_maps"]
    gens = [maps.map_from_json(ROTATION), maps.map_from_json(SINE)]
    pos, replay_ok = 0.0, True
    for r in rows[:1000]:
        pos = float(gens[int(r[1]) - 1].lift(pos)) % 1.0
        replay_ok = replay_ok and pos == float(r[2])
    rep.check(replay_ok, "simulate-orbit: replayed prefix differs")


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def certify_configs(seed: int, size: str) -> dict[str, dict]:
    return {
        "certify": config("golden-sine", seed, {}),
        "universal-word": config("golden-sine", seed, {"target": TARGET}),
    }


def write_certificate(path: Path, text: str) -> None:
    """Stores the certificate between `certify` and `certify --check`."""
    path.write_text(text)


def certify_execute(rep: Rep, paths: dict[str, str]) -> None:
    m = rep.modules
    certifier, maps = m["certifier"], m["circle_maps"]
    cert_text = rep.cli("certify", ["certify", "--config", paths["certify"]])
    cert_path = rep.workdir / "certificate.json"
    write_certificate(cert_path, cert_text)
    rep.cli("certify.check", ["certify", "--check", str(cert_path)])
    rep.cli("estimate-minimality", ["estimate-minimality", "--config", paths["certify"]])
    rep.cli("universal-word", ["universal-word", "--config", paths["universal-word"]])
    if rep.exit_codes["certify"][0] != 0:
        return
    # Acceptance C2: the certificate survives perturbations at half its radius.
    pair = certifier.CertificatePair.from_json(json.loads(cert_text))
    g1, g2 = maps.map_from_json(ROTATION), maps.map_from_json(SINE)
    valid = rep.captured.setdefault("reverify", [])
    for i in range(rep.sizes["draws"]):
        key = np.array([PERTURB_KEY + rep.seed - DEFAULT_SEED, i], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        f1 = certifier.perturb_map(g1, pair.radius / 2.0, rng)
        f2 = certifier.perturb_map(g2, pair.radius / 2.0, rng)
        t0 = time.perf_counter()
        forward = certifier.reverify_certificate(pair.forward, f1, f2)
        backward = certifier.reverify_certificate(pair.backward, f1.inverse(), f2.inverse())
        rep.item_intervals.append([(t0, time.perf_counter())])
        valid += [forward.valid, backward.valid]


def certify_verify(rep: Rep) -> None:
    cert = json.loads(rep.outputs["certify"] or "{}")
    for side in ("forward", "backward"):
        margins = cert.get(side, {}).get("margins", {})
        rep.check(len(margins) == 4 and all(v > 0.0 for v in margins.values()),
                  f"certify: {side} margins {margins}")
    rep.check(cert.get("radius", 0.0) > 0.0, "certify: radius not positive")
    check = json.loads(rep.outputs["certify.check"] or "{}")
    rep.check(check.get("ok") is True, "certify --check: not ok")
    est = json.loads(rep.outputs["estimate-minimality"] or "{}")
    for side in ("forward", "backward"):
        res = est.get(side, {})
        rep.check(est.get("params", {}).get("eps") == MINIMALITY_EPS and res.get("minimal") is True
                  and res.get("worst_gap", 1.0) <= MINIMALITY_EPS,
                  f"estimate-minimality: {side} {res}")
    uw = json.loads(rep.outputs["universal-word"] or "{}")
    rep.check(uw.get("fine_verified") is True and 0 < uw.get("length", 0) <= UNIVERSAL_MAX_LEN,
              f"universal-word: fine_verified={uw.get('fine_verified')} length={uw.get('length')}")
    valid = rep.captured.get("reverify", [])
    expected = 2 * rep.sizes["draws"]
    rep.tally(sum(valid), expected, "perturbed re-verifications valid")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    item: str
    configs: Callable[[int, str], dict[str, dict]]
    execute: Callable[[Rep, dict[str, str]], None]
    verify: Callable[[Rep], None]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "classify",
            "one per-seed repeller detection",
            classify_configs, classify_execute, classify_verify,
        ),
        Workload(
            "sweep",
            "one arc's attracting and repelling constructions",
            sweep_configs, sweep_execute, sweep_verify,
        ),
        Workload(
            "markov",
            "one CLI command",
            markov_configs, markov_execute, markov_verify,
        ),
        Workload(
            "certify",
            "one perturbation draw re-verified forward and backward",
            certify_configs, certify_execute, certify_verify,
        ),
    )
}


def run_rep(workload: Workload, rep: Rep, paths: dict[str, str], tracer=None,
            clock=None) -> Rep:
    """Execute (timed, optionally traced), then verify the captured outputs.

    With a calibrate.HostClock running, wall_s and items are in reference
    seconds and raw_wall_s keeps the wall time; without one, all are wall
    seconds.
    """
    if tracer is not None:
        tracer.instrument()
    if clock is not None:
        clock.mark()
    t0 = time.perf_counter()
    try:
        workload.execute(rep, paths)
    except Exception:  # a crash is a failed check, reported with its traceback
        rep.check(False, f"{workload.name}: {traceback.format_exc()}")
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.restore()
    if clock is None:
        rep.wall_s = rep.raw_wall_s = t1 - t0
        rep.items = [sum(b - a for a, b in item) for item in rep.item_intervals]
    else:
        clock.mark()  # closes the stretch that holds t1
        rep.wall_s, rep.raw_wall_s = clock.seconds(t0, t1), clock.raw_seconds(t0, t1)
        rep.items = [sum(clock.seconds(a, b) for a, b in item) for item in rep.item_intervals]
    rep.check_exit_codes()
    try:
        workload.verify(rep)
    except Exception:
        rep.check(False, f"{workload.name} verify: {traceback.format_exc()}")
    return rep
