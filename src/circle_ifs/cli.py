"""Command-line surface: reproducible experiments from JSON configs.

Every run is fully determined by its config plus the --seed override.
Every command runs on one thread; --threads is accepted for compatibility
and ignored, so it never changes output bytes.  Outputs are canonical JSON
(sorted keys, shortest round-trip floats) or CSV, so identical configs give
byte-identical artifacts.  A command's `params` are the keys of its PARAMS
entry, each read by a strict cast or set to its default.

Exit codes: 0 success, 2 verification failure or config error (a missing or
malformed field of a config or certificate, or a params key outside the
command's table, reported with its path, e.g. `generators[1].a`, or an
`--out` path that cannot be written, at `out`), 3 search
exhaustion (including a Newton/bisection inverse solve that fails to
converge, circle_maps.ConvergenceFailure).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .certifier import (
    CertificatePair,
    ContractionFails,
    LengthExceeded,
    NoAttractingSide,
    RationalRotation,
    SearchExhausted,
    certify_robust_minimality,
    check_certificate,
    find_universal_word,
    perturb_map,
)
from .circle_maps import (
    _REQUIRED,
    MAX_POWER,
    Arc,
    ConvergenceFailure,
    _array,
    _FieldError,
    _finite,
    _integer,
    _object,
    _parsed,
    _string,
    map_from_json,
)
from .ifs_core import IFS, ORBIT_CAP, minimality_estimate, orbit_to_csv_rows
from .periodic_points import (
    HorizonExceeded,
    StageExhausted,
    density_sweep,
    find_contracted_fixed_arc,
    periodic_in_interval,
)
from .symbolic import SequenceModel, _rng, _seed, model_from_json
from .synchronization import (
    MAX_CELLS,
    MAX_LEVEL,
    START_LEVEL,
    CoverSearchExhausted,
    NoMinimalGenerator,
    Unpolarized,
    antonov_classify,
    detect_repellers,
    hitting_tail_check,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Canonical output
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        # float() first: numpy scalars would print as np.float64(...).
        return repr(float(v))
    return str(v)


def csv_text(header: list[str], columns: list) -> str:
    """CSV text of equally long columns under a header line, each cell by `_cell`."""
    cells = [map(_cell, col) for col in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, newline="")
    except OSError as exc:
        raise _FieldError("out", str(exc)) from exc


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------


def _read_json(path: str, name: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise _FieldError(name, str(exc)) from exc
    if not isinstance(raw, dict):
        raise _FieldError(name, "top level must be an object")
    return raw


def load_config(path: str) -> dict:
    raw = _read_json(path, "config")
    schema = _parsed(raw, "schema", lambda v: v)
    if schema != SCHEMA_VERSION:
        raise _FieldError("schema", f"expected {SCHEMA_VERSION}, got {schema!r}")
    if not _parsed(raw, "generators", _array(map_from_json)):
        raise _FieldError("generators", "must be a non-empty array of map objects")
    _parsed(raw, "model", model_from_json, None)
    _parsed(raw, "seed", _seed, None)
    _parsed(raw, "params", _object, None)
    raw["label"] = _parsed(raw, "label", _string, "")
    return raw


def _ifs_of(cfg: dict) -> IFS:
    return IFS([map_from_json(g) for g in cfg["generators"]], label=cfg["label"])


def _model_of(cfg: dict) -> SequenceModel:
    return _parsed(cfg, "model", model_from_json)


def _seed_option(text: str) -> int:
    """--seed, cast by the seed rule."""
    try:
        return _seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer in 0..2**64-1, got {text!r}") from None


# Largest count param (lengths, trials, grids, horizons).  A count sizes an
# array or a loop, so a far larger one would fail on memory or time instead
# of on its field; the largest in use is 200,000 letters.
MAX_COUNT = 10**6
_COUNT = _integer(1, MAX_COUNT)
# detect_repellers refines from START_LEVEL and needs START_LEVEL + 3 levels;
# past MAX_LEVEL the partition endpoints are no longer distinct floats.
_M_LEVELS = _integer(START_LEVEL + 3, MAX_LEVEL)


def _non_negative(value) -> float:
    """Cast a finite int or float >= 0 (not a bool or a string) to float."""
    if type(value) not in (int, float) or not 0.0 <= value < math.inf:
        raise ValueError(f"must be a non-negative number, got {value!r}")
    return float(value)


def _positive(value) -> float:
    """Cast a positive finite int or float (not a bool or a string) to float."""
    if type(value) not in (int, float) or not 0.0 < value < math.inf:
        raise ValueError(f"must be a positive number, got {value!r}")
    return float(value)


def _orbit_eps(value) -> float:
    """A positive eps that an orbit of ORBIT_CAP points can pass: each point
    lies within eps of at most 5 targets of the eps/2 grid."""
    eps = _positive(value)
    if eps < 2.0 / (5 * ORBIT_CAP):
        raise ValueError(f"must be >= {2.0 / (5 * ORBIT_CAP)!r}, got {value!r}")
    return eps


def _bool(value) -> bool:
    """Accept only true or false (not a number or a string)."""
    if type(value) is not bool:
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _n_grid(value) -> list[int] | None:
    grid = None if value is None else _array(_COUNT)(value)
    if grid == []:
        raise ValueError("must be a non-empty array")
    return grid


def _bound_cells(p: dict, rows: str, columns: int) -> None:
    """Reject p[rows] x columns letter cells above MAX_CELLS, at params.<rows>."""
    if p[rows] * columns > MAX_CELLS:
        raise _FieldError(f"params.{rows}", f"{p[rows]} x {columns} letters exceeds {MAX_CELLS} cells")


def _perturbable(value) -> str:
    if value not in [name for name in HANDLERS if name != "perturb"]:
        raise ValueError(f"unknown or non-perturbable {value!r}")
    return value


# command -> {params key: (cast, default)}; _REQUIRED marks a key without one.
PARAMS = {
    "simulate-orbit": {"length": (_integer(0, MAX_COUNT), 1000), "x": (_finite, 0.0)},
    "estimate-minimality": {
        "eps": (_orbit_eps, 0.01), "start_grid": (_COUNT, 16), "depth": (_COUNT, 10_000),
    },
    "classify": {
        "n_pairs": (_COUNT, 500), "sync_horizon": (_COUNT, 2000), "tol_sync": (_positive, 1e-3),
        "n_seeds": (_COUNT, 20), "word_length": (_COUNT, 5000), "m_levels": (_M_LEVELS, 10),
        "check_minimality": (_bool, False),
    },
    "detect-repellers": {"word_length": (_COUNT, 5000), "m_levels": (_M_LEVELS, 12)},
    "tail-bound": {
        "target": (Arc.from_json, _REQUIRED), "x": (_finite, 0.0), "n_grid": (_n_grid, None),
        "n_trials": (_COUNT, 10_000), "minimal_index": (_integer(0), 0),
    },
    "certify": {
        "n_max": (_integer(1, MAX_POWER), 10_000), "deriv_margin": (_finite, 0.01),
        "min_margin": (_non_negative, 1e-4),
    },
    "universal-word": {
        "target": (Arc.from_json, _REQUIRED), "z_grid": (_COUNT, 1000), "max_len": (_COUNT, 500),
    },
    "find-periodic": {"horizon": (_COUNT, 512), "target": (Arc.from_json, _REQUIRED)},
    "density-sweep": {"mesh": (_COUNT, 20), "horizon": (_COUNT, 512)},
    "perturb": {
        "size": (_non_negative, _REQUIRED), "command": (_perturbable, _REQUIRED),
        "perturb_seed": (_seed, 0), "params": (_object, {}),
    },
}


def _params(cfg: dict, command: str) -> dict:
    """The params of `command`, each cast by its PARAMS entry or defaulted;
    a key missing from the command's table is a config error."""
    table = PARAMS[command]
    params = cfg.get("params", {})
    for key in params:
        if key not in table:
            raise _FieldError(f"params.{key}", f"not a parameter of {command}")
    try:
        return {key: _parsed(params, key, *entry) for key, entry in table.items()}
    except _FieldError as exc:
        raise _FieldError(f"params.{exc.path}", exc.reason) from exc


# ---------------------------------------------------------------------------
# Command handlers: (config, seed) -> (text, exit_code)
# ---------------------------------------------------------------------------


def _cmd_simulate_orbit(cfg: dict, seed: int) -> tuple[str, int]:
    p = _params(cfg, "simulate-orbit")
    ifs = _ifs_of(cfg)
    letters = _model_of(cfg).sample_matrix(1, p["length"], seed)[0].tolist()
    points = orbit_to_csv_rows(ifs, letters, p["x"])
    # One f-string per row: repr of a Python float and the letter's ",a,"
    # from a table give `csv_text`'s bytes at a fraction of its cost.
    tag = [f",{a}," for a in range(ifs.k + 1)]
    rows = [f"{n}{tag[a]}{x!r}\n" for n, a, x in zip(range(1, p["length"] + 1), letters, points)]
    return "n,letter,point\n" + "".join(rows), 0


def _cmd_estimate_minimality(cfg: dict, seed: int) -> tuple[str, int]:
    kwargs = _params(cfg, "estimate-minimality")
    ifs = _ifs_of(cfg)
    out = {
        "label": cfg["label"],
        "params": kwargs,
        "forward": minimality_estimate(ifs, **kwargs).to_json(),
        "backward": minimality_estimate(ifs.inverse_ifs(), **kwargs).to_json(),
    }
    return canonical_json(out), 0


def _cmd_classify(cfg: dict, seed: int) -> tuple[str, int]:
    p = _params(cfg, "classify")
    _bound_cells(p, "n_pairs", p["sync_horizon"])
    result = antonov_classify(_ifs_of(cfg), _model_of(cfg), seed=seed, **p)
    return canonical_json(result.to_json()), 0


def _cmd_detect_repellers(cfg: dict, seed: int) -> tuple[str, int]:
    p = _params(cfg, "detect-repellers")
    word = _model_of(cfg).sample(p["word_length"], seed)
    est = detect_repellers(_ifs_of(cfg), word, m_levels=p["m_levels"])
    return canonical_json(est.to_json()), 0


def _cmd_tail_bound(cfg: dict, seed: int) -> tuple[str, int]:
    p = _params(cfg, "tail-bound")
    ifs = _ifs_of(cfg)
    if p["minimal_index"] >= ifs.k:  # k comes from the config
        raise _FieldError("params.minimal_index", f"must be in 0..{ifs.k - 1}")
    # hitting_tail_check bounds n_trials x max(n_grid), at params.n_trials once ell is known.
    try:
        report = hitting_tail_check(ifs, _model_of(cfg), seed=seed, **p)
    except _FieldError as exc:
        raise _FieldError(f"params.{exc.path}", exc.reason) from exc
    text = csv_text(["n", "empirical_miss", "bound", "stderr"], report.to_csv_columns())
    return text, 0 if report.dominated else 2


def _cmd_certify(cfg: dict, seed: int) -> tuple[str, int]:
    p = _params(cfg, "certify")
    gens = [map_from_json(g) for g in cfg["generators"]]
    if len(gens) != 2:
        raise _FieldError("generators", "certify expects exactly two maps")
    pair = certify_robust_minimality(*gens, label=cfg["label"], **p)
    return canonical_json(pair.to_json()), 0


def _cmd_certify_check(path: str) -> tuple[str, int]:
    # Read as the field "certificate", so every path starts with that name.
    blob = {"certificate": _read_json(path, "certificate")}
    pair = _parsed(blob, "certificate", CertificatePair.from_json)
    ok_f, rev_f = check_certificate(pair.forward)
    ok_b, rev_b = check_certificate(pair.backward)
    out = {
        "forward": {"ok": ok_f, "margins": rev_f.margins},
        "backward": {"ok": ok_b, "margins": rev_b.margins},
        "ok": ok_f and ok_b,
    }
    return canonical_json(out), 0 if (ok_f and ok_b) else 2


def _cmd_universal_word(cfg: dict, seed: int) -> tuple[str, int]:
    res = find_universal_word(_ifs_of(cfg), **_params(cfg, "universal-word"))
    out = {
        "word": res.word.to_json(),
        "length": len(res.word),
        "capture_times": list(res.capture_times),
        "z_grid": res.z_grid,
        "fine_verified": res.fine_verified,
        "target": res.target.to_json(),
        "shrunk_target": res.shrunk_target.to_json(),
    }
    return canonical_json(out), 0


def _cmd_find_periodic(cfg: dict, seed: int) -> tuple[str, int]:
    p = _params(cfg, "find-periodic")
    ifs = _ifs_of(cfg)
    attractor = find_contracted_fixed_arc(ifs, _model_of(cfg), seed, horizon=p["horizon"])
    rec = periodic_in_interval(ifs, p["target"], attractor)
    return canonical_json(rec.to_json()), 0


def _cmd_density_sweep(cfg: dict, seed: int) -> tuple[str, int]:
    report = density_sweep(
        _ifs_of(cfg), model=_model_of(cfg), seed=seed, **_params(cfg, "density-sweep")
    )
    errors = (f"arc {r.arc_index} {r.stability}: {r.error}\n" for r in report.rows if r.error)
    sys.stderr.writelines(errors)
    header = ["arc_index", "stability", "found", "word_length", "residual", "multiplier"]
    return csv_text(header, report.to_csv_columns()), 0


def _cmd_perturb(cfg: dict, seed: int) -> tuple[str, int]:
    p = _params(cfg, "perturb")
    if p["command"] == "certify" and p["size"] > 0.0:
        raise _FieldError(
            "params.command",
            "certify needs a rotation first generator, and a size > 0 perturbs it "
            "into a composition",
        )
    new_gens = []
    for i, gj in enumerate(cfg["generators"]):
        rng = _rng(p["perturb_seed"], 7000 + i)
        try:
            new_gens.append(perturb_map(map_from_json(gj), p["size"], rng).to_json())
        except ValueError as exc:  # a bump too large for a diffeomorphism
            raise _FieldError("params.size", str(exc)) from exc
    inner_cfg = dict(cfg, generators=new_gens, params=p["params"])
    try:
        return HANDLERS[p["command"]](inner_cfg, seed)
    except _FieldError as exc:  # the inner params sit at params.params
        if exc.path.startswith("params."):
            raise _FieldError(f"params.{exc.path}", exc.reason) from exc
        raise


HANDLERS = {
    "simulate-orbit": _cmd_simulate_orbit,
    "estimate-minimality": _cmd_estimate_minimality,
    "classify": _cmd_classify,
    "detect-repellers": _cmd_detect_repellers,
    "tail-bound": _cmd_tail_bound,
    "certify": _cmd_certify,
    "universal-word": _cmd_universal_word,
    "find-periodic": _cmd_find_periodic,
    "density-sweep": _cmd_density_sweep,
    "perturb": _cmd_perturb,
}

_EXHAUSTION = (
    SearchExhausted, StageExhausted, HorizonExceeded, LengthExceeded, CoverSearchExhausted,
    ConvergenceFailure,
)
# A model that breaks its invariant (InvalidModel) is a config error of `model`.
_VERIFICATION = (
    ContractionFails, NoAttractingSide, RationalRotation, NoMinimalGenerator, Unpolarized,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="circle-ifs",
        description="Simulation and certification toolkit for circle-map IFSs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=_seed_option, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility and ignored (runs on one thread)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if name == "certify":
            p.add_argument("--check", default=None, metavar="FILE",
                           help="re-verify an existing certificate file")
    args = parser.parse_args(argv)

    try:
        if args.command == "certify" and args.check is not None:
            text, code = _cmd_certify_check(args.check)
        else:
            if args.config is None:
                raise _FieldError("config", "--config is required")
            cfg = load_config(args.config)
            seed = args.seed if args.seed is not None else cfg.get("seed", 0)
            text, code = HANDLERS[args.command](cfg, seed)
        _emit(text, args.out)
    except _FieldError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except _EXHAUSTION as exc:
        sys.stderr.write(f"search exhausted: {exc}\n")
        return 3
    except _VERIFICATION as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
