"""Command-line surface: reproducible experiments from JSON configs.

Every run is fully determined by its config plus the --seed override.
Every command runs on one thread; --threads is accepted for compatibility
and ignored, so it never changes output bytes.  Outputs are canonical JSON
(sorted keys, shortest round-trip floats) or CSV, so identical configs give
byte-identical artifacts.

Exit codes: 0 success, 2 verification failure (including config schema
violations), 3 search exhaustion (including a Newton/bisection inverse solve
that fails to converge, circle_maps.ConvergenceFailure).
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
from .circle_maps import Arc, ConvergenceFailure, map_from_json
from .ifs_core import IFS, minimality_estimate, orbit_to_csv_rows
from .periodic_points import (
    HorizonExceeded,
    StageExhausted,
    density_sweep,
    find_contracted_fixed_arc,
    periodic_in_interval,
)
from .symbolic import InvalidModel, SequenceModel, _rng, model_from_json
from .synchronization import (
    START_LEVEL,
    CoverSearchExhausted,
    NoMinimalGenerator,
    Unpolarized,
    antonov_classify,
    detect_repellers,
    hitting_tail_check,
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Config violation, reported with the offending field path."""


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
    """CSV text of equally long columns under a header line.  Each column
    gets one formatter: `str` if every cell is an int, `repr` if every cell
    is a Python float, else `_cell`; all three give `_cell`'s bytes."""
    cells = []
    for col in columns:
        kinds = set(map(type, col))
        fmt = str if kinds <= {int} else repr if kinds <= {float} else _cell
        cells.append(map(fmt, col))
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, newline="")


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------


def _field(cfg: dict, key: str, path: str, required: bool = True, default=None):
    if key not in cfg:
        if required:
            raise ConfigError(f"{path}{key}: missing required field")
        return default
    return cfg[key]


def load_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    schema = _field(raw, "schema", "")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"schema: expected {SCHEMA_VERSION}, got {schema!r}")
    gens = _field(raw, "generators", "")
    if not isinstance(gens, list) or not gens:
        raise ConfigError("generators: must be a non-empty array of map objects")
    for i, g in enumerate(gens):
        try:
            map_from_json(g)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"generators[{i}]: {exc}") from exc
    if "model" in raw:
        try:
            model_from_json(raw["model"])
        except (InvalidModel, KeyError, TypeError) as exc:
            raise ConfigError(f"model: {exc}") from exc
    seed = raw.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise ConfigError("seed: must be a non-negative integer")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params: must be an object")
    return raw


def _ifs_of(cfg: dict) -> IFS:
    return IFS(
        [map_from_json(g) for g in cfg["generators"]], label=cfg.get("label", "")
    )


def _model_of(cfg: dict) -> SequenceModel:
    if "model" not in cfg:
        raise ConfigError("model: required by this command")
    return model_from_json(cfg["model"])


def _param(params: dict, key: str, cast, default):
    """params[key] (or default) converted by cast; bad values are config errors."""
    value = params.get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"params.{key}: {exc}") from exc


def _at_least(lo: int, hi: int | None = None):
    """Cast an int, or an integral float, to an integer >= lo (and <= hi
    when given).  Bools, strings and non-integral floats are rejected."""

    def cast(value) -> int:
        n = int(value) if type(value) in (int, float) else None
        if n is None or n != value or n < lo or (hi is not None and n > hi):
            bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise ValueError(f"must be an integer {bound}, got {value!r}")
        return n

    return cast


def _finite(value) -> float:
    """Cast a finite int or float (not a bool or a string) to float."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {value!r}")
    return float(value)


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


def _bool(value) -> bool:
    """Accept only true or false (not a number or a string)."""
    if type(value) is not bool:
        raise ValueError(f"must be true or false, got {value!r}")
    return value


# detect_repellers refines from START_LEVEL and needs START_LEVEL + 3 levels.
_M_LEVELS = _at_least(START_LEVEL + 3)


def _n_grid(value) -> list[int] | None:
    if value is not None and not (
        isinstance(value, list) and value and all(type(n) is int and n >= 1 for n in value)
    ):
        raise ValueError(f"must be a non-empty list of integers >= 1, got {value!r}")
    return value


def _arc_param(params: dict, key: str, path: str) -> Arc:
    obj = _field(params, key, path)
    try:
        return Arc(_finite(obj["start"]), _finite(obj["length"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}{key}: {exc}") from exc


# ---------------------------------------------------------------------------
# Command handlers: (config, seed) -> (text, exit_code)
# ---------------------------------------------------------------------------


def _cmd_simulate_orbit(cfg: dict, seed: int) -> tuple[str, int]:
    params = cfg.get("params", {})
    ifs = _ifs_of(cfg)
    model = _model_of(cfg)
    length = _param(params, "length", _at_least(0), 1000)
    x = _param(params, "x", _finite, 0.0)
    letters = model.sample_matrix(1, length, seed)[0].tolist()
    points = orbit_to_csv_rows(ifs, letters, x)
    return csv_text(["n", "letter", "point"], [range(1, length + 1), letters, points]), 0


def _cmd_estimate_minimality(cfg: dict, seed: int) -> tuple[str, int]:
    params = cfg.get("params", {})
    ifs = _ifs_of(cfg)
    kwargs = dict(
        eps=_param(params, "eps", _positive, 0.01),
        start_grid=_param(params, "start_grid", _at_least(1), 16),
        depth=_param(params, "depth", _at_least(1), 10_000),
    )
    fwd = minimality_estimate(ifs, **kwargs)
    bwd = minimality_estimate(ifs.inverse_ifs(), **kwargs)
    out = {
        "label": cfg.get("label", ""),
        "params": kwargs,
        "forward": fwd.to_json(),
        "backward": bwd.to_json(),
    }
    return canonical_json(out), 0


def _cmd_classify(cfg: dict, seed: int) -> tuple[str, int]:
    params = cfg.get("params", {})
    result = antonov_classify(
        _ifs_of(cfg),
        _model_of(cfg),
        n_pairs=_param(params, "n_pairs", _at_least(1), 500),
        sync_horizon=_param(params, "sync_horizon", _at_least(1), 2000),
        tol_sync=_param(params, "tol_sync", _positive, 1e-3),
        n_seeds=_param(params, "n_seeds", _at_least(1), 20),
        word_length=_param(params, "word_length", _at_least(1), 5000),
        m_levels=_param(params, "m_levels", _M_LEVELS, 10),
        seed=seed,
        check_minimality=_param(params, "check_minimality", _bool, False),
    )
    return canonical_json(result.to_json()), 0


def _cmd_detect_repellers(cfg: dict, seed: int) -> tuple[str, int]:
    params = cfg.get("params", {})
    model = _model_of(cfg)
    word = model.sample(_param(params, "word_length", _at_least(1), 5000), seed)
    est = detect_repellers(
        _ifs_of(cfg), word, m_levels=_param(params, "m_levels", _M_LEVELS, 12)
    )
    return canonical_json(est.to_json()), 0


def _cmd_tail_bound(cfg: dict, seed: int) -> tuple[str, int]:
    params = cfg.get("params", {})
    ifs = _ifs_of(cfg)
    report = hitting_tail_check(
        ifs,
        _model_of(cfg),
        _arc_param(params, "target", "params."),
        x=_param(params, "x", _finite, 0.0),
        n_grid=_param(params, "n_grid", _n_grid, None),
        n_trials=_param(params, "n_trials", _at_least(1), 10_000),
        seed=seed,
        minimal_index=_param(params, "minimal_index", _at_least(0, ifs.k - 1), 0),
    )
    text = csv_text(
        ["n", "empirical_miss", "bound", "stderr"], report.to_csv_columns()
    )
    return text, 0 if report.dominated else 2


def _cmd_certify(cfg: dict, seed: int) -> tuple[str, int]:
    params = cfg.get("params", {})
    gens = [map_from_json(g) for g in cfg["generators"]]
    if len(gens) != 2:
        raise ConfigError("generators: certify expects exactly two maps")
    pair = certify_robust_minimality(
        gens[0],
        gens[1],
        n_max=_param(params, "n_max", _at_least(1), 10_000),
        deriv_margin=_param(params, "deriv_margin", _finite, 0.01),
        min_margin=_param(params, "min_margin", _non_negative, 1e-4),
        label=cfg.get("label", ""),
    )
    return canonical_json(pair.to_json()), 0


def _cmd_certify_check(path: str) -> tuple[str, int]:
    try:
        blob = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"certificate: {exc}") from exc
    if not isinstance(blob, dict):
        raise ConfigError("certificate: top level must be an object")
    try:
        pair = CertificatePair.from_json(blob)
    except ValueError as exc:
        raise ConfigError(f"certificate.{exc}") from exc
    ok_f, rev_f = check_certificate(pair.forward)
    ok_b, rev_b = check_certificate(pair.backward)
    out = {
        "forward": {"ok": ok_f, "margins": rev_f.margins},
        "backward": {"ok": ok_b, "margins": rev_b.margins},
        "ok": ok_f and ok_b,
    }
    return canonical_json(out), 0 if (ok_f and ok_b) else 2


def _cmd_universal_word(cfg: dict, seed: int) -> tuple[str, int]:
    params = cfg.get("params", {})
    res = find_universal_word(
        _ifs_of(cfg),
        _arc_param(params, "target", "params."),
        z_grid=_param(params, "z_grid", _at_least(1), 1000),
        max_len=_param(params, "max_len", _at_least(1), 500),
    )
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
    params = cfg.get("params", {})
    ifs = _ifs_of(cfg)
    model = _model_of(cfg)
    attractor = find_contracted_fixed_arc(
        ifs, model, seed, horizon=_param(params, "horizon", _at_least(1), 512)
    )
    rec = periodic_in_interval(ifs, _arc_param(params, "target", "params."), attractor)
    return canonical_json(rec.to_json()), 0


def _cmd_density_sweep(cfg: dict, seed: int) -> tuple[str, int]:
    params = cfg.get("params", {})
    report = density_sweep(
        _ifs_of(cfg),
        _param(params, "mesh", _at_least(1), 20),
        _model_of(cfg),
        seed,
        horizon=_param(params, "horizon", _at_least(1), 512),
    )
    text = csv_text(
        ["arc_index", "stability", "found", "word_length", "residual", "multiplier"],
        report.to_csv_columns(),
    )
    return text, 0


def _cmd_perturb(cfg: dict, seed: int) -> tuple[str, int]:
    params = cfg.get("params", {})
    size = _param(params, "size", _non_negative, None)
    inner_name = _field(params, "command", "params.")
    if inner_name not in HANDLERS or inner_name == "perturb":
        raise ConfigError(f"params.command: unknown or non-perturbable {inner_name!r}")
    perturb_seed = _param(params, "perturb_seed", _at_least(0), 0)
    inner_params = params.get("params", {})
    if not isinstance(inner_params, dict):
        raise ConfigError(f"params.params: must be an object, got {inner_params!r}")
    new_gens = []
    for i, gj in enumerate(cfg["generators"]):
        rng = _rng(perturb_seed, 7000 + i)
        try:
            new_gens.append(perturb_map(map_from_json(gj), size, rng).to_json())
        except ValueError as exc:  # a bump too large for a diffeomorphism
            raise ConfigError(f"params.size: {exc}") from exc
    inner_cfg = dict(cfg)
    inner_cfg["generators"] = new_gens
    inner_cfg["params"] = inner_params
    return HANDLERS[inner_name](inner_cfg, seed)


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
    SearchExhausted,
    StageExhausted,
    HorizonExceeded,
    LengthExceeded,
    CoverSearchExhausted,
    ConvergenceFailure,
)
_VERIFICATION = (
    ContractionFails,
    NoAttractingSide,
    RationalRotation,
    NoMinimalGenerator,
    Unpolarized,
    InvalidModel,
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
        p.add_argument("--seed", type=int, default=None, help="override config seed")
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
                raise ConfigError("config: --config is required")
            cfg = load_config(args.config)
            seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
            text, code = HANDLERS[args.command](cfg, seed)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except _EXHAUSTION as exc:
        sys.stderr.write(f"search exhausted: {exc}\n")
        return 3
    except _VERIFICATION as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 2
    _emit(text, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
