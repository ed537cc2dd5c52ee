import json
import math
import threading
from collections import namedtuple
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from circle_ifs import (certifier, circle_maps, cli, ifs_core, periodic_points, symbolic,
                        synchronization)
from circle_ifs.certifier import BasinData, Certificate, UniversalWordResult, reverify_certificate
from circle_ifs.circle_maps import (MAX_POWER, Arc, CirclePoint, ConvergenceFailure, Exhausted,
                                    Refuted)
from circle_ifs.cli import csv_text, main
from circle_ifs.ifs_core import MinimalityEstimate, orbit_to_csv_rows
from circle_ifs.periodic_points import PeriodicPointRecord, SweepRow
from circle_ifs.symbolic import Word
from circle_ifs.synchronization import RepellerEstimate, SyncReport, TrichotomyResult

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TARGET = {"start": 0.3, "length": 0.05}
SINE = {"kind": "sine", "a": 0.0, "b": -0.5}
POWER = {"kind": "power", "base": SINE, "exponent": 10**4}
MARKOV = {"kind": "markov", "rows": [[0.7, 0.3], [0.4, 0.6]]}
OrbitRow = namedtuple("OrbitRow", "n letter point")  # a simulate-orbit line


def golden_basin(**arc_b):
    """The forward basin of the golden certificate, with arc_B fields replaced."""
    basin = json.loads((GOLDEN_DIR / "certify_seed7.json").read_text())["forward"]["basin"]
    return dict(basin, arc_B=dict(basin["arc_B"], **arc_b))


def base_config(**params):
    return {
        "schema": 1,
        "label": "golden-sine",
        "generators": [
            {"kind": "rotation", "alpha": GOLDEN},
            {"kind": "sine", "a": 0.0, "b": -0.5},
        ],
        "model": {"kind": "bernoulli", "weights": [0.5, 0.5]},
        "seed": 7,
        "params": params,
    }


@pytest.fixture
def write_config(tmp_path):
    def _write(cfg, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    return _write


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigValidation:
    def test_unknown_generator_kind_reports_path(self, write_config, capsys):
        cfg = base_config()
        cfg["generators"] = [{"kind": "nope"}]
        code, _, err = run_cli(capsys, "estimate-minimality", "--config", write_config(cfg))
        assert code == 2
        assert "generators[0]" in err

    def test_non_object_generator_reports_path(self, write_config, capsys):
        cfg = base_config()
        cfg["generators"] = [3, cfg["generators"][1]]
        code, _, err = run_cli(capsys, "estimate-minimality", "--config", write_config(cfg))
        assert code == 2
        assert err == "config error: generators[0]: map must be an object, got 3\n"

    def test_wrong_schema_rejected(self, write_config, capsys):
        cfg = base_config()
        cfg["schema"] = 2
        code, _, err = run_cli(capsys, "classify", "--config", write_config(cfg))
        assert code == 2
        assert "schema" in err

    def test_bool_seed_rejected(self, write_config, capsys):
        cfg = base_config(length=3)
        cfg["seed"] = True
        code, out, err = run_cli(capsys, "simulate-orbit", "--config", write_config(cfg))
        assert code == 2
        assert out == ""
        assert err == "config error: seed: must be a non-negative integer\n"

    def test_seed_beyond_64_bits_rejected(self, write_config, capsys):
        # Philox keys by seed mod 2**64, so 2**64 would replay seed 0.
        cfg = base_config(length=3)
        cfg["seed"] = 2**64
        code, out, err = run_cli(capsys, "simulate-orbit", "--config", write_config(cfg))
        assert code == 2
        assert out == ""
        assert err == "config error: seed: must be below 2**64, got 18446744073709551616\n"

    @pytest.mark.parametrize("flag", ["-1", str(2**64), "7.0", "seven"])
    def test_seed_flag_outside_64_bits_exits_2(self, write_config, capsys, flag):
        # -1 would replay seed 2**64 - 1, and 2**64 seed 0.
        path = write_config(base_config(length=3))
        with pytest.raises(SystemExit) as exc:
            main(["simulate-orbit", "--config", path, "--seed", flag])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"argument --seed: must be an integer in 0..2**64-1, got '{flag}'" in captured.err

    def test_largest_seed_accepted(self, write_config, capsys):
        path = write_config(base_config(length=3))
        code, out, _ = run_cli(capsys, "simulate-orbit", "--config", path, "--seed", str(2**64 - 1))
        assert code == 0
        assert len(out.splitlines()) == 4

    @pytest.mark.parametrize("label", [[1, 2], 7, None])
    def test_non_string_label_exits_2(self, write_config, capsys, label):
        cfg = base_config(eps=0.05)
        cfg["label"] = label
        code, out, err = run_cli(capsys, "estimate-minimality", "--config", write_config(cfg))
        assert code == 2
        assert out == ""
        assert err == f"config error: label: must be a string, got {label!r}\n"

    def test_absent_label_reads_empty(self, write_config, capsys):
        cfg = base_config(eps=0.05)
        del cfg["label"]
        code, out, _ = run_cli(capsys, "estimate-minimality", "--config", write_config(cfg))
        assert code == 0
        assert json.loads(out)["label"] == ""

    def test_bad_model_reports_path(self, write_config, capsys):
        cfg = base_config()
        cfg["model"] = {"kind": "bernoulli", "weights": [1.0, 0.0]}
        code, _, err = run_cli(capsys, "classify", "--config", write_config(cfg))
        assert code == 2
        assert "model" in err


    @pytest.mark.parametrize("command, params, key", [
        ("certify", {"n_max": "abc"}, "n_max"),
        ("tail-bound", {"target": {"start": 0.3, "length": 0.05}, "n_grid": [0]}, "n_grid"),
        ("simulate-orbit", {"length": "x"}, "length"),
        ("classify", {"n_seeds": None}, "n_seeds"),
        ("estimate-minimality", {"eps": "0.1x"}, "eps"),
        ("simulate-orbit", {"length": -5}, "length"),
        ("estimate-minimality", {"eps": 0}, "eps"),
        ("classify", {"n_pairs": 0}, "n_pairs"),
        ("detect-repellers", {"m_levels": 5}, "m_levels"),
        ("tail-bound", {"target": {"start": 0.3, "length": 0.05}, "n_trials": 0}, "n_trials"),
        ("density-sweep", {"horizon": 0}, "horizon"),
        ("perturb", {"size": 0, "command": "detect-repellers", "params": [1]}, "params"),
        ("estimate-minimality", {"start_grid": 0}, "start_grid"),
        ("universal-word", {"target": {"start": 0.3, "length": 0.05}, "z_grid": 0}, "z_grid"),
        ("classify", {"n_seeds": 0}, "n_seeds"),
        ("classify", {"sync_horizon": 0}, "sync_horizon"),
        ("density-sweep", {"mesh": 0}, "mesh"),
        ("estimate-minimality", {"depth": 0}, "depth"),
        ("simulate-orbit", {"length": 2.7}, "length"),
        ("simulate-orbit", {"length": True}, "length"),
        ("simulate-orbit", {"length": "3"}, "length"),
        ("detect-repellers", {"m_levels": 6.5}, "m_levels"),
        # Past MAX_LEVEL (52) the partition endpoints collide as floats.
        ("detect-repellers", {"m_levels": 53}, "m_levels"),
        ("detect-repellers", {"m_levels": 100_000}, "m_levels"),
        ("classify", {"m_levels": 53}, "m_levels"),
        ("classify", {"m_levels": 100_000}, "m_levels"),
        ("classify", {"n_pairs": False}, "n_pairs"),
        ("estimate-minimality", {"eps": True}, "eps"),
        ("estimate-minimality", {"eps": "0.1"}, "eps"),
        ("estimate-minimality", {"eps": float("nan")}, "eps"),
        ("simulate-orbit", {"length": float("inf")}, "length"),
        ("tail-bound", {"target": TARGET, "x": True}, "x"),
        ("tail-bound", {"target": TARGET, "x": "0.5"}, "x"),
        ("simulate-orbit", {"x": float("nan")}, "x"),
        ("certify", {"deriv_margin": True}, "deriv_margin"),
        ("certify", {"deriv_margin": "0.01"}, "deriv_margin"),
        ("certify", {"min_margin": False}, "min_margin"),
        ("certify", {"min_margin": "1e-4"}, "min_margin"),
        ("certify", {"min_margin": -1e-3}, "min_margin"),
        ("universal-word", {"target": TARGET, "max_len": 2.7}, "max_len"),
        ("universal-word", {"target": TARGET, "max_len": 0}, "max_len"),
        ("certify", {"n_max": 2.7}, "n_max"),
        ("certify", {"n_max": 0}, "n_max"),
        ("certify", {"n_max": True}, "n_max"),
        # A certificate's exponents stop at MAX_POWER, and so does the search.
        ("certify", {"n_max": MAX_POWER + 1}, "n_max"),
        ("classify", {"n_pairs": cli.MAX_COUNT + 1}, "n_pairs"),
        # A product of two counts sizes one letter matrix: at most MAX_CELLS.
        ("classify", {"n_pairs": 10**6, "sync_horizon": 10**6}, "n_pairs"),
        ("classify", {"n_pairs": 10**4 + 1, "sync_horizon": 10**4}, "n_pairs"),
        ("tail-bound", {"target": TARGET, "n_trials": 10**6, "n_grid": [10**6]}, "n_trials"),
        ("tail-bound", {"target": TARGET, "n_trials": 10**4, "n_grid": [5, 10**4 + 1]}, "n_trials"),
        # The default grid reaches 10 ell = 15970 letters on a 1e-3 target.
        ("tail-bound", {"target": {"start": 0.3, "length": 1e-3}, "n_trials": 10**6}, "n_trials"),
        ("perturb", {"size": 0, "command": "classify",
                     "params": {"n_pairs": 10**6, "sync_horizon": 10**6}}, "params.n_pairs"),
        ("tail-bound", {"target": TARGET, "n_grid": [5, cli.MAX_COUNT + 1]}, "n_grid"),
        ("perturb", {"size": 0, "command": "detect-repellers", "perturb_seed": True}, "perturb_seed"),
        ("perturb", {"size": 0, "command": "detect-repellers", "perturb_seed": "3"}, "perturb_seed"),
        ("perturb", {"size": 0, "command": "detect-repellers", "perturb_seed": 1.5}, "perturb_seed"),
        ("perturb", {"size": 0, "command": "detect-repellers", "perturb_seed": 3.0}, "perturb_seed"),
        ("perturb", {"size": 0, "command": "detect-repellers", "perturb_seed": 2**64}, "perturb_seed"),
        ("tail-bound", {"target": TARGET, "minimal_index": 5}, "minimal_index"),
        ("tail-bound", {"target": TARGET, "minimal_index": 2}, "minimal_index"),
        ("tail-bound", {"target": TARGET, "minimal_index": -1}, "minimal_index"),
        ("tail-bound", {"target": TARGET, "minimal_index": True}, "minimal_index"),
        ("estimate-minimality", {"eps": float("inf")}, "eps"),
        ("estimate-minimality", {"eps": 1e-300}, "eps"),
        ("classify", {"tol_sync": float("inf")}, "tol_sync"),
        ("perturb", {"size": float("nan"), "command": "detect-repellers"}, "size"),
        ("perturb", {"size": float("inf"), "command": "detect-repellers"}, "size"),
        ("perturb", {"size": True, "command": "detect-repellers"}, "size"),
        ("perturb", {"size": 10, "command": "detect-repellers"}, "size"),
        ("classify", {"check_minimality": "no"}, "check_minimality"),
        ("classify", {"check_minimality": 0}, "check_minimality"),
        ("universal-word", {"target": {"start": True, "length": 0.05}}, "target"),
        ("tail-bound", {"target": {"start": float("nan"), "length": 0.05}}, "target"),
        ("find-periodic", {"target": {"start": 0.3, "length": "0.05"}}, "target"),
        ("simulate-orbit", {"lenght": 3}, "lenght"),
        ("classify", {"mesh": 20}, "mesh"),
    ])
    def test_malformed_param_exits_2_with_path(self, write_config, capsys, command, params, key):
        code, out, err = run_cli(capsys, command, "--config", write_config(base_config(**params)))
        assert code == 2
        assert out == ""
        assert f"params.{key}" in err

    @pytest.mark.parametrize("section, key, value, path", [
        (None, "schema", True, "schema"),
        ("generators", 0, {"kind": "rotation", "alpha": True}, "generators[0].alpha"),
        ("generators", 0, {"kind": "rotation", "alpha": float("nan")}, "generators[0].alpha"),
        ("generators", 0, {"kind": "rotation", "alpha": 10**400}, "generators[0].alpha"),
        ("generators", 1, {"kind": "sine", "a": "0.25", "b": -0.5}, "generators[1].a"),
        ("generators", 1, dict(SINE, harmonics=2.7), "generators[1].harmonics"),
        ("generators", 1, {"kind": "power", "base": SINE, "exponent": 2.5}, "generators[1].exponent"),
        ("generators", 1, {"kind": "power", "base": SINE, "exponent": 10**12}, "generators[1].exponent"),
        ("generators", 1, {"kind": "power", "base": SINE, "exponent": -10**12}, "generators[1].exponent"),
        # Nested powers multiply their factor counts: 10^8 sine lifts a letter.
        ("generators", 1, {"kind": "power", "base": POWER, "exponent": 10**4}, "generators[1].exponent"),
        ("generators", 1, {"kind": "power", "base": {"kind": "power", "base": dict(POWER, exponent=100),
                                                     "exponent": 101}, "exponent": 1},
         "generators[1].base.exponent"),
        # Bounded powers in one composition: 10^7 sine lifts a letter.
        ("generators", 1, {"kind": "composition", "maps": [POWER] * 1000}, "generators[1].maps"),
        ("model", "weights", ["0.5", 0.5], "model.weights[0]"),
        # One letter per generator: a third letter has no map, and a model
        # of one letter never draws the second.
        ("model", "weights", [0.25, 0.25, 0.5], "model"),
        ("model", "weights", [1.0], "model"),
        # A Markov initial distribution has one entry per state.
        (None, "model", dict(MARKOV, initial=[0.2, 0.3, 0.5]), "model"),
        (None, "model", dict(MARKOV, initial=[1.0]), "model"),
    ])
    def test_malformed_generator_or_model_exits_2_with_path(
        self, write_config, capsys, section, key, value, path
    ):
        cfg = base_config(length=3)
        (cfg if section is None else cfg[section])[key] = value
        code, out, err = run_cli(capsys, "simulate-orbit", "--config", write_config(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: {path}: ")

    @pytest.mark.parametrize("command", ["classify", "detect-repellers", "density-sweep"])
    def test_model_with_another_letter_count_exits_2(self, write_config, capsys, command):
        cfg = base_config()
        cfg["model"]["weights"] = [0.25, 0.25, 0.5]
        code, out, err = run_cli(capsys, command, "--config", write_config(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("config error: model: ")

    def test_perturb_checks_inner_params_against_inner_command(self, write_config, capsys):
        cfg = base_config(size=0, command="detect-repellers", params={"lenght": 3})
        code, out, err = run_cli(capsys, "perturb", "--config", write_config(cfg))
        assert code == 2
        assert out == ""
        assert err == "config error: params.params.lenght: not a parameter of detect-repellers\n"

    def test_perturb_rejects_certify_before_perturbing(self, write_config, capsys, monkeypatch):
        # certify needs a rotation g1, and any size > 0 makes g1 a composition.
        def unexpected(*args):
            raise AssertionError("perturb_map called")

        monkeypatch.setattr(cli, "perturb_map", unexpected)
        cfg = base_config(size=1e-9, command="certify")
        code, out, err = run_cli(capsys, "perturb", "--config", write_config(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("config error: params.command: ")
        # Size 0 leaves every map as it is, so certify runs on the config's.
        monkeypatch.undo()
        cfg = base_config(size=0, command="certify")
        code, out, _ = run_cli(capsys, "perturb", "--config", write_config(cfg))
        assert code == 0
        assert out == run_cli(capsys, "certify", "--config", write_config(base_config()))[1]

    def test_cell_bound_is_inclusive(self):
        cli._bound_cells({"n_pairs": 10**4}, "n_pairs", cli.MAX_CELLS // 10**4)
        with pytest.raises(ValueError, match="params.n_pairs"):
            cli._bound_cells({"n_pairs": 10**4}, "n_pairs", cli.MAX_CELLS // 10**4 + 1)


class TestExitCodes:
    @pytest.mark.parametrize("length", [1e-15, 1e-16, 1e-300])
    def test_find_periodic_on_a_tiny_target_exits_3(self, write_config, capsys, length):
        # A contracting transport word maps both ends of such a target to
        # one float; that image is skipped, not built as a zero-length arc.
        cfg = json.loads((GOLDEN_DIR / "golden_sine_target_seed7.json").read_text())
        cfg["params"]["target"]["length"] = length
        code, out, err = run_cli(capsys, "find-periodic", "--config", write_config(cfg))
        assert (code, out) == (3, "")
        assert err == "search exhausted: [stage F] no image of the target met the basin\n"

    def test_universal_word_beyond_max_len_exits_3(self, write_config, capsys):
        cfg = json.loads((GOLDEN_DIR / "golden_sine_target_seed7.json").read_text())
        cfg["params"]["max_len"] = 10
        code, out, err = run_cli(capsys, "universal-word", "--config", write_config(cfg))
        assert (code, out) == (3, "")
        assert err == "search exhausted: word exceeded max_len=10 with 386 survivors\n"

    @pytest.mark.parametrize("out", ["missing/orbit.csv", "."])
    def test_unwritable_out_exits_2(self, write_config, capsys, tmp_path, out):
        # A missing directory, and a directory in place of a file.
        path = write_config(base_config(length=3))
        code, stdout, err = run_cli(capsys, "simulate-orbit", "--config", path,
                                    "--out", str(tmp_path / out))
        assert (code, stdout) == (2, "")
        assert err.startswith("config error: out: ")

    def test_convergence_failure_exits_3(self, write_config, capsys, monkeypatch):
        def failing(cfg, seed, p):
            raise ConvergenceFailure("inverse_lift did not converge")

        monkeypatch.setitem(cli.HANDLERS, "detect-repellers", failing)
        code, out, err = run_cli(capsys, "detect-repellers", "--config", write_config(base_config()))
        assert code == 3
        assert out == ""
        assert err == "search exhausted: inverse_lift did not converge\n"


    @pytest.mark.parametrize("command, params, key", [
        ("density-sweep", {"mesh": 0}, "mesh"),
        ("classify", {"n_pairs": 0}, "n_pairs"),
        ("detect-repellers", {"m_levels": 5}, "m_levels"),
        ("find-periodic", {"target": TARGET, "horizon": 0}, "horizon"),
        ("simulate-orbit", {"length": -5}, "length"),
        ("tail-bound", {"target": TARGET, "n_trials": 0}, "n_trials"),
    ])
    def test_params_error_precedes_missing_model(self, write_config, capsys, command, params, key):
        # `main` resolves params before a handler reads the config's model.
        cfg = base_config(**params)
        del cfg["model"]
        code, out, err = run_cli(capsys, command, "--config", write_config(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: params.{key}: ")

    def test_every_package_failure_has_one_exit_base(self):
        # _FieldError (a config error) and InvalidModel (read as one) exit 2
        # through the config path; every other failure picks its code by base.
        found = {
            name: cls
            for module in (certifier, circle_maps, ifs_core, periodic_points, symbolic,
                           synchronization, cli)
            for name, cls in vars(module).items()
            if isinstance(cls, type) and issubclass(cls, BaseException)
            and cls.__module__ == module.__name__
        }
        assert {"ConvergenceFailure", "SearchExhausted", "Unpolarized"} <= set(found)
        unbased = [
            name for name, cls in found.items()
            if name not in ("_FieldError", "InvalidModel", "Exhausted", "Refuted")
            and not issubclass(cls, (Exhausted, Refuted))
        ]
        assert unbased == []
        assert not any(issubclass(cls, Exhausted) and issubclass(cls, Refuted)
                       for cls in found.values())
        # Library code that catches ValueError still catches RationalRotation.
        assert issubclass(certifier.RationalRotation, ValueError)

    def test_cli_binds_only_the_bases_and_field_error(self):
        bound = {name for name, v in vars(cli).items()
                 if isinstance(v, type) and issubclass(v, BaseException)}
        assert bound == {"Exhausted", "Refuted", "_FieldError"}


class TestRecords:
    """Each record's `_Record.to_json` against the dict its hand-written
    `to_json` returned (for UniversalWordResult, `universal-word`'s output
    without `length`)."""

    def test_sync_report(self):
        model = {"kind": "bernoulli", "weights": [0.5, 0.5]}
        rep = SyncReport("golden-sine", model, 500, 2000, 0.984, 1.5e-17, 7)
        assert rep.to_json() == {
            "ifs_label": "golden-sine", "model": model, "n_pairs": 500, "horizon": 2000,
            "sync_fraction": 0.984, "median_final_distance": 1.5e-17, "seed": 7,
        }

    @pytest.mark.parametrize("ran_sync", [True, False])
    def test_trichotomy_result(self, ran_sync):
        # Without a sync test, `sync`, `baseline` and `baseline_sigma` read null.
        model = {"kind": "bernoulli", "weights": [0.5, 0.5]}
        rep = SyncReport("two-rotations", model, 500, 2000, 0.0, 0.23, 7)
        sync = (rep, 0.002, 0.0019979989989987483) if ran_sync else (None, None, None)
        res = TrichotomyResult("case2", 1, 0.148, *sync, {3: 1, 1: 4}, 1, False, ("w",))
        assert res.to_json() == {
            "case": "case2", "ell": 1, "commutator_gap": 0.148,
            "sync": rep.to_json() if ran_sync else None,
            "baseline": sync[1], "baseline_sigma": sync[2],
            "ell_counts": {"1": 4, "3": 1}, "n_unpolarized": 1,
            "minimality_checked": False, "warnings": ["w"],
        }

    def test_minimality_estimate(self):
        est = MinimalityEstimate(False, 0.25, CirclePoint(1.375))
        assert est.to_json() == {"minimal": False, "worst_gap": 0.25, "witness": 0.375}
        assert cli.canonical_json(est.to_json()) == (
            '{\n  "minimal": false,\n  "witness": 0.375,\n  "worst_gap": 0.25\n}\n'
        )
        est = MinimalityEstimate(True, 0.001, None)
        assert est.to_json() == {"minimal": True, "worst_gap": 0.001, "witness": None}

    def test_basin_data(self):
        basin = BasinData(0.5, 0.0625, 0.03125, Arc(0.5, 0.0625), Arc(0.515625, 0.0078125),
                          Arc(0.5, 0.015625), 0.01)
        assert basin.to_json() == {
            "p": 0.5, "eps": 0.0625, "delta": 0.03125,
            "arc_A": {"start": 0.5, "length": 0.0625},
            "arc_B": {"start": 0.515625, "length": 0.0078125},
            "arc_D": {"start": 0.5, "length": 0.015625},
            "deriv_margin": 0.01,
        }

    def test_periodic_point_record(self):
        rec = PeriodicPointRecord(Word((1, 2, 2), 2), CirclePoint(0.3125), 2.5e-16, 0.125,
                                  "attracting")
        assert rec.to_json() == {
            "word": [1, 2, 2], "point": 0.3125, "residual": 2.5e-16, "multiplier": 0.125,
            "stability": "attracting",
        }

    def test_arc(self):
        assert Arc(-0.0625, 0.125).to_json() == {"start": 0.9375, "length": 0.125}

    def test_universal_word_result(self):
        res = UniversalWordResult(Word((2, 1), 2), (0, 2, 1), Arc(0.3, 0.05), Arc(0.305, 0.04),
                                  3, True)
        out = res.to_json()
        assert out == {
            "word": [2, 1], "capture_times": [0, 2, 1], "z_grid": 3, "fine_verified": True,
            "target": {"start": 0.3, "length": 0.05},
            "shrunk_target": {"start": 0.305, "length": 0.04},
        }
        assert type(out["capture_times"]) is list

    def test_repeller_estimate(self):
        est = RepellerEstimate(5000, 12, (CirclePoint(1.25),), 1, 2.0**-12, (0.95,))
        assert est.to_json() == {
            "omega_prefix_length": 5000, "levels": 12, "points": [0.25], "ell_hat": 1,
            "residual": 2.0**-12, "final_image_lengths": [0.95],
        }

    def test_certificate(self):
        # Both sides of the golden certificate write back the dicts they were read from.
        text = (GOLDEN_DIR / "certify_seed7.json").read_text()
        for side in ("forward", "backward"):
            obj = json.loads(text)[side]
            assert Certificate.from_json(obj).to_json() == obj

    def test_nested_tuples_int_keys_and_json_names(self):
        @dataclass(frozen=True)
        class Rec(circle_maps._Record):
            arcs: tuple
            counts: dict
            lam: float = field(metadata={"json": "lambda"})

        rec = Rec(((Arc(0.5, 0.25),), (1, 2)), {10: 1, 9: (Arc(0.0, 0.5),), 1: 2}, 0.5)
        out = rec.to_json()
        assert out == {
            "arcs": [[{"start": 0.5, "length": 0.25}], [1, 2]],
            "counts": {"1": 2, "10": 1, "9": [{"start": 0.0, "length": 0.5}]},
            "lambda": 0.5,
        }
        assert list(out["counts"]) == ["1", "10", "9"]


class TestCsv:
    def test_numpy_float_cell_prints_as_float(self):
        text = csv_text([SimpleNamespace(a=np.float64(1.25e-13), b=0.5)], ["a", "b"])
        assert text == "a,b\n1.25e-13,0.5\n"

    def test_named_fields_in_column_order(self):
        # Only the named fields print, in the columns' order; a bool as 1/0.
        row = SweepRow(3, "repelling", True, 41, 0.0, math.nan, "unused")
        text = csv_text([row], ["found", "arc_index", "multiplier"])
        assert text == "found,arc_index,multiplier\n1,3,nan\n"


class TestSimulateOrbit:
    def test_empty_word_header_only(self, write_config, capsys):
        path = write_config(base_config(length=0))
        code, out, _ = run_cli(capsys, "simulate-orbit", "--config", path)
        assert code == 0
        assert out == "n,letter,point\n"

    def test_rows_match_length(self, write_config, capsys):
        path = write_config(base_config(length=25, x=0.1))
        code, out, _ = run_cli(capsys, "simulate-orbit", "--config", path)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 26
        n, letter, point = lines[-1].split(",")
        assert int(n) == 25
        assert int(letter) in (1, 2)
        assert 0.0 <= float(point) < 1.0

    @pytest.mark.parametrize("length", [2**63, 10**12])
    def test_length_above_max_count_exits_2(self, capsys, tmp_path, length):
        # Unbounded, numpy failed with exit 1: "Maximum allowed dimension
        # exceeded" at 2**63, out of memory at 10**12.
        cfg = json.loads((GOLDEN_DIR / "orbit_coin_seed7.json").read_text())
        cfg["params"]["length"] = length
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "simulate-orbit", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            f"config error: params.length: must be an integer in 0..{cli.MAX_COUNT}, got {length}\n"
        )

    @pytest.mark.parametrize("length", [0, 1, 2, 1000])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rows_match_column_writer(self, write_config, capsys, k, length):
        # The handler's one f-string per row against csv_text over the
        # same rows, the writer it replaced.
        generators = [
            {"kind": "rotation", "alpha": GOLDEN},
            {"kind": "inverse", "base": SINE},
            {"kind": "power", "base": SINE, "exponent": 2},
        ][:k]
        cfg = dict(base_config(length=length, x=0.123), generators=generators,
                   model={"kind": "bernoulli", "weights": [1.0 / k] * k})
        code, out, _ = run_cli(capsys, "simulate-orbit", "--config", write_config(cfg))
        assert code == 0
        letters = cli._model_of(cfg).sample_matrix(1, length, 7)[0].tolist()
        points = orbit_to_csv_rows(cli._ifs_of(cfg), letters, 0.123)
        assert len(set(letters)) == min(k, length)
        rows = map(OrbitRow, range(1, length + 1), letters, points)
        assert out == csv_text(rows, ["n", "letter", "point"])

    def test_integral_float_length_is_an_integer(self, write_config, capsys):
        _, out_int, _ = run_cli(capsys, "simulate-orbit", "--config",
                                write_config(base_config(length=25)))
        code, out_float, _ = run_cli(capsys, "simulate-orbit", "--config",
                                     write_config(base_config(length=25.0), "float.json"))
        assert code == 0
        assert out_float == out_int


class TestClassifyCommand:
    @pytest.mark.parametrize("generators, warnings", [
        (base_config()["generators"], []),
        # Both sines fix 0 and 1/2, so neither direction is minimal.
        ([{"kind": "sine", "a": 0.0, "b": -0.5}, {"kind": "sine", "a": 0.0, "b": -0.3}],
         ["minimality estimate failed (forward=False, backward=False)"]),
    ])
    def test_check_minimality_reports_a_failed_estimate(
        self, write_config, capsys, generators, warnings
    ):
        cfg = base_config(n_pairs=100, sync_horizon=400, n_seeds=3, word_length=1000,
                          m_levels=8, check_minimality=True)
        cfg["generators"] = generators
        code, out, _ = run_cli(capsys, "classify", "--config", write_config(cfg))
        assert code == 0
        res = json.loads(out)
        assert res["minimality_checked"] is True
        assert res["warnings"] == warnings


class TestCertifyCommand:
    def test_certify_then_check_round_trip(self, write_config, capsys, tmp_path):
        cfg_path = write_config(base_config())
        cert_path = str(tmp_path / "cert.json")
        code, _, _ = run_cli(capsys, "certify", "--config", cfg_path, "--out", cert_path)
        assert code == 0
        code, out, _ = run_cli(capsys, "certify", "--check", cert_path)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_corrupted_certificate_exits_2(self, write_config, capsys, tmp_path):
        cfg_path = write_config(base_config())
        cert_path = str(tmp_path / "cert.json")
        run_cli(capsys, "certify", "--config", cfg_path, "--out", cert_path)
        blob = json.loads((tmp_path / "cert.json").read_text())
        blob["forward"]["lambda"] = 1.01
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        code, _, _ = run_cli(capsys, "certify", "--check", str(bad))
        assert code == 2

    def test_inflated_radius_exits_2_with_the_same_margins(self, capsys, tmp_path):
        blob = json.loads((GOLDEN_DIR / "certify_seed7.json").read_text())
        blob["radius"] = blob["forward"]["radius"] = blob["backward"]["radius"] = 0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        code, out, _ = run_cli(capsys, "certify", "--check", str(bad))
        assert code == 2
        want = json.loads((GOLDEN_DIR / "certify_check_seed7.json").read_text())
        for side in ("forward", "backward"):
            want[side]["ok"] = False
        want["ok"] = False
        assert json.loads(out) == want

    @pytest.mark.parametrize("side, key, value, path", [
        ("forward", "cover_exponents", [], "forward.cover_exponents"),
        ("backward", "global_forward_exponents", [], "backward.global_forward_exponents"),
        ("forward", "cover_exponents", [-3], "forward.cover_exponents"),
        # The evaluator walks f1 up to the largest exponent, so 10**9 ran until killed.
        ("forward", "cover_exponents", [10**9], "forward.cover_exponents"),
        ("backward", "global_backward_exponents", [0, MAX_POWER + 1],
         "backward.global_backward_exponents"),
        ("forward", "generators", [{"kind": "nope"}, {"kind": "sine", "a": 0.0, "b": -0.5}],
         "forward.generators[0]"),
        ("backward", "generators", [{"kind": "rotation", "alpha": 0.3}, {"kind": "sine", "a": 0.0, "b": 2}],
         "backward.generators[1]"),
        ("forward", "margins", [1.0, 2.0], "forward.margins"),
        ("forward", "basin", {"p": 0.5}, "forward.basin.eps"),
        ("forward", None, 3, "forward"),
        ("forward", "lambda", "0.5", "forward.lambda"),
        ("forward", "radius", True, "forward.radius"),
        ("forward", "basin", golden_basin(start="0.5"), "forward.basin.arc_B.start"),
        ("forward", "label", [1, 2], "forward.label"),
        ("backward", "label", None, "backward.label"),
        ("backward", "direction", 7, "backward.direction"),
        ("forward", "direction", "sideways", "forward.direction"),
        ("backward", "direction", "forward", "backward.direction"),
    ])
    def test_malformed_certificate_exits_2_with_path(self, capsys, tmp_path, side, key, value, path):
        blob = json.loads((GOLDEN_DIR / "certify_seed7.json").read_text())
        if key is None:
            blob[side] = value
        else:
            blob[side][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "certify", "--check", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: certificate.{path}: ")

    @pytest.mark.parametrize("key, value, path", [
        ("schema", 99, "schema"),
        ("schema", None, "schema"),
        ("schema", True, "schema"),
        ("label", [1, 2], "label"),
        ("label", "golden-sine-2", "label"),
        ("radius", "x", "radius"),
        ("radius", 1.0, "radius"),
    ])
    def test_bad_top_level_field_exits_2_with_path(self, capsys, tmp_path, key, value, path):
        blob = json.loads((GOLDEN_DIR / "certify_seed7.json").read_text())
        blob[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "certify", "--check", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: certificate.{path}: ")

    def test_spliced_backward_side_exits_2(self, write_config, capsys, tmp_path):
        # The backward side of a b = -0.4 certificate checks on its own, so
        # only the pairing of the two sides can reject it.
        cfg = base_config()
        cfg["generators"][1]["b"] = -0.4
        other = tmp_path / "other.json"
        code, _, _ = run_cli(capsys, "certify", "--config", write_config(cfg), "--out", str(other))
        assert code == 0
        blob = json.loads((GOLDEN_DIR / "certify_seed7.json").read_text())
        blob["backward"] = json.loads(other.read_text())["backward"]
        blob["radius"] = min(blob["forward"]["radius"], blob["backward"]["radius"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "certify", "--check", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("config error: certificate.backward.generators: ")

    def test_explicit_default_harmonics_pass_check(self, capsys, tmp_path):
        # Generators are compared as parsed maps, so a sine map that spells
        # out "harmonics": 1 is the inverse of one that leaves it implicit.
        blob = json.loads((GOLDEN_DIR / "certify_seed7.json").read_text())
        blob["forward"]["generators"][1]["harmonics"] = 1
        blob["backward"]["generators"][1]["base"]["harmonics"] = 1
        path = tmp_path / "harmonics.json"
        path.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "certify", "--check", str(path))
        assert (code, err) == (0, "")
        assert out == (GOLDEN_DIR / "certify_check_seed7.json").read_text()

    @pytest.mark.parametrize("side, edit", [
        ("forward", lambda basin: basin.update(arc_A={"start": 0.9, "length": 0.01})),
        ("backward", lambda basin: basin["arc_D"].update(start=0.6)),
        ("forward", "shift_B"),
    ], ids=["arc_A", "arc_D.start", "shifted_B"])
    def test_basin_that_g2_does_not_build_exits_2(self, capsys, tmp_path, side, edit):
        # Every number the evaluator reads stays consistent: for the shifted
        # B (90% of its length, moved up by 5%), lambda, the margins and the
        # radius are re-evaluated on it.  Only the rebuilt basin differs.
        blob = json.loads((GOLDEN_DIR / "certify_seed7.json").read_text())
        if edit == "shift_B":
            cert = Certificate.from_json(blob[side])
            b = cert.basin.arc_B
            basin = replace(cert.basin, arc_B=Arc(b.start + 0.05 * b.length, 0.9 * b.length))
            shifted = reverify_certificate(replace(cert, basin=basin))
            assert shifted.valid
            blob[side] = shifted.to_json()
            blob["radius"] = min(blob["forward"]["radius"], blob["backward"]["radius"])
        else:
            edit(blob[side]["basin"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "certify", "--check", str(bad))
        assert (code, err) == (2, "")
        res = json.loads(out)
        assert res["ok"] is res[side]["ok"] is False
        other = "backward" if side == "forward" else "forward"
        assert res[other]["ok"] is True

    @pytest.mark.parametrize("key, value, message", [
        ("p", 0.3, "0.3 is not a fixed point"),
        ("eps", 1.5, "basin length 1.5 is not in (0, 1]"),
    ])
    def test_basin_that_g2_cannot_build_exits_2(self, capsys, tmp_path, key, value, message):
        blob = json.loads((GOLDEN_DIR / "certify_seed7.json").read_text())
        blob["forward"]["basin"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        code, out, err = run_cli(capsys, "certify", "--check", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"verification failure: {message}")

    def test_certify_rejects_rotation_pair(self, write_config, capsys):
        cfg = base_config()
        cfg["generators"] = [
            {"kind": "rotation", "alpha": GOLDEN},
            {"kind": "rotation", "alpha": 0.3},
        ]
        code, _, err = run_cli(capsys, "certify", "--config", write_config(cfg))
        assert code == 2
        assert "verification failure" in err

    def test_certify_contraction_failure_exits_2(self, write_config, capsys):
        path = write_config(base_config(deriv_margin=-0.01))
        code, out, err = run_cli(capsys, "certify", "--config", path)
        assert code == 2
        assert out == ""
        assert "inflated derivative bound" in err

    def test_certify_zero_min_margin_is_valid(self, write_config, capsys, tmp_path):
        cert_path = str(tmp_path / "cert.json")
        path = write_config(base_config(min_margin=0))
        code, _, _ = run_cli(capsys, "certify", "--config", path, "--out", cert_path)
        assert code == 0
        code, _, _ = run_cli(capsys, "certify", "--check", cert_path)
        assert code == 0


class TestDeterminism:
    def test_byte_identical_runs(self, write_config, capsys):
        path = write_config(base_config(word_length=1500, m_levels=8))
        _, out1, _ = run_cli(capsys, "detect-repellers", "--config", path)
        _, out2, _ = run_cli(capsys, "detect-repellers", "--config", path)
        assert out1 == out2

    def test_threads_do_not_change_bytes(self, write_config, capsys):
        path = write_config(base_config(mesh=3))
        _, out1, _ = run_cli(capsys, "density-sweep", "--config", path, "--threads", "1")
        _, out4, _ = run_cli(capsys, "density-sweep", "--config", path, "--threads", "4")
        assert out1 == out4

    def test_threads_never_change_bytes(self, write_config, capsys):
        # --threads is accepted and ignored: no value in 1..8 may move a byte.
        hyp = pytest.importorskip("hypothesis")
        markov = {"kind": "markov", "rows": [[0.7, 0.3], [0.4, 0.6]]}
        configs = {}
        for command, params in [
            ("simulate-orbit", {"length": 300, "x": 0.123}),
            ("tail-bound", {"target": TARGET, "x": 0.1, "n_trials": 60, "n_grid": [5, 40]}),
            ("classify", {"n_pairs": 40, "sync_horizon": 100, "n_seeds": 2, "word_length": 600}),
        ]:
            cfg = dict(base_config(**params), model=markov)
            path = write_config(cfg, f"{command}.json")
            code, out, _ = run_cli(capsys, command, "--config", path)
            assert code == 0
            configs[command] = (path, out)

        @hyp.settings(max_examples=20, deadline=None, derandomize=True, database=None)
        @hyp.given(hyp.strategies.sampled_from(sorted(configs)), hyp.strategies.integers(1, 8))
        def check(command, threads):
            path, expected = configs[command]
            running = threading.active_count()
            code, out, _ = run_cli(capsys, command, "--config", path, "--threads", str(threads))
            assert (code, out) == (0, expected)
            assert threading.active_count() == running

        check()

    def test_density_sweep_matches_golden_bytes(self, capsys):
        # The reference bytes come from vectorized inverse solves and
        # direct-displacement bisection; the scalar solves and forward-map
        # bisection must reproduce them exactly.  Repelling residuals are
        # those of the point the Newton polish stops at.  Mesh 20 is the
        # benchmark's sweep.  The Markov mesh-8 bytes, from the construction
        # that re-walked every BFS word and pulled in through g, pin the
        # repelling path on a second model.  On rotation + sine(0.1, 0.3)
        # detection never polarizes, so the attracting rows come from the
        # mild prefix tried first.  The strong-sine seed-0 bytes come from
        # repeller detection on the forward side; the second prefix scan
        # must find the same attractor.
        for case in ("mesh4_seed7", "mesh20_seed7", "markov_mesh8_seed7",
                     "rotation_sine_markov_mesh4_seed7", "strong_sine_mesh4_seed0"):
            name = f"density_sweep_{case}"
            code, out, _ = run_cli(capsys, "density-sweep", "--config", str(GOLDEN_DIR / f"{name}.json"))
            assert code == 0
            assert out == (GOLDEN_DIR / f"{name}.csv").read_text()

    @pytest.mark.parametrize("command, config, golden", [
        ("density-sweep", "density_sweep_mesh4_seed7.json", "density_sweep_mesh4_seed7.csv"),
        ("find-periodic", "golden_sine_target_seed7.json", "find_periodic_seed7.json"),
        ("certify", "golden_sine_seed7.json", "certify_seed7.json"),
    ])
    def test_scalar_paths_hand_ndim_no_python_float(
        self, capsys, monkeypatch, command, config, golden
    ):
        # np.ndim's dispatch costs more than a scalar lift, so `_ones` and
        # `inverse_lift` test for a Python float first and never call it.
        ndim, floats = np.ndim, []

        def counting_ndim(x):
            if type(x) is float:
                floats.append(x)
            return ndim(x)

        monkeypatch.setattr(np, "ndim", counting_ndim)
        code, out, _ = run_cli(capsys, command, "--config", str(GOLDEN_DIR / config))
        assert (code, len(floats)) == (0, 0)
        assert out == (GOLDEN_DIR / golden).read_text()

    def test_density_sweep_reports_failed_arcs_on_stderr(self, write_config, capsys):
        # At seed 0 and horizon 8 the forward branch finds no attractor: the
        # attracting rows print found 0 on stdout and their reason on stderr.
        cfg = json.loads((GOLDEN_DIR / "density_sweep_mesh4_seed7.json").read_text())
        cfg["seed"], cfg["params"] = 0, {"mesh": 4, "horizon": 8}
        code, out, err = run_cli(capsys, "density-sweep", "--config", write_config(cfg))
        assert code == 0
        assert [line.split(",")[1:3] for line in out.splitlines()[1:5]] == [["attracting", "0"]] * 4
        lines = err.splitlines()
        assert len(lines) == 4
        assert all(line.startswith(f"arc {i} attracting: within horizon 8")
                   for i, line in enumerate(lines))

    def test_find_periodic_matches_golden_bytes(self, capsys):
        # The reference bytes come from the attracting construction before
        # the Newton polish moved to float64; it must not move a byte.
        code, out, _ = run_cli(
            capsys, "find-periodic", "--config", str(GOLDEN_DIR / "golden_sine_target_seed7.json")
        )
        assert code == 0
        assert out == (GOLDEN_DIR / "find_periodic_seed7.json").read_text()

    def test_universal_word_matches_golden_bytes(self, capsys):
        code, out, _ = run_cli(
            capsys, "universal-word", "--config", str(GOLDEN_DIR / "golden_sine_target_seed7.json")
        )
        assert code == 0
        assert out == (GOLDEN_DIR / "universal_word_seed7.json").read_text()

    def test_estimate_minimality_matches_golden_bytes(self, capsys):
        # The reference bytes come from the orbit search with its caps and
        # frontier bound passed as arguments; the module constants must
        # reproduce them exactly.
        code, out, _ = run_cli(
            capsys, "estimate-minimality", "--config", str(GOLDEN_DIR / "golden_sine_seed7.json")
        )
        assert code == 0
        assert out == (GOLDEN_DIR / "estimate_minimality_seed7.json").read_text()

    def test_detect_repellers_matches_golden_bytes(self, capsys):
        # The reference bytes come from one array walk per refinement level;
        # float tails that share one memo across levels must reproduce them
        # exactly.
        code, out, _ = run_cli(
            capsys, "detect-repellers", "--config", str(GOLDEN_DIR / "golden_sine_seed7.json")
        )
        assert code == 0
        assert out == (GOLDEN_DIR / "detect_repellers_seed7.json").read_text()

    @pytest.mark.parametrize("config, golden", [
        ("golden_sine_levels52_seed7.json", "detect_repellers_levels52_seed7.json"),
        ("golden_sine_markov_levels52_seed7.json", "detect_repellers_markov_levels52_seed7.json"),
    ])
    def test_deepest_level_detect_repellers_matches_golden_bytes(self, capsys, config, golden):
        # m_levels = MAX_LEVEL, fair coin and Markov rows.  The reference
        # bytes come from walks that pushed the endpoints of several levels
        # at once; one walk per level must reproduce them exactly.
        code, out, _ = run_cli(capsys, "detect-repellers", "--config", str(GOLDEN_DIR / config))
        assert code == 0
        assert out == (GOLDEN_DIR / golden).read_text()

    def test_half_turn_detect_repellers_matches_golden_bytes(self, capsys):
        # ell = 2: the reference bytes come from walks in which every float
        # tail ran to the end of the word; tails that stop on a known tail
        # must reproduce them exactly.
        code, out, _ = run_cli(
            capsys, "detect-repellers", "--config", str(GOLDEN_DIR / "half_turn_seed7.json")
        )
        assert code == 0
        assert out == (GOLDEN_DIR / "detect_repellers_half_turn_seed7.json").read_text()

    def test_classify_matches_golden_bytes(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--config", str(GOLDEN_DIR / "golden_sine_n_seeds5_seed7.json")
        )
        assert code == 0
        assert out == (GOLDEN_DIR / "classify_seed7.json").read_text()

    def test_markov_classify_matches_golden_bytes(self, capsys):
        # The generators do not commute, so no sync pair walks and the
        # verdict rests on the detections of Markov words alone.
        code, out, _ = run_cli(
            capsys, "classify", "--config",
            str(GOLDEN_DIR / "golden_sine_markov_n_seeds5_seed7.json"),
        )
        assert code == 0
        assert out == (GOLDEN_DIR / "classify_markov_seed7.json").read_text()

    def test_inverse_classify_matches_golden_bytes(self, capsys):
        # Every generator of golden_sine_n_seeds5_seed7.json wrapped as an
        # inverse: the commutator gap steps array Newton solves, the
        # detections scalar ones.
        code, out, _ = run_cli(
            capsys, "classify", "--config",
            str(GOLDEN_DIR / "golden_sine_inverse_n_seeds5_seed7.json"),
        )
        assert code == 0
        assert out == (GOLDEN_DIR / "classify_inverse_seed7.json").read_text()

    def test_half_turn_classify_matches_golden_bytes(self, capsys):
        # ell = 2: the reference bytes come from walking all 129 points
        # through every letter; walks that merge them into the three
        # values left must reproduce them exactly.
        code, out, _ = run_cli(
            capsys, "classify", "--config", str(GOLDEN_DIR / "half_turn_seed7.json")
        )
        assert code == 0
        assert out == (GOLDEN_DIR / "classify_half_turn_seed7.json").read_text()

    @pytest.mark.parametrize("config, golden", [
        ("two_rotations_seed7.json", "classify_two_rotations_seed7.json"),
        ("two_rotations_n_pairs40_seed7.json", "classify_two_rotations_n_pairs40_seed7.json"),
    ])
    def test_rotations_classify_matches_golden_bytes(self, capsys, config, golden):
        # case1: the generators commute, so the sync test runs and no pair
        # ever merges.  The reference bytes come from walking every pair on
        # arrays; at the default 500 pairs they still do, and 40 pairs walk
        # on Python floats from the first letter.
        code, out, _ = run_cli(capsys, "classify", "--config", str(GOLDEN_DIR / config))
        assert code == 0
        assert out == (GOLDEN_DIR / golden).read_text()

    def test_near_rotation_classify_matches_golden_bytes(self, capsys):
        # Golden rotation and sine(0, -0.02): a commutator gap of 5.9e-3
        # rules case 1 out, although the sync fraction stays within 3 sigma
        # of the baseline.  No detection seed polarizes within 1000 letters.
        code, out, _ = run_cli(
            capsys, "classify", "--config", str(GOLDEN_DIR / "near_rotation_n_seeds3_seed7.json")
        )
        assert code == 0
        assert out == (GOLDEN_DIR / "classify_near_rotation_seed7.json").read_text()
        assert json.loads(out)["case"] == "inconclusive"

    def test_certify_and_check_match_golden_bytes(self, capsys, tmp_path):
        # The reference bytes come from separate power chains for
        # conditions (1) and (2); the shared lift_deriv chain must
        # reproduce them exactly.
        code, out, _ = run_cli(
            capsys, "certify", "--config", str(GOLDEN_DIR / "golden_sine_seed7.json")
        )
        assert code == 0
        assert out == (GOLDEN_DIR / "certify_seed7.json").read_text()
        cert = tmp_path / "cert.json"
        cert.write_text(out)
        code, out, _ = run_cli(capsys, "certify", "--check", str(cert))
        assert code == 0
        assert out == (GOLDEN_DIR / "certify_check_seed7.json").read_text()

    @pytest.mark.parametrize("model", ["coin", "markov", "kinds"])
    def test_simulate_orbit_matches_golden_bytes(self, capsys, model):
        # The reference bytes come from the per-cell writers that the
        # handler's one f-string per row replaced; it must reproduce them
        # exactly.  "kinds" has three letters, an Inverse and a Power.
        code, out, _ = run_cli(
            capsys, "simulate-orbit", "--config", str(GOLDEN_DIR / f"orbit_{model}_seed7.json")
        )
        assert code == 0
        assert out == (GOLDEN_DIR / f"simulate_orbit_{model}_seed7.csv").read_text()

    def test_perturb_matches_golden_bytes(self, capsys):
        # The bumps draw from streams 7000 + i and the orbit from row 0 of a
        # Markov stream; neither may move a byte.
        code, out, _ = run_cli(
            capsys, "perturb", "--config", str(GOLDEN_DIR / "perturb_markov_seed7.json")
        )
        assert code == 0
        assert out == (GOLDEN_DIR / "perturb_markov_seed7.csv").read_text()

    def test_tail_bound_matches_golden_bytes(self, capsys):
        code, out, _ = run_cli(
            capsys, "tail-bound", "--config", str(GOLDEN_DIR / "tail_bound_markov_seed7.json")
        )
        assert code == 0
        assert out == (GOLDEN_DIR / "tail_bound_markov_seed7.csv").read_text()

    def test_seed_flag_overrides_config(self, write_config, capsys):
        path = write_config(base_config(word_length=1500, m_levels=8))
        _, out1, _ = run_cli(capsys, "detect-repellers", "--config", path, "--seed", "3")
        _, out2, _ = run_cli(capsys, "detect-repellers", "--config", path, "--seed", "4")
        assert out1 != out2


class TestOtherCommands:
    def test_tail_bound_csv(self, write_config, capsys):
        path = write_config(
            base_config(target={"start": 0.3, "length": 0.05}, x=0.1, n_trials=500)
        )
        code, out, _ = run_cli(capsys, "tail-bound", "--config", path)
        assert code == 0
        assert out.splitlines()[0] == "n,empirical_miss,bound,stderr"

    def test_universal_word_json(self, write_config, capsys):
        path = write_config(base_config(target={"start": 0.3, "length": 0.05}, z_grid=300))
        code, out, _ = run_cli(capsys, "universal-word", "--config", path)
        assert code == 0
        blob = json.loads(out)
        assert blob["fine_verified"] is True
        assert blob["length"] <= 500

    def test_find_periodic_json(self, write_config, capsys):
        path = write_config(base_config(target={"start": 0.37, "length": 0.05}))
        code, out, _ = run_cli(capsys, "find-periodic", "--config", path)
        assert code == 0
        blob = json.loads(out)
        assert blob["residual"] < 1e-9

    def test_classify_reports_case2(self, write_config, capsys):
        path = write_config(base_config(n_seeds=5, word_length=2000))
        code, out, _ = run_cli(capsys, "classify", "--config", path)
        assert code == 0
        assert json.loads(out)["case"] == "case2"

    def test_perturb_dispatches_inner_command(self, write_config, capsys):
        path = write_config(
            base_config(
                size=1e-9,
                command="detect-repellers",
                perturb_seed=3,
                params={"word_length": 1500, "m_levels": 8},
            )
        )
        code, out, _ = run_cli(capsys, "perturb", "--config", path)
        assert code == 0
        assert json.loads(out)["ell_hat"] == 1

    def test_perturb_shifts_a_generator_with_infinite_derivative_bound(
        self, write_config, capsys
    ):
        # sine^1200's lower derivative bound underflows to 0, so g2, its
        # inverse, has sup D = inf and gets a shift of size 1e-3 (this exited
        # 2 with a NaN sine coefficient before).
        cfg = base_config(size=1e-3, command="simulate-orbit", params={"length": 5})
        cfg["generators"][1] = {
            "kind": "inverse",
            "base": {"kind": "power", "base": cfg["generators"][1], "exponent": 1200},
        }
        code, out, err = run_cli(capsys, "perturb", "--config", write_config(cfg))
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["n,letter,point", "1,2,0.0010000000000000009"]

    def test_estimate_minimality_json(self, write_config, capsys):
        path = write_config(base_config(eps=0.05, start_grid=4, depth=3000))
        code, out, _ = run_cli(capsys, "estimate-minimality", "--config", path)
        assert code == 0
        blob = json.loads(out)
        assert blob["forward"]["minimal"] is True
        assert blob["backward"]["minimal"] is True
