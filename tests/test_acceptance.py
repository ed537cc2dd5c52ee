"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import random
import time

import numpy as np

from circle_ifs.certifier import (
    find_universal_word,
    nested_limit,
    perturb_map,
    reverify_certificate,
)
from circle_ifs.circle_maps import Arc, Rotation, SinePerturbed
from circle_ifs.cli import main as cli_main
from circle_ifs.ifs_core import IFS, branch_apply, minimality_estimate
from circle_ifs.periodic_points import density_sweep
from circle_ifs.symbolic import Word
from circle_ifs.synchronization import (
    Unpolarized,
    detect_repellers,
    hitting_tail_check,
    sync_fraction,
)
from word_helpers import all_words_concatenated, capture_time, concat, coverage, is_prefix_dense

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class _report:
    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.name}: {status} ({self.elapsed:.1f}s)")
        return False


def test_criterion_01_composition_order(golden_sine_ifs):
    with _report("C1 composition-order suite") as rep:
        rng = random.Random(101)
        gens = golden_sine_ifs.generators
        for _ in range(100):
            word = [rng.randint(1, 2) for _ in range(rng.randint(1, 15))]
            x = rng.random()
            manual = x
            for a in word:
                manual = float(gens[a - 1].lift(manual)) % 1.0
            assert float(branch_apply(golden_sine_ifs, word, x)) == manual
        assert rep.elapsed < 1.0


def test_criterion_02_certify_end_to_end(certificate_pair, golden_rotation, sine_map):
    with _report("C2 robust-minimality certificates + perturbations") as rep:
        for cert in (certificate_pair.forward, certificate_pair.backward):
            assert all(v > 0.0 for v in cert.margins.values())
            assert cert.radius > 0.0
        size = certificate_pair.radius / 2.0
        for i in range(20):
            key = np.array([2024, i], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            f1 = perturb_map(golden_rotation, size, rng)
            f2 = perturb_map(sine_map, size, rng)
            fwd = reverify_certificate(certificate_pair.forward, f1, f2)
            bwd = reverify_certificate(certificate_pair.backward, f1.inverse(), f2.inverse())
            assert fwd.valid, f"forward margins failed under perturbation {i}"
            assert bwd.valid, f"backward margins failed under perturbation {i}"
        assert rep.elapsed < 60.0


def test_criterion_03_nested_limit_bound(certificate_pair):
    with _report("C3 nested-limit error bound") as rep:
        cert = certificate_pair.forward
        b = cert.basin.arc_B
        bound = cert.lam**20 * b.length
        rng = random.Random(103)
        violations = 0
        for _ in range(100):
            x = b.start + rng.random() * b.length
            res = nested_limit(cert, x, 20)
            if res.error > bound:
                violations += 1
        assert violations == 0


def test_criterion_04_minimality_estimates(golden_sine_ifs):
    with _report("C4 minimality estimates") as rep:
        fwd = minimality_estimate(golden_sine_ifs, eps=0.01, start_grid=16, depth=10_000)
        bwd = minimality_estimate(
            golden_sine_ifs.inverse_ifs(), eps=0.01, start_grid=16, depth=10_000
        )
        assert fwd.minimal and fwd.worst_gap <= 0.01
        assert bwd.minimal and bwd.worst_gap <= 0.01
        single = minimality_estimate(
            IFS([SinePerturbed(0.0, -0.5)]), eps=0.01, start_grid=16, depth=10_000
        )
        assert not single.minimal
        assert single.witness is not None
        assert rep.elapsed < 120.0


def test_criterion_05_synchronization(golden_sine_ifs, fair_coin):
    with _report("C5 synchronization fractions") as rep:
        report = sync_fraction(golden_sine_ifs, fair_coin, n=2000, n_pairs=500,
                               tol_sync=1e-3, seed=205)
        assert report.sync_fraction >= 0.95
        rotations = IFS([Rotation(GOLDEN), Rotation(0.3)], label="rotations")
        baseline = 2e-3
        sigma = math.sqrt(baseline * (1.0 - baseline) / 500)
        rot_report = sync_fraction(rotations, fair_coin, n=2000, n_pairs=500,
                                   tol_sync=1e-3, seed=205)
        assert abs(rot_report.sync_fraction - baseline) <= 3.0 * sigma


def test_criterion_06_repeller_detection(golden_sine_ifs, fair_coin):
    with _report("C6 repeller detection") as rep:
        est = detect_repellers(golden_sine_ifs, Word((2,) * 5000, 2), m_levels=22)
        assert est.ell_hat == 1
        assert abs(float(est.points[0]) - 0.5) <= 1e-6
        ones = 0
        for s in range(50):
            w = fair_coin.sample(5000, seed=s, stream=600)
            try:
                if detect_repellers(golden_sine_ifs, w, m_levels=12).ell_hat == 1:
                    ones += 1
            except Unpolarized:
                pass
        assert ones >= 48


def test_criterion_07_hitting_tail_bound(golden_sine_ifs, fair_coin):
    with _report("C7 hitting-time tail bound") as rep:
        report = hitting_tail_check(
            golden_sine_ifs, fair_coin, Arc(0.3, 0.05), x=0.1,
            n_trials=10_000, seed=207,
        )
        assert report.p == 0.5
        # Independent covering oracle (200k-point grid sweep) froze r = 34.
        assert report.cover_count == 34
        assert report.ell == 34
        assert len(report.rows) == 10
        assert report.rows[-1].n == 10 * report.ell
        for row in report.rows:
            assert row.empirical_miss <= row.bound + 3.0 * row.stderr, f"n={row.n}"
        assert rep.elapsed < 60.0


def test_criterion_08_universal_word(golden_sine_ifs, fair_coin):
    with _report("C8 universal word") as rep:
        target = Arc(0.3, 0.05)
        res = find_universal_word(golden_sine_ifs, target, z_grid=1000, max_len=500)
        assert len(res.word) <= 500
        assert res.fine_verified  # verified on the 10x (1e4-point) grid
        tail = all_words_concatenated(2, 8)
        rng = random.Random(208)
        for k in range(20):
            prefix = fair_coin.sample(rng.randint(1, 80), seed=800 + k)
            omega = concat(prefix, res.word, tail)
            assert is_prefix_dense(omega, 8)
            x = rng.random()
            z = branch_apply(golden_sine_ifs, prefix, x)
            t = capture_time(res, golden_sine_ifs, float(z))
            assert t is not None and t <= len(res.word)
            hit = branch_apply(golden_sine_ifs, omega[: len(prefix) + t], x)
            assert target.contains(float(hit))


def test_criterion_09_periodic_density(golden_sine_ifs, fair_coin):
    with _report("C9 periodic-point density sweep") as rep:
        report = density_sweep(golden_sine_ifs, 20, fair_coin, seed=209)
        assert coverage(report, "attracting") == 1.0
        assert coverage(report, "repelling") == 1.0
        for row in report.rows:
            assert row.found
            assert row.residual < 1e-9
            if row.stability == "attracting":
                assert row.multiplier < 1.0
            else:
                assert row.multiplier > 1.0


def test_criterion_10_determinism(tmp_path, capsys):
    with _report("C10 byte-determinism of CLI runs") as rep:
        cfg = {
            "schema": 1,
            "label": "golden-sine",
            "generators": [
                {"kind": "rotation", "alpha": GOLDEN},
                {"kind": "sine", "a": 0.0, "b": -0.5},
            ],
            "model": {"kind": "bernoulli", "weights": [0.5, 0.5]},
            "seed": 11,
            "params": {},
        }

        def run(command, params, threads=1):
            c = dict(cfg)
            c["params"] = params
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(c))
            code = cli_main([command, "--config", str(path), "--threads", str(threads)])
            out = capsys.readouterr().out
            assert code == 0, command
            return out

        jobs = [
            ("simulate-orbit", {"length": 50, "x": 0.2}),
            ("detect-repellers", {"word_length": 2000, "m_levels": 10}),
            ("tail-bound", {"target": {"start": 0.3, "length": 0.05}, "x": 0.1,
                            "n_trials": 2000}),
            ("certify", {}),
            ("estimate-minimality", {"eps": 0.05, "start_grid": 4, "depth": 3000}),
            ("universal-word", {"target": {"start": 0.3, "length": 0.05}, "z_grid": 300}),
        ]
        for command, params in jobs:
            assert run(command, params) == run(command, params), command
        sweep1 = run("density-sweep", {"mesh": 3}, threads=1)
        sweep4 = run("density-sweep", {"mesh": 3}, threads=4)
        assert sweep1 == sweep4
