"""Smoke tests of the benchmark itself: toy sizes, checks on, no timing gates.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    return run.Session(tmp_path_factory.mktemp("work"))


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if spans.metric_unit(k) == "count"}


@pytest.mark.parametrize("name", run.workload_names())
def test_tracing_keeps_outputs_and_counts_repeat(session, name):
    plain = session.rep(name, SEED, "smoke")
    tracer = session.tracer()
    first = session.rep(name, SEED, "smoke", tracer)
    first_metrics = tracer.aggregate()
    tracer.clear()
    second = session.rep(name, SEED, "smoke", tracer)
    second_metrics = tracer.aggregate()

    for rep in (plain, first, second):
        assert rep.failed == 0, rep.failures
        assert rep.attempted > 0
    assert first.outputs == plain.outputs
    assert second.outputs == plain.outputs
    assert _counts(first_metrics) == _counts(second_metrics)
    assert first_metrics["cli.main.calls"] > 0


def test_tracer_restores_the_program(session):
    maps, ifs_core = session.modules["circle_maps"], session.modules["ifs_core"]
    before = (maps.SinePerturbed.lift, "inverse_lift" in vars(maps.SinePerturbed),
              ifs_core.branch_lift_array, session.modules["synchronization"].branch_lift_array)
    tracer = session.tracer()
    tracer.instrument()
    assert ifs_core.branch_lift_array is not before[2]
    tracer.restore()
    after = (maps.SinePerturbed.lift, "inverse_lift" in vars(maps.SinePerturbed),
             ifs_core.branch_lift_array, session.modules["synchronization"].branch_lift_array)
    assert after == before


def test_host_clock_leaves_out_reference_runs():
    with calibrate.HostClock() as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * calibrate.INTERVAL_S:
            pass
        t1 = time.perf_counter()
        clock.mark()
    looped = sum(e - s for s, e in zip(clock.starts, clock.ends) if t0 < s and e < t1)
    assert looped > 0
    assert clock.raw_seconds(t0, t1) == pytest.approx(t1 - t0 - looped)
    assert clock.seconds(t0, t1) > 0.0


@pytest.mark.parametrize("name", run.workload_names())
def test_calibrated_times_are_positive(session, name):
    with calibrate.HostClock() as clock:
        rep = session.rep(name, SEED, "smoke", clock=clock)
    assert rep.failed == 0, rep.failures
    assert rep.wall_s > 0.0 and rep.raw_wall_s > 0.0
    assert rep.items and all(t > 0.0 for t in rep.items)


def test_corrupted_certificate_fails(session, monkeypatch):
    def corrupt(path, text):
        blob = json.loads(text)
        blob["forward"]["margins"]["contraction"] *= 2.0
        path.write_text(json.dumps(blob))

    monkeypatch.setattr(workloads, "write_certificate", corrupt)
    rep = session.rep("certify", SEED, "smoke")
    assert rep.failed > 0
    assert any(f.startswith("certify.check") or f.startswith("certify --check")
               for f in rep.failures), rep.failures


def test_wrong_expected_verdict_fails(session, monkeypatch):
    monkeypatch.setitem(workloads.CLASSIFY_EXPECTED, "golden-sine",
                        (workloads.SINE, "case3", 2))
    rep = session.rep("classify", SEED, "smoke")
    assert rep.failed > 0
    assert any("golden-sine" in f for f in rep.failures), rep.failures


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == run.workload_names()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    for m in spec["per_layer"]:
        assert m["unit"] == spans.metric_unit(m["name"])


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_every_metric_once():
    proc = _run(ROOT, "--workload", "markov", "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == run.per_layer_names()
    assert "fail_frac" in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "classify", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
