"""Checks of the benchmark itself.

Tracing must reach every wrapped name on the workload meant to exercise
it, leave no wrapper behind and change no output; the workloads must load
the layers they were chosen for; and a run must fail where it should. A
rename in the simulator then fails here instead of reporting zero.

Run from the root of a checkout: ``python3 -m pytest -q bench/test_bench.py``
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run as bench
from tracing import CIPHER_FUNCTIONS, COUNT_METRICS, GEOMETRY_FUNCTIONS, Tracer

# The workload that should exercise each wrapped name.
EXERCISED_ON = {
    "mobility.step": "switching",
    "engine.sweep": "switching",
    "protocol.verify": "switching",
    **{f"cipher.{name}": "switching" for name in CIPHER_FUNCTIONS},
    "engine.track_tick": "tracking-dense",
    "engine.assign": "tracking-dense",
    "engine.switch": "tracking-dense",
    **{f"geometry.{name}": "tracking-dense" for name in GEOMETRY_FUNCTIONS},
    "channel.propagate": "tracking-dense",
    "protocol.mc": "detection",
    "engine.events": "tracking-dense",
    "scenarios.run_scenario": "switching",
    "metrics.write_csv": "detection",
}


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    bench.OUT = tmp_path_factory.mktemp("bench_out")
    return bench.Session(deadline=time.monotonic() + 600)


@pytest.fixture(scope="module")
def golden():
    return json.loads(bench.GOLDEN.read_text())


@pytest.fixture(scope="module")
def traced(session, golden):
    """One traced call per workload at the pinned seed, checked against golden."""
    records = {
        w.name: bench.call_workload(session, w, bench.PINNED_SEED, True, golden[w.name])
        for w in bench.WORKLOADS.values()
    }
    assert not session.failures, session.failures
    return records


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in bench.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)


def test_every_wrapper_is_reached_on_its_workload(traced):
    assert set(traced["switching"]["span_calls"]) == set(EXERCISED_ON)
    missed = [
        name for name, wl in EXERCISED_ON.items() if traced[wl]["span_calls"][name] < 1
    ]
    assert not missed


def test_worker_removes_every_wrapper(traced):
    assert all(rec["wrappers_removed"] for rec in traced.values())


def test_tracer_restores_every_attribute(tmp_path):
    sys.path.insert(0, str(bench.ROOT / "src"))
    from sectrack.config import parse_config
    from sectrack.scenarios import run

    tracer = Tracer()
    tracer.install()
    patches = tracer.patched()
    try:
        assert run("trajectory", parse_config(), tmp_path) == 0
    finally:
        tracer.remove()
    assert tracer.patched() == []
    assert all(vars(owner)[attr] is original for owner, attr, original in patches)
    assert tracer.span_calls()["scenarios.run_scenario"] == 1


def test_workloads_load_the_layers_they_were_chosen_for(traced):
    sw = traced["switching"]["layers"]
    assert sw["engine.sweep.busy_s"] + sw["mobility.step.self_s"] > 5 * sw["engine.track_tick.busy_s"]
    td = traced["tracking-dense"]["layers"]
    assert td["engine.track_tick.busy_s"] > td["engine.sweep.busy_s"]
    det = traced["detection"]
    assert det["layers"]["protocol.mc.self_s"] >= 0.9 * det["run_s"]
    assert det["layers"]["scenarios.engine_runs"] == 0


def test_work_per_call_matches_the_workload_table(traced):
    for name, w in bench.WORKLOADS.items():
        layers = traced[name]["layers"]
        assert layers["sim.node_s"] == w.sim_node_s
        assert layers["protocol.mc.trials"] == w.mc_trials


def test_tracing_changes_nothing_on_a_held_out_seed(session):
    w = bench.WORKLOADS["tracking-dense"]
    seed = bench.PINNED_SEED + 1
    plain = bench.call_workload(session, w, seed)
    first = bench.call_workload(session, w, seed, True, plain["digests"])
    second = bench.call_workload(session, w, seed, True, plain["digests"])
    assert not session.failures, session.failures
    assert {k: first["layers"][k] for k in COUNT_METRICS} == {
        k: second["layers"][k] for k in COUNT_METRICS
    }


def _bench_cmd(*args: str) -> list[str]:
    return [sys.executable, "bench/run.py", "--workload", "tracking-dense", *args]


def test_run_fails_without_the_simulator_source(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        _bench_cmd("--seconds", "1"), cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_fails_on_a_digest_mismatch(tmp_path):
    golden = json.loads(bench.GOLDEN.read_text())
    shutil.copytree(bench.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(bench.ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    golden["tracking-dense"]["efficiency.csv"] = "0" * 64
    (tmp_path / "bench" / "golden.json").write_text(json.dumps(golden))
    proc = subprocess.run(
        _bench_cmd("--seconds", "1"), cwd=tmp_path, capture_output=True, text=True, timeout=170
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "efficiency.csv" in proc.stderr
