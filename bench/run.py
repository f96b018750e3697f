"""Benchmark of the sectrack simulator, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all [--seed N] [--seconds S]
    python3 bench/run.py --pin

One closed-loop client runs one scenario process at a time (``worker.py``)
and times it; nothing else runs beside it. ``--trace 0`` reports the
end-to-end metrics of untraced calls, call i at master seed
``seed * 1000 + i``. ``--trace 1`` alternates untraced and traced calls at
master seed ``seed`` and reports the per-layer metrics. ``--workload all``
runs every workload in both modes and prints every metric. ``--pin``
rewrites ``golden.json`` and belongs only in a change that declares a
re-baseline.

Every run also checks outputs: the output trees of the pinned configs
must match the SHA-256 digests in ``golden.json`` (untimed), and in a
traced run every call must write the same tree as the first, traced or
not. A call that exits nonzero, raises or writes another tree counts as
failed, and the run then exits 1. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import COUNT_METRICS, LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
GOLDEN = BENCH / "golden.json"
OUT = ROOT / ".bench_out" / str(os.getpid())  # output trees, removed at exit

PINNED_SEED = 1  # the default master seed; golden.json is pinned at it
SEED_STRIDE = 1000  # more calls than one run makes
MIN_SAMPLES = 3
RUN_LIMIT_S = 170.0  # one run must end within 180 s
MAX_SECONDS = 120.0  # leaves room for the untimed checks within RUN_LIMIT_S


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    overrides: dict[str, str]
    why: str
    # Work per scenario call, for the throughput lines of the report.
    sim_node_s: float = 0.0
    mc_trials: float = 0.0
    # The calibration loop that slows like this workload's calls.
    calibration: str = "python"


WORKLOADS = {
    w.name: w
    for w in (
        # 60 roaming nodes for 500 s at v_max 5 and 20 m/s: verification
        # sweeps and mobility dominate, tracking is a few percent. One seed
        # per call is two engine runs of 60 nodes x 500 s.
        Workload(
            "switching",
            "switching",
            {"sim.seeds": "1"},
            "default switching config: verification sweeps and mobility dominate",
            sim_node_s=2 * 60 * 500.0,
        ),
        # The 14-node cluster with 10 static nodes, ticked 5x as often as
        # the default: tracking ticks dominate and mobility is small.
        Workload(
            "tracking-dense",
            "multi-target",
            {"sim.sample_interval": "1.0", "sim.seeds": "4"},
            "multi-target at 5x tick rate: tracking ticks (zone, ranging, triangulation) dominate",
            sim_node_s=4 * 14 * 500.0,
        ),
        # 500 closed-form / Monte Carlo rows and no engine run at all.
        Workload(
            "detection",
            "detection",
            {"sim.trials": "20000"},
            "numpy Monte Carlo detection draws only; no engine, mobility or cipher work",
            mc_trials=500 * 20000.0,
            calibration="numpy",
        ),
    )
}

# Untimed digest pins: the reduced `run all` of acceptance criterion 10 and
# the default trajectory scenario. Their seeds are part of the config.
CHECK_TREES = {
    "run-all-reduced": (
        "all",
        {
            "sim.duration": "100",
            "sim.seeds": "4",
            "sim.trials": "4000",
            "sim.node_count": "25",
            "sim.malicious_count": "3",
            "sim.master_seed": "7",
        },
    ),
    "trajectory": ("trajectory", {}),
}

END_TO_END = (("run_cal", "cal"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    *LAYER_METRICS,
    ("scenarios.engine_run_s.p50", "s"),
    ("scenarios.engine_run_s.max", "s"),
    ("scenarios.cpu_s", "s"),
    ("config.parse_config.busy_s", "s"),
    ("trace.overhead", "ratio"),
)


def tree_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under root, keyed by its relative path."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class Session:
    """Every worker call of one benchmark invocation and what went wrong."""

    deadline: float
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def call(
        self,
        label: str,
        scenario: str,
        overrides: dict[str, str],
        *,
        traced: bool = False,
        expect: dict[str, str] | None = None,
        calibration: str = "python",
    ) -> dict | None:
        """Run one worker; None when it failed or its tree is not `expect`."""
        self.attempted += 1
        out = OUT / f"call{self.attempted}"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [
            sys.executable, str(WORKER), scenario, str(out), json.dumps(overrides), calibration
        ]
        if traced:
            cmd.append("--trace")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=max(self.deadline - spawned, 1.0),
            )
        except subprocess.TimeoutExpired:
            return self.fail(label, "timed out")
        try:
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or [""]
                return self.fail(label, f"exit {proc.returncode}: {tail[0]}")
            try:
                rec = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                return self.fail(label, "no result record")
            if rec["status"] != 0:
                return self.fail(label, f"scenario status {rec['status']}")
            if traced and not rec["wrappers_removed"]:
                return self.fail(label, "tracer left a wrapper installed")
            rec["setup_s"] = rec["ready"] - spawned
            rec["digests"] = tree_digests(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if expect is not None and rec["digests"] != expect:
            diff = sorted(
                set(expect.items()).symmetric_difference(rec["digests"].items())
            )
            return self.fail(label, f"output digests differ: {[p for p, _ in diff][:4]}")
        return rec

    def fail(self, label: str, why: str) -> None:
        self.failures.append(f"{label}: {why}")
        print(f"FAILED {label}: {why}", file=sys.stderr)
        return None

    def check_pinned_trees(self, golden: dict) -> None:
        for name, (scenario, overrides) in CHECK_TREES.items():
            self.call(name, scenario, overrides, expect=golden.get(name, {}))

    def failed_share(self) -> dict[str, tuple[float, str]]:
        return {
            "attempted": (self.attempted, "count"),
            "failed": (len(self.failures), "count"),
            "failed_share": (len(self.failures) / max(self.attempted, 1), "ratio"),
        }

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def call_workload(
    s: Session, w: Workload, seed: int, traced: bool = False, expect: dict | None = None
) -> dict | None:
    """One call of workload `w` at master seed `seed`."""
    label = f"{w.name}@{seed}{' traced' if traced else ''}"
    overrides = {**w.overrides, "sim.master_seed": str(seed)}
    return s.call(label, w.scenario, overrides, traced=traced, expect=expect,
                  calibration=w.calibration)


def run_untraced(s: Session, w: Workload, seed: int, seconds: float, golden: dict) -> dict:
    """End-to-end metrics of untraced calls for `seconds`.

    Call i runs at master seed ``seed * SEED_STRIDE + i``: the work of one
    seed differs from the next by several percent, and a median over many
    seeds does not.
    """
    s.check_pinned_trees(golden)
    call_workload(s, w, PINNED_SEED, expect=golden.get(w.name, {}))
    samples = []
    stop = time.monotonic() + seconds
    for i in itertools.count():
        if i >= MIN_SAMPLES and time.monotonic() >= stop:
            break
        rec = call_workload(s, w, seed * SEED_STRIDE + i)
        if rec is not None:
            samples.append(rec)
    run_s = [r["run_s"] for r in samples]
    q = statistics.quantiles(run_s, n=4) if len(run_s) > 1 else [median(run_s)] * 3
    metrics = {
        "run_cal": (median([r["run_s"] / r["cal_s"] for r in samples]), "cal"),
        "setup_s": (median([r["setup_s"] for r in samples]), "s"),
        "peak_rss_mb": (median([r["rss_mb"] for r in samples]), "MB"),
    }
    extra = {
        "run_s": (q[1], "s"),
        "run_s.p25": (q[0], "s"),
        "run_s.p75": (q[2], "s"),
        "run_s.samples": (len(run_s), "count"),
        "cal_s": (median([r["cal_s"] for r in samples]), "s"),
        "sim_node_s_per_s": (w.sim_node_s / q[1] if q[1] else 0.0, "node-s/s"),
        "mc_trials_per_s": (w.mc_trials / q[1] if q[1] else 0.0, "1/s"),
        **s.failed_share(),
    }
    return {"metrics": metrics, "extra": extra}


def run_traced(s: Session, w: Workload, seed: int, seconds: float, golden: dict) -> dict:
    """Per-layer metrics: traced calls alternating with untraced ones, all
    at master seed `seed`, all writing the same tree."""
    s.check_pinned_trees(golden)
    call_workload(s, w, PINNED_SEED, traced=True, expect=golden.get(w.name, {}))
    expect = None
    plain, traced = [], []
    stop = time.monotonic() + seconds
    for pairs in itertools.count():
        if pairs >= MIN_SAMPLES - 1 and time.monotonic() >= stop:
            break
        for is_traced, bucket in ((False, plain), (True, traced)):
            rec = call_workload(s, w, seed, is_traced, expect)
            if rec is None:
                continue
            expect = rec["digests"]
            if is_traced and traced:
                first = traced[0]["layers"]
                moved = [k for k in COUNT_METRICS if rec["layers"][k] != first[k]]
                if moved:
                    s.fail(f"{w.name}@{seed} traced", f"counts did not repeat: {moved}")
                    continue
            bucket.append(rec)
    layers = {
        name: (median([r["layers"][name] for r in traced]), unit) for name, unit in LAYER_METRICS
    }
    engine_runs = sorted(t for r in traced for t in r["engine_run_s"])
    untraced_s = median([r["run_s"] for r in plain])
    layers.update({
        "scenarios.engine_run_s.p50": (median(engine_runs), "s"),
        "scenarios.engine_run_s.max": (engine_runs[-1] if engine_runs else 0.0, "s"),
        "scenarios.cpu_s": (median([r["cpu_s"] for r in plain]), "s"),
        "config.parse_config.busy_s": (median([r["parse_s"] for r in plain + traced]), "s"),
        "trace.overhead": (
            median([r["run_s"] for r in traced]) / untraced_s if untraced_s else 0.0, "ratio"
        ),
    })
    extra = {
        "run_s.untraced": (untraced_s, "s"),
        "run_s.traced": (median([r["run_s"] for r in traced]), "s"),
        "engine_run_s.samples": (len(engine_runs), "count"),
        **s.failed_share(),
    }
    return {"metrics": layers, "extra": extra}


def report(workload: str, metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload:<15} {name:<30} {value:>14.6g} {unit}")


def pin() -> int:
    s = Session(deadline=time.monotonic() + RUN_LIMIT_S * 3)
    golden = {}
    for w in WORKLOADS.values():
        golden[w.name] = call_workload(s, w, PINNED_SEED)
    for name, (scenario, overrides) in CHECK_TREES.items():
        golden[name] = s.call(name, scenario, overrides)
    if s.failures:
        return 1
    golden = {name: rec["digests"] for name, rec in golden.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}: {sum(map(len, golden.values()))} digests")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite golden.json")
    args = parser.parse_args(argv)
    if not (args.pin or args.workload):
        parser.error("give --workload or --pin")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")
    if not (ROOT / "src" / "sectrack" / "__init__.py").is_file():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    try:
        if args.pin:
            return pin()
        golden = json.loads(GOLDEN.read_text())
        if args.workload != "all":
            s = Session(deadline=time.monotonic() + RUN_LIMIT_S)
            mode = run_traced if args.trace else run_untraced
            res = mode(s, WORKLOADS[args.workload], args.seed, args.seconds, golden)
            report(args.workload, {**res["metrics"], **res["extra"]})
            print(json.dumps(s.result(res["metrics"])))
            return 0 if not s.failures else 1
        s = Session(deadline=time.monotonic() + RUN_LIMIT_S * 2 * len(WORKLOADS))
        combined = {}
        for w in WORKLOADS.values():
            for mode in (run_untraced, run_traced):
                res = mode(s, w, args.seed, args.seconds, golden)
                report(w.name, {**res["metrics"], **res["extra"]})
                combined.update({f"{w.name}.{k}": v for k, v in res["metrics"].items()})
        report("all", s.failed_share())
        print(json.dumps(s.result(combined)))
        return 0 if not s.failures else 1
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
