"""One scenario call in a fresh interpreter: the unit the benchmark times.

Usage: python3 bench/worker.py SCENARIO OUT_DIR OVERRIDES_JSON python|numpy [--trace]

The worker imports the simulator from the checkout's ``src`` directory,
builds the config with ``sectrack.config.parse_config`` from the given
``section.key`` overrides and runs it with ``sectrack.scenarios.run``,
which is what ``sectrack --scenario SCENARIO --set ...`` does. With
``--trace`` the spans of ``tracing.Tracer`` wrap the call and are removed
after it. The named calibration loop is timed around the call. The last
line of standard output is one JSON record of the call.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _cpu_s() -> float:
    """CPU seconds of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def calibrate_python() -> float:
    """Seconds for a fixed pure-Python loop of float math and dict stores."""
    start = time.perf_counter()
    acc = 0.0
    table: dict[int, float] = {}
    for k in range(200_000):
        table[k & 255] = k * 0.5
        acc += math.hypot(table[k & 255], 1.0)
    return time.perf_counter() - start


def calibrate_numpy() -> float:
    """Seconds for fixed numpy random draws, comparisons and reductions."""
    import numpy as np

    rng = np.random.default_rng(0)
    probs = np.array([0.25, 0.5, 0.75])
    start = time.perf_counter()
    for _ in range(6):
        hits = rng.random((20_000, 8, 3)) < probs
        float((~hits.any(axis=2)).any(axis=1).mean())
    return time.perf_counter() - start


# The host's speed around the call, measured in the call's process with the
# kind of work the call does. Neither loop shares code with the simulator,
# so a change to the simulator does not move it.
CALIBRATIONS = {"python": calibrate_python, "numpy": calibrate_numpy}


def main(argv: list[str]) -> int:
    scenario, out_dir, overrides = argv[0], argv[1], json.loads(argv[2])
    kind, traced = argv[3], argv[4:] == ["--trace"]
    calibrate = CALIBRATIONS[kind]

    sys.path.insert(0, str(SRC))
    import sectrack

    if Path(sectrack.__file__).resolve().parent != SRC / "sectrack":
        print(f"imported sectrack from {sectrack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from sectrack.config import parse_config
    from sectrack.scenarios import run

    start = time.perf_counter()
    cfg = parse_config(None, {**overrides, "sim.scenario": scenario})
    parse_s = time.perf_counter() - start

    record: dict = {"parse_s": parse_s}
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        patches = tracer.patched()

    record["ready"] = time.monotonic()
    # The numpy loop allocates more than the detection call does, so it only
    # runs once the call's peak memory has been read.
    cal = [calibrate()] if kind == "python" else []
    cpu = _cpu_s()
    start = time.perf_counter()
    try:
        status = run(cfg.scenario, cfg, out_dir)
    finally:
        run_s = time.perf_counter() - start
        cpu_s = _cpu_s() - cpu
        if tracer is not None:
            tracer.remove()
    record.update(
        status=status,
        run_s=run_s,
        cpu_s=cpu_s,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    cal += [calibrate(), calibrate()]
    record["cal_s"] = sum(cal) / len(cal)
    if tracer is not None:
        record.update(
            layers=tracer.metrics(),
            span_calls=tracer.span_calls(),
            engine_run_s=tracer.engine_run_s,
            wrappers_removed=all(vars(owner)[attr] is fn for owner, attr, fn in patches),
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
