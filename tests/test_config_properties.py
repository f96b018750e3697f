"""Property test: every config that parse_config accepts runs to completion.

Overrides go in as ``--set`` strings, in range and just outside it, nan
and inf included.  ``parse_config`` either returns a config or raises
``ConfigError``.  An accepted config runs the four engine scenarios to
status 0, with every efficiency in [0, 1], every estimate inside the
area plus ``AREA_SLACK``, and no screen's verdict inside its peer's scan.
"""

from __future__ import annotations

import csv
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sectrack import scenarios  # noqa: E402
from sectrack.channel import MAX_BEAMS  # noqa: E402
from sectrack.config import SECTIONS, ConfigError, parse_config  # noqa: E402
from sectrack.engine import AREA_SLACK  # noqa: E402

ENGINE_SCENARIOS = ("friendliness", "trajectory", "multi-target", "switching")
# Relation events that only a screen's verdict logs.
VERDICT_EVENTS = ("reauth_ok", "reauth_fail", "detected_malicious")
NON_FINITE = (math.nan, math.inf, -math.inf)


def floats(lo: float, hi: float, *outside: float) -> st.SearchStrategy[str]:
    return st.one_of(st.floats(lo, hi), st.sampled_from(outside + NON_FINITE)).map(repr)


def ints(lo: int, hi: int, *outside: int) -> st.SearchStrategy[str]:
    return st.one_of(st.integers(lo, hi), st.sampled_from(outside)).map(str)


# Valid ranges are bounded so that one run stays short; the listed values
# lie just outside what a config accepts.
OVERRIDES = {
    "sim.area_side": floats(100.0, 600.0, 0.0, -1.0),
    "sim.node_count": ints(2, 20, 0, -1),
    "sim.malicious_count": ints(0, 4, -1),
    "sim.sectors": ints(1, MAX_BEAMS, 0, MAX_BEAMS + 1),
    "sim.duration": floats(1.0, 60.0, 0.0, -1.0),
    "sim.sample_interval": floats(0.5, 20.0, 0.0, -1.0),
    "sim.master_seed": ints(0, 2**64 - 1, -1, 2**64),
    "sim.scenario": st.sampled_from(("all", "switching", "tracking")),
    "sim.trials": ints(1, 100, 0),
    "channel.c": floats(1e6, 3e8, 0.0, -1.0),
    "channel.range_limit": floats(0.0, 400.0, -5.0),
    # Timestamp noise does not lengthen a run; it reaches well past flight times.
    "channel.sigma_t": floats(0.0, 1e-3, -1e-9),
    "channel.e_total": floats(0.0, 2.0, -1.0),
    "channel.beta": floats(0.0, 0.14, 1.0 / (MAX_BEAMS - 1), -0.01),
    "sfv.j_max": ints(1, 8, 0),
    "sfv.reauth_interval": floats(0.5, 60.0, 0.0, -1.0),
    "sfv.rtt_bucket": floats(1e-7, 1e-4, 0.0),
    "sfv.n_keys": ints(1, 8, 0),
    "sfv.p_wh": floats(0.0, 1.0, -0.01, 1.01),
    "sfv.p_i": floats(0.0, 1.0, -0.01, 1.01),
    "sfv.p_r": floats(0.0, 1.0, -0.01, 1.01),
    "sfv.auth_duration": floats(0.0, 5.0, -1.0),
    "zone.alpha": floats(0.0, 2.0, -0.1),
    "zone.rho_min": floats(0.1, 50.0, 0.0),
    "zone.rho_max": floats(50.0, 300.0, 0.0),
    "zone.eps_gap": floats(0.1, 10.0, 0.0),
    "mobility.v_min": floats(0.0, 30.0, -1.0),
    "mobility.v_max": floats(0.0, 30.0, -1.0),
    "mobility.model": st.sampled_from(("random_waypoint", "parallel_path", "brownian")),
    "mobility.lane_spacing": floats(0.0, 100.0, -1.0),
    "mobility.heading": floats(-360.0, 360.0),
}

# Keys every drawn config sets, to keep each run short.
FIXED = {
    "sim.node_count": st.integers(5, 20).map(str),
    "sim.duration": st.floats(1.0, 60.0).map(repr),
    "sim.seeds": st.just("1"),
}

overrides = st.fixed_dictionaries(FIXED).flatmap(
    lambda base: st.lists(st.sampled_from(sorted(OVERRIDES)), max_size=4, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({k: OVERRIDES[k] for k in keys}).map(
            lambda extra: {**base, **extra}
        )
    )
)


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


BASE = {"sim.node_count": "8", "sim.duration": "30.0", "sim.seeds": "1"}


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(overrides=overrides)
@example(overrides={**BASE, "sim.duration": "3.0"})  # an assignment pass, no tracking instant
@example(overrides={**BASE, "channel.e_total": "0.0"})  # beams without energy
# friendliness cuts its run to 200 s, but never below one sample_interval
@example(overrides={**BASE, "sim.duration": "300.0", "sim.sample_interval": "250.0"})
@example(
    overrides={**BASE, "mobility.model": "parallel_path", "mobility.lane_spacing": "1000.0"}
)  # a lane spacing wider than the area
# stamp noise beyond the flight time, with no auth_duration to absorb it
@example(overrides={**BASE, "channel.sigma_t": "1e-06", "sfv.auth_duration": "0.0"})
# a scan-end screen whose verdict falls after the next sweep
@example(overrides={**BASE, "sim.duration": "200.0", "sfv.auth_duration": "3.0"})
def test_accepted_config_runs_every_engine_scenario(overrides):
    try:
        cfg = parse_config(overrides=overrides)
    except ConfigError:
        return
    lo, hi = -AREA_SLACK, cfg.area_side + AREA_SLACK
    with tempfile.TemporaryDirectory() as tmp:
        for name in ENGINE_SCENARIOS:
            out = Path(tmp) / name
            assert scenarios.run(name, cfg, out) == 0, name
            for row in _rows(out / "efficiency.csv"):
                assert 0.0 <= float(row["efficiency"]) <= 1.0, (name, row)
            for row in _rows(out / "trajectory.csv"):
                assert lo <= float(row["est_x"]) <= hi and lo <= float(row["est_y"]) <= hi, (
                    name,
                    row,
                )
            scanning = set()  # peers between their scan_start and scan_end rows
            for row in _rows(out / "friendliness.csv"):
                if row["event"] == "scan_start":
                    scanning.add(row["peer"])
                elif row["event"] == "scan_end":
                    scanning.discard(row["peer"])
                elif row["event"] in VERDICT_EVENTS:
                    assert row["peer"] not in scanning, (name, row)


def test_every_file_key_is_drawn():
    keys = {f"{section}.{key}" for section, names in SECTIONS.items() for key in names}
    assert set(OVERRIDES) | set(FIXED) == keys
