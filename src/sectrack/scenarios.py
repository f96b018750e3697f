"""Named experiment sets and their output files.

Each scenario builds a purpose-shaped cluster, runs the engine (or the
closed-form models), and emits the fixed-schema CSV files.  The
``multi-target`` and ``switching`` scenarios sweep many derived master
seeds; child seeds come from the same mixer as every other stream so one
``master_seed`` pins the whole experiment tree.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path
from typing import Callable

from sectrack import protocol
from sectrack.channel import received_energy
from sectrack.cipher import derive_stream_seed
from sectrack.config import ConfigError, ScenarioConfig, echo_config
from sectrack.engine import run_scenario
from sectrack.geometry import Position
from sectrack.metrics import MetricsLog, plt_efficiency, switching_overhead, write_csv

DETECTION_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
DETECTION_KEY_COUNTS = (1, 2, 4, 8)
ENERGY_BEAM_SWEEP = range(1, 9)
# Side of the area the fixed multi-target and trajectory layouts are drawn for.
LAYOUT_SIDE = 400.0
# Smallest area the friendliness cluster fits: its references sit 40 m
# either side of the cluster head, which is at least 40 m from the edge.
FRIENDLINESS_MIN_SIDE = 80.0


def run_detection(cfg: ScenarioConfig) -> MetricsLog:
    """Closed-form detection rates against the Monte Carlo sampler."""
    log = MetricsLog()
    row = 0
    for p_wh in DETECTION_GRID:
        for p_i in DETECTION_GRID:
            for p_r in DETECTION_GRID:
                adv = protocol.AdversaryModel(p_wh, p_i, p_r)
                for n in DETECTION_KEY_COUNTS:
                    closed = protocol.detection_rate(adv, n)
                    seed = derive_stream_seed(cfg.master_seed, "detection", row)
                    mc = protocol.monte_carlo_detection(adv, n, cfg.trials, seed)
                    log.detection_rows.append((p_wh, p_i, p_r, n, closed, mc))
                    row += 1
    return log


def run_energy(cfg: ScenarioConfig) -> MetricsLog:
    log = MetricsLog()
    chan = cfg.channel_config()
    for m in ENERGY_BEAM_SWEEP:
        log.energy_rows.append((m, received_energy(chan, m)))
    return log


def _layout_scale(cfg: ScenarioConfig) -> float:
    """Factor applied to every coordinate of a layout drawn for LAYOUT_SIDE.

    A smaller area shrinks the layout to fit.  A larger one keeps it as
    drawn: the radio range does not grow with the area, so a stretched
    layout would put references beyond the cluster head's reach.
    """
    return min(cfg.area_side / LAYOUT_SIDE, 1.0)


# Ids below this are the static cluster head and references; targets follow.
MULTI_TARGET_FIRST_ID = 10


def multi_target_config(cfg: ScenarioConfig, master_seed: int) -> ScenarioConfig:
    """Four targets staged in the four sectors of one primary reference.

    The cluster head and nine static references are pinned; the targets
    start at growing distances in the primary's four sector directions so
    they are detected, assigned and tracked in sector order.  Areas
    smaller than LAYOUT_SIDE shrink the layout to fit.
    """
    s = _layout_scale(cfg)
    primary = Position(205.0 * s, 200.0 * s)
    bearings = (45.0, 135.0, 225.0, 315.0)
    distances = (60.0, 80.0, 100.0, 120.0)
    placements: dict[int, Position] = {
        0: Position(195.0 * s, 200.0 * s),
        1: primary,
        # partner references on the compass points and diagonals
        2: Position(205.0 * s, 330.0 * s),
        3: Position(75.0 * s, 200.0 * s),
        4: Position(205.0 * s, 70.0 * s),
        5: Position(335.0 * s, 200.0 * s),
        6: Position(330.0 * s, 330.0 * s),
        7: Position(80.0 * s, 330.0 * s),
        8: Position(80.0 * s, 70.0 * s),
        9: Position(330.0 * s, 70.0 * s),
    }
    for k, (b, d) in enumerate(zip(bearings, distances)):
        placements[MULTI_TARGET_FIRST_ID + k] = Position(
            primary.x + d * s * math.cos(math.radians(b)),
            primary.y + d * s * math.sin(math.radians(b)),
        )
    return dataclasses.replace(
        cfg,
        node_count=14,
        malicious_count=4,
        master_seed=master_seed,
        model="random_waypoint",
        v_min=0.3,
        v_max=1.5,
        placements=placements,
        static_ids=frozenset(range(MULTI_TARGET_FIRST_ID)),
    )


def run_multi_target(cfg: ScenarioConfig) -> MetricsLog:
    """Per-sector tracking efficiency over cfg.seeds derived master seeds.

    Target MULTI_TARGET_FIRST_ID + k starts in the primary reference's sector k, so rows are
    keyed by that construction (1-based sector index).
    """
    out = MetricsLog()
    for rep in range(cfg.seeds):
        seed = derive_stream_seed(cfg.master_seed, "multi-target", rep)
        log = run_scenario(multi_target_config(cfg, seed))
        for target in sorted(log.tracks):
            record = log.tracks[target]
            sector = target - MULTI_TARGET_FIRST_ID + 1
            out.efficiency_rows.append((sector, rep, plt_efficiency(record)))
    return out


def trajectory_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Four targets sweeping the field on parallel lanes between two static
    reference rows; slow march so one field crossing fills the full run.
    Areas smaller than LAYOUT_SIDE shrink the layout to fit.  Lanes start
    at y = 140 and are ``lane_spacing`` apart, capped at (LAYOUT_SIDE - 140) / 3
    so that the fourth lane starts no higher than the layout's top edge."""
    s = _layout_scale(cfg)
    spacing = min(cfg.lane_spacing, (LAYOUT_SIDE - 140.0) / 3.0)
    placements: dict[int, Position] = {0: Position(200.0 * s, 200.0 * s)}
    for i, x in enumerate((60.0, 150.0, 240.0, 330.0)):
        placements[1 + i] = Position(x * s, 80.0 * s)
        placements[5 + i] = Position(x * s, 320.0 * s)
    for k in range(4):
        placements[9 + k] = Position(40.0 * s, (140.0 + k * spacing) * s)
    return dataclasses.replace(
        cfg,
        node_count=13,
        malicious_count=4,
        model="parallel_path",
        heading=0.0,
        v_min=0.8,
        v_max=0.8,
        placements=placements,
        static_ids=frozenset(range(9)),
    )


def run_trajectory(cfg: ScenarioConfig) -> MetricsLog:
    return run_scenario(trajectory_config(cfg))


def switching_config(cfg: ScenarioConfig, v_max: float, master_seed: int) -> ScenarioConfig:
    return dataclasses.replace(
        cfg,
        master_seed=master_seed,
        v_min=max(v_max / 4.0, 0.5),
        v_max=v_max,
        model="random_waypoint",
        placements={},
        static_ids=frozenset(),
    )


SWITCHING_SPEEDS = (5.0, 20.0)


def run_switching(cfg: ScenarioConfig) -> MetricsLog:
    """Paired-seed speed sweep: the slow-speed representative log of the
    first seed, carrying one (v_max, seed, overhead_s) summary row per run."""
    summary: list[tuple[float, int, float]] = []
    representative: MetricsLog | None = None
    for rep in range(cfg.seeds):
        seed = derive_stream_seed(cfg.master_seed, "switching", rep)
        for v in SWITCHING_SPEEDS:
            log = run_scenario(switching_config(cfg, v, seed))
            summary.append((v, rep, switching_overhead(log)))
            if representative is None:
                representative = log
    assert representative is not None
    representative.switching_summary = summary
    return representative


def friendliness_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Minimal static cluster with scripted re-authentication failures.

    Reference 2 fails its re-auth once at t>=25 (one scan), then twice in
    a row from t>=75 (consecutive-failure scan); no spare reference
    exists, so the track must wait the scans out.

    The cluster sits at (200, 200), moved toward the origin just far
    enough to fit a smaller area; its spacing is kept, since a shrunken
    target would fall inside the reference pair's baseline margin.  The
    layout therefore fits only areas of at least FRIENDLINESS_MIN_SIDE,
    and a smaller one is refused.  The run is cut to 200 s, but never below
    one ``sample_interval``.
    """
    _check_friendliness_area(cfg)
    cx = min(200.0, cfg.area_side - 40.0)
    cy = min(200.0, cfg.area_side - 60.0)
    placements = {
        0: Position(cx, cy),
        1: Position(cx - 40.0, cy),
        2: Position(cx + 40.0, cy),
        3: Position(cx, cy + 60.0),
    }
    return dataclasses.replace(
        cfg,
        node_count=4,
        malicious_count=1,
        duration=max(min(cfg.duration, 200.0), cfg.sample_interval),
        model="random_waypoint",
        placements=placements,
        static_ids=frozenset({0, 1, 2, 3}),
        inject_failures=((25.0, 2), (75.0, 2), (95.0, 2)),
    )


def _check_friendliness_area(cfg: ScenarioConfig) -> None:
    if cfg.area_side < FRIENDLINESS_MIN_SIDE:
        raise ConfigError(
            f"the friendliness layout needs an 'area_side' of at least "
            f"{FRIENDLINESS_MIN_SIDE:g} m, got {cfg.area_side:g}"
        )


def run_friendliness(cfg: ScenarioConfig) -> MetricsLog:
    return run_scenario(friendliness_config(cfg))


# Every scenario but ``all``, in SCENARIO_NAMES order; ``all`` runs each in turn.
RUNNERS: dict[str, Callable[[ScenarioConfig], MetricsLog]] = {
    "detection": run_detection,
    "multi-target": run_multi_target,
    "trajectory": run_trajectory,
    "switching": run_switching,
    "energy": run_energy,
    "friendliness": run_friendliness,
}


def run(scenario_name: str, cfg: ScenarioConfig, out_dir: str | Path) -> int:
    """Run one named scenario (or `all`); 0 iff every output landed.

    Returns 2 for an unknown name and raises ConfigError when the area is
    too small for the friendliness layout and that scenario would run,
    both before writing anything.
    """
    if scenario_name != "all" and scenario_name not in RUNNERS:
        print(f"unknown scenario '{scenario_name}'", file=sys.stderr)
        return 2
    if scenario_name in ("all", "friendliness"):
        _check_friendliness_area(cfg)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        echo_config(cfg, out / "effective.cfg")
        if scenario_name == "all":
            return max(run(name, cfg, out / name) for name in RUNNERS)
        write_csv(RUNNERS[scenario_name](cfg), out)
        return 0
    except OSError as exc:
        print(f"output failure in scenario '{scenario_name}': {exc}", file=sys.stderr)
        return 1
