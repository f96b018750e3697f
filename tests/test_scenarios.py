"""Named experiment constructs."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from sectrack.config import SCENARIO_NAMES, ConfigError, ScenarioConfig, parse_config
from sectrack.cipher import derive_stream_seed
from sectrack.engine import Engine
from sectrack.geometry import Position
from sectrack.metrics import switching_overhead
from sectrack.scenarios import (
    FRIENDLINESS_MIN_SIDE,
    RUNNERS,
    friendliness_config,
    multi_target_config,
    run_detection,
    run_energy,
    run_friendliness,
    run_multi_target,
    run_trajectory,
    trajectory_config,
)
from sectrack.scenarios import run as run_named


class TestMultiTargetConstruct:
    def test_primary_serves_four_targets_on_distinct_sectors(self):
        # one reference node tracking four targets at once, one per sector
        cfg = multi_target_config(ScenarioConfig(master_seed=1), master_seed=41)
        eng = Engine(cfg)
        eng.run()
        active = [tr for tr in eng.tracks.values() if tr.suspension is None]
        with_primary = [tr for tr in active if 1 in (tr.ref_a, tr.ref_b)]
        assert len(with_primary) >= 3  # primary appears in several pairs at once
        partners = {tr.partner_of(1) for tr in with_primary}
        assert len(partners) == len(with_primary)  # distinct partner per pair
        primary = eng.nodes[1]
        sectors = [
            primary.sectors.index(primary.beam_for_target(tr.target)) for tr in with_primary
        ]
        assert len(set(sectors)) == len(sectors)

    def test_activation_is_paced(self):
        cfg = multi_target_config(ScenarioConfig(master_seed=1), master_seed=41)
        log = Engine(cfg).run()
        first_fix = sorted(tr.estimates[0].t for tr in log.tracks.values() if tr.estimates)
        assert len(first_fix) == 4
        gaps = [b - a for a, b in zip(first_fix, first_fix[1:])]
        assert all(g >= cfg.reauth_interval - cfg.sample_interval for g in gaps)

    def test_efficiency_rows_cover_all_sectors_and_seeds(self):
        log = run_multi_target(ScenarioConfig(master_seed=3, seeds=4))
        assert len(log.efficiency_rows) == 16
        assert {s for s, _, _ in log.efficiency_rows} == {1, 2, 3, 4}


class TestTrajectoryConstruct:
    def test_four_lane_tracks_with_bounded_error(self):
        log = run_trajectory(ScenarioConfig(master_seed=5))
        assert len(log.tracks) == 4
        for rec in log.tracks.values():
            errs = [s.err for s in rec.estimates]
            assert len(errs) >= 30
            assert 0.2 <= float(np.mean(errs)) <= 5.0

    def test_lanes_are_static_references_and_moving_targets(self):
        cfg = trajectory_config(ScenarioConfig(master_seed=5))
        eng = Engine(cfg)
        start = {nid: n.position for nid, n in eng.nodes.items()}
        eng.run()
        for nid in range(9):
            assert eng.nodes[nid].position == start[nid]
        for nid in range(9, 13):
            assert eng.nodes[nid].position != start[nid]


class TestFriendlinessConstruct:
    def test_forced_failure_costs_at_least_a_scan(self):
        log = run_friendliness(ScenarioConfig(master_seed=1))
        assert switching_overhead(log) >= 20.0


class TestClosedFormScenarios:
    def test_detection_rows_shape(self):
        log = run_detection(ScenarioConfig(master_seed=1, trials=2000))
        assert len(log.detection_rows) == 125 * 4

    def test_energy_rows(self):
        log = run_energy(ScenarioConfig(master_seed=1))
        assert [m for m, _ in log.energy_rows] == list(range(1, 9))

    def test_child_seeds_differ_by_label_and_index(self):
        a = derive_stream_seed(7, "multi-target", 0)
        b = derive_stream_seed(7, "multi-target", 1)
        c = derive_stream_seed(7, "switching", 0)
        assert len({a, b, c}) == 3


class TestScenarioTable:
    def test_every_scenario_but_all_has_a_runner_in_name_order(self):
        assert SCENARIO_NAMES == (*RUNNERS, "all")

    def test_unknown_name_is_refused_before_any_output(self, tmp_path):
        assert run_named("nosuch", ScenarioConfig(master_seed=1), tmp_path / "x") == 2
        assert not (tmp_path / "x").exists()


class TestLayoutsScaleWithTheArea:
    # Past (400 - 140) / 3 m, trajectory lanes are capped at that spacing.
    @pytest.mark.parametrize("spacing", [40.0, 86.0, 100.0, 400.0])
    @pytest.mark.parametrize("side", [100.0, 400.0, 600.0])
    @pytest.mark.parametrize(
        "build",
        [lambda cfg: multi_target_config(cfg, master_seed=1), trajectory_config],
        ids=["multi-target", "trajectory"],
    )
    def test_every_placement_lies_inside_the_area(self, build, side, spacing):
        cfg = build(ScenarioConfig(master_seed=1, area_side=side, lane_spacing=spacing))
        assert len(cfg.placements) == cfg.node_count
        for pos in cfg.placements.values():
            assert 0.0 <= pos.x <= side and 0.0 <= pos.y <= side

    def test_larger_area_keeps_the_layout_in_radio_range(self):
        drawn = trajectory_config(ScenarioConfig(master_seed=1)).placements
        assert trajectory_config(ScenarioConfig(master_seed=1, area_side=600.0)).placements == drawn

    def test_smaller_area_shrinks_the_layout(self):
        cfg = trajectory_config(ScenarioConfig(master_seed=1, area_side=100.0))
        assert cfg.placements[1] == Position(15.0, 20.0)
        # Fixes are no longer lost to references placed outside the area:
        # the shrunken cluster fills as many samples as the drawn one.
        counts = [
            sum(
                len(r.estimates)
                for r in run_trajectory(
                    ScenarioConfig(master_seed=1, area_side=side, duration=60.0)
                ).tracks.values()
            )
            for side in (100.0, 400.0)
        ]
        assert counts[0] == counts[1] > 0


class TestFriendlinessLayoutFitsTheArea:
    @pytest.mark.parametrize("side", [FRIENDLINESS_MIN_SIDE, 100.0, 200.0])
    def test_smaller_area_keeps_every_estimate(self, side):
        cfg = friendliness_config(ScenarioConfig(master_seed=1, area_side=side))
        for pos in cfg.placements.values():
            assert 0.0 <= pos.x <= side and 0.0 <= pos.y <= side
        counts = [
            sum(
                len(r.estimates)
                for r in run_friendliness(ScenarioConfig(master_seed=1, area_side=a)).tracks.values()
            )
            for a in (side, 400.0)
        ]
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("scenario", ["friendliness", "all"])
    def test_smaller_area_is_refused_before_any_output(self, scenario, tmp_path):
        cfg = ScenarioConfig(master_seed=1, area_side=FRIENDLINESS_MIN_SIDE - 1.0)
        with pytest.raises(ConfigError, match="at least 80 m"):
            run_named(scenario, cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        with pytest.raises(ConfigError, match="at least 80 m"):
            friendliness_config(cfg)

    def test_other_scenarios_still_run_in_a_small_area(self, tmp_path):
        cfg = ScenarioConfig(master_seed=1, area_side=50.0, duration=20.0)
        assert run_named("trajectory", cfg, tmp_path) == 0
        Engine(cfg)  # the engine's own validation has no layout minimum

    def test_large_areas_keep_the_drawn_layout(self):
        drawn = friendliness_config(ScenarioConfig(master_seed=1)).placements
        assert drawn[0] == Position(200.0, 200.0)
        assert friendliness_config(ScenarioConfig(master_seed=1, area_side=260.0)).placements == drawn


# SHA-256 of every output file at master seed 2, taken before the tracking
# tick was reworked (the trajectory tree: before mobility steps were
# batched), and re-pinned where a declared re-baseline moved a file (a
# tick no longer takes a beam SCANNING for another target).
# bench/golden.json pins seed 1 only, so these hold the engine to its
# bytes on a seed the benchmark never checks.  The multi-target entry is
# the benchmark's tracking-dense workload, where tracking ticks (and so
# beam claims) are densest.
HELD_OUT_TREES = {
    "multi-target": (
        {"sim.sample_interval": "1.0", "sim.seeds": "4"},
        {
            "detection.csv": "a8a3666030e8d8e6dbb9766ecce4384191c483e28b69c02cb168db710ce091e5",
            "effective.cfg": "f54d641f25e8268bef6ee4d31fcfca09c044d502dc739f34968c15ba92462d43",
            "efficiency.csv": "21081056a88f9e69ae21fdbfb0294de2544db267a7874f609006a0a75e9048f1",
            "energy.csv": "c154cc7c6e9924f421340d60a80ee87ec6a748e5706eedf8b7c1a6dee91e0a58",
            "friendliness.csv": "ef2544d5c2c3d379eb22c203eb633c485d93dadf55257e9dee3f2b959938d4b6",
            "switching.csv": "e99bf73c22bc1c8fd5e9d5cd996fcb9494c25ee18b561ef8555eff02752edcc6",
            "trajectory.csv": "2dcbd39a06737bccd20acf2ef808352f69f4fd36f79078ef03270605bcc1ec5c",
        },
    ),
    # The parallel-path lanes go through the batched mobility step.
    "trajectory": (
        {},
        {
            "detection.csv": "a8a3666030e8d8e6dbb9766ecce4384191c483e28b69c02cb168db710ce091e5",
            "effective.cfg": "7928eef9c7011ca65510da636ba852338a9b9bf8569c1a50ae3829a81a11b44e",
            "efficiency.csv": "8b33f33caf3a37c3393cf9827639da3a8157d9dc9c4f9a5d7578579fe6697066",
            "energy.csv": "c154cc7c6e9924f421340d60a80ee87ec6a748e5706eedf8b7c1a6dee91e0a58",
            "friendliness.csv": "5482cbbae814b6d20664707731e6baae9be320eb3e42c3ecb50994900a259e99",
            "switching.csv": "dece898c9cd35d070038ce253bd3887ddf052a1732f53af7d6648399cce2f48b",
            "trajectory.csv": "79d58c944cdf77d0a8fbbedc33f7469fd1c20bb65b79c0cdf4eea5cfa17e988c",
        },
    ),
    "switching": (
        {"sim.seeds": "1"},
        {
            "detection.csv": "a8a3666030e8d8e6dbb9766ecce4384191c483e28b69c02cb168db710ce091e5",
            "effective.cfg": "20652972441c438dfaf0b38c295a5490b222cbbda84be83801cd6fec342520c1",
            "efficiency.csv": "8b33f33caf3a37c3393cf9827639da3a8157d9dc9c4f9a5d7578579fe6697066",
            "energy.csv": "c154cc7c6e9924f421340d60a80ee87ec6a748e5706eedf8b7c1a6dee91e0a58",
            "friendliness.csv": "aef094c1fca5729e180b248a6592a4ed6d2ec88dd1b62dd57db6012bfd2fdec4",
            "switching.csv": "0737c511ca14aa557b0a927e3051cf08cce1002050ade3bd54687b8d511ccc66",
            "switching_summary.csv": "fbb846a39d733cfa7d8f9299ed6f9ae9833e2d1760816e6a119c9d24b0669b16",
            "trajectory.csv": "12c4a81d2e03eb7492f647d392a82573899db5e1d947b99caa83783d204777a6",
        },
    ),
}


@pytest.mark.parametrize("scenario", sorted(HELD_OUT_TREES))
def test_held_out_seed_tree_matches_its_pins(scenario, tmp_path):
    overrides, pinned = HELD_OUT_TREES[scenario]
    cfg = parse_config(None, {**overrides, "sim.master_seed": "2"})
    assert run_named(scenario, cfg, tmp_path) == 0
    digests = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file()
    }
    moved = sorted(name for name in pinned.keys() & digests.keys() if pinned[name] != digests[name])
    added = sorted(digests.keys() - pinned.keys())
    removed = sorted(pinned.keys() - digests.keys())
    assert digests == pinned, f"moved {moved}, added {added}, removed {removed}"
