"""Named experiment constructs."""

from __future__ import annotations

import numpy as np

from sectrack.config import ScenarioConfig
from sectrack.cipher import derive_stream_seed
from sectrack.engine import Engine
from sectrack.metrics import switching_overhead
from sectrack.scenarios import (
    multi_target_config,
    run_detection,
    run_energy,
    run_friendliness,
    run_multi_target,
    run_trajectory,
    trajectory_config,
)


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
        sectors = [
            eng.nodes[1].beam_for_target(tr.target).sector_index for tr in with_primary
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
