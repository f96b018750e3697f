"""Efficiency, error and overhead aggregation plus CSV emission."""

from __future__ import annotations

import dataclasses

import pytest

from sectrack.config import ScenarioConfig
from sectrack.geometry import Position, TrackingZone
from sectrack.metrics import (
    EstimateSample,
    FriendEvent,
    MetricsLog,
    SwitchCause,
    SwitchEvent,
    TrackRecord,
    mean_tracking_error,
    plt_efficiency,
    switching_overhead,
    write_csv,
)
from sectrack.scenarios import run_trajectory, trajectory_config
from sectrack.engine import run_scenario


def schedule(n=100, interval=5.0) -> tuple[float, ...]:
    return tuple(interval * k for k in range(1, n + 1))


def perfect_track(n=100, interval=5.0, err=0.0) -> TrackRecord:
    """A fix at each instant of ``schedule(n, interval)``, each ``err`` m off."""
    track = TrackRecord()
    for k, t in enumerate(schedule(n, interval), start=1):
        p = Position(float(k), 0.0)
        track.add_estimate(EstimateSample(t, Position(p.x, p.y + err), p, err))
    return track


class TestEfficiency:
    def test_perfect_track_is_one(self):
        assert plt_efficiency(perfect_track(), schedule()) == 1.0

    def test_half_suspended_at_most_half(self):
        track = perfect_track(n=100)
        track.estimates = track.estimates[:50]
        assert plt_efficiency(track, schedule(100)) <= 0.5

    def test_every_scheduled_instant_counts(self):
        # One fix, at the first instant only: one hit of ten.
        track = perfect_track(n=1)
        assert plt_efficiency(track, schedule(10)) == 0.1
        # The score follows the schedule it is given, not the estimates.
        assert plt_efficiency(perfect_track(n=10), schedule(5)) == 1.0

    def test_out_of_tolerance_counts_as_miss(self):
        track = perfect_track(n=10, err=6.0)
        assert plt_efficiency(track, schedule(10), tol=5.0) == 0.0
        assert plt_efficiency(track, schedule(10), tol=7.0) == 1.0
        # The default tolerance is the README's 5 m.
        assert plt_efficiency(track, schedule(10)) == 0.0
        assert plt_efficiency(perfect_track(n=10, err=7.0), schedule(10)) == 0.0
        assert plt_efficiency(perfect_track(n=10, err=5.0), schedule(10)) == 1.0

    def test_partial_last_interval_not_counted_as_miss(self):
        # 13 s at 5 s intervals holds two instants; t = 15 lies past the run.
        cfg = ScenarioConfig(duration=13.0, sample_interval=5.0)
        times = cfg.sample_times()
        assert times == (5.0, 10.0)
        assert all(t <= cfg.duration for t in times)
        assert plt_efficiency(perfect_track(n=len(times)), times) == 1.0

    def test_sample_times_never_pass_duration(self):
        for duration, interval in ((13.0, 5.0), (14.9, 5.0), (1.0, 0.1), (0.3, 0.1), (500.0, 5.0)):
            cfg = ScenarioConfig(duration=duration, sample_interval=interval)
            times = cfg.sample_times()
            assert times[-1] <= duration + 1e-9
            assert times[-1] + interval > duration
            assert times == tuple(interval * k for k in range(1, len(times) + 1))

    def test_engine_partial_interval_perfect_track(self):
        cfg = ScenarioConfig(
            node_count=4,
            malicious_count=1,
            duration=13.0,
            sigma_t=0.0,
            auth_duration=0.0,
            master_seed=5,
            placements={
                0: Position(200.0, 200.0),
                1: Position(160.0, 200.0),
                2: Position(240.0, 200.0),
                3: Position(200.0, 260.0),
            },
            static_ids=frozenset({0, 1, 2, 3}),
        )
        track = run_scenario(cfg).tracks[3]
        assert [s.t for s in track.estimates] == [5.0, 10.0]
        assert plt_efficiency(track, cfg.sample_times()) == 1.0

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError, match="empty sample schedule"):
            plt_efficiency(perfect_track(), ())


class TestTrackRecord:
    @pytest.mark.parametrize("t", [5.0, 4.0])
    def test_a_non_increasing_estimate_time_is_refused(self, t):
        track = TrackRecord()
        p = Position(1.0, 0.0)
        track.add_estimate(EstimateSample(5.0, p, p, 0.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            track.add_estimate(EstimateSample(t, p, p, 0.0))
        assert [s.t for s in track.estimates] == [5.0]


class TestMeanError:
    def test_noiseless_zero(self):
        assert mean_tracking_error(perfect_track()) < 1e-9

    def test_requires_estimates(self):
        with pytest.raises(ValueError):
            mean_tracking_error(TrackRecord())

    def test_doubling_noise_increases_error(self):
        cfg = ScenarioConfig(master_seed=77)
        base = run_trajectory(cfg)
        noisy = run_scenario(
            dataclasses.replace(trajectory_config(cfg), sigma_t=cfg.sigma_t * 2.0)
        )
        base_err = [mean_tracking_error(tr) for tr in base.tracks.values() if tr.estimates]
        noisy_err = [mean_tracking_error(tr) for tr in noisy.tracks.values() if tr.estimates]
        assert sum(noisy_err) / len(noisy_err) > sum(base_err) / len(base_err)


class TestSwitchingOverhead:
    def test_zero_switches(self):
        # A float, so a run without a switch writes 0.0 like any other row.
        assert repr(switching_overhead(MetricsLog())) == "0.0"

    def test_sums_delays_in_window(self):
        log = MetricsLog()
        log.switches = [
            SwitchEvent(10.0, 1, 2, 3, SwitchCause.OUT_OF_RANGE, 2.0),
            SwitchEvent(50.0, 1, 3, 4, SwitchCause.FRIENDLINESS_LOST, 22.0),
            SwitchEvent(90.0, 2, 5, 6, SwitchCause.SECTOR_CONTENTION, 2.0),
        ]
        assert switching_overhead(log) == 26.0


class TestWriteCsv:
    def test_schemas_and_headers(self, tmp_path):
        log = MetricsLog()
        log.tracks[1] = perfect_track(n=3)
        log.switches = [SwitchEvent(5.0, 1, 2, 3, SwitchCause.OUT_OF_RANGE, 2.0)]
        log.friend_events = [FriendEvent(1.0, 0, 2, "reauth_ok", 0.0)]
        log.detection_rows = [(0.5, 0.5, 0.5, 2, 0.234375, 0.2341)]
        log.energy_rows = [(1, 1.0), (2, 0.47)]
        log.efficiency_rows = [(1, 0, 0.96)]
        files = write_csv(log, tmp_path)
        expected = {
            "detection.csv": "p_wh,p_i,p_r,n,closed_form,monte_carlo",
            "efficiency.csv": "sector,seed,efficiency",
            "trajectory.csv": "target,t,true_x,true_y,est_x,est_y,err",
            "switching.csv": "t,target,old_ref,new_ref,cause,delay_s",
            "energy.csv": "m_beams,energy",
            "friendliness.csv": "t,node,peer,event,delay_s",
        }
        assert {f.name for f in files} == set(expected)
        for name, header in expected.items():
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == header
            for line in lines[1:]:
                assert len(line.split(",")) == len(header.split(","))

    def test_switching_summary_only_for_a_log_with_summary_rows(self, tmp_path):
        log = MetricsLog()
        assert "switching_summary.csv" not in {f.name for f in write_csv(log, tmp_path / "a")}
        log.switching_summary = [(5.0, 0, 0.0), (20.0, 0, 2.0)]
        assert tmp_path / "b" / "switching_summary.csv" in write_csv(log, tmp_path / "b")
        body = (tmp_path / "b" / "switching_summary.csv").read_text()
        assert body == "v_max,seed,overhead_s\n5.0,0,0.0\n20.0,0,2.0\n"

    def test_byte_stable(self, tmp_path):
        cfg = ScenarioConfig(node_count=15, malicious_count=2, duration=100.0, master_seed=31)
        write_csv(run_scenario(cfg), tmp_path / "x")
        write_csv(run_scenario(cfg), tmp_path / "y")
        for f in sorted((tmp_path / "x").iterdir()):
            assert f.read_bytes() == (tmp_path / "y" / f.name).read_bytes()

    def test_switch_cause_serialized_as_value(self, tmp_path):
        log = MetricsLog()
        log.switches = [SwitchEvent(5.0, 1, 2, 3, SwitchCause.OUT_OF_RANGE, 2.0)]
        write_csv(log, tmp_path)
        body = (tmp_path / "switching.csv").read_text().splitlines()[1]
        assert body == "5.0,1,2,3,out_of_range,2.0"
