"""Event loop, tracking cycle, assignment, switching, re-authentication."""

from __future__ import annotations

import ast
import dataclasses
import inspect

import pytest

from sectrack import channel, engine, mobility, protocol
from sectrack.channel import MAX_BEAMS, ranging_noise_std
from sectrack.config import ScenarioConfig
from sectrack.engine import (
    BASELINE_MARGIN,
    MOBILITY_DT,
    SCAN_DURATION,
    Engine,
    EventKind,
    EventQueue,
    FriendRecord,
    NodeState,
    SectorBeam,
    Suspension,
    Track,
    run_scenario,
)
from sectrack.geometry import (
    MeasurementError,
    Position,
    bearing_deg,
    distance,
    point_line_distance,
    sector_of,
)
from sectrack.metrics import SwitchCause, TrackRecord, plt_efficiency, write_csv
from sectrack.scenarios import (
    friendliness_config,
    multi_target_config,
    switching_config,
    trajectory_config,
)


def quiet_cluster(**overrides) -> ScenarioConfig:
    """Static cluster head, two flanking references, one static target."""
    base = dict(
        node_count=4,
        malicious_count=1,
        duration=500.0,
        sample_interval=5.0,
        sigma_t=0.0,
        master_seed=5,
        placements={
            0: Position(200.0, 200.0),
            1: Position(160.0, 200.0),
            2: Position(240.0, 200.0),
            3: Position(200.0, 260.0),
        },
        static_ids=frozenset({0, 1, 2, 3}),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


BOUND_MEMBERS = [
    (module, member.name, enum_cls)
    for module, enum_cls in (
        (engine, protocol.Verdict),
        (protocol, protocol.Verdict),
        (mobility, mobility.MobilityKind),
    )
    for member in enum_cls
]


@pytest.mark.parametrize(
    "module, name, enum_cls",
    BOUND_MEMBERS,
    ids=[f"{m.__name__}.{name}" for m, name, _ in BOUND_MEMBERS],
)
def test_module_binding_is_the_enum_member(module, name, enum_cls):
    # The hot paths compare against these names; a swapped or stale
    # binding would flip every ``is`` test that uses it.
    assert getattr(module, name) is enum_cls[name]


class TestBeamForTarget:
    @staticmethod
    def node(*targets) -> NodeState:
        sectors = [SectorBeam(beamwidth=90.0, target_id=target) for target in targets]
        mob = mobility.make_parallel_path(Position(0.0, 0.0), 0.0, 0.0)
        return NodeState(id=1, malicious=False, mobility=mob, sectors=sectors)

    def test_returns_the_beam_holding_the_target(self):
        node = self.node(None, 7, 8, None)
        assert node.beam_for_target(7) is node.sectors[1]
        assert node.beam_for_target(8) is node.sectors[2]
        assert node.beam_for_target(9) is None


def no_op(t, *args) -> None:
    pass


class TestEventQueue:
    def test_time_order(self):
        q = EventQueue()
        q.push(5.0, EventKind.TRACK, no_op)
        q.push(1.0, EventKind.SWEEP, no_op)
        q.push(3.0, EventKind.ASSIGN, no_op)
        times = [q.pop()[0] for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_fifo_among_equal_times(self):
        q = EventQueue()
        for i in range(10):
            q.push(2.0, EventKind.SCAN_DONE, no_op, i)
        order = [q.pop() for _ in range(10)]
        assert order == [(2.0, EventKind.SCAN_DONE, no_op, (i,)) for i in range(10)]


class TestRunLoop:
    """The loop calls each event's handler with the event's time and arguments."""

    @staticmethod
    def recorder(calls: list):
        def handle(t, *args) -> None:
            calls.append((t, args))

        return handle

    def test_an_event_runs_its_handler_with_its_arguments(self):
        eng = Engine(quiet_cluster(duration=20.0))
        calls: list = []
        eng.queue.push(7.5, EventKind.TRACK, self.recorder(calls), 3, "x")
        eng.queue.push(2.5, EventKind.SWEEP, self.recorder(calls))
        eng.run()
        assert calls == [(2.5, ()), (7.5, (3, "x"))]
        assert eng.now == 20.0

    def test_an_event_past_the_end_is_dropped_unrun(self):
        eng = Engine(quiet_cluster(duration=20.0))
        calls: list = []
        eng.queue.push(20.5, EventKind.TRACK, self.recorder(calls), 3)
        eng.run()
        assert calls == []
        assert eng.now == 20.0


class TestSchedule:
    @staticmethod
    def _scheduled(cfg: ScenarioConfig) -> dict[EventKind, list[float]]:
        eng = Engine(cfg)
        eng._schedule_all()
        times: dict[EventKind, list[float]] = {kind: [] for kind in EventKind}
        while len(eng.queue):
            t, kind, _, _ = eng.queue.pop()
            times[kind].append(t)
        return times

    def test_each_scheduled_event_carries_its_own_handler(self):
        eng = Engine(quiet_cluster(duration=20.0))
        eng._schedule_all()
        handlers = {
            EventKind.SWEEP: eng.reauthentication_tick,
            EventKind.ASSIGN: eng.assign_targets,
            EventKind.TRACK: eng._handle_track_tick,
        }
        kinds = set()
        while len(eng.queue):
            _, kind, handler, args = eng.queue.pop()
            assert (handler, args) == (handlers[kind], ())
            kinds.add(kind)
        assert kinds == set(handlers)

    def test_event_times_are_multiples_not_running_sums(self):
        # 0.1 and 0.7 are inexact in binary: a running sum drifts off k * dt.
        cfg = quiet_cluster(duration=20.0, sample_interval=0.1, reauth_interval=0.7)
        times = self._scheduled(cfg)
        assert times[EventKind.SWEEP] == [0.7 * k for k in range(29)]
        assert times[EventKind.ASSIGN] == [0.05 + 0.1 * k for k in range(200)]
        assert times[EventKind.TRACK] == list(cfg.sample_times())
        assert times[EventKind.TRACK] == [0.1 * k for k in range(1, 201)]

    def test_partial_last_interval_is_not_scheduled(self):
        times = self._scheduled(quiet_cluster(duration=13.0))
        assert times[EventKind.TRACK] == [5.0, 10.0]
        assert times[EventKind.ASSIGN] == [2.5, 7.5, 12.5]


class TestBatchedMobility:
    """Movers step in batches, yet each event sees them as if stepped every tick."""

    # Every handler an event carries.  Each is looked up when its event
    # is pushed, so patching the engine before run() reaches every event.
    HANDLERS = (
        "reauthentication_tick",
        "assign_targets",
        "_handle_track_tick",
        "_end_relation_scan",
        "_end_track_scan",
        "_handle_verdict",
    )

    @pytest.mark.parametrize(
        "cfg, ends_before_last_tick",
        [
            (
                ScenarioConfig(
                    node_count=12, malicious_count=2, duration=20.0, sample_interval=0.1,
                    reauth_interval=0.7, v_max=40.0, master_seed=3,
                ),
                False,
            ),
            # The last event falls before the last tick, which is never stepped.
            (
                ScenarioConfig(
                    node_count=12, malicious_count=2, duration=37.3, sample_interval=0.9,
                    reauth_interval=3.0, v_max=40.0, master_seed=4,
                ),
                True,
            ),
        ],
        ids=["duration-20", "duration-37.3"],
    )
    def test_every_event_sees_each_tick_at_or_before_it(
        self, cfg, ends_before_last_tick, monkeypatch
    ):
        eng, eager = Engine(cfg), Engine(cfg)
        # One step per tick k * MOBILITY_DT, k >= 1, up to the end of the run.
        ticks = []
        while (tick := (len(ticks) + 1) * MOBILITY_DT) <= cfg.duration + 1e-9:
            ticks.append(tick)
        eager_steps = 0

        def advance(to: int) -> None:
            nonlocal eager_steps
            for _ in range(to - eager_steps):
                for node, rng in eager._movers:
                    mobility.step(node.mobility, MOBILITY_DT, cfg.area_side, rng)
            eager_steps = max(eager_steps, to)

        def assert_in_step() -> None:
            assert [n.position for n, _ in eng._movers] == [
                n.position for n, _ in eager._movers
            ]

        seen = []
        for name in self.HANDLERS:
            handler = getattr(eng, name)

            def checked(t, *args, _handler=handler):
                advance(sum(1 for tick in ticks if tick <= t))
                assert_in_step()
                seen.append(t)
                return _handler(t, *args)

            monkeypatch.setattr(eng, name, checked)
        eng.run()
        assert len(eng._movers) == 12 and len(seen) > 100
        assert (max(seen) < ticks[-1]) is ends_before_last_tick
        # The run leaves the movers where its last event saw them.
        assert_in_step()


class TestRunScenario:
    def test_exactly_100_samples_static_noiseless(self):
        cfg = quiet_cluster()
        log = run_scenario(cfg)
        assert len(log.tracks) == 1
        track = log.tracks[3]
        # The schedule the efficiency is scored on is the one the run sampled on.
        sample_times = cfg.sample_times()
        assert tuple(s.t for s in track.estimates) == sample_times
        assert sample_times == tuple(5.0 * k for k in range(1, 101))
        assert max(s.err for s in track.estimates) < 1e-6
        assert plt_efficiency(track, sample_times) == 1.0

    def test_zero_malicious_no_tracks(self):
        cfg = quiet_cluster(malicious_count=0, duration=100.0)
        log = run_scenario(cfg)
        assert log.tracks == {}
        assert log.switches == []
        assert len(log.verdicts) > 0  # verification log still populated

    def test_determinism_bit_identical(self, tmp_path):
        cfg = ScenarioConfig(node_count=25, malicious_count=3, duration=150.0, master_seed=9)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        write_csv(a, tmp_path / "a")
        write_csv(b, tmp_path / "b")
        for name in ("trajectory.csv", "switching.csv", "friendliness.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_estimate_timestamps_strictly_increase(self):
        cfg = ScenarioConfig(node_count=25, malicious_count=3, duration=150.0, master_seed=2)
        log = run_scenario(cfg)
        for track in log.tracks.values():
            ts = [s.t for s in track.estimates]
            assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_switch_events_have_single_cause(self):
        cfg = ScenarioConfig(node_count=30, malicious_count=4, duration=200.0, master_seed=4)
        log = run_scenario(cfg)
        for ev in log.switches:
            assert isinstance(ev.cause, SwitchCause)

    def test_honest_relations_stay_friendly(self):
        eng = Engine(quiet_cluster(duration=200.0))
        eng.run()
        for peer in (1, 2):
            rec = eng.relations[peer]
            assert rec.status is protocol.FRIENDLY
            assert rec.consecutive_failures == 0

    def test_target_marked_malicious(self):
        eng = Engine(quiet_cluster(duration=100.0))
        eng.run()
        assert eng.relations[3].status is protocol.MALICIOUS

    def test_the_cluster_head_is_never_a_reference_candidate(self):
        # No sweep screens the cluster head, so it holds no relation and
        # is never friendly, even where it lies nearest.
        eng = Engine(quiet_cluster(duration=100.0))
        eng.run()
        head = eng.ch_node
        assert head.id not in eng.relations
        cands = eng._reference_candidates(head.position, exclude=set())
        # Target 3 is left out by its truth flag.
        assert [node.id for node in cands] == [1, 2]

    def test_peer_beyond_range_never_screened(self):
        # Static reference 2 sits ~255 m from the cluster head at (200, 200).
        base = quiet_cluster(duration=100.0)
        cfg = dataclasses.replace(base, placements={**base.placements, 2: Position(20.0, 20.0)})
        eng = Engine(cfg)
        log = eng.run()
        assert {ev.peer for ev in log.verdicts} == {1, 3}
        assert 2 not in eng.relations

    def test_a_friendly_peer_beyond_range_lapses_without_a_draw(self):
        # A noisy channel, so an in-range screen would draw.
        base = quiet_cluster(sigma_t=5.0e-9)
        far = {**base.placements, 2: Position(20.0, 20.0)}  # 2 is ~255 m from the cluster head
        eng = Engine(dataclasses.replace(base, placements=far))
        # Peers 1 and 3 stand detected, so the sweep screens peer 2 alone.
        for peer in (1, 3):
            eng.relations[peer] = FriendRecord(status=protocol.MALICIOUS)
        rec = eng.relations[2] = FriendRecord(status=protocol.FRIENDLY)

        class NoDraws:
            def normal(self, loc, scale):
                raise AssertionError("the channel stream was drawn from")

        eng.rng_channel = NoDraws()
        eng.reauthentication_tick(30.0)
        assert rec.status is None
        assert [(ev.t, ev.peer, ev.event) for ev in eng.log.friend_events] == [
            (30.0, 2, "out_of_range")
        ]
        assert len(eng.queue) == 0  # no verdict is scheduled


class TestTrackingBehavior:
    def test_sector_crossing_keeps_track(self):
        # target marches east past both references' 90-degree boresights
        cfg = ScenarioConfig(
            node_count=4,
            malicious_count=1,
            duration=400.0,
            sigma_t=0.0,
            master_seed=6,
            model="parallel_path",
            v_min=0.8,
            v_max=0.8,
            placements={
                0: Position(200.0, 40.0),
                1: Position(140.0, 100.0),
                2: Position(260.0, 100.0),
                3: Position(80.0, 200.0),
            },
            static_ids=frozenset({0, 1, 2}),
        )
        eng = Engine(cfg)
        log = eng.run()
        track = log.tracks[3]
        assert len(track.estimates) > 50
        assert max(s.err for s in track.estimates) < 5.0
        # sectors used at reference 1 must change as the target passes over
        from sectrack.geometry import bearing_deg, sector_of

        sectors_seen = {
            sector_of(bearing_deg(Position(140.0, 100.0), s.est), 4)
            for s in track.estimates
        }
        assert len(sectors_seen) >= 2

    def test_out_of_range_triggers_switch(self):
        # target walks east out of the western pair's reach; eastern
        # references are available to take over
        cfg = ScenarioConfig(
            node_count=6,
            malicious_count=1,
            duration=500.0,
            sigma_t=0.0,
            master_seed=7,
            model="parallel_path",
            v_min=1.2,
            v_max=1.2,
            range_limit=250.0,
            placements={
                0: Position(200.0, 260.0),
                1: Position(40.0, 120.0),
                2: Position(150.0, 120.0),
                3: Position(260.0, 120.0),
                4: Position(370.0, 120.0),
                5: Position(30.0, 200.0),
            },
            static_ids=frozenset({0, 1, 2, 3, 4}),
        )
        log = run_scenario(cfg)
        causes = {ev.cause for ev in log.switches}
        assert SwitchCause.OUT_OF_RANGE in causes
        track = log.tracks[5]
        last_switch = max(ev.t for ev in log.switches)
        assert any(s.t > last_switch for s in track.estimates)

    def test_sector_contention_logged(self):
        # two targets due east of reference 1 in the same sector
        cfg = ScenarioConfig(
            node_count=7,
            malicious_count=2,
            duration=120.0,
            sigma_t=0.0,
            master_seed=8,
            placements={
                0: Position(100.0, 200.0),
                1: Position(100.0, 100.0),
                2: Position(100.0, 300.0),
                3: Position(300.0, 100.0),
                4: Position(300.0, 300.0),
                5: Position(160.0, 130.0),
                6: Position(180.0, 140.0),
            },
            static_ids=frozenset(range(7)),
        )
        log = run_scenario(cfg)
        assert len(log.tracks) == 2
        assert any(ev.cause is SwitchCause.SECTOR_CONTENTION for ev in log.switches)


class TestNoFixCause:
    """Two ticks without a fix switch for OUT_OF_RANGE exactly when a ping drew no echo."""

    @staticmethod
    def active_track() -> tuple[Engine, Track]:
        eng = Engine(quiet_cluster(duration=100.0))
        eng.run()
        track = eng.tracks[3]
        assert track.suspension is None
        truth = eng.nodes[3].position
        for ref in (track.ref_a, track.ref_b):
            assert distance(eng.nodes[ref].position, truth) < eng.cfg.range_limit / 2.0
        return eng, track

    @staticmethod
    def recorded_causes(monkeypatch) -> list[SwitchCause]:
        """The causes of the switches the engine asks for from now on, as they come."""
        causes = []
        switch = Engine.switch_reference

        def recording_switch(self, track, failed_ref, cause, t, reauth=False):
            causes.append(cause)
            switch(self, track, failed_ref, cause, t, reauth)

        monkeypatch.setattr(Engine, "switch_reference", recording_switch)
        return causes

    @staticmethod
    def causes_of_two_ticks(eng: Engine, track: Track, monkeypatch) -> list[SwitchCause]:
        causes = TestNoFixCause.recorded_causes(monkeypatch)
        for k in (1, 2):
            eng.tracking_tick(track, eng.now + k * eng.cfg.sample_interval)
        return causes

    def test_a_lost_ping_is_out_of_range_whatever_the_truth(self, monkeypatch):
        eng, track = self.active_track()
        exchange = channel.exchange

        def lossy(a, b, t_send, hold, cfg, rng=None, sigma_t=None):
            if sigma_t is not None:  # only ranging exchanges pass sigma_t
                return None
            return exchange(a, b, t_send, hold, cfg, rng, sigma_t)

        monkeypatch.setattr(channel, "exchange", lossy)
        causes = self.recorded_causes(monkeypatch)
        track.vel_est = (0.4, -0.2)  # so the prediction leaves the anchor
        t = eng.now + eng.cfg.sample_interval
        prediction, before = track.predict(t), len(track.record.estimates)
        assert prediction != track.anchor

        # The first lost tick is a no-fix: the next zone forms around its
        # prediction, and nothing is logged or switched yet.
        eng.tracking_tick(track, t)
        assert (track.anchor, track.anchor_time, track.consecutive_no_fix) == (prediction, t, 1)
        assert len(track.record.estimates) == before and causes == []

        eng.tracking_tick(track, t + eng.cfg.sample_interval)
        assert causes == [SwitchCause.OUT_OF_RANGE]

    def test_a_garbled_exchange_is_out_of_zone(self, monkeypatch):
        eng, track = self.active_track()

        def garbled(m, c):
            raise MeasurementError("negative net flight time")

        monkeypatch.setattr(engine, "range_from_timestamps", garbled)
        assert self.causes_of_two_ticks(eng, track, monkeypatch) == [SwitchCause.OUT_OF_ZONE]


class TestTickRules:
    """The tick's geometric rules, each on a constructed track of ``quiet_cluster``.

    References 1 and 2 sit at (160, 200) and (240, 200), so their baseline
    is the line y = 200, and target 3 sits at (200, 260).
    """

    @staticmethod
    def tick_with_anchor(eng: Engine, track: Track, anchor: Position, monkeypatch) -> list:
        """Tick once with the track predicting ``anchor``; return the switches it asked for."""
        switches = []
        monkeypatch.setattr(
            Engine,
            "switch_reference",
            lambda self, track, failed_ref, cause, t, reauth=False: switches.append(
                (failed_ref, cause)
            ),
        )
        t = eng.now + eng.cfg.sample_interval
        track.anchor, track.anchor_time, track.vel_est = anchor, t, (0.0, 0.0)
        eng.tracking_tick(track, t)
        return switches

    def test_far_ref_is_the_farther_reference(self):
        eng, track = TestNoFixCause.active_track()
        pos_a, pos_b = eng.nodes[track.ref_a].position, eng.nodes[track.ref_b].position
        assert eng._far_ref(track, Position(170.0, 230.0), pos_a, pos_b) == track.ref_b
        assert eng._far_ref(track, Position(230.0, 230.0), pos_a, pos_b) == track.ref_a

    @pytest.mark.parametrize("offset", [0.3, 0.45])
    def test_a_prediction_near_the_baseline_switches_the_far_reference(
        self, offset, monkeypatch
    ):
        # Between BASELINE_MARGIN / 4 and / 2 off the baseline, nearer reference 1.
        eng, track = TestNoFixCause.active_track()
        prediction = Position(190.0, 200.0 + offset * BASELINE_MARGIN)
        assert {track.ref_a, track.ref_b} == {1, 2}
        switches = self.tick_with_anchor(eng, track, prediction, monkeypatch)
        assert switches == [(2, SwitchCause.OUT_OF_ZONE)]

    def test_a_prediction_past_half_the_margin_keeps_its_pair(self, monkeypatch):
        eng, track = TestNoFixCause.active_track()
        prediction = Position(190.0, 200.0 + 0.55 * BASELINE_MARGIN)
        before = len(track.record.estimates)
        assert self.tick_with_anchor(eng, track, prediction, monkeypatch) == []
        assert len(track.record.estimates) == before + 1

    @pytest.mark.parametrize(
        "fix, kept",
        [
            (Position(-engine.AREA_SLACK - 0.5, 200.0), False),
            (Position(200.0, 400.0 + engine.AREA_SLACK + 0.5), False),
            (Position(-engine.AREA_SLACK + 0.5, 200.0), True),
            (Position(200.0, 400.0 + engine.AREA_SLACK - 0.5), True),
        ],
    )
    def test_a_fix_outside_the_area_is_a_no_fix(self, fix, kept, monkeypatch):
        eng, track = TestNoFixCause.active_track()
        assert eng.cfg.area_side == 400.0
        monkeypatch.setattr(Engine, "_triangulate", lambda self, *args: (fix, False))
        before = len(track.record.estimates)
        t = eng.now + eng.cfg.sample_interval
        eng.tracking_tick(track, t)
        if kept:
            assert track.record.estimates[before:] and track.record.estimates[-1].est == fix
            assert track.consecutive_no_fix == 0
        else:
            assert len(track.record.estimates) == before
            assert track.consecutive_no_fix == 1

    @pytest.mark.parametrize(
        "prediction, found",
        [(Position(200.0, 300.0), True), (Position(40.0, 380.0), False)],
    )
    def test_an_out_of_zone_fix_retries_in_a_zone_at_the_prediction(self, prediction, found):
        # Exact ranges to the target at (200, 260): both candidates, it and
        # its mirror (200, 140), lie outside the zone around the stale
        # anchor, so the fix is retried once in a zone formed around the
        # prediction, which holds the target only when the prediction is near.
        eng, track = TestNoFixCause.active_track()
        pos_a, pos_b = eng.nodes[track.ref_a].position, eng.nodes[track.ref_b].position
        truth, mirror = eng.nodes[track.target].position, Position(200.0, 140.0)
        ranges = [distance(pos_a, truth), distance(pos_b, truth)]
        zone = eng._form_zone(pos_a, pos_b, Position(200.0, 400.0))
        rezone = eng._form_zone(pos_a, pos_b, prediction)
        assert not (zone.contains(truth) or zone.contains(mirror) or rezone.contains(mirror))
        assert rezone.contains(truth) is found

        est, ambiguous = eng._triangulate(ranges, zone, prediction, pos_a, pos_b)
        if found:
            assert distance(est, truth) < 1e-6 and ambiguous is False
        else:
            assert (est, ambiguous) == (None, False)

    def test_an_ambiguous_fix_takes_the_candidate_the_claimed_sector_faces(self, monkeypatch):
        # The anchor lies 15 m below the baseline and the velocity carries
        # the prediction 15 m above it, toward the target at (200, 260).
        # The zone holds both candidates and prefers the mirror, the
        # nearer to its center; the beams face the prediction, on the
        # target's side.
        eng, track = TestNoFixCause.active_track()
        monkeypatch.setattr(Engine, "switch_reference", None)  # a switch would fail the test
        pos_a, pos_b = eng.nodes[track.ref_a].position, eng.nodes[track.ref_b].position
        truth, mirror = eng.nodes[track.target].position, Position(200.0, 140.0)
        t = eng.now + eng.cfg.sample_interval
        track.anchor, track.anchor_time = Position(200.0, 185.0), eng.now
        track.vel_est = (0.0, 30.0 / eng.cfg.sample_interval)
        zone = eng._form_zone(pos_a, pos_b, track.anchor)
        assert zone.contains(truth) and zone.contains(mirror)
        assert distance(zone.center, mirror) < distance(zone.center, truth)
        before = len(track.record.estimates)
        eng.tracking_tick(track, t)
        assert len(track.record.estimates) == before + 1
        assert distance(track.record.estimates[-1].est, truth) < 1e-6


class TestFriendlinessTimers:
    # At 3.0 the scan-end screen's verdict falls after the next sweep, which
    # must not screen the peer a second time while that verdict is due.
    @pytest.mark.parametrize("auth_duration", [2.0, 3.0])
    def test_single_and_consecutive_failure_delays(self, auth_duration):
        cfg = quiet_cluster(
            duration=200.0,
            auth_duration=auth_duration,
            inject_failures=((25.0, 2), (75.0, 2), (95.0, 2)),
        )
        log = run_scenario(cfg)
        fails = [ev for ev in log.friend_events if ev.event == "reauth_fail"]
        scans = [ev for ev in log.friend_events if ev.event == "scan_start"]
        resumes = [ev for ev in log.friend_events if ev.event == "track_resume"]
        assert len(fails) == 3
        # the third failure follows the second straight off its scan, so
        # only it carries the consecutive-failure penalty
        assert [round(ev.delay_s) for ev in scans] == [20, 20, 30]
        # single failure: resumption at least 20 s after the failure
        assert resumes[0].t - fails[0].t >= 20.0
        # consecutive failures: resumption at least 30 s after the second
        assert resumes[1].t - fails[2].t >= 30.0

    def test_reauth_failure_suspends_track_behind_the_scan(self):
        # Reference 2 fails its re-auth near t = 27 and no spare reference
        # exists, so at t = 40 the track still waits out the 20 s scan.
        eng = Engine(friendliness_config(ScenarioConfig(master_seed=1, duration=40.0)))
        eng.run()
        s = eng.tracks[3].suspension
        assert s is not None
        assert (s.failed_ref, s.cause, s.reauth) == (2, SwitchCause.FRIENDLINESS_LOST, True)
        assert 25.0 <= s.at < 40.0 - 1.0
        assert eng.nodes[2].beam_for_target(3) is None
        assert eng.nodes[1].beam_for_target(3) is not None  # the survivor's beam scans

    def test_scan_window_blocks_early_reinstatement(self):
        cfg = quiet_cluster(duration=120.0, inject_failures=((25.0, 2),))
        log = run_scenario(cfg)
        fail_t = next(ev.t for ev in log.friend_events if ev.event == "reauth_fail")
        ok_after = [
            ev.t
            for ev in log.friend_events
            if ev.event == "reauth_ok" and ev.peer == 2 and ev.t > fail_t
        ]
        assert ok_after and min(ok_after) >= fail_t + 20.0

    def test_scripted_failures_are_consumed_per_peer(self):
        # Listed out of order, and peer 2's 25 s failure falls due at the
        # 25 s sweep before peer 1's 30 s one: a script shared by the peers
        # would fail peer 1, screened first, at that sweep.
        script = ((75.0, 2), (50.0, 1), (25.0, 2), (30.0, 1))
        cfg = quiet_cluster(duration=150.0, inject_failures=script)
        log = run_scenario(cfg)
        for peer in (1, 2):
            verdicts = [ev.t for ev in log.verdicts if ev.peer == peer]
            fails = [
                ev.t for ev in log.friend_events if ev.event == "reauth_fail" and ev.peer == peer
            ]
            # Each of the peer's own times fails the first of its screens
            # that starts at or after it and after the previous failure; a
            # verdict lands auth_duration (plus the exchange) after its start.
            expected = []
            for after in sorted(a for a, p in script if p == peer):
                expected.append(
                    next(
                        v
                        for v in verdicts
                        if v - cfg.auth_duration >= after and (not expected or v > expected[-1])
                    )
                )
            assert fails == expected, f"peer {peer}"

    def test_a_verdict_is_never_due_before_its_screen(self):
        # Peer 1 sits on the cluster head and the verdict carries no
        # auth_duration, so every stamp drawn a full sigma early puts the
        # exchange's end before the screen started.
        class Early:
            def normal(self, loc: float, scale: float) -> float:
                return loc - scale

        cfg = quiet_cluster(
            duration=60.0,
            sigma_t=1e-6,
            auth_duration=0.0,
            placements={**quiet_cluster().placements, 1: Position(200.0, 200.0)},
        )
        eng = Engine(cfg)
        eng.rng_channel = Early()
        log = eng.run()
        sweeps = [k * cfg.reauth_interval for k in range(3)]
        assert [ev.t for ev in log.verdicts if ev.peer == 1] == sweeps


# Short runs of three scenarios, by name.
SHORT_SCENARIOS = {
    "friendliness": lambda: friendliness_config(ScenarioConfig(master_seed=1, duration=100.0)),
    "multi-target": lambda: multi_target_config(ScenarioConfig(duration=100.0), master_seed=41),
    "switching": lambda: switching_config(
        ScenarioConfig(duration=100.0), v_max=5.0, master_seed=3
    ),
}


class TestDetectionOrder:
    """Detected targets wait for their pair in the order their verdicts landed."""

    def test_equal_time_verdicts_land_in_id_order_and_the_lower_id_activates_first(self):
        # Targets 5 and 6 sit 60 m north and south of the cluster head, so
        # one noiseless sweep's screens of both fall due at one time, and
        # every dishonest screen is caught.  Two reference pairs flank them.
        cfg = quiet_cluster(
            node_count=7,
            malicious_count=2,
            duration=60.0,
            p_wh=0.0,
            p_i=0.0,
            p_r=0.0,
            placements={
                0: Position(200.0, 200.0),
                1: Position(160.0, 200.0),
                2: Position(240.0, 200.0),
                3: Position(150.0, 130.0),
                4: Position(250.0, 130.0),
                5: Position(200.0, 260.0),
                6: Position(200.0, 140.0),
            },
            static_ids=frozenset(range(7)),
        )
        eng = Engine(cfg)
        log = eng.run()
        screens = [(ev.t, ev.peer, ev.verdict) for ev in log.verdicts if ev.peer >= 5]
        t = screens[0][0]
        assert screens == [(t, 5, "malicious"), (t, 6, "malicious")]
        assert eng._detected == [5, 6]
        # No track leaves ``tracks``, which keeps them in activation order.
        assert list(eng.tracks) == [5, 6]

    @pytest.mark.parametrize("name", sorted(SHORT_SCENARIOS))
    def test_each_caught_target_is_listed_once_in_verdict_order(self, name):
        # MALICIOUS is final for a target: no sweep screens it again.  An
        # honest relation's failed re-screen is not a catch: it scans.
        eng = Engine(SHORT_SCENARIOS[name]())
        log = eng.run()
        caught = [
            ev.peer
            for ev in log.verdicts
            if ev.verdict == "malicious" and eng.nodes[ev.peer].malicious
        ]
        assert caught, "the run catches no target, so it shows nothing"
        assert eng._detected == caught
        assert set(caught) == {
            peer for peer, rec in eng.relations.items() if rec.status is protocol.MALICIOUS
        }


class TestTruthFlag:
    @pytest.mark.parametrize("name", sorted(SHORT_SCENARIOS))
    def test_the_last_malicious_count_nodes_are_the_malicious_ones(self, name):
        cfg = SHORT_SCENARIOS[name]()
        eng = Engine(cfg)
        first_target = cfg.node_count - cfg.malicious_count
        assert [nid for nid, node in eng.nodes.items() if node.malicious] == list(
            range(first_target, cfg.node_count)
        )


class TestRelationBusy:
    """A relation is busy from screen to verdict, and from a failed verdict to its scan's end."""

    FAR = Position(20.0, 20.0)  # ~255 m from the cluster head, out of range

    @staticmethod
    def land(eng: Engine, kind: EventKind) -> float:
        """Deliver the one queued event, which must be of ``kind``; its time."""
        t, got, handler, args = eng.queue.pop()
        assert got is kind and len(eng.queue) == 0
        handler(t, *args)
        return t

    @staticmethod
    def peer_2_alone(**overrides) -> Engine:
        # Peers 1 and 3 stand detected, so a sweep screens peer 2 alone.
        eng = Engine(quiet_cluster(**overrides))
        for peer in (1, 3):
            eng.relations[peer] = FriendRecord(status=protocol.MALICIOUS)
        return eng

    def test_busy_from_screen_to_verdict(self):
        eng = self.peer_2_alone()
        eng.reauthentication_tick(25.0)
        rec = eng.relations[2]  # the screen made the record
        assert (rec.status, rec.busy) == (None, True)
        eng.reauthentication_tick(26.0)  # the verdict is still due
        assert len(eng.queue) == 1
        self.land(eng, EventKind.VERDICT)
        assert (rec.status, rec.busy) == (protocol.FRIENDLY, False)

    def test_busy_from_failed_verdict_to_scan_end(self):
        eng = self.peer_2_alone(inject_failures=((0.0, 2),))
        eng.reauthentication_tick(25.0)
        failed_at = self.land(eng, EventKind.VERDICT)
        rec = eng.relations[2]
        assert (rec.status, rec.consecutive_failures, rec.busy) == (None, 1, True)
        eng.reauthentication_tick(failed_at + 1.0)  # the scan is still running
        assert len(eng.queue) == 1
        # The scan's end frees the relation and screens the peer again,
        # which keeps it busy until that screen's verdict.
        assert self.land(eng, EventKind.SCAN_DONE) == failed_at + SCAN_DURATION
        assert rec.busy
        self.land(eng, EventKind.VERDICT)
        assert (rec.status, rec.consecutive_failures, rec.busy) == (protocol.FRIENDLY, 0, False)

    def test_a_scan_that_ends_out_of_range_leaves_the_relation_free(self):
        eng = self.peer_2_alone(inject_failures=((0.0, 2),))
        eng.reauthentication_tick(25.0)
        failed_at = self.land(eng, EventKind.VERDICT)
        home = eng.nodes[2].position
        eng.nodes[2].mobility.position = self.FAR
        self.land(eng, EventKind.SCAN_DONE)
        rec = eng.relations[2]
        assert len(eng.queue) == 0  # the scan-end screen drew no echo
        assert (rec.status, rec.busy) == (None, False)
        eng.nodes[2].mobility.position = home
        eng.reauthentication_tick(failed_at + SCAN_DURATION + 5.0)
        assert len(eng.queue) == 1  # the next sweep screens the peer again
        self.land(eng, EventKind.VERDICT)
        assert (rec.status, rec.busy) == (protocol.FRIENDLY, False)

    @pytest.mark.parametrize("busy", [False, True])
    @pytest.mark.parametrize("status", [None, protocol.FRIENDLY, protocol.MALICIOUS])
    def test_a_sweep_skips_exactly_the_busy_and_malicious_relations(self, status, busy):
        eng = Engine(quiet_cluster())
        # Peer 1 has no relation yet, peer 2 the case's and peer 3 a free one.
        eng.relations[2] = FriendRecord(status=status, busy=busy)
        eng.relations[3] = FriendRecord(status=protocol.FRIENDLY)
        screened = []
        eng._verify = lambda peer_id, t: screened.append(peer_id)
        eng.reauthentication_tick(25.0)
        skipped = busy or status is protocol.MALICIOUS
        assert screened == ([1, 3] if skipped else [1, 2, 3])


class TestSectorExclusivity:
    def test_second_beam_on_a_tracked_target_is_refused(self):
        eng = Engine(quiet_cluster(duration=60.0))
        eng.run()
        held = eng.nodes[1].beam_for_target(3)
        assert held is not None and eng.tracks[3].suspension is None
        other = next(b for b in eng.nodes[1].sectors if b is not held)
        zone = eng._form_zone(eng.nodes[1].position, eng.nodes[2].position, eng.tracks[3].anchor)
        with pytest.raises(RuntimeError, match="node 1 has one target on two sectors"):
            eng._point(eng.nodes[1], other, 3, zone)
        assert other.target_id is None  # refused before anything was written

    def test_repointing_the_held_beam_is_allowed(self):
        eng = Engine(quiet_cluster(duration=60.0))
        eng.run()
        held = eng.nodes[1].beam_for_target(3)
        zone = eng._form_zone(eng.nodes[1].position, eng.nodes[2].position, eng.tracks[3].anchor)
        eng._point(eng.nodes[1], held, 3, zone)
        assert held.target_id == 3

    def test_multi_target_run_claims_no_duplicate(self):
        eng = Engine(multi_target_config(ScenarioConfig(master_seed=1), master_seed=41))
        log = eng.run()
        assert sum(len(r.estimates) for r in log.tracks.values()) > 0
        for node in eng.nodes.values():
            targets = [b.target_id for b in node.sectors if b.target_id is not None]
            assert len(targets) == len(set(targets))


class TestFreeBeamRule:
    """A tick may take only a beam that no other target holds."""

    T = 10.0

    @staticmethod
    def takeover_state() -> tuple[Engine, Track, SectorBeam]:
        # Reference 1 survives target 4's suspended track, its sector 0
        # beam scanning for 4.  Target 5's track pairs 1 with 2, and 5
        # lies in 1's sector 0 too.
        cfg = quiet_cluster(
            node_count=6,
            malicious_count=2,
            placements={
                0: Position(200.0, 200.0),
                1: Position(100.0, 100.0),
                2: Position(300.0, 100.0),
                3: Position(100.0, 300.0),
                4: Position(160.0, 220.0),
                5: Position(200.0, 160.0),
            },
            static_ids=frozenset(range(6)),
        )
        eng = Engine(cfg)
        eng.tracks[4] = Track(
            target=4,
            record=TrackRecord(),
            ref_a=1,
            ref_b=3,
            anchor=eng.nodes[4].position,
            anchor_time=0.0,
            suspension=Suspension(0.0, 3, SwitchCause.OUT_OF_RANGE, reauth=False),
        )
        track = eng.tracks[5] = Track(
            target=5,
            record=TrackRecord(),
            ref_a=1,
            ref_b=2,
            anchor=eng.nodes[5].position,
            anchor_time=TestFreeBeamRule.T,
        )
        scanning = eng.nodes[1].sectors[0]
        scanning.target_id = 4
        return eng, track, scanning

    def test_the_tick_wants_the_scanning_sector(self):
        eng, track, scanning = self.takeover_state()
        wanted = sector_of(bearing_deg(eng.nodes[1].position, track.predict(self.T)), 4)
        assert eng.nodes[1].sectors[wanted] is scanning
        assert eng.nodes[1].beam_for_target(4) is scanning
        assert eng.nodes[1].beam_for_target(5) is None

    def test_a_tick_leaves_a_suspended_tracks_scanning_beam_alone(self):
        eng, track, scanning = self.takeover_state()
        eng.tracking_tick(track, self.T)
        assert scanning.target_id == 4 and eng.tracks[4].suspension is not None

    def test_point_refuses_a_second_sector_for_a_scanning_target(self):
        # Reference 1's scanning beam holds target 4, so no other sector
        # of 1 may be claimed for 4.
        eng, track, scanning = self.takeover_state()
        node = eng.nodes[1]
        other = node.sectors[1]
        zone = eng._form_zone(node.position, eng.nodes[3].position, eng.nodes[4].position)
        with pytest.raises(RuntimeError, match="node 1 has one target on two sectors"):
            eng._point(node, other, 4, zone)
        assert other.target_id is None


def every_beam(eng: Engine) -> list[tuple[int, int, int | None, float]]:
    """(node, sector, target, beamwidth) of every beam of ``eng``."""
    return [
        (nid, k, b.target_id, b.beamwidth)
        for nid, node in eng.nodes.items()
        for k, b in enumerate(node.sectors)
    ]


class TestFailedResume:
    """A re-auth resume that cannot claim both beams leaves the survivor scanning."""

    T = 60.0

    @staticmethod
    def busy_state() -> tuple[Engine, Track, SectorBeam, SectorBeam]:
        # References 1 and 2 track target 3; 2 failed its re-auth, so 1's
        # beam scans.  2 passes again, but its sector facing the prediction
        # now tracks another target (4, outside this cluster).
        t = TestFailedResume.T
        eng = Engine(friendliness_config(ScenarioConfig(master_seed=1)))
        for ref in (1, 2):
            eng.relations[ref] = FriendRecord(status=protocol.FRIENDLY)
        track = eng.tracks[3] = Track(
            target=3,
            record=TrackRecord(),
            ref_a=1,
            ref_b=2,
            anchor=eng.nodes[3].position,
            anchor_time=t,
            suspension=Suspension(40.0, 2, SwitchCause.FRIENDLINESS_LOST, reauth=True),
        )
        prediction = track.predict(t)
        scanning = eng.nodes[1].sectors[
            sector_of(bearing_deg(eng.nodes[1].position, prediction), 4)
        ]
        scanning.target_id = 3
        busy = eng.nodes[2].sectors[
            sector_of(bearing_deg(eng.nodes[2].position, prediction), 4)
        ]
        busy.target_id = 4
        return eng, track, scanning, busy

    def test_the_survivor_keeps_its_scanning_beam(self):
        eng, track, scanning, busy = self.busy_state()

        eng._resume_tracks_awaiting(2, self.T)

        assert track.suspension is not None
        assert track.suspension.reauth is False
        assert eng.nodes[1].beam_for_target(3) is scanning
        assert busy.target_id == 4
        assert eng.log.switches == []

    def test_a_claim_on_a_busy_sector_changes_nothing(self):
        eng, track, _, _ = self.busy_state()
        before, suspension, held = dataclasses.replace(track), track.suspension, every_beam(eng)
        assert eng._claim_pair(track, 1, 2, self.T) is False
        assert track == before and track.suspension is suspension
        assert every_beam(eng) == held


class TestSwitchDelay:
    @pytest.mark.parametrize("gap", [None, 7.0])
    def test_a_switch_logs_auth_duration_plus_the_suspension_gap(self, gap):
        # References 1 and 2 track target 4; 2 fails, and spare reference
        # 3 pairs with the survivor 1.
        t = 50.0
        cfg = quiet_cluster(
            node_count=5,
            placements={
                0: Position(200.0, 200.0),
                1: Position(160.0, 200.0),
                2: Position(240.0, 200.0),
                3: Position(200.0, 140.0),
                4: Position(200.0, 260.0),
            },
            static_ids=frozenset(range(5)),
        )
        eng = Engine(cfg)
        for ref in (1, 2, 3):
            eng.relations[ref] = FriendRecord(status=protocol.FRIENDLY)
        track = eng.tracks[4] = Track(
            4, TrackRecord(), ref_a=1, ref_b=2, anchor=eng.nodes[4].position, anchor_time=t
        )
        eng._claim_pair(track, 1, 2, t)
        if gap is not None:
            track.suspension = Suspension(t - gap, 2, SwitchCause.OUT_OF_RANGE, reauth=False)

        assert eng._switch(track, 2, SwitchCause.OUT_OF_RANGE, t)

        (event,) = eng.log.switches
        assert (event.old_ref, event.new_ref) == (2, 3)
        assert event.delay_s == cfg.auth_duration + (gap or 0.0)


class TestClaimPutsTrackOnAir:
    """Every pair claim (activation, switch, resume) puts the track back on the air."""

    T = 50.0

    @staticmethod
    def cluster() -> Engine:
        # References 1 and 2 flank target 4; spare reference 3 can pair with 1.
        eng = Engine(
            quiet_cluster(
                node_count=5,
                placements={
                    0: Position(200.0, 200.0),
                    1: Position(160.0, 200.0),
                    2: Position(240.0, 200.0),
                    3: Position(200.0, 140.0),
                    4: Position(200.0, 260.0),
                },
                static_ids=frozenset(range(5)),
            )
        )
        for ref in (1, 2, 3):
            eng.relations[ref] = FriendRecord(status=protocol.FRIENDLY)
        return eng

    def suspended_track(self, eng: Engine, reauth: bool) -> Track:
        """Target 4 tracked by 1 and 2 since t=0, then suspended on 2 with no fix lately."""
        track = eng.tracks[4] = Track(
            4, TrackRecord(), ref_a=1, ref_b=2, anchor=eng.nodes[4].position, anchor_time=0.0
        )
        eng._claim_pair(track, 1, 2, 0.0)
        track.consecutive_no_fix = 1
        eng._suspend(track, 2, SwitchCause.FRIENDLINESS_LOST, self.T - 7.0, reauth)
        return track

    def assert_on_air(self, eng: Engine, track: Track) -> None:
        assert track.suspension is None
        assert track.resume_at == self.T + eng.cfg.auth_duration
        assert track.consecutive_no_fix == 0

    def test_activation(self):
        eng = self.cluster()
        eng.relations[4] = FriendRecord(status=protocol.MALICIOUS)
        assert eng._activate_track(4, self.T)
        self.assert_on_air(eng, eng.tracks[4])

    def test_switch(self):
        eng = self.cluster()
        track = self.suspended_track(eng, reauth=False)
        assert eng._switch(track, 2, SwitchCause.FRIENDLINESS_LOST, self.T)
        assert (track.ref_a, track.ref_b) == (1, 3)
        self.assert_on_air(eng, track)

    def test_resume(self):
        eng = self.cluster()
        track = self.suspended_track(eng, reauth=True)
        eng._resume_tracks_awaiting(2, self.T)
        assert (track.ref_a, track.ref_b) == (1, 2)
        self.assert_on_air(eng, track)


class TestSwitchTrustsItsClaim:
    """A switch claims the survivor's beam through the claim's own check."""

    T = TestClaimPutsTrackOnAir.T

    def test_a_survivor_with_no_beam_changes_nothing(self):
        # Target 4's track lost its beams (a rebuild found no pair), and
        # survivor 1's sector facing 4 now tracks target 9.  Spare 3 can
        # still pair with 1, so only the claim refuses the switch.
        eng = TestClaimPutsTrackOnAir.cluster()
        track = TestClaimPutsTrackOnAir().suspended_track(eng, reauth=False)
        eng._release(1, 4)
        prediction = track.predict(self.T)
        facing = eng.nodes[1].beam_facing(prediction)
        facing.target_id = 9
        cands = eng._reference_candidates(prediction, {1, 2, 4})
        assert eng._partner_for(eng.nodes[1], prediction, cands, 4) is eng.nodes[3]

        before, suspension, beams = dataclasses.replace(track), track.suspension, every_beam(eng)
        assert eng._switch(track, 2, SwitchCause.FRIENDLINESS_LOST, self.T) is False
        assert track == before and track.suspension is suspension
        assert every_beam(eng) == beams
        assert eng.log.switches == []


class TestRebuild:
    """A suspended track whose survivor lapsed rebuilds its pair from scratch."""

    T = TestClaimPutsTrackOnAir.T

    @staticmethod
    def lapsed_survivor() -> tuple[Engine, Track, SectorBeam]:
        # Target 4's track was suspended on 2 one scan and 7 s ago, with 1
        # scanning, and 1 has since lapsed, so the retry must rebuild.
        eng = TestClaimPutsTrackOnAir.cluster()
        track = eng.tracks[4] = Track(
            4, TrackRecord(), ref_a=1, ref_b=2, anchor=eng.nodes[4].position, anchor_time=0.0
        )
        eng._claim_pair(track, 1, 2, 0.0)
        at = TestRebuild.T - SCAN_DURATION - 7.0
        eng._suspend(track, 2, SwitchCause.OUT_OF_RANGE, at, reauth=False)
        scanning = eng.nodes[1].beam_for_target(4)
        assert scanning is not None and track.suspension is not None
        eng.relations[1].status = None
        return eng, track, scanning

    def test_a_rebuild_releases_the_scanning_beam_and_claims_a_fresh_pair(self):
        eng, track, scanning = self.lapsed_survivor()
        s = track.suspension

        eng._try_switch(track, self.T)

        rebuilt = eng.tracks[4]
        assert rebuilt is not track
        assert (rebuilt.ref_a, rebuilt.ref_b) == (2, 3)
        TestClaimPutsTrackOnAir().assert_on_air(eng, rebuilt)
        assert scanning.target_id is None
        for rid in (2, 3):
            assert eng.nodes[rid].beam_for_target(4) is not None
        (event,) = eng.log.switches
        assert (event.t, event.old_ref, event.new_ref, event.cause) == (self.T, 2, 2, s.cause)
        assert event.delay_s == self.T - s.at + eng.cfg.auth_duration
        assert beam_ledger_faults(eng, self.T) == []

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 7h: a rebuild logs the rebuilt track's ref_a as new_ref, "
        "so re-pairing the failed reference logs 2 -> 2",
    )
    def test_a_rebuild_logs_the_new_partner(self):
        # The rebuild pairs 2 and 3 after 2 failed: 3 is the replacement.
        eng, track, _ = self.lapsed_survivor()
        eng._try_switch(track, self.T)
        (event,) = eng.log.switches
        assert (event.old_ref, event.new_ref) == (2, 3)

    def test_a_rebuild_that_finds_no_pair_leaves_no_beam_held(self):
        eng, track, scanning = self.lapsed_survivor()
        eng.relations[3].status = None  # 2 is the only friendly reference left
        suspension = track.suspension

        eng._try_switch(track, self.T)

        assert eng.tracks[4] is track and track.suspension is suspension
        assert scanning.target_id is None
        assert all(node.beam_for_target(4) is None for node in eng.nodes.values())
        assert eng.log.switches == []
        assert beam_ledger_faults(eng, self.T) == []


class TestLiveChecks:
    """The run's own checks refuse a broken state instead of logging it."""

    T = TestClaimPutsTrackOnAir.T

    @staticmethod
    def tracked() -> tuple[Engine, Track]:
        # References 1 and 2 track target 4 with both beams claimed.
        eng = TestClaimPutsTrackOnAir.cluster()
        track = eng.tracks[4] = Track(
            4, TrackRecord(), ref_a=1, ref_b=2, anchor=eng.nodes[4].position, anchor_time=0.0
        )
        assert eng._claim_pair(track, 1, 2, 0.0)
        eng._check_invariants(TestLiveChecks.T)
        return eng, track

    def test_a_failed_reference_holding_a_beam_for_its_suspended_track_is_refused(self):
        eng, track = self.tracked()
        # Suspended on 2 without the suspension's release of 2's beam.
        track.suspension = Suspension(self.T, 2, SwitchCause.OUT_OF_RANGE, reauth=False)
        assert eng.nodes[2].beam_for_target(4) is not None
        with pytest.raises(RuntimeError, match="failed reference 2 still holds a beam"):
            eng._check_invariants(self.T)

    @pytest.mark.parametrize("status", [None, protocol.MALICIOUS])
    def test_an_active_track_on_a_non_friendly_reference_is_refused(self, status):
        eng, _ = self.tracked()
        eng.relations[2].status = status
        with pytest.raises(RuntimeError, match="uses non-friendly reference 2"):
            eng._check_invariants(self.T)

    def test_an_event_scheduled_in_the_past_is_refused(self, monkeypatch):
        eng = Engine(quiet_cluster(duration=20.0))
        assign = eng.assign_targets

        def assign_then_schedule_a_sweep_before_now(t):
            assign(t)
            eng.queue.push(t - 1.0, EventKind.SWEEP, eng.reauthentication_tick)

        monkeypatch.setattr(eng, "assign_targets", assign_then_schedule_a_sweep_before_now)
        with pytest.raises(RuntimeError, match="event queue delivered an event in the past"):
            eng.run()


def beam_ledger_faults(eng: Engine, t: float) -> list[str]:
    """Each way ``eng``'s beams break the beam ledger at time ``t``; reads only.

    A beam is held exactly when it has a target, and it tracks or scans as
    that target's track is active or suspended.  The ledger:
    - a node holds at most one beam per target;
    - a held beam's target has a track, and the node holding it is one of
      that track's two references;
    - an active track's two references each hold one beam for it;
    - a suspended track's failed reference holds no beam for it, and its
      survivor holds one beam for it, or none once a retry may have run
      (SCAN_DURATION after the suspension): a rebuild that finds no pair
      leaves the track holding no beam.
    """
    faults = []
    held: dict[tuple[int, int], int] = {}  # (node, target) -> how many beams hold it
    for nid, node in eng.nodes.items():
        for beam in node.sectors:
            if beam.target_id is not None:
                key = (nid, beam.target_id)
                held[key] = held.get(key, 0) + 1
    for (nid, target), n in held.items():
        if n > 1:
            faults.append(f"node {nid} holds target {target} on {n} sectors")
        track = eng.tracks.get(target)
        if track is None or nid not in (track.ref_a, track.ref_b):
            faults.append(f"node {nid} holds a beam for target {target} but is not its reference")
    for target, track in eng.tracks.items():
        s = track.suspension
        if s is None:
            for rid in (track.ref_a, track.ref_b):
                if (rid, target) not in held:
                    faults.append(f"active track {target}: reference {rid} holds no beam for it")
            continue
        if (s.failed_ref, target) in held:
            faults.append(f"suspended track {target}: failed reference {s.failed_ref} holds a beam")
        survivor = track.partner_of(s.failed_ref)
        if (survivor, target) not in held and t < s.at + SCAN_DURATION:
            faults.append(f"suspended track {target}: survivor {survivor} holds no beam")
    return faults


def active_tracks_referencing(eng: Engine, nid: int) -> int:
    """How many active tracks have ``nid`` as a reference, at least 1."""
    n = sum(
        1 for tr in eng.tracks.values() if tr.suspension is None and nid in (tr.ref_a, tr.ref_b)
    )
    return max(1, n)


def run_checking_ledger(cfg: ScenarioConfig) -> Engine:
    """Run ``cfg``, checking the beam ledger after every dispatched event."""
    eng = Engine(cfg)
    pop = eng.queue.pop

    def checked_pop():
        # Each pop follows the previous event's dispatch.
        faults = beam_ledger_faults(eng, eng.now)
        assert faults == [], f"t={eng.now}"
        for nid, node in eng.nodes.items():
            assert eng._tracking_beam_count(node) == active_tracks_referencing(eng, nid), (
                f"t={eng.now}: node {nid}"
            )
        return pop()

    eng.queue.pop = checked_pop
    eng.run()
    assert beam_ledger_faults(eng, eng.now) == []
    return eng


class TestBeamLedger:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize(
        "build",
        [
            lambda seed: switching_config(ScenarioConfig(), v_max=5.0, master_seed=seed),
            lambda seed: switching_config(ScenarioConfig(), v_max=20.0, master_seed=seed),
            lambda seed: multi_target_config(ScenarioConfig(), master_seed=seed),
            lambda seed: friendliness_config(ScenarioConfig(master_seed=seed)),
            lambda seed: trajectory_config(ScenarioConfig(master_seed=seed)),
        ],
        ids=["switching-5", "switching-20", "multi-target", "friendliness", "trajectory"],
    )
    def test_the_ledger_holds_after_every_event(self, build, seed):
        eng = run_checking_ledger(build(seed))
        assert eng.log.switches, "the run switched no reference"


class TestTrackingBeamCount:
    """A reference splits its ranging energy over its active tracks' beams only."""

    T = 10.0

    @staticmethod
    def shared_reference(suspended: bool) -> tuple[Engine, Track]:
        # Reference 1 pairs with 2 for target 5 and with 3 for target 4,
        # which lies in another of 1's sectors.  Target 4's track is
        # suspended on 3, so 1's beam for 4 scans, or else still active.
        cfg = quiet_cluster(
            node_count=6,
            malicious_count=2,
            sigma_t=5.0e-9,
            placements={
                0: Position(200.0, 200.0),
                1: Position(100.0, 100.0),
                2: Position(300.0, 100.0),
                3: Position(100.0, 300.0),
                4: Position(60.0, 200.0),
                5: Position(200.0, 160.0),
            },
            static_ids=frozenset(range(6)),
        )
        eng = Engine(cfg)
        for ref in (1, 2, 3):
            eng.relations[ref] = FriendRecord(status=protocol.FRIENDLY)
        other = eng.tracks[4] = Track(
            4, TrackRecord(), ref_a=1, ref_b=3, anchor=eng.nodes[4].position, anchor_time=0.0
        )
        assert eng._claim_pair(other, 1, 3, 0.0)
        if suspended:
            eng._suspend(other, 3, SwitchCause.OUT_OF_RANGE, 0.0, reauth=False)
        track = eng.tracks[5] = Track(
            target=5,
            record=TrackRecord(),
            ref_a=1,
            ref_b=2,
            anchor=eng.nodes[5].position,
            anchor_time=0.0,
        )
        assert eng._claim_pair(track, 1, 2, 0.0)
        assert beam_ledger_faults(eng, TestTrackingBeamCount.T) == []
        return eng, track

    @pytest.mark.parametrize(
        "suspended, counts",
        [(True, {0: 1, 1: 1, 2: 1, 3: 1}), (False, {0: 1, 1: 2, 2: 1, 3: 1})],
        ids=["scan", "track"],
    )
    def test_a_node_counts_its_active_tracks_beams_and_at_least_one(self, suspended, counts):
        # The cluster head and a failed reference hold no beam; they count 1.
        eng, _ = self.shared_reference(suspended)
        assert {nid: eng._tracking_beam_count(eng.nodes[nid]) for nid in counts} == counts

    @pytest.mark.parametrize("suspended, m", [(True, 1), (False, 2)], ids=["scan", "track"])
    def test_the_exchange_counts_only_active_tracks_beams(self, suspended, m, monkeypatch):
        eng, track = self.shared_reference(suspended)
        assert eng.ranging_sigma[1] != eng.ranging_sigma[2]
        held = eng.nodes[1].beam_for_target(4)
        sigmas = []
        exchange = channel.exchange

        def recording_exchange(*args):
            sigmas.append(args[-1])
            return exchange(*args)

        monkeypatch.setattr(channel, "exchange", recording_exchange)
        eng.tracking_tick(track, self.T)
        assert (track.ref_a, track.ref_b) == (1, 2)  # the tick ranged, and switched nothing
        assert eng.nodes[1].beam_for_target(4) is held
        # Reference 1 ranges first.
        assert sigmas[0] == eng.ranging_sigma[m]


class TestPairingRule:
    """New tracks and switches pair references by one rule."""

    @staticmethod
    def checked_claims(cfg: ScenarioConfig, monkeypatch) -> dict[str, list[tuple[str, list]]]:
        """Run ``cfg`` and check every pair an activation or a switch claims.

        Returns, per path, each claimed pair with the rule's tests it breaks.
        A re-auth resume re-claims the pair it had, so its claims are left out.
        """
        checked = {"_activate_track": [], "_switch": []}
        claim = Engine._claim_pair

        def checking_claim(eng, track, ref_a, ref_b, t):
            path = inspect.currentframe().f_back.f_code.co_name
            if path in checked:
                around = track.predict(t)
                node, cand = eng.nodes[ref_a], eng.nodes[ref_b]
                pair = frozenset((ref_a, ref_b))
                faults = []
                if any(
                    frozenset((tr.ref_a, tr.ref_b)) == pair
                    for tr in eng.tracks.values()
                    if tr.target != track.target
                ):
                    faults.append("pair in use")
                if point_line_distance(around, node.position, cand.position) < BASELINE_MARGIN:
                    faults.append("target on the baseline")
                facing = sector_of(bearing_deg(cand.position, around), eng.cfg.sectors)
                if cand.sectors[facing].target_id is not None:
                    faults.append("no free beam facing the target")
                checked[path].append((f"t={t} target {track.target} {ref_a}+{ref_b}", faults))
            return claim(eng, track, ref_a, ref_b, t)

        monkeypatch.setattr(Engine, "_claim_pair", checking_claim)
        Engine(cfg).run()
        return checked

    # Dropping any one of the rule's three tests from either path makes
    # each multi-target run claim a pair that breaks it.
    @pytest.mark.parametrize(
        "cfg",
        [
            multi_target_config(ScenarioConfig(), master_seed=1),
            multi_target_config(ScenarioConfig(), master_seed=3),
            switching_config(ScenarioConfig(duration=200.0), v_max=20.0, master_seed=1),
        ],
        ids=["multi-target-1", "multi-target-3", "switching"],
    )
    def test_every_new_and_switched_pair_obeys_the_rule(self, cfg, monkeypatch):
        checked = self.checked_claims(cfg, monkeypatch)
        for path, claims in checked.items():
            assert claims, f"no pair was claimed by {path}"
            assert [claim for claim in claims if claim[1]] == [], path


def _attribute_writes(attr: str) -> list[tuple[str, str]]:
    """(function, assigned source) of every write to ``.attr`` in engine.py,
    including keyword arguments of that name in calls."""
    writes: list[tuple[str, str]] = []

    class Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.scope = ["<module>"]

        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def _record(self, targets: list[ast.expr], value: ast.expr | None) -> None:
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) and sub.attr == attr:
                        source = ast.unparse(value) if value is not None else "?"
                        writes.append((self.scope[-1], source))

        def visit_Assign(self, node: ast.Assign) -> None:
            self._record(node.targets, node.value)
            self.generic_visit(node)

        def visit_AugAssign(self, node: ast.AugAssign) -> None:
            self._record([node.target], None)
            self.generic_visit(node)

        def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
            self._record([node.target], node.value)
            self.generic_visit(node)

        def visit_Call(self, node: ast.Call) -> None:
            for kw in node.keywords:
                if kw.arg == attr:
                    writes.append((self.scope[-1], ast.unparse(kw.value)))
            if isinstance(node.func, ast.Name) and node.func.id == "setattr":
                writes.append((self.scope[-1], "setattr"))
            self.generic_visit(node)

    Visitor().visit(ast.parse(inspect.getsource(engine)))
    return writes


class TestBeamClaims:
    """A beam is pointed and sized when it is claimed, never on a later tick."""

    def test_only_point_gives_a_beam_a_target_and_only_release_clears_it(self):
        # A held beam cannot have changed target since _point checked its
        # exclusivity, which is why a tick leaves it alone.
        assert sorted(_attribute_writes("target_id")) == [("_point", "target"), ("release", "None")]

    def test_claims_size_beams_once_not_per_tick(self, monkeypatch):
        calls = {"beamwidth_for_zone": 0, "_point": 0, "tracking_tick": 0}

        def counted(fn, name):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            engine, "beamwidth_for_zone", counted(engine.beamwidth_for_zone, "beamwidth_for_zone")
        )
        monkeypatch.setattr(Engine, "_point", counted(Engine._point, "_point"))
        monkeypatch.setattr(Engine, "tracking_tick", counted(Engine.tracking_tick, "tracking_tick"))
        Engine(multi_target_config(ScenarioConfig(master_seed=1), master_seed=41)).run()
        assert calls["tracking_tick"] > 0
        assert calls["beamwidth_for_zone"] == calls["_point"]
        # Re-claiming both beams on every tick would size 2 per tick.
        assert calls["_point"] * 4 < 2 * calls["tracking_tick"]

    def test_a_tick_leaves_a_held_beam_alone(self, monkeypatch):
        eng = Engine(quiet_cluster(duration=60.0))
        eng.run()
        track = eng.tracks[3]
        beams = [eng.nodes[rid].beam_for_target(3) for rid in (track.ref_a, track.ref_b)]
        slots = [eng.nodes[rid].sectors for rid in (track.ref_a, track.ref_b)]

        def held():
            return [(b.target_id, s.index(b), b.beamwidth) for b, s in zip(beams, slots)]

        before = held()
        assert track.suspension is None and all(target == 3 for target, *_ in before)

        def no_claim(*args):
            raise AssertionError("a held beam was claimed again")

        monkeypatch.setattr(Engine, "_point", no_claim)
        fixes = len(track.record.estimates)
        eng.tracking_tick(track, eng.cfg.duration + eng.cfg.sample_interval)
        assert len(track.record.estimates) == fixes + 1  # the tick ran to a fix
        assert held() == before


class TestPerConfigTables:
    def test_ranging_sigma_matches_the_channel_model(self):
        # A noisy channel: quiet_cluster's sigma_t of 0 makes every sigma 0.
        eng = Engine(quiet_cluster(sectors=MAX_BEAMS, sigma_t=5.0e-9))
        assert eng.ranging_sigma == {
            m: ranging_noise_std(eng.chan, m) for m in range(1, MAX_BEAMS + 1)
        }

    def test_static_nodes_are_not_stepped(self):
        eng = Engine(quiet_cluster(static_ids=frozenset({0, 1, 2})))
        assert [node.id for node, _ in eng._movers] == [3]


class TestBuildNodes:
    def test_an_unplaced_parallel_path_target_starts_at_its_scene_draw(self):
        # Scene positions are drawn for every node whatever its model, so a
        # parallel-path target starts where the random-waypoint build puts it,
        # however wide the lane spacing.
        cfg = ScenarioConfig(node_count=6, malicious_count=2, master_seed=3, duration=10.0)
        roaming = Engine(cfg)
        marching = Engine(dataclasses.replace(cfg, model="parallel_path", lane_spacing=1000.0))
        for nid in (4, 5):
            assert marching.nodes[nid].mobility.kind is mobility.PARALLEL_PATH
            assert marching.nodes[nid].position == roaming.nodes[nid].position
