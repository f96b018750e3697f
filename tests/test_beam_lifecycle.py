"""A track's beams over random sequences of the engine's transitions.

A Hypothesis state machine drives one static cluster through the
engine's own handlers: activating a track, ticking, failing and passing
a reference's re-authentication, ending scans, switching a reference,
assignment passes and moving a node.  After every step the beam ledger
(``test_engine.beam_ledger_faults``) and the engine's live invariant
check must hold, and no claim may trip ``_point``'s sector exclusivity.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule  # noqa: E402

import test_engine  # noqa: E402
from sectrack import protocol  # noqa: E402
from sectrack.engine import SCAN_DURATION, Engine, FriendRecord, Track  # noqa: E402
from sectrack.geometry import Position, bearing_deg, sector_of  # noqa: E402
from sectrack.metrics import SwitchCause, TrackRecord  # noqa: E402

REFS = (1, 2, 3, 4, 5)
TARGETS = (6, 7)
# Steps of the clock, with the scan length among them so retries and
# rebuilds fall due.
STEPS = st.sampled_from((0.0, 1.0, 5.0, SCAN_DURATION))
# A coarse grid over the 400 m area, so moves revisit sectors and baselines.
COORDS = st.integers(0, 20).map(lambda k: 20.0 * k)


def lifecycle_engine() -> Engine:
    """Cluster head 0, references 1-5 around it and targets 6 and 7, all screened."""
    eng = Engine(
        test_engine.quiet_cluster(
            node_count=8,
            malicious_count=2,
            placements={
                0: Position(200.0, 200.0),
                1: Position(120.0, 200.0),
                2: Position(280.0, 200.0),
                3: Position(200.0, 120.0),
                4: Position(200.0, 280.0),
                5: Position(120.0, 300.0),
                6: Position(240.0, 260.0),
                7: Position(160.0, 140.0),
            },
            static_ids=frozenset(range(8)),
        )
    )
    for ref in REFS:
        eng.relations[ref] = FriendRecord(status=protocol.FRIENDLY)
    for target in TARGETS:
        eng.relations[target] = FriendRecord(status=protocol.MALICIOUS)
    eng._detected.extend(TARGETS)
    return eng


class BeamLifecycle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.eng = lifecycle_engine()
        self.t = 0.0
        self.scanning: set[int] = set()  # references whose failed verdict's scan is due

    def later(self, dt: float) -> float:
        self.t += dt
        return self.t

    def verdict(self, ref: int, verdict: protocol.Verdict, dt: float) -> None:
        if ref not in self.scanning:  # a scanning relation is not screened
            self.eng._handle_verdict(self.later(dt), ref, verdict, True)
            if self.eng.relations[ref].busy:  # only a failed verdict leaves it busy
                self.scanning.add(ref)

    @rule(target_id=st.sampled_from(TARGETS), dt=STEPS)
    def activate(self, target_id, dt):
        if target_id not in self.eng.tracks:
            self.eng._activate_track(target_id, self.later(dt))

    @rule(dt=STEPS.filter(bool))
    def tick(self, dt):
        # Ticks fall at distinct sample times, so a track's fixes are time-ordered.
        self.eng._handle_track_tick(self.later(dt))

    @rule(ref=st.sampled_from(REFS), dt=STEPS)
    def fail_reauth(self, ref, dt):
        self.verdict(ref, protocol.MALICIOUS, dt)

    @rule(ref=st.sampled_from(REFS), dt=STEPS)
    def pass_reauth(self, ref, dt):
        # A failed relation is screened again when its scan ends; passing
        # then resumes the tracks waiting on ``ref``.
        self.end_reference_scan(ref, 0.0)
        self.verdict(ref, protocol.FRIENDLY, dt)

    @rule(ref=st.sampled_from(REFS), dt=STEPS)
    def end_reference_scan(self, ref, dt):
        # The scan's end re-screens ``ref``: it lapses if it moved out of range.
        if ref in self.scanning:
            self.scanning.discard(ref)
            self.eng._end_relation_scan(self.later(dt), ref)

    @rule(target_id=st.sampled_from(TARGETS), dt=STEPS)
    def end_track_scan(self, target_id, dt):
        track = self.eng.tracks.get(target_id)
        if track is not None and track.suspension is not None:
            # A track's scan ends SCAN_DURATION after its suspension.
            self.t = max(self.later(dt), track.suspension.at + SCAN_DURATION)
            self.eng._end_track_scan(self.t, target_id)

    @rule(
        target_id=st.sampled_from(TARGETS),
        first=st.booleans(),
        cause=st.sampled_from(list(SwitchCause)),
        dt=STEPS,
    )
    def switch(self, target_id, first, cause, dt):
        track = self.eng.tracks.get(target_id)
        if track is not None and track.suspension is None:
            ref = track.ref_a if first else track.ref_b
            self.eng.switch_reference(track, ref, cause, self.later(dt))

    @rule(dt=STEPS)
    def assign(self, dt):
        self.eng.assign_targets(self.later(dt))

    @rule(node=st.sampled_from(REFS + TARGETS), x=COORDS, y=COORDS)
    def move(self, node, x, y):
        # Coincident nodes are a measure-zero event in a run, so moves avoid them.
        to = Position(x, y)
        if all(other.position != to for other in self.eng.nodes.values()):
            self.eng.nodes[node].mobility.position = to

    @invariant()
    def the_beam_ledger_holds(self):
        assert test_engine.beam_ledger_faults(self.eng, self.t) == []

    @invariant()
    def the_live_checks_hold(self):
        self.eng._check_invariants(self.t)


# derandomize and no database: every run draws the same sequences, so the
# test passes or fails the same way on every machine.  About 1.5 s on a
# 2-vCPU VM.
BeamLifecycle.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    database=None,
)
TestBeamLifecycle = BeamLifecycle.TestCase


class TestOffSectorClaim:
    """ROADMAP item 7g: a switch claims a survivor's held beam wherever it points."""

    T = test_engine.TestClaimPutsTrackOnAir.T

    @classmethod
    def moved_target(cls) -> tuple[Engine, Track, Position]:
        # References 1 and 2 tracked target 4 from t=0, 1's beam in its
        # sector 0.  2 failed, 1 scans, and 4 has moved into 1's sector 1.
        eng = test_engine.TestClaimPutsTrackOnAir.cluster()
        track = eng.tracks[4] = Track(
            4, TrackRecord(), ref_a=1, ref_b=2, anchor=eng.nodes[4].position, anchor_time=0.0
        )
        eng._claim_pair(track, 1, 2, 0.0)
        eng._suspend(track, 2, SwitchCause.FRIENDLINESS_LOST, cls.T - 7.0, reauth=False)
        moved = Position(140.0, 340.0)
        eng.nodes[4].mobility.position = moved
        track.anchor, track.anchor_time = moved, cls.T
        return eng, track, moved

    def test_the_switch_pairs_the_survivor_while_its_beam_is_off_sector(self):
        eng, track, moved = self.moved_target()
        survivor = eng.nodes[1]
        held = survivor.beam_for_target(4)
        assert held is survivor.sectors[0]
        assert sector_of(bearing_deg(survivor.position, moved), eng.cfg.sectors) == 1
        assert eng._switch(track, 2, SwitchCause.FRIENDLINESS_LOST, self.T)
        assert (track.ref_a, track.ref_b) == (1, 3)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 7g: the held beam is claimed off-sector")
    def test_the_switch_claims_the_beam_facing_the_prediction(self):
        eng, track, moved = self.moved_target()
        eng._switch(track, 2, SwitchCause.FRIENDLINESS_LOST, self.T)
        survivor = eng.nodes[1]
        assert survivor.beam_for_target(4) is survivor.beam_facing(moved)
