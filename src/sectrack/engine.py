"""Deterministic discrete-event simulation binding all subsystems.

One cluster head (node 0) screens every neighbor with the chained-key
handshake and re-authenticates friendly relations periodically.  Nodes
failing the screen are targets: pairs of friendly references keep a
tracking zone focused on each one, range it with two-way timestamp
exchanges on their sectored beams, triangulate, and switch references
when range, zone, friendliness or sector availability breaks down.

Each event carries the handler that runs it.  A node holds one piece of
ground truth, its ``malicious`` flag.  Only the screen, which plays the
candidate's part with it, and the reference filter read it; the filter
and the flag's copy in a verdict are known leaks (ROADMAP item 9).

Determinism contract: one master seed fans out into per-node and
per-purpose streams; events dispatch in nondecreasing time with FIFO
order among equal times, so identical configs produce identical logs.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from sectrack import channel as ch
from sectrack import cipher, mobility, protocol
from sectrack.config import ScenarioConfig
from sectrack.geometry import (
    MeasurementError,
    NoFixError,
    OutOfZoneError,
    Position,
    TrackingZone,
    beamwidth_for_zone,
    bearing_deg,
    circle_intersections,
    distance,
    form_zone,
    point_line_distance,
    range_from_timestamps,
    sector_of,
    triangulate,
)
from sectrack.metrics import (
    EstimateSample,
    FriendEvent,
    MetricsLog,
    SwitchCause,
    SwitchEvent,
    TrackRecord,
    VerdictEvent,
)

MOBILITY_DT = 1.0
PROCESSING_DELAY = 2.0e-4
SCAN_DURATION = 20.0
CONSECUTIVE_SCAN_PENALTY = 10.0
# Minimum perpendicular offset of a target from a reference pair's
# baseline: closer than this the two-circle fix cannot tell the sides
# apart, so such pairs are never assigned and are switched away from.
BASELINE_MARGIN = 25.0
AREA_SLACK = 10.0


# A relation's status is the screen's standing verdict, so its members
# are the protocol's own.
FRIENDLY = protocol.FRIENDLY
MALICIOUS = protocol.MALICIOUS


@dataclass(eq=False)  # beams compare by identity
class SectorBeam:
    """One sector of a node's antenna; its sector is its slot in ``NodeState.sectors``.

    A beam is held for its target exactly when it has one.  It tracks or
    scans as its target's track is active or suspended.
    """

    beamwidth: float
    target_id: int | None = None

    def release(self) -> None:
        self.target_id = None


@dataclass
class FriendRecord:
    """The cluster head's relation with one screened neighbor."""

    status: protocol.Verdict | None = None  # None: no standing verdict
    consecutive_failures: int = 0
    busy: bool = False  # a screen's verdict or a failed screen's scan is due


@dataclass
class NodeState:
    id: int
    malicious: bool  # ground truth, which the cluster head cannot observe
    mobility: mobility.MobilityState
    sectors: list[SectorBeam] = field(default_factory=list)

    @property
    def position(self) -> Position:
        return self.mobility.position

    def beam_for_target(self, target: int) -> SectorBeam | None:
        for beam in self.sectors:
            if beam.target_id == target:
                return beam
        return None

    def beam_facing(self, toward: Position) -> SectorBeam:
        """The beam whose sector holds the bearing from this node to ``toward``."""
        return self.sectors[sector_of(bearing_deg(self.position, toward), len(self.sectors))]


@dataclass
class Suspension:
    """Why and since when a track is off the air.

    The surviving reference's beam scans and the switch away from
    ``failed_ref`` is retried after SCAN_DURATION.  With ``reauth`` the
    track instead waits for ``failed_ref`` to pass its re-authentication;
    the flag clears if resuming on it fails, and assignment passes retry.
    """

    at: float
    failed_ref: int
    cause: SwitchCause
    reauth: bool


@dataclass
class Track:
    target: int
    record: TrackRecord
    ref_a: int
    ref_b: int
    anchor: Position  # zone seed: last estimate, prediction, or detection fix
    anchor_time: float
    vel_est: tuple[float, float] = (0.0, 0.0)
    resume_at: float = 0.0
    consecutive_no_fix: int = 0
    suspension: Suspension | None = None  # None exactly while the track is active

    def partner_of(self, ref: int) -> int:
        return self.ref_b if self.ref_a == ref else self.ref_a

    def predict(self, t: float) -> Position:
        dt = t - self.anchor_time
        return Position(
            self.anchor.x + self.vel_est[0] * dt, self.anchor.y + self.vel_est[1] * dt
        )


class EventKind(enum.Enum):
    """An event's label; its handler, not its kind, decides what it does."""

    SWEEP = "sweep"
    ASSIGN = "assign"
    TRACK = "track"
    SCAN_DONE = "scan_done"
    VERDICT = "verdict"


class EventQueue:
    """Time-ordered event dispatch, FIFO among equal timestamps.

    An event carries the handler that runs it and the arguments that
    follow its time, so the loop calls ``handler(time, *args)``.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EventKind, Callable[..., None], tuple]] = []
        self._seq = itertools.count()

    def push(self, time: float, kind: EventKind, handler: Callable[..., None], *args) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), kind, handler, args))

    def pop(self) -> tuple[float, EventKind, Callable[..., None], tuple]:
        time, _, kind, handler, args = heapq.heappop(self._heap)
        return time, kind, handler, args

    def __len__(self) -> int:
        return len(self._heap)


class Engine:
    """Owns all mutable simulation state; single-threaded event loop."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.chan = cfg.channel_config()
        self.zone_cfg = cfg.zone_config()
        self.now = 0.0
        self.queue = EventQueue()
        self.adversary = cfg.adversary_model()

        # Jitter of a reference running m tracking beams, m = 1..sectors.
        self.ranging_sigma = {
            m: ch.ranging_noise_std(self.chan, m) for m in range(1, cfg.sectors + 1)
        }

        seed = cfg.master_seed
        self.rng_channel = ch.NormalStream(
            np.random.default_rng(cipher.derive_stream_seed(seed, "channel"))
        )
        self.rng_protocol = np.random.default_rng(cipher.derive_stream_seed(seed, "protocol"))
        scene_rng = np.random.default_rng(cipher.derive_stream_seed(seed, "scenario"))

        self.nodes: dict[int, NodeState] = {}
        # Static nodes are left out: their step returns without moving or drawing.
        self._movers: list[tuple[NodeState, np.random.Generator]] = []
        self._build_nodes(scene_rng)
        self.ch_node = self.nodes[0]
        # Only the cluster head screens, so it alone holds relations.
        self.relations: dict[int, FriendRecord] = {}

        self.tracks: dict[int, Track] = {}
        # Detected targets in the order their MALICIOUS verdicts landed;
        # that verdict is final, as a sweep never screens the peer again.
        self._detected: list[int] = []
        self._last_activation = float("-inf")
        # Scripted re-auth failures: ascending times per peer, consumed from the front.
        self._failures: dict[int, list[float]] = {}
        for after, peer in sorted(cfg.inject_failures):
            self._failures.setdefault(peer, []).append(after)

        self.log = MetricsLog()

    # ------------------------------------------------------------------
    # setup

    def _build_nodes(self, rng: np.random.Generator) -> None:
        cfg = self.cfg
        area = cfg.area_side
        first_target = cfg.node_count - cfg.malicious_count
        for nid in range(cfg.node_count):
            malicious = nid >= first_target
            if nid == 0:
                default_pos = Position(area / 2.0, area / 2.0)
            else:
                default_pos = Position(rng.uniform(0, area), rng.uniform(0, area))
            pos = cfg.placements.get(nid, default_pos)
            if nid in cfg.static_ids:
                # A static node never draws, so it gets no mobility stream.
                node_rng = None
                mob = mobility.MobilityState(position=pos, waypoint=pos)
            else:
                node_rng = np.random.default_rng(
                    cipher.derive_stream_seed(cfg.master_seed, "mobility", nid)
                )
                if malicious and cfg.model == "parallel_path":
                    speed = float(node_rng.uniform(cfg.v_min, cfg.v_max))
                    mob = mobility.make_parallel_path(pos, speed, cfg.heading)
                else:
                    mob = mobility.make_random_waypoint(
                        pos, cfg.v_min, cfg.v_max, area, node_rng
                    )
            sectors = [SectorBeam(beamwidth=360.0 / cfg.sectors) for _ in range(cfg.sectors)]
            self.nodes[nid] = NodeState(id=nid, malicious=malicious, mobility=mob, sectors=sectors)
            if node_rng is not None:
                self._movers.append((self.nodes[nid], node_rng))

    def _schedule_all(self) -> None:
        cfg = self.cfg

        def every(
            kind: EventKind, handler: Callable[[float], None], start: float, dt: float
        ) -> None:
            # start + k * dt, not a running sum, so no rounding error piles up.
            k = 0
            while (t := start + k * dt) <= cfg.duration + 1e-9:
                self.queue.push(t, kind, handler)
                k += 1

        every(EventKind.SWEEP, self.reauthentication_tick, 0.0, cfg.reauth_interval)
        every(EventKind.ASSIGN, self.assign_targets, cfg.sample_interval / 2.0, cfg.sample_interval)
        for t in cfg.sample_times():
            self.queue.push(t, EventKind.TRACK, self._handle_track_tick)

    # ------------------------------------------------------------------
    # event loop

    def run(self) -> MetricsLog:
        self._schedule_all()
        end = self.cfg.duration + 1e-9
        # Movers step once per tick k * MOBILITY_DT, k >= 1, and an event at
        # time t sees every tick at or before t.  The ticks are batched into
        # one step call per mover when an event needs them; ticks after the
        # last event move nothing that is read, so they are never stepped.
        stepped = 0
        while len(self.queue):
            t, _, handler, args = self.queue.pop()
            if t > end:
                continue
            if t < self.now:
                raise RuntimeError("event queue delivered an event in the past")
            self.now = t
            due = int(t // MOBILITY_DT)
            if due > stepped:
                self._step_movers(due - stepped)
                stepped = due
            handler(t, *args)
        return self.log

    # ------------------------------------------------------------------
    # mobility

    def _step_movers(self, steps: int) -> None:
        for node, rng in self._movers:
            mobility.step(node.mobility, MOBILITY_DT, self.cfg.area_side, rng, steps)

    # ------------------------------------------------------------------
    # verification sweeps and verdicts

    def _forced_failure_pending(self, peer: int, t: float) -> bool:
        times = self._failures.get(peer)
        if times and times[0] <= t:
            times.pop(0)
            return True
        return False

    def _relation_event(self, t: float, peer_id: int, event: str, delay: float = 0.0) -> None:
        """Log a change in the cluster head's relation with ``peer_id``."""
        self.log.friend_events.append(FriendEvent(t, self.ch_node.id, peer_id, event, delay))

    def reauthentication_tick(self, t: float) -> None:
        """Screen every peer whose relation is neither MALICIOUS nor busy."""
        for peer_id in sorted(self.nodes):
            if peer_id == self.ch_node.id:
                continue
            rec = self.relations.get(peer_id)
            if rec and (rec.status is MALICIOUS or rec.busy):
                continue
            self._verify(peer_id, t)

    def _verify(self, peer_id: int, t: float) -> None:
        """Run one handshake; schedules the verdict at the exchange end."""
        ch_node = self.ch_node
        peer = self.nodes[peer_id]
        ch_pos = ch_node.position
        peer_pos = peer.position
        # Preamble: two ping/echo exchanges so each side holds an RTT sample:
        # the initiator's, then the candidate's, sent when the first echo
        # arrives.  Both span one distance, so only the first can be lost.
        first = ch.exchange(ch_pos, peer_pos, t, 0.0, self.chan, self.rng_channel)
        if first is None:
            if self._is_friendly(peer_id):
                self.relations[peer_id].status = None
                self._relation_event(t, peer_id, "out_of_range")
                self._suspend_tracks_using(peer_id, t, reauth=False)
            return
        second = ch.exchange(peer_pos, ch_pos, first.toa_a, 0.0, self.chan, self.rng_channel)
        # timestamp noise can push a near-field RTT below zero; both sides
        # clamp into the first quantization bucket
        rtt_initiator = max((first.toa_b - first.tod_a) + (first.toa_a - first.toa_b), 0.0)
        rtt_candidate = max((second.toa_b - second.tod_a) + (second.toa_a - second.toa_b), 0.0)

        # Location seed from the positions carried in the preamble; both
        # sides quantize the initiator->candidate distance and bearing.
        d = distance(ch_pos, peer_pos)
        bear = bearing_deg(ch_pos, peer_pos)
        init_seeds = cipher.SeedPair.from_measurements(d, bear, rtt_initiator, self.cfg.rtt_bucket)
        cand_seeds = cipher.SeedPair.from_measurements(d, bear, rtt_candidate, self.cfg.rtt_bucket)

        honest = not peer.malicious
        if honest and self._forced_failure_pending(peer_id, t):
            # Injected failure: the candidate derives an off-by-one RTT seed.
            cand_seeds = cipher.SeedPair(cand_seeds.loc_seed, cand_seeds.rtt_seed + 1)

        challenge_time = 2.0 * self.cfg.j_max * d / self.chan.c
        # A noisy stamp may read before t; the verdict is never due before the screen.
        decided_at = max(t, second.toa_a + challenge_time + self.cfg.auth_duration)
        verdict = protocol.complete_verification(
            init_seeds,
            cand_seeds,
            ch_node.id,
            j_max=self.cfg.j_max,
            candidate_honest=honest,
            adversary=self.adversary,
            n_keys=self.cfg.n_keys,
            rng=self.rng_protocol,
        )
        self.queue.push(
            decided_at, EventKind.VERDICT, self._handle_verdict, peer_id, verdict, honest
        )
        self.relations.setdefault(peer_id, FriendRecord()).busy = True

    def _handle_verdict(
        self, t: float, peer_id: int, verdict: protocol.Verdict, honest: bool
    ) -> None:
        rec = self.relations[peer_id]  # made by the screen
        rec.busy = False
        self.log.verdicts.append(VerdictEvent(t, self.ch_node.id, peer_id, verdict.value))

        if verdict is FRIENDLY:
            recovered = rec.consecutive_failures > 0
            rec.status = verdict
            rec.consecutive_failures = 0
            self._relation_event(t, peer_id, "reauth_ok")
            if recovered:
                self._resume_tracks_awaiting(peer_id, t)
            return

        if not honest:
            rec.status = verdict
            self._detected.append(peer_id)
            self._relation_event(t, peer_id, "detected_malicious")
            return

        # Honest relation failed re-authentication: demote and scan.
        rec.status = None
        rec.consecutive_failures += 1
        scan = SCAN_DURATION + (
            CONSECUTIVE_SCAN_PENALTY if rec.consecutive_failures >= 2 else 0.0
        )
        rec.busy = True
        self._relation_event(t, peer_id, "reauth_fail")
        self._relation_event(t, peer_id, "scan_start", scan)
        self.queue.push(t + scan, EventKind.SCAN_DONE, self._end_relation_scan, peer_id)
        self._suspend_tracks_using(peer_id, t, reauth=True)

    def _end_relation_scan(self, t: float, peer_id: int) -> None:
        self.relations[peer_id].busy = False
        self._relation_event(t, peer_id, "scan_end")
        self._verify(peer_id, t)

    def _end_track_scan(self, t: float, target: int) -> None:
        """Retry the reference switch of ``target``'s track."""
        track = self.tracks[target]  # tracks are never removed
        if track.suspension is None or track.suspension.reauth:
            return
        self._try_switch(track, t)

    # ------------------------------------------------------------------
    # friendliness fallout on tracks

    def _suspend_tracks_using(self, peer_id: int, t: float, reauth: bool) -> None:
        for target in sorted(self.tracks):
            track = self.tracks[target]
            if track.suspension is None and peer_id in (track.ref_a, track.ref_b):
                self.switch_reference(track, peer_id, SwitchCause.FRIENDLINESS_LOST, t, reauth)

    def _is_friendly(self, node_id: int) -> bool:
        rec = self.relations.get(node_id)
        return rec is not None and rec.status is FRIENDLY

    def _resume_tracks_awaiting(self, peer_id: int, t: float) -> None:
        for target in sorted(self.tracks):
            track = self.tracks[target]
            s = track.suspension
            if s is None or not s.reauth or s.failed_ref != peer_id:
                continue
            survivor = track.partner_of(peer_id)
            if not (self._is_friendly(survivor) and self._claim_pair(track, survivor, peer_id, t)):
                # Fall back to assignment-pass retries; the survivor keeps scanning.
                s.reauth = False
                continue
            delay = t - s.at
            self.log.switches.append(
                SwitchEvent(t, track.target, peer_id, peer_id, SwitchCause.FRIENDLINESS_LOST, delay)
            )
            self.log.friend_events.append(
                FriendEvent(t, survivor, track.target, "track_resume", delay)
            )

    # ------------------------------------------------------------------
    # assignment

    def assign_targets(self, t: float) -> None:
        """Pair detected targets with references; retry suspended tracks."""
        # Retry suspended tracks whose scans have run dry.  Tracks still
        # waiting on a relation re-auth retry after SCAN_DURATION like the
        # others.
        for target in sorted(self.tracks):
            track = self.tracks[target]
            s = track.suspension
            if s is None or t < s.at + SCAN_DURATION:
                continue
            self._try_switch(track, t)

        # New tracks activate one at a time, paced by the verification
        # sweep cadence: a fresh pairing rides on fresh SFV verdicts.
        if t - self._last_activation < self.cfg.reauth_interval:
            return
        for target_id in self._detected:
            if target_id in self.tracks:
                continue
            if self._activate_track(target_id, t):
                self._last_activation = t
                break

    def _reference_candidates(self, around: Position, exclude: set[int]) -> list[NodeState]:
        cands = []
        for nid in sorted(self.nodes):
            node = self.nodes[nid]
            if node.malicious or nid in exclude:
                continue
            if not self._is_friendly(nid):
                continue
            d = distance(node.position, around)
            if d > self.cfg.range_limit:
                continue
            cands.append((d, nid))
        cands.sort()
        return [self.nodes[nid] for _, nid in cands]

    def _beam_toward(self, node: NodeState, target: int, toward: Position) -> SectorBeam | None:
        """The beam ``node`` holds for ``target``, else its free beam facing ``toward``."""
        beam = node.beam_for_target(target)
        if beam is not None:
            return beam
        beam = node.beam_facing(toward)
        return beam if beam.target_id is None else None

    def _partner_for(
        self, node: NodeState, around: Position, cands: list[NodeState], target: int
    ) -> NodeState | None:
        """The first of ``cands`` that may pair with ``node`` to track ``target``.

        New tracks and switches both pair by this rule: the pair is not
        another track's, ``around`` sits at least BASELINE_MARGIN off the
        pair's baseline, and the candidate has a free beam facing ``around``
        (``_beam_toward``; no candidate holds a beam for the target).
        """
        in_use = {
            frozenset((tr.ref_a, tr.ref_b)) for tr in self.tracks.values() if tr.target != target
        }
        for cand in cands:
            if frozenset((node.id, cand.id)) in in_use:
                continue
            if point_line_distance(around, node.position, cand.position) < BASELINE_MARGIN:
                continue
            if self._beam_toward(cand, target, around) is not None:
                return cand
        return None

    def _activate_track(self, target_id: int, t: float) -> bool:
        target = self.nodes[target_id]
        fix = target.position  # detection fix at assignment time
        old = self.tracks.get(target_id)
        record = old.record if old else TrackRecord()
        contention_logged = False
        cands = self._reference_candidates(fix, exclude={target_id})
        for i, ref_a in enumerate(cands):
            if self._beam_toward(ref_a, target_id, fix) is None:
                if not contention_logged:
                    self.log.switches.append(
                        SwitchEvent(t, target_id, ref_a.id, -1, SwitchCause.SECTOR_CONTENTION, 0.0)
                    )
                    contention_logged = True
                continue
            ref_b = self._partner_for(ref_a, fix, cands[i + 1 :], target_id)
            if ref_b is None:
                continue
            track = Track(target_id, record, ref_a.id, ref_b.id, anchor=fix, anchor_time=t)
            self._claim_pair(track, ref_a.id, ref_b.id, t)
            self.log.tracks[target_id] = record
            self.tracks[target_id] = track
            return True
        return False

    def _form_zone(self, pos_a: Position, pos_b: Position, anchor: Position) -> TrackingZone:
        cfg = self.cfg
        return form_zone(pos_a, pos_b, anchor, cfg.v_max, cfg.sample_interval, self.zone_cfg)

    def _point(self, node: NodeState, beam: SectorBeam, target: int, zone: TrackingZone) -> None:
        """Claim ``node``'s ``beam`` for ``target``, sized from ``node`` to cover ``zone``.

        This is the only place a beam gets a target, so sector
        exclusivity is enforced here: one node never holds one target on
        two sectors, and a violation fails loudly instead of skewing the
        metrics.
        """
        if node.beam_for_target(target) not in (None, beam):
            raise RuntimeError(f"t={self.now}: node {node.id} has one target on two sectors")
        beam.target_id = target
        beam.beamwidth = beamwidth_for_zone(zone, node.position, self.cfg.sectors)

    # ------------------------------------------------------------------
    # tracking

    def _handle_track_tick(self, t: float) -> None:
        self._check_invariants(t)
        for target in sorted(self.tracks):
            track = self.tracks[target]
            if track.suspension is not None or t < track.resume_at:
                continue
            self.tracking_tick(track, t)

    def _check_invariants(self, t: float) -> None:
        # Friendly-references-only and no beam left on a failed reference,
        # enforced live so a violation fails loudly instead of skewing the
        # metrics.  Sector exclusivity (one node never holds one target on
        # two sectors) is enforced where beams are claimed.
        for track in self.tracks.values():
            s = track.suspension
            if s is not None:
                if self.nodes[s.failed_ref].beam_for_target(track.target) is not None:
                    raise RuntimeError(
                        f"t={t}: failed reference {s.failed_ref} still holds a beam "
                        f"for suspended track {track.target}"
                    )
                continue
            for rid in (track.ref_a, track.ref_b):
                if not self._is_friendly(rid):
                    raise RuntimeError(
                        f"t={t}: active track {track.target} uses "
                        f"non-friendly reference {rid}"
                    )

    def tracking_tick(self, track: Track, t: float) -> None:
        """One zone -> beams -> ranging -> triangulation -> update cycle.

        No node moves during a tick, so both references' and the target's
        positions are read once here and passed down.
        """
        ref_a, ref_b = track.ref_a, track.ref_b
        pos_a = self.nodes[ref_a].position
        pos_b = self.nodes[ref_b].position
        target_pos = self.nodes[track.target].position
        prediction = track.predict(t)

        for ref_id, pos in ((ref_a, pos_a), (ref_b, pos_b)):
            if distance(pos, prediction) > self.cfg.range_limit:
                self.switch_reference(track, ref_id, SwitchCause.OUT_OF_RANGE, t)
                return

        if point_line_distance(prediction, pos_a, pos_b) < BASELINE_MARGIN / 2.0:
            # Target drifting onto the pair baseline: re-pair before the
            # fix goes side-ambiguous.
            far = self._far_ref(track, prediction, pos_a, pos_b)
            self.switch_reference(track, far, SwitchCause.OUT_OF_ZONE, t)
            return

        zone = self._form_zone(pos_a, pos_b, track.anchor)
        if not self._reselect_sectors(track, zone, prediction, t):
            return

        ranges = []
        cause = SwitchCause.OUT_OF_ZONE  # the switch cause should this tick draw no fix
        for ref_id, pos in ((ref_a, pos_a), (ref_b, pos_b)):
            # Stamps are exchange-relative: the sub-millisecond exchange sits
            # inside one tick, and absolute-time offsets would only feed
            # floating-point cancellation into the range.
            sigma = self.ranging_sigma[self._tracking_beam_count(self.nodes[ref_id])]
            m = ch.exchange(pos, target_pos, 0.0, PROCESSING_DELAY, self.chan, self.rng_channel, sigma)
            if m is None:  # the ping drew no echo
                cause = SwitchCause.OUT_OF_RANGE
                break
            try:
                ranges.append(range_from_timestamps(m, self.chan.c))
            except MeasurementError:
                break  # a garbled exchange counts toward OUT_OF_ZONE

        est, ambiguous = None, False
        if len(ranges) == 2:
            est, ambiguous = self._triangulate(ranges, zone, prediction, pos_a, pos_b)
        if est is not None and not (
            -AREA_SLACK <= est.x <= self.cfg.area_side + AREA_SLACK
            and -AREA_SLACK <= est.y <= self.cfg.area_side + AREA_SLACK
        ):
            est = None  # fixes outside the cluster area are impossible

        if est is None:
            track.consecutive_no_fix += 1
        else:
            if ambiguous:
                est = self._sector_disambiguate(track, ranges, est, pos_a, pos_b)
            err = distance(est, target_pos)
            prev = track.record.estimates[-1] if track.record.estimates else None
            track.record.add_estimate(EstimateSample(t, est, target_pos, err))
            if prev is not None:  # add_estimate refused any t <= prev.t
                dt = t - prev.t
                track.vel_est = ((est.x - prev.est.x) / dt, (est.y - prev.est.y) / dt)
            track.consecutive_no_fix = 0
        # The next zone forms around the fix, or else around the prediction.
        track.anchor = prediction if est is None else est
        track.anchor_time = t
        if track.consecutive_no_fix >= 2:
            far = self._far_ref(track, prediction, pos_a, pos_b)
            self.switch_reference(track, far, cause, t)

    def _tracking_beam_count(self, node: NodeState) -> int:
        """How many beams split ``node``'s energy: those whose track is active, at least 1."""
        n = 0
        for b in node.sectors:
            if b.target_id is not None and self.tracks[b.target_id].suspension is None:
                n += 1
        return max(1, n)

    def _far_ref(
        self, track: Track, prediction: Position, pos_a: Position, pos_b: Position
    ) -> int:
        return max(
            (distance(pos_a, prediction), track.ref_a),
            (distance(pos_b, prediction), track.ref_b),
        )[1]

    def _reselect_sectors(
        self, track: Track, zone: TrackingZone, prediction: Position, t: float
    ) -> bool:
        """Point both references' beams at the predicted bearing.

        A beam the track holds in the wanted sector is left alone: only
        ``_point`` gives a beam a target, so it was checked and sized when
        it was claimed.  A beam moves to another sector by a fresh claim.

        Returns False when a needed sector is busy with another target and
        the reference had to be switched (sector contention).
        """
        for ref_id in (track.ref_a, track.ref_b):
            node = self.nodes[ref_id]
            dest = node.beam_facing(prediction)
            beam = node.beam_for_target(track.target)
            if beam is dest:
                continue
            if dest.target_id is not None:  # held, and not by this track: its beam is elsewhere
                self.switch_reference(track, ref_id, SwitchCause.SECTOR_CONTENTION, t)
                return False
            if beam is not None:
                beam.release()
            self._point(node, dest, track.target, zone)
        return True

    def _triangulate(
        self,
        ranges: list[float],
        zone: TrackingZone,
        prediction: Position,
        pos_a: Position,
        pos_b: Position,
    ) -> tuple[Position | None, bool]:
        """Fix in ``zone``, retrying once in a zone re-formed at ``prediction``.

        Returns ``(None, False)`` when neither finds a fix.  Coincident
        references never reach here: the tick's baseline check raises first.
        """
        try:
            return triangulate(
                pos_a, ranges[0], pos_b, ranges[1], zone, eps_gap=self.cfg.eps_gap
            )
        except OutOfZoneError:
            rezone = self._form_zone(pos_a, pos_b, prediction)
            try:
                return triangulate(
                    pos_a, ranges[0], pos_b, ranges[1], rezone, eps_gap=self.cfg.eps_gap
                )
            except (OutOfZoneError, NoFixError):
                return None, False
        except NoFixError:
            return None, False

    def _sector_disambiguate(
        self,
        track: Track,
        ranges: list[float],
        chosen: Position,
        pos_a: Position,
        pos_b: Position,
    ) -> Position:
        """Prefer the candidate whose bearing matches the claimed sector."""
        # Never None: _reselect_sectors held or pointed this beam in the same tick.
        ref = self.nodes[track.ref_a]
        beam = ref.beam_for_target(track.target)
        points = circle_intersections(pos_a, ranges[0], pos_b, ranges[1])
        matching = [p for p in points if ref.beam_facing(p) is beam]
        return matching[0] if len(matching) == 1 else chosen

    # ------------------------------------------------------------------
    # reference switching

    def _claim_pair(self, track: Track, ref_a: int, ref_b: int, t: float) -> bool:
        """Point each reference's ``_beam_toward`` beam; False, changing nothing, if one lacks it.

        The claim puts the track back on the air: its suspension clears, its
        no-fix count restarts, and it ranges again after ``auth_duration``.
        """
        prediction = track.predict(t)
        nodes = (self.nodes[ref_a], self.nodes[ref_b])
        beams = [self._beam_toward(node, track.target, prediction) for node in nodes]
        if None in beams:
            return False
        track.ref_a, track.ref_b = ref_a, ref_b
        track.anchor = self.nodes[track.target].position  # fresh detection fix
        track.anchor_time = t
        zone = self._form_zone(nodes[0].position, nodes[1].position, track.anchor)
        for node, beam in zip(nodes, beams):
            self._point(node, beam, track.target, zone)
        track.suspension = None
        track.resume_at = t + self.cfg.auth_duration
        track.consecutive_no_fix = 0
        return True

    def _switch(self, track: Track, old_ref: int, cause: SwitchCause, t: float) -> bool:
        """Pair ``old_ref``'s partner with a fresh reference; False if none qualifies."""
        survivor = self.nodes[track.partner_of(old_ref)]
        if not self._is_friendly(survivor.id):
            return False  # survivor lapsed too; the pair must rebuild fully
        prediction = track.predict(t)
        cands = self._reference_candidates(prediction, {track.target, track.ref_a, track.ref_b})
        new_ref = self._partner_for(survivor, prediction, cands, track.target)
        s = track.suspension  # read before the claim, which clears it
        if new_ref is None or not self._claim_pair(track, survivor.id, new_ref.id, t):
            return False
        self._release(old_ref, track.target)
        self._log_switch(t, track.target, old_ref, new_ref.id, cause, s)
        return True

    def _log_switch(
        self,
        t: float,
        target: int,
        old_ref: int,
        new_ref: int,
        cause: SwitchCause,
        s: Suspension | None,
    ) -> None:
        """Log a switch at ``t``: its delay is ``auth_duration``, plus the outage since ``s``."""
        delay = self.cfg.auth_duration if s is None else t - s.at + self.cfg.auth_duration
        self.log.switches.append(SwitchEvent(t, target, old_ref, new_ref, cause, delay))

    def switch_reference(
        self, track: Track, failed_ref: int, cause: SwitchCause, t: float, reauth: bool = False
    ) -> None:
        """Replace one reference of a track, or suspend it behind a scan or re-auth."""
        if not self._switch(track, failed_ref, cause, t):
            self._suspend(track, failed_ref, cause, t, reauth)

    def _suspend(
        self, track: Track, failed_ref: int, cause: SwitchCause, t: float, reauth: bool
    ) -> None:
        # The surviving beam scans; the switch retries after the scan, or
        # on the failed reference's re-auth verdict.
        track.suspension = Suspension(t, failed_ref, cause, reauth)
        self._release(failed_ref, track.target)
        self.log.friend_events.append(
            FriendEvent(t, track.partner_of(failed_ref), track.target, "track_suspend", 0.0)
        )
        if not reauth:
            self.queue.push(
                t + SCAN_DURATION, EventKind.SCAN_DONE, self._end_track_scan, track.target
            )

    def _try_switch(self, track: Track, t: float) -> None:
        """Retry a pending switch after a scan or at an assignment pass."""
        s = track.suspension
        if self._switch(track, s.failed_ref, s.cause, t):
            return
        survivor = track.partner_of(s.failed_ref)
        if not self._is_friendly(survivor) or t - s.at >= 2.0 * SCAN_DURATION:
            # Survivor lapsed too, or the outage has dragged on: release the
            # survivor's scanning beam (the suspension released the other) and
            # rebuild the pair from scratch (old references rejoin once re-verified).
            self._release(survivor, track.target)
            if self._activate_track(track.target, t):
                new_ref = self.tracks[track.target].ref_a
                self._log_switch(t, track.target, s.failed_ref, new_ref, s.cause, s)

    def _release(self, ref_id: int, target: int) -> None:
        beam = self.nodes[ref_id].beam_for_target(target)
        if beam is not None:
            beam.release()


def run_scenario(cfg: ScenarioConfig) -> MetricsLog:
    """Simulate one full scenario and return its observation log."""
    return Engine(cfg).run()
