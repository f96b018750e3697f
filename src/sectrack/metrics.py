"""Aggregation of simulation logs and fixed-schema CSV emission.

Every derived metric is a pure function of the MetricsLog, and the CSV
files are byte-stable for a given config and master seed.  Schemas:

    detection.csv     p_wh,p_i,p_r,n,closed_form,monte_carlo
    efficiency.csv    sector,seed,efficiency
    trajectory.csv    target,t,true_x,true_y,est_x,est_y,err
    switching.csv     t,target,old_ref,new_ref,cause,delay_s
    energy.csv        m_beams,energy
    friendliness.csv  t,node,peer,event,delay_s

``write_csv`` writes every CSV of a tree, and adds switching_summary.csv
(v_max,seed,overhead_s) for a log that carries summary rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, NamedTuple

from sectrack.geometry import Position


class SwitchCause(enum.Enum):
    OUT_OF_RANGE = "out_of_range"
    OUT_OF_ZONE = "out_of_zone"
    FRIENDLINESS_LOST = "friendliness_lost"
    SECTOR_CONTENTION = "sector_contention"


class EstimateSample(NamedTuple):
    t: float
    est: Position
    truth: Position
    err: float


class SwitchEvent(NamedTuple):
    t: float
    target: int
    old_ref: int
    new_ref: int
    cause: SwitchCause
    delay_s: float


class FriendEvent(NamedTuple):
    t: float
    node: int
    peer: int
    event: str
    delay_s: float


class VerdictEvent(NamedTuple):
    t: float
    node: int
    peer: int
    verdict: str


@dataclass
class TrackRecord:
    """Lifetime record of one target's track; ``MetricsLog.tracks`` keys it by target."""

    estimates: list[EstimateSample] = field(default_factory=list)

    def add_estimate(self, sample: EstimateSample) -> None:
        if self.estimates and sample.t <= self.estimates[-1].t:
            raise ValueError("estimate timestamps must be strictly increasing")
        self.estimates.append(sample)


@dataclass
class MetricsLog:
    """Complete observation record of one run (or one composed experiment)."""

    tracks: dict[int, TrackRecord] = field(default_factory=dict)
    switches: list[SwitchEvent] = field(default_factory=list)
    friend_events: list[FriendEvent] = field(default_factory=list)
    verdicts: list[VerdictEvent] = field(default_factory=list)
    detection_rows: list[tuple[float, float, float, int, float, float]] = field(
        default_factory=list
    )
    energy_rows: list[tuple[int, float]] = field(default_factory=list)
    efficiency_rows: list[tuple[int, int, float]] = field(default_factory=list)
    switching_summary: list[tuple[float, int, float]] = field(default_factory=list)


def plt_efficiency(track: TrackRecord, sample_times: tuple[float, ...], tol: float = 5.0) -> float:
    """Fraction of the run's schedule, sample_times, with a fix within tol meters.

    Instants with no estimate (not yet assigned, suspended, lost) count
    as failures.  The default tolerance of 5 m is the accuracy knob that
    defines tracking "success".
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not sample_times:
        raise ValueError("empty sample schedule")
    by_time = {s.t: s for s in track.estimates}
    hits = 0
    for t in sample_times:
        s = by_time.get(t)
        if s is not None and s.err <= tol:
            hits += 1
    return hits / len(sample_times)


def mean_tracking_error(track: TrackRecord) -> float:
    """Mean Euclidean error of the track's estimates against the truth."""
    if not track.estimates:
        raise ValueError("track has no estimates")
    total = 0.0
    for s in track.estimates:
        total += s.err
    return total / len(track.estimates)


def switching_overhead(log: MetricsLog) -> float:
    """Seconds of scan plus authentication delay spent on switches."""
    return sum((ev.delay_s for ev in log.switches), 0.0)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, enum.Enum):
        return str(v.value)
    return str(v)


def _write_rows(path: Path, header: str, rows: Iterable[tuple]) -> Path:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_csv(log: MetricsLog, out_dir: str | Path) -> list[Path]:
    """Emit the six fixed-schema files, headers always and rows where data
    exists, plus switching_summary.csv when the log has summary rows."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    trajectory_rows = [
        (target, s.t, s.truth.x, s.truth.y, s.est.x, s.est.y, s.err)
        for target in sorted(log.tracks)
        for s in log.tracks[target].estimates
    ]
    tables = [
        ("detection.csv", "p_wh,p_i,p_r,n,closed_form,monte_carlo", log.detection_rows),
        ("efficiency.csv", "sector,seed,efficiency", log.efficiency_rows),
        ("trajectory.csv", "target,t,true_x,true_y,est_x,est_y,err", trajectory_rows),
        ("switching.csv", "t,target,old_ref,new_ref,cause,delay_s", log.switches),
        ("energy.csv", "m_beams,energy", log.energy_rows),
        ("friendliness.csv", "t,node,peer,event,delay_s", log.friend_events),
    ]
    if log.switching_summary:
        tables.append(("switching_summary.csv", "v_max,seed,overhead_s", log.switching_summary))
    return [_write_rows(out / name, header, rows) for name, header, rows in tables]
