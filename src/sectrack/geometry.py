"""Planar geometry core: ranging, tracking zones, beams, triangulation.

All positions are meters in the cluster plane.  Ranging averages the
time-of-departure/time-of-arrival stamps of a two-way exchange so the
responder's processing time cancels exactly.  A tracking zone is a disc
centered on the last estimate, sized from the distance between the two
reference nodes plus a motion margin, and it is what disambiguates the
two-circle triangulation fix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


class MeasurementError(ValueError):
    """Ranging stamps produced a negative net flight time; sample dropped."""


class DegenerateGeometryError(ValueError):
    """Reference geometry collapsed (coincident references or target)."""


class NoFixError(ValueError):
    """Range circles miss each other by more than the tolerance."""


class OutOfZoneError(ValueError):
    """Both triangulation candidates fall outside the tracking zone."""


class Position(NamedTuple):
    x: float
    y: float


# Euclidean distance between two points, in C.  For float coordinates
# math.dist(a, b) is the same double as math.hypot(b[0] - a[0], b[1] - a[1]),
# NaN and inf included: both pass the fabs of each coordinate difference to
# one vector_norm, and |a - b| is exactly |b - a| under round-to-nearest.
# Unlike the hypot form it converts int coordinates to float before
# subtracting and refuses points of unequal length; every Position is a
# pair of floats.
distance = math.dist


def bearing_deg(a: Position, b: Position) -> float:
    """Bearing from a to b, degrees counterclockwise from +x in [0, 360)."""
    bearing = math.degrees(math.atan2(b[1] - a[1], b[0] - a[0])) % 360.0
    # A tiny negative angle rounds up to 360.0 under the modulo.
    return 0.0 if bearing == 360.0 else bearing


def point_line_distance(p: Position, a: Position, b: Position) -> float:
    """Perpendicular distance from p to the infinite line through a and b.

    Targets near a reference pair's baseline make the two-circle fix
    side-ambiguous, so pair selection keeps this distance large.
    """
    d = distance(a, b)
    if d == 0.0:
        raise DegenerateGeometryError("line endpoints coincide")
    cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    return abs(cross) / d


class RangeMeasurement(NamedTuple):
    """Stamp quadruple of one two-way exchange: A sends, B echoes, A receives."""

    tod_a: float
    toa_b: float
    tod_b: float
    toa_a: float


def range_from_timestamps(m: RangeMeasurement, c: float = 3.0e8) -> float:
    """Distance from half the round trip net of the responder's hold time."""
    net = (m.toa_a - m.tod_a) - (m.tod_b - m.toa_b)
    if net < 0:
        raise MeasurementError(f"negative net flight time {net}")
    return c * net / 2.0


@dataclass(frozen=True)
class ZoneConfig:
    alpha: float = 0.5
    rho_min: float = 5.0
    rho_max: float = 150.0


class TrackingZone(NamedTuple):
    """Disc the beams of one reference pair keep focused on one target."""

    center: Position
    radius: float

    def contains(self, p: Position) -> bool:
        return distance(self.center, p) <= self.radius


def form_zone(
    ref_a: Position,
    ref_b: Position,
    last_est: Position,
    v_max: float,
    dt: float,
    cfg: ZoneConfig = ZoneConfig(),
) -> TrackingZone:
    """Zone around the last estimate, sized by the reference-pair geometry.

    radius = clamp(alpha * (d12 / d_avg) * d_avg + v_max * dt), i.e. the
    inter-reference distance scaled by alpha plus the worst-case motion
    since the estimate.
    """
    d12 = distance(ref_a, ref_b)
    if d12 == 0.0:
        raise DegenerateGeometryError("reference nodes coincide")
    d_avg = (distance(last_est, ref_a) + distance(last_est, ref_b)) / 2.0
    if d_avg == 0.0:
        raise DegenerateGeometryError("target estimate coincides with both references")
    radius = cfg.alpha * (d12 / d_avg) * d_avg + v_max * dt
    radius = min(max(radius, cfg.rho_min), cfg.rho_max)
    return TrackingZone(last_est, radius)


def beamwidth_for_zone(zone: TrackingZone, observer: Position, sectors: int = 4) -> float:
    """Beam opening angle (degrees) that just covers the zone from observer.

    Wider zones or closer observers need wider beams; the width never
    exceeds one sector.  An observer at the zone center gets the full
    sector.
    """
    if sectors < 1:
        raise ValueError("sectors must be at least 1")
    full = 360.0 / sectors
    d = distance(observer, zone.center)
    if d == 0.0:
        return full
    theta = math.degrees(2.0 * math.asin(min(1.0, zone.radius / d)))
    return min(theta, full)


def sector_of(bearing: float, sectors: int = 4) -> int:
    """Index of the half-open sector [k*360/S, (k+1)*360/S) holding bearing."""
    if sectors < 1:
        raise ValueError("sectors must be at least 1")
    b = bearing % 360.0
    return min(int(b / (360.0 / sectors)), sectors - 1)


def circle_intersections(
    ref_a: Position, r_a: float, ref_b: Position, r_b: float
) -> list[Position]:
    """Intersection points of two range circles: two, one (tangent) or none."""
    d = distance(ref_a, ref_b)
    if d == 0.0:
        raise DegenerateGeometryError("circle centers coincide")
    if d > r_a + r_b or d < abs(r_a - r_b):
        return []
    a = (r_a * r_a - r_b * r_b + d * d) / (2.0 * d)
    h2 = r_a * r_a - a * a
    h = math.sqrt(max(h2, 0.0))
    ex = ((ref_b[0] - ref_a[0]) / d, (ref_b[1] - ref_a[1]) / d)
    bx = ref_a[0] + a * ex[0]
    by = ref_a[1] + a * ex[1]
    if h == 0.0:
        return [Position(bx, by)]
    return [
        Position(bx - h * ex[1], by + h * ex[0]),
        Position(bx + h * ex[1], by - h * ex[0]),
    ]


def _least_squares_on_axis(
    ref_a: Position, r_a: float, ref_b: Position, r_b: float, d: float
) -> Position:
    # Minimize (|t|-r_a)^2 + (|t-d|-r_b)^2 along the center line; the
    # objective is quadratic on each of the three linear regimes.
    candidates = []
    t = (r_a - r_b + d) / 2.0  # between the centers
    candidates.append(min(max(t, 0.0), d))
    candidates.append(max((r_a + r_b + d) / 2.0, d))  # beyond B
    candidates.append(min((d - r_a - r_b) / 2.0, 0.0))  # behind A

    def residual(t: float) -> float:
        return (abs(t) - r_a) ** 2 + (abs(t - d) - r_b) ** 2

    best = min(candidates, key=residual)
    ex = ((ref_b[0] - ref_a[0]) / d, (ref_b[1] - ref_a[1]) / d)
    return Position(ref_a[0] + best * ex[0], ref_a[1] + best * ex[1])


def triangulate(
    ref_a: Position,
    r_a: float,
    ref_b: Position,
    r_b: float,
    zone: TrackingZone,
    *,
    eps_gap: float = 2.0,
) -> tuple[Position, bool]:
    """Two-circle fix disambiguated by the tracking zone.

    Returns (estimate, ambiguous).  ambiguous is True when both circle
    intersections fall inside the zone and the one nearer the zone center
    was chosen; the caller may re-disambiguate by beam sector.  Circles
    that miss each other by at most eps_gap are reconciled to the
    least-squares point on the center line.
    """
    if r_a < 0 or r_b < 0:
        raise ValueError("ranges must be nonnegative")
    d = distance(ref_a, ref_b)
    if d == 0.0:
        raise DegenerateGeometryError("reference nodes coincide")

    points = circle_intersections(ref_a, r_a, ref_b, r_b)
    if not points:
        miss = max(d - (r_a + r_b), abs(r_a - r_b) - d)
        if miss > eps_gap:
            raise NoFixError(f"range circles miss by {miss:.3f} m (> {eps_gap} m)")
        return _least_squares_on_axis(ref_a, r_a, ref_b, r_b, d), False

    if len(points) == 1:
        return points[0], False

    inside = [p for p in points if zone.contains(p)]
    if not inside:
        raise OutOfZoneError("both triangulation candidates outside the zone")
    if len(inside) == 1:
        return inside[0], False
    # Both inside: nearer the zone center wins; tie broken lexicographically
    # so the result is invariant under swapping the references.
    inside.sort(key=lambda p: (distance(zone.center, p), p[0], p[1]))
    return inside[0], True
