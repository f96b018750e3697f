"""Ranging, zone forming, beamwidth, sectors, and two-circle triangulation.

Triangulation is checked against a brute-force grid-refinement oracle
that minimizes the squared range residuals inside the zone, written here
with no reference to the triangulation code path.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from sectrack.geometry import (
    DegenerateGeometryError,
    MeasurementError,
    NoFixError,
    OutOfZoneError,
    Position,
    RangeMeasurement,
    TrackingZone,
    ZoneConfig,
    beamwidth_for_zone,
    bearing_deg,
    distance,
    form_zone,
    range_from_timestamps,
    sector_of,
    triangulate,
)

C = 3.0e8


def grid_refine_oracle(ref_a, r_a, ref_b, r_b, center, half_span, rounds=6):
    """Best residual point by iterated grid search around `center`."""

    def residual(x, y):
        da = math.hypot(x - ref_a[0], y - ref_a[1])
        db = math.hypot(x - ref_b[0], y - ref_b[1])
        return (da - r_a) ** 2 + (db - r_b) ** 2

    cx, cy = center
    span = half_span
    for _ in range(rounds):
        xs = np.linspace(cx - span, cx + span, 41)
        ys = np.linspace(cy - span, cy + span, 41)
        best = min(((residual(x, y), x, y) for x in xs for y in ys))
        _, cx, cy = best
        span /= 10.0
    return Position(cx, cy)


class TestRanging:
    def test_zero_processing_time(self):
        d = 100.0
        m = RangeMeasurement(tod_a=0.0, toa_b=d / C, tod_b=d / C, toa_a=2 * d / C)
        assert range_from_timestamps(m, C) == pytest.approx(100.0)

    def test_processing_time_cancels(self):
        d, hold = 100.0, 1e-3
        m = RangeMeasurement(
            tod_a=0.0, toa_b=d / C, tod_b=d / C + hold, toa_a=2 * d / C + hold
        )
        assert range_from_timestamps(m, C) == pytest.approx(100.0, abs=1e-6)

    def test_negative_net_time_is_error(self):
        # round trip shorter than the responder's hold time
        m = RangeMeasurement(tod_a=0.0, toa_b=1e-7, tod_b=3e-7, toa_a=1.5e-7)
        with pytest.raises(MeasurementError):
            range_from_timestamps(m, C)

    def test_noise_scale(self):
        # sigma on each of the 4 stamps puts std ~= c * sigma on the range
        rng = np.random.default_rng(21)
        d, sigma = 120.0, 5e-9
        base = (0.0, d / C, d / C + 1e-4, 2 * d / C + 1e-4)
        errs = []
        for _ in range(100_000):
            n = rng.normal(0.0, sigma, size=4)
            m = RangeMeasurement(base[0] + n[0], base[1] + n[1], base[2] + n[2], base[3] + n[3])
            errs.append(range_from_timestamps(m, C) - d)
        std = float(np.std(errs))
        assert std == pytest.approx(C * sigma, rel=0.05)


class TestZoneForming:
    def test_reference_example(self):
        z = form_zone(Position(0, 0), Position(100, 0), Position(50, 50), 0.0, 5.0)
        assert z.radius == pytest.approx(50.0)
        assert z.center == Position(50, 50)

    def test_motion_margin_and_clamp(self):
        z = form_zone(Position(0, 0), Position(100, 0), Position(50, 50), 20.0, 5.0)
        assert z.radius == 150.0  # 50 + 100 clamped at rho_max
        z2 = form_zone(
            Position(0, 0), Position(100, 0), Position(50, 50), 20.0, 5.0,
            ZoneConfig(rho_max=500.0),
        )
        assert z2.radius == pytest.approx(150.0)

    def test_rho_min_clamp(self):
        z = form_zone(Position(0, 0), Position(4, 0), Position(2, 1), 0.0, 1.0)
        assert z.radius == 5.0

    def test_coincident_references_error(self):
        with pytest.raises(DegenerateGeometryError):
            form_zone(Position(1, 1), Position(1, 1), Position(5, 5), 0.0, 1.0)

    def test_rigid_motion_invariance(self):
        rnd = random.Random(3)
        for _ in range(200):
            a = Position(rnd.uniform(0, 100), rnd.uniform(0, 100))
            b = Position(rnd.uniform(0, 100), rnd.uniform(0, 100))
            t = Position(rnd.uniform(0, 100), rnd.uniform(0, 100))
            if distance(a, b) < 1e-6:
                continue
            theta = rnd.uniform(0, 2 * math.pi)
            dx, dy = rnd.uniform(-50, 50), rnd.uniform(-50, 50)

            def move(p):
                x = p[0] * math.cos(theta) - p[1] * math.sin(theta) + dx
                y = p[0] * math.sin(theta) + p[1] * math.cos(theta) + dy
                return Position(x, y)

            r1 = form_zone(a, b, t, 7.0, 5.0).radius
            r2 = form_zone(move(a), move(b), move(t), 7.0, 5.0).radius
            assert r1 == pytest.approx(r2, rel=1e-9)


class TestBeamwidth:
    def test_ratio_half(self):
        zone = TrackingZone(Position(0, 0), 50.0)
        assert beamwidth_for_zone(zone, Position(100, 0), 4) == pytest.approx(60.0)

    def test_observer_inside_zone_clamps_to_sector(self):
        zone = TrackingZone(Position(0, 0), 80.0)
        assert beamwidth_for_zone(zone, Position(40, 0), 4) == 90.0

    def test_small_far_zone(self):
        zone = TrackingZone(Position(0, 0), 10.0)
        assert beamwidth_for_zone(zone, Position(200, 0), 4) == pytest.approx(
            math.degrees(2 * math.asin(0.05))
        )
        assert beamwidth_for_zone(zone, Position(200, 0), 4) == pytest.approx(5.732, abs=1e-3)

    def test_observer_at_center_gets_full_sector(self):
        zone = TrackingZone(Position(5, 5), 20.0)
        assert beamwidth_for_zone(zone, Position(5, 5), 4) == 90.0

    def test_monotonicity(self):
        obs = Position(100, 0)
        widths = [
            beamwidth_for_zone(TrackingZone(Position(0, 0), r), obs, 360)
            for r in (5, 10, 20, 40)
        ]
        assert widths == sorted(widths)
        zone = TrackingZone(Position(0, 0), 10.0)
        by_dist = [
            beamwidth_for_zone(zone, Position(d, 0), 360) for d in (20, 40, 80, 160)
        ]
        assert by_dist == sorted(by_dist, reverse=True)


class TestSectors:
    @pytest.mark.parametrize(
        "bearing,expected", [(0, 0), (89.9, 0), (90, 1), (180, 2), (359.9, 3), (-10, 3)]
    )
    def test_quadrants(self, bearing, expected):
        assert sector_of(bearing, 4) == expected

    def test_single_sector(self):
        assert sector_of(123.0, 1) == 0

    def test_bearing_helper(self):
        assert bearing_deg(Position(0, 0), Position(1, 0)) == 0.0
        assert bearing_deg(Position(0, 0), Position(0, 1)) == 90.0
        assert bearing_deg(Position(0, 0), Position(-1, 0)) == 180.0


class TestTriangulate:
    def test_symmetric_intersection(self):
        # zone tight enough to exclude the mirror point (1, -1)
        zone = TrackingZone(Position(1, 1), 1.5)
        est, amb = triangulate(
            Position(0, 0), math.sqrt(2), Position(2, 0), math.sqrt(2), zone
        )
        assert est == pytest.approx((1.0, 1.0))
        assert not amb

    def test_tangency_single_point(self):
        zone = TrackingZone(Position(1, 0), 5.0)
        est, amb = triangulate(Position(0, 0), 1.0, Position(4, 0), 3.0, zone)
        assert est == pytest.approx((1.0, 0.0))
        assert not amb

    def test_coincident_refs_error(self):
        with pytest.raises(DegenerateGeometryError):
            triangulate(Position(0, 0), 1.0, Position(0, 0), 1.0, TrackingZone(Position(0, 0), 5))

    def test_gap_beyond_tolerance_no_fix(self):
        zone = TrackingZone(Position(5, 0), 20.0)
        with pytest.raises(NoFixError):
            triangulate(Position(0, 0), 1.0, Position(10, 0), 1.0, zone, eps_gap=2.0)

    def test_near_miss_disjoint_reconciled(self):
        # circles short of touching by 1 m -> least-squares midpoint
        zone = TrackingZone(Position(5, 0), 20.0)
        est, amb = triangulate(Position(0, 0), 4.5, Position(10, 0), 4.5, zone, eps_gap=2.0)
        assert est == pytest.approx((5.0, 0.0))
        assert not amb

    def test_near_miss_nested_reconciled(self):
        # circle around B strictly inside A's circle, 1 m short of touching
        zone = TrackingZone(Position(9, 0), 20.0)
        est, amb = triangulate(Position(0, 0), 10.0, Position(4, 0), 5.0, zone, eps_gap=2.0)
        oracle = grid_refine_oracle(Position(0, 0), 10.0, Position(4, 0), 5.0, (9.5, 0), 3.0)
        assert est == pytest.approx(oracle, abs=1e-6)

    def test_both_candidates_outside_zone(self):
        zone = TrackingZone(Position(50, 50), 2.0)
        with pytest.raises(OutOfZoneError):
            triangulate(Position(0, 0), math.sqrt(2), Position(2, 0), math.sqrt(2), zone)

    def test_ambiguity_flag_and_center_preference(self):
        # both intersections inside a huge zone; center sits on the upper one
        zone = TrackingZone(Position(1, 1), 50.0)
        est, amb = triangulate(
            Position(0, 0), math.sqrt(2), Position(2, 0), math.sqrt(2), zone
        )
        assert amb
        assert est == pytest.approx((1.0, 1.0))

    def test_swap_symmetry(self):
        rnd = random.Random(17)
        for _ in range(300):
            a = Position(rnd.uniform(0, 100), rnd.uniform(0, 100))
            b = Position(rnd.uniform(0, 100), rnd.uniform(0, 100))
            t = Position(rnd.uniform(0, 100), rnd.uniform(0, 100))
            if distance(a, b) < 5.0 or min(distance(t, a), distance(t, b)) < 1.0:
                continue
            zone = TrackingZone(t, 30.0)
            r_a, r_b = distance(a, t), distance(b, t)
            e1, _ = triangulate(a, r_a, b, r_b, zone)
            e2, _ = triangulate(b, r_b, a, r_a, zone)
            assert e1 == pytest.approx(e2, abs=1e-9)

    def test_noiseless_exactness_bulk(self):
        rnd = random.Random(18)
        done = 0
        while done < 10_000:
            a = Position(rnd.uniform(0, 100), rnd.uniform(0, 100))
            b = Position(rnd.uniform(0, 100), rnd.uniform(0, 100))
            t = Position(rnd.uniform(0, 100), rnd.uniform(0, 100))
            d = distance(a, b)
            if d < 5.0:
                continue
            # non-degenerate: target at least 0.5 m off the reference axis
            cross = abs((b[0] - a[0]) * (t[1] - a[1]) - (b[1] - a[1]) * (t[0] - a[0]))
            if cross / d < 0.5:
                continue
            zone = TrackingZone(t, 25.0)
            est, _ = triangulate(a, distance(a, t), b, distance(b, t), zone)
            assert distance(est, t) < 1e-6
            done += 1

    def test_frozen_oracle_fixture_rows(self):
        from pathlib import Path

        rows = [
            ln.split()
            for ln in (Path(__file__).parent / "vectors" / "triangulation_oracle.txt")
            .read_text()
            .splitlines()
            if ln.strip() and not ln.startswith("#")
        ]
        assert len(rows) == 20
        for vals in rows:
            ax, ay, ra, bx, by, rb, zx, zy, zr, ex, ey = map(float, vals)
            zone = TrackingZone(Position(zx, zy), zr)
            est, _ = triangulate(Position(ax, ay), ra, Position(bx, by), rb, zone)
            assert distance(est, Position(ex, ey)) < 1e-6

    def test_against_grid_oracle(self):
        rnd = random.Random(19)
        done = 0
        while done < 100:
            a = Position(rnd.uniform(0, 100), rnd.uniform(0, 100))
            b = Position(rnd.uniform(0, 100), rnd.uniform(0, 100))
            t = Position(rnd.uniform(0, 100), rnd.uniform(0, 100))
            d = distance(a, b)
            if d < 5.0:
                continue
            cross = abs((b[0] - a[0]) * (t[1] - a[1]) - (b[1] - a[1]) * (t[0] - a[0]))
            if cross / d < 1.0:
                continue
            zone = TrackingZone(t, 10.0)
            est, _ = triangulate(a, distance(a, t), b, distance(b, t), zone)
            oracle = grid_refine_oracle(a, distance(a, t), b, distance(b, t), t, 2.0)
            assert distance(est, oracle) < 1e-6
            done += 1


class TestRecords:
    """The ranging and zone records are immutable value records."""

    STAMPS = (1.0e-9, 4.0e-7, 6.0e-7, 9.5e-7)

    def records(self):
        return [
            RangeMeasurement(*self.STAMPS),
            TrackingZone(Position(3.0, -2.0), 12.5),
        ]

    def test_refuse_attribute_assignment(self):
        for record in self.records():
            for name in type(record).__annotations__:
                with pytest.raises(AttributeError):
                    setattr(record, name, 0.0)
            with pytest.raises(AttributeError):
                record.extra = 0.0
            assert not hasattr(record, "__dict__")

    def test_field_order(self):
        assert list(RangeMeasurement.__annotations__) == ["tod_a", "toa_b", "tod_b", "toa_a"]
        assert list(TrackingZone.__annotations__) == ["center", "radius"]
        m = RangeMeasurement(*self.STAMPS)
        assert (m.tod_a, m.toa_b, m.tod_b, m.toa_a) == self.STAMPS
        zone = TrackingZone(Position(3.0, -2.0), 12.5)
        assert zone.center == Position(3.0, -2.0) and zone.radius == 12.5

    def test_equality_by_value(self):
        for a, b in zip(self.records(), self.records()):
            assert a is not b and a == b and hash(a) == hash(b)
        assert RangeMeasurement(*self.STAMPS) != RangeMeasurement(0.0, *self.STAMPS[1:])
        assert TrackingZone(Position(3.0, -2.0), 12.5) != TrackingZone(Position(3.0, -2.0), 12.0)

    def test_keyword_and_positional_records_give_the_same_results(self):
        tod_a, toa_b, tod_b, toa_a = self.STAMPS
        by_kw = RangeMeasurement(tod_a=tod_a, toa_b=toa_b, tod_b=tod_b, toa_a=toa_a)
        by_pos = RangeMeasurement(tod_a, toa_b, tod_b, toa_a)
        assert repr(by_kw) == repr(by_pos)
        assert repr(range_from_timestamps(by_kw, C)) == repr(range_from_timestamps(by_pos, C))

        a, b, t = Position(0.0, 0.0), Position(40.0, 0.0), Position(17.0, 23.0)
        zones = [
            TrackingZone(center=Position(15.0, 20.0), radius=9.0),
            TrackingZone(Position(15.0, 20.0), 9.0),
        ]
        assert repr(zones[0]) == repr(zones[1])
        fixes = [triangulate(a, distance(a, t), b, distance(b, t), z) for z in zones]
        assert repr(fixes[0]) == repr(fixes[1])
        widths = [beamwidth_for_zone(z, Position(80.0, -30.0), 4) for z in zones]
        assert repr(widths[0]) == repr(widths[1])

    def test_contains_is_a_method(self):
        zone = TrackingZone(Position(0.0, 0.0), 5.0)
        assert zone.contains(Position(3.0, 4.0))
        assert not zone.contains(Position(3.0, 4.0 + 1e-9))
