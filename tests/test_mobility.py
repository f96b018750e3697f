"""Random-waypoint and parallel-path motion."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from sectrack.geometry import Position
from sectrack.mobility import (
    MobilityKind,
    MobilityState,
    _fold,
    make_parallel_path,
    make_random_waypoint,
    step,
)


# The copy-on-step implementation that the in-place step replaced, kept as
# an oracle: every float operation and random draw in the same order, but
# each transition builds a new state with ``dataclasses.replace``.


def _oracle_retarget(state, area, rng):
    waypoint = Position(rng.uniform(0.0, area), rng.uniform(0.0, area))
    speed = rng.uniform(state.v_min, state.v_max)
    dx = waypoint[0] - state.position[0]
    dy = waypoint[1] - state.position[1]
    d = math.hypot(dx, dy)
    if d == 0.0 or speed == 0.0:
        return replace(state, waypoint=waypoint, velocity=(0.0, 0.0))
    return replace(state, waypoint=waypoint, velocity=(speed * dx / d, speed * dy / d))


def _oracle_step(state, dt, area, rng):
    if state.kind is MobilityKind.PARALLEL_PATH:
        x, sx = _fold(state.position[0] + state.velocity[0] * dt, 0.0, area)
        y, sy = _fold(state.position[1] + state.velocity[1] * dt, 0.0, area)
        return replace(
            state,
            position=Position(x, y),
            velocity=(sx * state.velocity[0], sy * state.velocity[1]),
        )
    remaining = dt
    while remaining > 0.0:
        speed = state.speed
        if speed == 0.0:
            if state.v_max == 0.0:
                return state
            state = _oracle_retarget(state, area, rng)
            continue
        leg = math.hypot(
            state.waypoint[0] - state.position[0], state.waypoint[1] - state.position[1]
        )
        travel = speed * remaining
        if travel < leg:
            f = travel / leg
            pos = Position(
                state.position[0] + f * (state.waypoint[0] - state.position[0]),
                state.position[1] + f * (state.waypoint[1] - state.position[1]),
            )
            return replace(state, position=pos)
        remaining -= leg / speed
        state = _oracle_retarget(replace(state, position=state.waypoint), area, rng)
    return state


class TestInPlaceStepMatchesOracle:
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize("dt", [1.0, 0.3])
    def test_random_waypoint_exact(self, seed, dt):
        area = 250.0
        start = make_random_waypoint(
            Position(20.0, 230.0), 0.5, 40.0, area, np.random.default_rng(seed)
        )
        expected = replace(start)
        rng, oracle_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        state = start
        for _ in range(500):
            step(state, dt, area, rng)
            expected = _oracle_step(expected, dt, area, oracle_rng)
            assert state.position == expected.position
            assert state.velocity == expected.velocity
            assert state.waypoint == expected.waypoint
        assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_parallel_path_exact(self, seed):
        area = 400.0
        draw = np.random.default_rng(seed)
        start = make_parallel_path(
            Position(draw.uniform(0, area), draw.uniform(0, area)),
            draw.uniform(1.0, 30.0),
            draw.uniform(0.0, 360.0),
        )
        expected = replace(start)
        rng = np.random.default_rng(seed)
        state = start
        for _ in range(500):
            step(state, 1.7, area, rng)
            expected = _oracle_step(expected, 1.7, area, rng)
            assert state.position == expected.position
            assert state.velocity == expected.velocity

    @pytest.mark.parametrize(
        "state",
        [
            make_random_waypoint(Position(5, 5), 1.0, 9.0, 100.0, np.random.default_rng(3)),
            make_random_waypoint(Position(5, 5), 0.0, 0.0, 100.0, np.random.default_rng(3)),
            make_parallel_path(Position(5, 5), 3.0, 45.0),
        ],
        ids=["waypoint", "stationary", "parallel"],
    )
    def test_step_moves_the_given_state_and_returns_none(self, state):
        rng, twin_rng = np.random.default_rng(4), np.random.default_rng(4)
        twin = replace(state)
        for _ in range(50):
            assert step(state, 2.0, 100.0, rng) is None
            twin = _oracle_step(twin, 2.0, 100.0, twin_rng)
            assert state.position == twin.position
            assert state.velocity == twin.velocity

    def test_state_has_slots_and_no_dict(self):
        state = MobilityState(position=Position(0.0, 0.0))
        assert not hasattr(state, "__dict__")
        with pytest.raises(AttributeError):
            state.unknown = 1.0


class TestBatchedStepMatchesOracle:
    """``step(..., n)`` equals n single oracle steps, draw for draw."""

    @staticmethod
    def _start(model, seed, area):
        draw = np.random.default_rng(seed)
        pos = Position(draw.uniform(0, area), draw.uniform(0, area))
        if model == "parallel":
            return make_parallel_path(pos, draw.uniform(1.0, 30.0), draw.uniform(0.0, 360.0))
        if model == "resting":
            # v_max 0 with a velocity left over: it moves to its waypoint,
            # draws a zero speed there and stays.
            return MobilityState(
                position=Position(10.0, 10.0), velocity=(3.0, 4.0), waypoint=Position(40.0, 50.0)
            )
        if model == "stationary":
            return make_random_waypoint(pos, 0.0, 0.0, area, draw)
        return make_random_waypoint(pos, 0.5, 40.0, area, draw)

    @pytest.mark.parametrize("n", [1, 2, 25, 500])
    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize("model", ["waypoint", "parallel", "resting", "stationary"])
    def test_n_steps_equal_n_oracle_steps(self, model, seed, n):
        area = 60.0  # small: a 40 m/s node retargets inside most batches
        state = self._start(model, seed, area)
        expected = replace(state)
        rng, oracle_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        retargets = 0
        for _ in range(max(2, 1000 // n)):
            waypoint = state.waypoint
            assert step(state, 0.7, area, rng, n) is None
            for _ in range(n):
                expected = _oracle_step(expected, 0.7, area, oracle_rng)
            assert state.position == expected.position
            assert state.velocity == expected.velocity
            assert state.waypoint == expected.waypoint
            retargets += state.waypoint != waypoint
        assert rng.random() == oracle_rng.random()
        if model == "waypoint":
            assert retargets > 0

    def test_zero_steps_is_refused(self):
        state = make_parallel_path(Position(5, 5), 3.0, 45.0)
        with pytest.raises(ValueError, match="steps"):
            step(state, 1.0, 100.0, np.random.default_rng(0), 0)

    @pytest.mark.parametrize("dt", [0.0, -0.5])
    def test_nonpositive_dt_is_refused(self, dt):
        state = make_parallel_path(Position(5, 5), 3.0, 45.0)
        with pytest.raises(ValueError, match="dt must be positive"):
            step(state, dt, 100.0, np.random.default_rng(0))
        assert state.position == Position(5, 5)


class TestRandomWaypoint:
    def test_straight_leg_kinematics(self):
        rng = np.random.default_rng(1)
        state = make_random_waypoint(Position(0, 0), 10.0, 10.0, 1000.0, rng)
        # aim at a known waypoint 100 m away
        state = replace(state, waypoint=Position(100.0, 0.0), velocity=(10.0, 0.0))
        step(state, 5.0, 1000.0, rng)
        assert state.position == pytest.approx((50.0, 0.0))

    def test_positions_stay_inside_area(self):
        rng = np.random.default_rng(2)
        area = 200.0
        state = make_random_waypoint(Position(100, 100), 1.0, 20.0, area, rng)
        for _ in range(10_000):
            step(state, 1.0, area, rng)
            assert 0.0 <= state.position.x <= area
            assert 0.0 <= state.position.y <= area

    def test_speed_within_bounds_en_route(self):
        rng = np.random.default_rng(3)
        state = make_random_waypoint(Position(50, 50), 2.0, 8.0, 400.0, rng)
        for _ in range(2000):
            step(state, 0.5, 400.0, rng)
            assert 2.0 - 1e-9 <= state.speed <= 8.0 + 1e-9

    def test_deterministic_trajectory(self):
        a = make_random_waypoint(Position(10, 10), 1.0, 5.0, 300.0, np.random.default_rng(7))
        b = make_random_waypoint(Position(10, 10), 1.0, 5.0, 300.0, np.random.default_rng(7))
        ra, rb = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(500):
            step(a, 1.0, 300.0, ra)
            step(b, 1.0, 300.0, rb)
            assert a.position == b.position

    def test_zero_speed_is_stationary(self):
        rng = np.random.default_rng(9)
        state = make_random_waypoint(Position(42, 24), 0.0, 0.0, 100.0, rng)
        for _ in range(50):
            step(state, 2.0, 100.0, rng)
        assert state.position == Position(42, 24)


class TestParallelPath:
    def test_lanes_stay_parallel_and_spaced(self):
        rng = np.random.default_rng(5)
        area = 400.0
        spacing = 40.0
        lanes = [
            make_parallel_path(Position(40.0, 140.0 + k * spacing), 6.0, 0.0)
            for k in range(4)
        ]
        for _ in range(500):
            for s in lanes:
                step(s, 1.0, area, rng)
            ys = [s.position.y for s in lanes]
            for i in range(4):
                for j in range(i + 1, 4):
                    assert abs(ys[j] - ys[i]) == pytest.approx((j - i) * spacing)

    def test_reflection_at_boundary(self):
        state = make_parallel_path(Position(390.0, 200.0), 10.0, 0.0)
        step(state, 2.0, 400.0, np.random.default_rng(0))
        assert state.position.x == pytest.approx(390.0)  # 390 -> 400 -> 390
        assert state.velocity[0] == pytest.approx(-10.0)
        assert state.position.y == 200.0

    def test_kind_tag(self):
        s = make_parallel_path(Position(0, 0), 1.0, 90.0)
        assert s.kind is MobilityKind.PARALLEL_PATH
