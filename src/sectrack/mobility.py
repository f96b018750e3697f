"""Node motion inside the square cluster area.

Two models: random waypoint with zero pause time (the default roaming
behavior) and parallel-path lanes (targets marching along fixed headings
with boundary reflection, for trajectory experiments).  A step moves
the node's ``MobilityState`` in place and returns nothing; every
random draw comes from an explicit per-node stream, in a fixed order, so
one seed gives one trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sectrack.geometry import Position


@dataclass(slots=True)
class MobilityState:
    position: Position
    velocity: tuple[float, float] = (0.0, 0.0)
    waypoint: Position = Position(0.0, 0.0)
    v_min: float = 0.0
    v_max: float = 0.0
    parallel: bool = False  # marches on a parallel path; roams by waypoints otherwise

    @property
    def speed(self) -> float:
        return math.hypot(*self.velocity)


def make_random_waypoint(
    position: Position, v_min: float, v_max: float, area: float, rng: np.random.Generator
) -> MobilityState:
    """Roaming state with the first waypoint and speed already drawn."""
    if v_min > v_max:
        raise ValueError("v_min must not exceed v_max")
    state = MobilityState(position=position, v_min=v_min, v_max=v_max)
    if v_max == 0.0:
        state.waypoint = position
    else:
        _retarget(state, area, rng)
    return state


def make_parallel_path(position: Position, speed: float, heading: float) -> MobilityState:
    vx = speed * math.cos(math.radians(heading))
    vy = speed * math.sin(math.radians(heading))
    return MobilityState(
        position=position,
        velocity=(vx, vy),
        waypoint=position,
        v_min=speed,
        v_max=speed,
        parallel=True,
    )


def _retarget(state: MobilityState, area: float, rng: np.random.Generator) -> None:
    waypoint = Position(rng.uniform(0.0, area), rng.uniform(0.0, area))
    speed = rng.uniform(state.v_min, state.v_max)
    dx = waypoint[0] - state.position[0]
    dy = waypoint[1] - state.position[1]
    d = math.hypot(dx, dy)
    state.waypoint = waypoint
    if d == 0.0 or speed == 0.0:
        state.velocity = (0.0, 0.0)
    else:
        state.velocity = (speed * dx / d, speed * dy / d)


def _step_waypoint(
    state: MobilityState, dt: float, area: float, rng: np.random.Generator, steps: int
) -> None:
    # The node's floats live in locals across all steps: the position is
    # written back only where _retarget reads it and at the end, and the
    # speed is recomputed only when _retarget changes the velocity.
    speed = state.speed
    px, py = state.position
    wx, wy = state.waypoint
    for _ in range(steps):
        remaining = dt
        while remaining > 0.0:
            if speed == 0.0:
                if state.v_max == 0.0:
                    # Stationary: state.position is as it was or as the
                    # arrival before _retarget wrote it.
                    return
                _retarget(state, area, rng)
                wx, wy = state.waypoint
                speed = state.speed
                continue
            leg = math.hypot(wx - px, wy - py)
            travel = speed * remaining
            if travel < leg:
                f = travel / leg
                px, py = px + f * (wx - px), py + f * (wy - py)
                break
            # Arrive, then keep moving toward a fresh waypoint with the leftover time.
            remaining -= leg / speed
            state.position = state.waypoint
            px, py = wx, wy
            _retarget(state, area, rng)
            wx, wy = state.waypoint
            speed = state.speed
    state.position = Position(px, py)


def _fold(coord: float, lo: float, hi: float) -> tuple[float, float]:
    """Reflect a coordinate into [lo, hi]; returns (coordinate, sign flip)."""
    span = hi - lo
    m = (coord - lo) % (2.0 * span)
    if m <= span:
        return lo + m, 1.0
    return lo + 2.0 * span - m, -1.0


def _step_parallel(state: MobilityState, dt: float, area: float) -> None:
    vx, vy = state.velocity
    x, sx = _fold(state.position[0] + vx * dt, 0.0, area)
    y, sy = _fold(state.position[1] + vy * dt, 0.0, area)
    state.position = Position(x, y)
    state.velocity = (sx * vx, sy * vy)


def step(
    state: MobilityState,
    dt: float,
    area: float,
    rng: np.random.Generator,
    steps: int = 1,
) -> None:
    """Advance one node by ``steps`` steps of dt seconds, in place.

    The result equals ``steps`` single steps in a row, float for float and
    draw for draw; positions never leave [0, area]^2.  Callers that need
    an earlier state must copy it before stepping.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if state.parallel:
        for _ in range(steps):
            _step_parallel(state, dt, area)
    else:
        _step_waypoint(state, dt, area, rng, steps)
