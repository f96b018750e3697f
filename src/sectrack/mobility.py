"""Node motion inside the square cluster area.

Two models: random waypoint with zero pause time (the default roaming
behavior) and parallel-path lanes (targets marching along fixed headings
with boundary reflection, for trajectory experiments).  A step updates
the node's ``MobilityState`` in place and returns that same object; every
random draw comes from an explicit per-node stream, in a fixed order, so
one seed gives one trajectory.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from sectrack.geometry import Position


class MobilityKind(enum.Enum):
    RANDOM_WAYPOINT = "random_waypoint"
    PARALLEL_PATH = "parallel_path"


@dataclass(slots=True)
class MobilityState:
    position: Position
    velocity: tuple[float, float] = (0.0, 0.0)
    waypoint: Position = Position(0.0, 0.0)
    v_min: float = 0.0
    v_max: float = 0.0
    kind: MobilityKind = MobilityKind.RANDOM_WAYPOINT

    @property
    def speed(self) -> float:
        return math.hypot(*self.velocity)


def make_random_waypoint(
    position: Position, v_min: float, v_max: float, area: float, rng: np.random.Generator
) -> MobilityState:
    """Roaming state with the first waypoint and speed already drawn."""
    if v_min > v_max:
        raise ValueError("v_min must not exceed v_max")
    state = MobilityState(
        position=position, v_min=v_min, v_max=v_max, kind=MobilityKind.RANDOM_WAYPOINT
    )
    if v_max == 0.0:
        state.waypoint = position
        return state
    return _retarget(state, area, rng)


def make_parallel_path(position: Position, speed: float, heading: float) -> MobilityState:
    vx = speed * math.cos(math.radians(heading))
    vy = speed * math.sin(math.radians(heading))
    return MobilityState(
        position=position,
        velocity=(vx, vy),
        waypoint=position,
        v_min=speed,
        v_max=speed,
        kind=MobilityKind.PARALLEL_PATH,
    )


def _retarget(state: MobilityState, area: float, rng: np.random.Generator) -> MobilityState:
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
    return state


def _step_waypoint(
    state: MobilityState, dt: float, area: float, rng: np.random.Generator
) -> MobilityState:
    remaining = dt
    while remaining > 0.0:
        speed = state.speed
        if speed == 0.0:
            if state.v_max == 0.0:
                return state  # stationary node
            _retarget(state, area, rng)
            continue
        (px, py), (wx, wy) = state.position, state.waypoint
        leg = math.hypot(wx - px, wy - py)
        travel = speed * remaining
        if travel < leg:
            f = travel / leg
            state.position = Position(px + f * (wx - px), py + f * (wy - py))
            return state
        # Arrive, then keep moving toward a fresh waypoint with the leftover time.
        remaining -= leg / speed
        state.position = state.waypoint
        _retarget(state, area, rng)
    return state


def _fold(coord: float, lo: float, hi: float) -> tuple[float, float]:
    """Reflect a coordinate into [lo, hi]; returns (coordinate, sign flip)."""
    span = hi - lo
    m = (coord - lo) % (2.0 * span)
    if m <= span:
        return lo + m, 1.0
    return lo + 2.0 * span - m, -1.0


def _step_parallel(state: MobilityState, dt: float, area: float) -> MobilityState:
    vx, vy = state.velocity
    x, sx = _fold(state.position[0] + vx * dt, 0.0, area)
    y, sy = _fold(state.position[1] + vy * dt, 0.0, area)
    state.position = Position(x, y)
    state.velocity = (sx * vx, sy * vy)
    return state


def step(
    state: MobilityState, dt: float, area: float, rng: np.random.Generator
) -> MobilityState:
    """Advance one node by dt seconds, in place; positions never leave [0, area]^2.

    Returns ``state`` itself, so ``node.mobility = step(node.mobility, ...)``
    and a bare ``step(node.mobility, ...)`` are equivalent.  Callers that
    need an earlier state must copy it before stepping.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if state.kind is MobilityKind.PARALLEL_PATH:
        return _step_parallel(state, dt, area)
    return _step_waypoint(state, dt, area, rng)
