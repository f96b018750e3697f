"""Timing, range and energy model of the radio links.

Propagation is line-of-sight with Gaussian timestamp noise and a hard
range cutoff, and the channel times every two-way exchange as two
propagated legs; all richer channel effects are folded into the one noise
knob.  Transmit energy splits across a node's simultaneously active
sectored beams and loses an interference term per extra beam, which is
what couples beam count to ranging accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sectrack.geometry import Position, RangeMeasurement, distance

# Largest beam count the energy model must stay positive for.
MAX_BEAMS = 8
# Standard normals drawn at a time by NormalStream.
NOISE_BLOCK = 1024


@dataclass(frozen=True)
class ChannelConfig:
    c: float = 3.0e8
    range_limit: float = 250.0
    sigma_t: float = 5.0e-9
    e_total: float = 1.0
    beta: float = 0.06

    def __post_init__(self) -> None:
        for name in ("c", "range_limit", "sigma_t", "e_total", "beta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.c == 0:
            raise ValueError("c must be positive: it is the propagation speed")
        if self.e_total == 0:
            # Ranging jitter grows as 1/sqrt(received energy).
            raise ValueError("e_total must be positive: a beam without energy cannot range")
        if self.beta * (MAX_BEAMS - 1) >= 1.0:
            raise ValueError(f"beta must be below {1.0 / (MAX_BEAMS - 1):.4f}")


class NormalStream:
    """A Generator's ``normal`` draws, served from blocks of standard normals.

    numpy computes ``normal(loc, scale)`` as ``loc + scale * z`` for one
    standard normal z, and ``standard_normal(n)`` fills its n values with
    the same routine, in order.  So the k-th ``normal`` call here returns
    the k-th scalar ``normal`` call's value on the wrapped generator; only
    the generator itself runs up to one block ahead.  A block is drawn on
    the first call that needs it, so a stream never asked draws nothing.
    The block is read through a memoryview, which yields each value as a
    Python float without boxing the whole block at once.
    """

    __slots__ = ("_rng", "_block", "_next")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._block = memoryview(b"")
        self._next = 0

    def normal(self, loc: float, scale: float) -> float:
        if self._next == len(self._block):
            self._block = memoryview(self._rng.standard_normal(NOISE_BLOCK))
            self._next = 0
        z = self._block[self._next]
        self._next += 1
        return loc + scale * z


def propagate(
    tx: Position,
    rx: Position,
    t_send: float,
    cfg: ChannelConfig,
    rng: np.random.Generator | NormalStream | None = None,
    sigma_t: float | None = None,
) -> float | None:
    """Arrival timestamp of a packet sent at t_send, or None beyond range.

    The stamp carries Gaussian noise of std sigma_t (defaulting to the
    config's); non-delivery is a normal outcome, not an error.
    """
    d = distance(tx, rx)
    if d > cfg.range_limit:
        return None
    sigma = cfg.sigma_t if sigma_t is None else sigma_t
    noise = rng.normal(0.0, sigma) if (rng is not None and sigma > 0.0) else 0.0
    return t_send + d / cfg.c + noise


def exchange(
    a: Position,
    b: Position,
    t_send: float,
    hold: float,
    cfg: ChannelConfig,
    rng: np.random.Generator | NormalStream | None = None,
    sigma_t: float | None = None,
) -> RangeMeasurement | None:
    """Stamps of one two-way exchange, or None when the ping is not delivered.

    ``a`` pings ``b`` at t_send and ``b`` echoes ``hold`` seconds after the
    ping lands, one ``propagate`` leg each.  A lost ping draws nothing; the
    echo spans the same distance, so it is never lost.
    """
    if distance(a, b) > cfg.range_limit:
        return None
    toa_b = propagate(a, b, t_send, cfg, rng, sigma_t)
    tod_b = toa_b + hold
    return RangeMeasurement(t_send, toa_b, tod_b, propagate(b, a, tod_b, cfg, rng, sigma_t))


def received_energy(cfg: ChannelConfig, m_active_beams: int) -> float:
    """Receive-side energy when the transmitter splits m beams.

    E(m) = (E_total / m) * (1 - beta * (m - 1)), floored at zero: power
    splits evenly and every extra beam costs an interference fraction.
    """
    if m_active_beams < 1:
        raise ValueError(f"beam count must be at least 1, got {m_active_beams}")
    e = (cfg.e_total / m_active_beams) * (1.0 - cfg.beta * (m_active_beams - 1))
    return max(e, 0.0)


def ranging_noise_std(cfg: ChannelConfig, m_active_beams: int) -> float:
    """Timestamp noise std of a reference running m tracking beams.

    Splitting energy across beams lowers the received energy and widens
    the timing jitter as 1/sqrt(E); one beam gives the base sigma_t.
    """
    e = received_energy(cfg, m_active_beams)
    if e <= 0.0:
        raise ValueError("energy model exhausted; too many beams")
    return cfg.sigma_t * math.sqrt(received_energy(cfg, 1) / e)
