"""Propagation timing, range cutoff, and the beam-count energy model."""

from __future__ import annotations

import numpy as np
import pytest

from sectrack.channel import (
    NOISE_BLOCK,
    ChannelConfig,
    NormalStream,
    propagate,
    ranging_noise_std,
    received_energy,
)
from sectrack.geometry import Position


class TestPropagate:
    def test_noiseless_delay(self):
        cfg = ChannelConfig(sigma_t=0.0)
        arrival = propagate(Position(0, 0), Position(150, 0), 1.0, cfg)
        assert arrival == pytest.approx(1.0 + 150.0 / 3.0e8)

    def test_beyond_range_not_delivered(self):
        cfg = ChannelConfig()
        assert propagate(Position(0, 0), Position(251, 0), 0.0, cfg) is None
        assert propagate(Position(0, 0), Position(250, 0), 0.0, cfg) is not None

    def test_symmetry_noiseless(self):
        cfg = ChannelConfig(sigma_t=0.0)
        a, b = Position(10, 20), Position(200, 140)
        assert propagate(a, b, 0.0, cfg) == propagate(b, a, 0.0, cfg)

    def test_jitter_std(self):
        cfg = ChannelConfig(sigma_t=5e-9)
        rng = np.random.default_rng(4)
        base = 100.0 / cfg.c
        samples = [
            propagate(Position(0, 0), Position(100, 0), 0.0, cfg, rng) - base
            for _ in range(100_000)
        ]
        assert float(np.std(samples)) == pytest.approx(5e-9, rel=0.05)

    def test_deterministic_without_rng(self):
        cfg = ChannelConfig()
        a = propagate(Position(0, 0), Position(50, 50), 2.0, cfg)
        b = propagate(Position(0, 0), Position(50, 50), 2.0, cfg)
        assert a == b


class TestReceivedEnergy:
    def test_single_beam_full_energy(self):
        assert received_energy(ChannelConfig(), 1) == 1.0

    def test_two_beams_reference_value(self):
        assert received_energy(ChannelConfig(), 2) == pytest.approx(0.47)

    def test_strictly_decreasing_defaults(self):
        cfg = ChannelConfig()
        energies = [received_energy(cfg, m) for m in range(1, 9)]
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_zero_beams_rejected(self):
        with pytest.raises(ValueError):
            received_energy(ChannelConfig(), 0)

    def test_beta_bound_enforced(self):
        with pytest.raises(ValueError):
            ChannelConfig(beta=0.2)

    def test_noise_grows_with_beams(self):
        cfg = ChannelConfig()
        stds = [ranging_noise_std(cfg, m) for m in range(1, 5)]
        assert stds[0] == cfg.sigma_t
        assert all(a < b for a, b in zip(stds, stds[1:]))


class TestNormalStream:
    def test_matches_scalar_normal_draws_across_blocks(self):
        # Oracle: the scalar Generator.normal(0.0, sigma) calls the engine
        # made before draws were blocked.
        sigmas = [5e-9, 1e-9, 3.7e-8, 0.25, 1.0, 2.0e-9, 7.5]
        n = 3 * NOISE_BLOCK + 17
        oracle = np.random.default_rng(11)
        stream = NormalStream(np.random.default_rng(11))
        for i in range(n):
            sigma = sigmas[i % len(sigmas)]
            value = stream.normal(0.0, sigma)
            assert type(value) is float and value == oracle.normal(0.0, sigma)

    def test_propagate_draws_the_same_noise(self):
        cfg = ChannelConfig()
        oracle = np.random.default_rng(5)
        stream = NormalStream(np.random.default_rng(5))
        for k in range(2 * NOISE_BLOCK + 3):
            sigma = ranging_noise_std(cfg, 1 + k % 4)
            rx = Position(10.0 + k % 200, 3.0)
            assert propagate(Position(0, 0), rx, 0.0, cfg, stream, sigma) == propagate(
                Position(0, 0), rx, 0.0, cfg, oracle, sigma
            )

    def test_zero_sigma_draws_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        stream = NormalStream(rng)
        cfg = ChannelConfig(sigma_t=0.0)
        for _ in range(5):
            propagate(Position(0, 0), Position(100, 0), 0.0, cfg, stream)
        assert rng.bit_generator.state == before
