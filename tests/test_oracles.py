"""Checks that must hold on both sides of any re-baseline of the golden digests.

With ``channel.sigma_t = 0`` every range is exact, so every two-circle fix
is either the target's true position or its mirror image across the
baseline of the reference pair that ranged it.  The engine is observed
from outside: ``Engine.tracking_tick`` is wrapped to read both references'
positions at each fix, so no engine code serves the test.

A dishonest screen evades with probability (1 - detection_single)^n, so
the evasions the engine logs over fixed seeds are a binomial sample of
that closed form.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from sectrack.cipher import derive_stream_seed
from sectrack.config import ScenarioConfig
from sectrack.engine import MALICIOUS_TARGET, Engine
from sectrack.geometry import Position, distance
from sectrack.protocol import FRIENDLY, detection_single
from sectrack.scenarios import SWITCHING_SPEEDS, multi_target_config, switching_config

TOLERANCE_M = 1e-6
# Two-sided 99.9% bound on a standard normal z.
Z_BOUND = 3.29


def mirror(p: Position, a: Position, b: Position) -> Position:
    """Reflection of p across the line through a and b."""
    dx, dy = b.x - a.x, b.y - a.y
    s = ((p.x - a.x) * dx + (p.y - a.y) * dy) / (dx * dx + dy * dy)
    foot_x, foot_y = a.x + s * dx, a.y + s * dy
    return Position(2.0 * foot_x - p.x, 2.0 * foot_y - p.y)


def zero_noise_configs(name: str) -> list[ScenarioConfig]:
    base = ScenarioConfig(master_seed=1, sigma_t=0.0)
    if name == "multi-target":
        return [
            multi_target_config(base, derive_stream_seed(1, "multi-target", rep))
            for rep in range(4)
        ]
    short = dataclasses.replace(base, duration=200.0)
    return [
        switching_config(short, v, derive_stream_seed(1, "switching", rep))
        for rep in range(2)
        for v in SWITCHING_SPEEDS
    ]


@pytest.mark.parametrize("name", ["multi-target", "switching"])
def test_zero_noise_fixes_are_the_truth_or_its_mirror(name, monkeypatch):
    original = Engine.tracking_tick
    fixes = []

    def observed(self, track, t):
        refs = (self.nodes[track.ref_a].position, self.nodes[track.ref_b].position)
        before = len(track.record.estimates)
        original(self, track, t)
        if len(track.record.estimates) > before:
            fixes.append((track.record.estimates[-1], refs))

    monkeypatch.setattr(Engine, "tracking_tick", observed)
    for cfg in zero_noise_configs(name):
        assert cfg.sigma_t == 0.0
        Engine(cfg).run()

    assert len(fixes) >= 100
    mirrors = 0
    for sample, (a, b) in fixes:
        to_truth = distance(sample.est, sample.truth)
        to_mirror = distance(sample.est, mirror(sample.truth, a, b))
        assert min(to_truth, to_mirror) <= TOLERANCE_M, (
            f"t={sample.t}: fix {sample.est} is {to_truth} m from the truth "
            f"{sample.truth} and {to_mirror} m from its mirror across {a}-{b}"
        )
        mirrors += to_truth > TOLERANCE_M
    # Wrong-side fixes are reported, not pinned: resolving them is future work.
    print(f"{name}: {len(fixes)} zero-noise fixes, {mirrors} at the truth's mirror")


@pytest.mark.parametrize(
    "p_wh, p_i, p_r, n_keys", [(0.5, 0.4, 0.3, 1), (0.6, 0.5, 0.5, 2), (0.3, 0.2, 0.1, 1)]
)
def test_dishonest_screens_evade_at_the_closed_form_rate(p_wh, p_i, p_r, n_keys):
    base = ScenarioConfig(master_seed=1, p_wh=p_wh, p_i=p_i, p_r=p_r, n_keys=n_keys)
    evaded = screens = 0
    for rep in range(3):
        for v in SWITCHING_SPEEDS:
            eng = Engine(switching_config(base, v, derive_stream_seed(1, "switching", rep)))
            for event in eng.run().verdicts:
                if eng.nodes[event.peer].role is MALICIOUS_TARGET:
                    screens += 1
                    evaded += event.verdict == FRIENDLY.value

    q = (1.0 - detection_single(base.adversary_model())) ** n_keys
    z = (evaded - screens * q) / math.sqrt(screens * q * (1.0 - q))
    print(f"{evaded}/{screens} dishonest screens evaded, closed form {q:.3f}, z {z:+.2f}")
    # Enough screens for the normal approximation to the binomial.
    assert screens * q * (1.0 - q) >= 10.0
    assert abs(z) <= Z_BOUND, (evaded, screens, q, z)
