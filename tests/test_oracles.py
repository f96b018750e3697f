"""Checks that must hold on both sides of any re-baseline of the golden digests.

With ``channel.sigma_t = 0`` every range is exact, so every two-circle fix
is either the target's true position or its mirror image across the
baseline of the reference pair that ranged it.  The engine is observed
from outside: ``Engine.tracking_tick`` is wrapped to read both references'
positions at each fix, so no engine code serves the test.

At the default noise, a right-side fix's error e follows the ranging
noise model: NEES = e^T J^T R^-1 J e is chi-squared with 2 degrees of
freedom (Bar-Shalom, Li and Kirubarajan, *Estimation with Applications to
Tracking and Navigation*, 2001), where the rows of J are the unit vectors
from each reference to the truth and R holds each range's variance.

A dishonest screen evades with probability (1 - detection_single)^n, so
the evasions the engine logs over fixed seeds are a binomial sample of
that closed form.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from sectrack.channel import ranging_noise_std
from sectrack.cipher import derive_stream_seed
from sectrack.config import ScenarioConfig
from sectrack.engine import Engine
from sectrack.geometry import Position, distance
from sectrack.protocol import detection_single
from sectrack.scenarios import SWITCHING_SPEEDS, multi_target_config, switching_config

TOLERANCE_M = 1e-6
# Two-sided 99.9% bound on a standard normal z.
Z_BOUND = 3.29
# The 99.9% quantile of chi-squared with 2 degrees of freedom, -2 ln 0.001.
CHI2_2_Q999 = -2.0 * math.log(0.001)


def mirror(p: Position, a: Position, b: Position) -> Position:
    """Reflection of p across the line through a and b."""
    dx, dy = b.x - a.x, b.y - a.y
    s = ((p.x - a.x) * dx + (p.y - a.y) * dy) / (dx * dx + dy * dy)
    foot_x, foot_y = a.x + s * dx, a.y + s * dy
    return Position(2.0 * foot_x - p.x, 2.0 * foot_y - p.y)


def oracle_configs(name: str, **overrides) -> list[ScenarioConfig]:
    base = ScenarioConfig(master_seed=1, **overrides)
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
    for cfg in oracle_configs(name, sigma_t=0.0):
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
                if eng.nodes[event.peer].malicious:
                    screens += 1
                    evaded += event.passed

    q = (1.0 - detection_single(base.adversary_model())) ** n_keys
    z = (evaded - screens * q) / math.sqrt(screens * q * (1.0 - q))
    print(f"{evaded}/{screens} dishonest screens evaded, closed form {q:.3f}, z {z:+.2f}")
    # Enough screens for the normal approximation to the binomial.
    assert screens * q * (1.0 - q) >= 10.0
    assert abs(z) <= Z_BOUND, (evaded, screens, q, z)


def binomial_upper_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p), summed term by term."""
    log_n, log_p, log_q = math.lgamma(n + 1), math.log(p), math.log1p(-p)

    def log_pmf(i: int) -> float:
        return log_n - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * log_p + (n - i) * log_q

    return math.fsum(math.exp(log_pmf(i)) for i in range(k, n + 1))


def observe_fixes(monkeypatch) -> list[dict]:
    """Wrap the engine's beam counts and fix calls; return one record per fix.

    Each record holds both reference positions and each range's standard
    deviation where the engine used them, the beam count m each reference
    ran at its exchange, how the ranges made the fix, and the estimate and
    truth from the tick's ``EstimateSample``.
    """
    tick, fix = Engine.tracking_tick, Engine._triangulate
    beam_count = Engine._tracking_beam_count
    fixes: list[dict] = []
    current: dict = {}

    def observed_beam_count(self, node):
        # The tick asks a reference's beam count once per ranging exchange.
        m = beam_count(self, node)
        chan = current["chan"]
        current["legs"].append((m, chan.c * ranging_noise_std(chan, m) / math.sqrt(2.0)))
        return m

    def observed_fix(self, ranges, zone, prediction, pos_a, pos_b):
        est, ambiguous = fix(self, ranges, zone, prediction, pos_a, pos_b)
        d = distance(pos_a, pos_b)
        r_a, r_b = ranges
        if d > r_a + r_b or d < abs(r_a - r_b):
            kind = "least-squares"  # the circles missed; the fix lies on the baseline
        elif ambiguous:
            kind = "sector"  # both candidates in the zone; the beam sector chose
        else:
            kind = "zone"
        current.update(refs=(pos_a, pos_b), kind=kind)
        return est, ambiguous

    def observed_tick(self, track, t):
        current.clear()
        current.update(chan=self.chan, legs=[])
        before = len(track.record.estimates)
        tick(self, track, t)
        if len(track.record.estimates) > before:
            sample = track.record.estimates[-1]
            fixes.append(dict(current, est=sample.est, truth=sample.truth))

    monkeypatch.setattr(Engine, "tracking_tick", observed_tick)
    monkeypatch.setattr(Engine, "_tracking_beam_count", observed_beam_count)
    monkeypatch.setattr(Engine, "_triangulate", observed_fix)
    return fixes


def nees(fix: dict) -> float:
    """e^T J^T R^-1 J e for the fix error e: the sum of (u . e)^2 / sigma^2."""
    truth, est = fix["truth"], fix["est"]
    ex, ey = est.x - truth.x, est.y - truth.y
    total = 0.0
    for ref, (_, sigma) in zip(fix["refs"], fix["legs"]):
        d = distance(ref, truth)
        projected = ((truth.x - ref.x) * ex + (truth.y - ref.y) * ey) / d
        total += (projected / sigma) ** 2
    return total


@pytest.mark.parametrize("name", ["multi-target", "switching"])
def test_right_side_fixes_carry_the_ranging_noise(name, monkeypatch):
    fixes = observe_fixes(monkeypatch)
    for cfg in oracle_configs(name):
        assert cfg.sigma_t > 0.0
        Engine(cfg).run()

    strata: dict[tuple, list[float]] = {}
    wrong_side = 0
    for f in fixes:
        assert len(f["legs"]) == 2
        a, b = f["refs"]
        if f["kind"] != "least-squares" and distance(f["est"], f["truth"]) >= distance(
            f["est"], mirror(f["truth"], a, b)
        ):
            wrong_side += 1
            continue
        ms = tuple(m for m, _ in f["legs"])
        strata.setdefault((f["kind"], ms), []).append(nees(f))

    print(f"{name}: {len(fixes)} fixes, {wrong_side} on the wrong side")
    for (kind, ms), values in sorted(strata.items()):
        mean = math.fsum(values) / len(values)
        print(f"  {kind} fixes, beams {ms}: {len(values)}, NEES mean {mean:.3f}")

    # Least-squares fixes are not two-circle fixes, so they are only reported.
    pooled = [v for (kind, _), values in strata.items() if kind != "least-squares" for v in values]
    n = len(pooled)
    assert n >= 100
    mean = math.fsum(pooled) / n
    above = sum(v > CHI2_2_Q999 for v in pooled)
    tail = binomial_upper_tail(above, n, 0.001)
    print(f"  pooled: {n}, NEES mean {mean:.3f}, {above} above {CHI2_2_Q999:.2f} (tail {tail:.3g})")
    # Chi-squared with 2 degrees of freedom has mean 2 and variance 4.
    assert abs(mean - 2.0) <= Z_BOUND * 2.0 / math.sqrt(n), (mean, n)
    # Each NEES exceeds the 99.9% quantile with probability 0.001.
    assert tail >= 0.001, (above, n)
