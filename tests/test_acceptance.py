"""Acceptance gate: one test per criterion, each printing a verdict line.

Criteria summary (tolerances pinned here, not deferred):
  1  crypto roundtrip, 10^4 random pairs + chain interop length 8, < 5 s
  2  key structure 96+64+96 bits, identity segment chain-invariant, exact
  3  detection closed forms exact on the 5x5x5x4 grid; Monte Carlo with
     10^5 trials within 4*sqrt(P(1-P)/10^5) everywhere, < 30 s
  4  triangulation: 10^4 noiseless instances within 1e-6 m of truth and
     100 instances within 1e-6 m of a grid-refinement oracle, < 10 s
  5  trajectory analog: per-target mean error in [1, 4] m, < 60 s
  6  efficiency ordering nonincreasing across sectors 1..4 over 50 seeds
  7  switching overhead mean at v_max=20 exceeds v_max=5 over 50 seeds
  8  received energy strictly decreasing for m = 1..8, exact
  9  friendliness timers: single failure >= 20 s, consecutive >= 30 s
  10 `run all` twice with one seed gives byte-identical output trees

The reduced `run all` of criterion 10 is also held to the SHA-256 digests
pinned in bench/golden.json, so a refactor that changes any output byte
fails here.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from sectrack import cipher
from sectrack.channel import ChannelConfig, received_energy
from sectrack.cipher import (
    EnsemblePacket,
    IntegratedKey,
    SeedPair,
    decrypt_packet,
    derive_initial_key,
    encrypt_packet,
    key_chain,
    reconstruct_initial_key,
)
from sectrack.config import ScenarioConfig, parse_config
from sectrack.engine import run_scenario
from sectrack.geometry import Position, TrackingZone, distance, triangulate
from sectrack.metrics import mean_tracking_error
from sectrack.protocol import AdversaryModel, detection_rate, monte_carlo_detection
from sectrack.scenarios import run as run_named
from sectrack.scenarios import (
    run_friendliness,
    run_multi_target,
    run_switching,
    run_trajectory,
)
from test_geometry import grid_refine_oracle


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_crypto_roundtrip_and_chain_interop():
    start = time.monotonic()
    rnd = random.Random(1001)
    for _ in range(10_000):
        key = IntegratedKey(
            k1=rnd.getrandbits(96), k2=rnd.getrandbits(64), k3=rnd.getrandbits(96)
        )
        plain = bytes(rnd.getrandbits(8) for _ in range(32 * rnd.randint(1, 2)))
        pkt = EnsemblePacket(plain)
        assert decrypt_packet(encrypt_packet(pkt, key), key).payload == plain

    for _ in range(200):
        seeds = SeedPair.from_measurements(
            rnd.uniform(0, 400), rnd.uniform(0, 360), rnd.uniform(0, 1e-3)
        )
        node_id = rnd.getrandbits(64)
        plain = bytes(rnd.getrandbits(8) for _ in range(32))
        first = derive_initial_key(seeds, node_id, cipher.first_plain_segment(plain))
        ct = encrypt_packet(EnsemblePacket(plain), first)
        sender = key_chain(first, node_id, 8)
        receiver = key_chain(reconstruct_initial_key(ct, seeds, node_id), node_id, 8)
        assert sender == receiver
    elapsed = time.monotonic() - start
    report(1, elapsed < 5.0, f"10^4 roundtrips + 200 interop chains in {elapsed:.2f}s (< 5 s)")


def test_criterion_2_key_structure():
    rnd = random.Random(1002)
    ok = True
    for _ in range(500):
        seeds = SeedPair(rnd.getrandbits(32) << 32 | rnd.randrange(360), rnd.getrandbits(64))
        node_id = rnd.getrandbits(64)
        chain = key_chain(derive_initial_key(seeds, node_id, rnd.getrandbits(96)), node_id, 8)
        for key in chain:
            ok &= key.total_bits == 256
            ok &= 0 <= key.k1 < 2**96 and 0 <= key.k2 < 2**64 and 0 <= key.k3 < 2**96
            ok &= key.as_int() < 2**256
            ok &= key.k2 == node_id
    ok &= 2**256 // 2 == 2**255  # average brute-force trial count
    report(2, ok, "96+64+96 bit layout, chain-invariant identity, 2^255 search midpoint")


def test_criterion_3_detection_formulas_and_monte_carlo():
    start = time.monotonic()
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    trials = 100_000
    worst = 0.0
    idx = 0
    for p_wh in grid:
        for p_i in grid:
            for p_r in grid:
                adv = AdversaryModel(p_wh, p_i, p_r)
                single_hand = (1.0 - p_wh) * (1.0 - p_i) * (1.0 - p_r)
                for n in (1, 2, 4, 8):
                    closed = detection_rate(adv, n)
                    hand = 1.0 - (1.0 - single_hand) ** n
                    assert closed == hand  # identical formula, full precision
                    mc = monte_carlo_detection(adv, n, trials, rng_seed=9000 + idx)
                    bound = 4.0 * math.sqrt(closed * (1.0 - closed) / trials)
                    gap = abs(mc - closed)
                    assert gap <= max(bound, 0.0), (adv, n, mc, closed)
                    if bound > 0:
                        worst = max(worst, gap / bound)
                    idx += 1
    elapsed = time.monotonic() - start
    report(
        3,
        elapsed < 30.0,
        f"500 grid points exact + Monte Carlo within bound "
        f"(worst {worst:.2f} of bound) in {elapsed:.1f}s (< 30 s)",
    )


def _random_instance(rnd):
    while True:
        a = Position(rnd.uniform(0, 100), rnd.uniform(0, 100))
        b = Position(rnd.uniform(0, 100), rnd.uniform(0, 100))
        t = Position(rnd.uniform(0, 100), rnd.uniform(0, 100))
        d = distance(a, b)
        if d < 5.0:
            continue
        off_axis = abs((b[0] - a[0]) * (t[1] - a[1]) - (b[1] - a[1]) * (t[0] - a[0])) / d
        if off_axis < 0.5:
            continue
        return a, b, t


def test_criterion_4_triangulation_exactness():
    start = time.monotonic()
    rnd = random.Random(1004)
    worst_truth = 0.0
    for _ in range(10_000):
        a, b, t = _random_instance(rnd)
        est, _ = triangulate(a, distance(a, t), b, distance(b, t), TrackingZone(t, 25.0))
        worst_truth = max(worst_truth, distance(est, t))
    assert worst_truth < 1e-6

    worst_oracle = 0.0
    for _ in range(100):
        a, b, t = _random_instance(rnd)
        est, _ = triangulate(a, distance(a, t), b, distance(b, t), TrackingZone(t, 10.0))
        oracle = grid_refine_oracle(a, distance(a, t), b, distance(b, t), t, 2.0)
        worst_oracle = max(worst_oracle, distance(est, oracle))
    assert worst_oracle < 1e-6
    elapsed = time.monotonic() - start
    report(
        4,
        elapsed < 10.0,
        f"10^4 noiseless within {worst_truth:.2e} m; oracle gap {worst_oracle:.2e} m "
        f"in {elapsed:.1f}s (< 10 s)",
    )


def test_criterion_5_trajectory_error_scale():
    start = time.monotonic()
    log = run_trajectory(ScenarioConfig(master_seed=1))
    errors = {
        target: mean_tracking_error(rec)
        for target, rec in sorted(log.tracks.items())
        if rec.estimates
    }
    elapsed = time.monotonic() - start
    ok = len(errors) == 4 and all(1.0 <= e <= 4.0 for e in errors.values())
    detail = ", ".join(f"target {t}: {e:.2f} m" for t, e in errors.items())
    report(5, ok and elapsed < 60.0, f"{detail} (all in [1, 4] m) in {elapsed:.1f}s (< 60 s)")


def test_criterion_6_efficiency_ordering():
    start = time.monotonic()
    log = run_multi_target(ScenarioConfig(master_seed=1, seeds=50))
    by_sector: dict[int, list[float]] = {}
    for sector, _seed, eff in log.efficiency_rows:
        by_sector.setdefault(sector, []).append(eff)
    means = [float(np.mean(by_sector[s])) for s in (1, 2, 3, 4)]
    ordered = all(a >= b - 1e-12 for a, b in zip(means, means[1:]))
    elapsed = time.monotonic() - start
    report(
        6,
        ordered and elapsed < 300.0,
        f"sector means {[round(m, 3) for m in means]} nonincreasing over 50 seeds "
        f"in {elapsed:.1f}s (< 5 min)",
    )


def test_criterion_7_switching_overhead_monotonic():
    start = time.monotonic()
    summary = run_switching(ScenarioConfig(master_seed=1, seeds=50)).switching_summary
    lo = [o for v, _s, o in summary if v == 5.0]
    hi = [o for v, _s, o in summary if v == 20.0]
    elapsed = time.monotonic() - start
    ok = len(lo) == 50 and len(hi) == 50 and np.mean(hi) > np.mean(lo)
    report(
        7,
        ok and elapsed < 300.0,
        f"mean overhead {np.mean(hi):.1f}s at 20 m/s > {np.mean(lo):.1f}s at 5 m/s "
        f"over 50 paired seeds in {elapsed:.1f}s (< 5 min)",
    )


def test_criterion_8_energy_monotonicity():
    cfg = ChannelConfig()
    energies = [received_energy(cfg, m) for m in range(1, 9)]
    ok = all(a > b for a, b in zip(energies, energies[1:]))
    report(8, ok, f"E(1..8) = {[round(e, 4) for e in energies]} strictly decreasing")


def test_criterion_9_friendliness_timers():
    log = run_friendliness(ScenarioConfig(master_seed=1))
    fails = [ev for ev in log.friend_events if ev.event == "reauth_fail"]
    resumes = [ev for ev in log.friend_events if ev.event == "track_resume"]
    ok = len(fails) == 3 and len(resumes) == 2
    single_delay = resumes[0].t - fails[0].t if ok else float("nan")
    consec_delay = resumes[1].t - fails[2].t if ok else float("nan")
    ok = ok and single_delay >= 20.0 and consec_delay >= 30.0
    report(
        9,
        ok,
        f"single failure delay {single_delay:.1f}s >= 20 s; "
        f"consecutive failure delay {consec_delay:.1f}s >= 30 s",
    )


# Criterion 10's reduced `run all`; bench/golden.json pins its tree as
# "run-all-reduced".
RUN_ALL_REDUCED = {
    "sim.duration": "100",
    "sim.seeds": "4",
    "sim.trials": "4000",
    "sim.node_count": "25",
    "sim.malicious_count": "3",
    "sim.master_seed": "7",
}
GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"


def test_criterion_10_run_all_determinism(tmp_path):
    cfg = parse_config(None, RUN_ALL_REDUCED)
    assert run_named("all", cfg, tmp_path / "a") == 0
    assert run_named("all", cfg, tmp_path / "b") == 0

    def tree(root: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }
    ta, tb = tree(tmp_path / "a"), tree(tmp_path / "b")
    ok = ta == tb and len(ta) > 10
    report(10, ok, f"`run all` twice: {len(ta)} files byte-identical")


def test_run_all_reduced_matches_golden_digests(tmp_path):
    pinned = json.loads(GOLDEN.read_text())["run-all-reduced"]
    assert run_named("all", parse_config(None, RUN_ALL_REDUCED), tmp_path) == 0
    digests = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file()
    }
    assert len(pinned) == 44
    assert digests == pinned
