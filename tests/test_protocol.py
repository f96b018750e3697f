"""Verification verdicts, detection formulas, and the Monte Carlo cross-check."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from sectrack import cipher
from sectrack.cipher import EnsemblePacket, SeedPair
from sectrack.protocol import (
    MC_BLOCK_TRIALS,
    AdversaryModel,
    _challenge_payloads,
    _replay_fail_threshold,
    _run_honest_challenge,
    complete_verification,
    detection_rate,
    detection_single,
    monte_carlo_detection,
)


SEEDS = SeedPair.from_measurements(50.0, 53.0, 4e-7)


def _verify(
    initiator_seeds=SEEDS,
    candidate_seeds=SEEDS,
    *,
    honest=True,
    j_max=4,
    adversary=AdversaryModel(),
    n_keys=1,
    rng=0,
):
    return complete_verification(
        initiator_seeds,
        candidate_seeds,
        1,
        j_max=j_max,
        candidate_honest=honest,
        adversary=adversary,
        n_keys=n_keys,
        rng=np.random.default_rng(rng),
    )


class TestSessions:
    """One call per screening, from agreed seeds to a pass or a fail."""

    def test_honest_matching_seeds_verified(self):
        assert _verify() is True

    def test_honest_wrong_rtt_bucket_rejected(self):
        bad = SeedPair(SEEDS.loc_seed, SEEDS.rtt_seed + 1)
        assert _verify(SEEDS, bad) is False

    def test_honest_wrong_location_seed_rejected(self):
        bad = SeedPair.from_measurements(51.9, 53.0, 4e-7)
        assert _verify(SEEDS, bad) is False

    def test_dishonest_zero_replays_always_malicious(self):
        for seed in range(20):
            v = _verify(honest=False, adversary=AdversaryModel(0, 0, 0), n_keys=4, rng=seed)
            assert v is False

    def test_dishonest_certain_replays_never_detected(self):
        for seed in range(20):
            v = _verify(honest=False, adversary=AdversaryModel(1, 1, 1), n_keys=5, rng=seed)
            assert v is True

    def test_dishonest_verdict_rate_tracks_closed_form(self):
        adv = AdversaryModel(0.5, 0.5, 0.5)
        n = 2
        rng = np.random.default_rng(99)
        hits = 0
        trials = 4000
        for _ in range(trials):
            v = _verify(honest=False, j_max=1, adversary=adv, n_keys=n, rng=rng)
            hits += not v
        p = detection_rate(adv, n)
        assert abs(hits / trials - p) < 4 * math.sqrt(p * (1 - p) / trials)

    def test_dishonest_rejects_zero_keys(self):
        with pytest.raises(ValueError):
            _verify(honest=False, n_keys=0)

    def test_honest_screen_does_not_read_n_keys(self):
        # The key-check count models the adversary alone; an honest
        # candidate runs the cipher chain whatever it is.
        assert _verify(n_keys=0) is True

    @pytest.mark.parametrize(
        "adversary, draws",
        [(AdversaryModel(1, 1, 1), 15), (AdversaryModel(0, 0, 0), 3)],
        ids=["slips-through-all-five", "caught-at-the-first"],
    )
    def test_dishonest_screen_draws_three_per_key_check_made(self, adversary, draws):
        # Later screens in a run share this stream, so the draw count is
        # part of every pinned output: three replay draws per check, and
        # none after the check that catches the candidate.
        rng = np.random.default_rng(7)
        complete_verification(
            SEEDS,
            SEEDS,
            1,
            j_max=4,
            candidate_honest=False,
            adversary=adversary,
            n_keys=5,
            rng=rng,
        )
        expected = np.random.default_rng(7)
        expected.random(draws)
        assert rng.random() == expected.random()


def oracle_honest_challenge(initiator_seeds, candidate_seeds, initiator_id, j_max, rng):
    # Reference form of the honest challenge: keys and packets indexed by
    # position, every cipher call made through the module.
    payloads = _challenge_payloads(j_max, rng)
    tx_key = cipher.derive_initial_key(
        initiator_seeds, initiator_id, cipher.first_plain_segment(payloads[0])
    )
    tx_keys = cipher.key_chain(tx_key, initiator_id, j_max)
    cipher_packets = [
        cipher.encrypt_packet(EnsemblePacket(p, index=j + 1), tx_keys[j])
        for j, p in enumerate(payloads)
    ]
    rx_key = cipher.reconstruct_initial_key(cipher_packets[0], candidate_seeds, initiator_id)
    rx_keys = tx_keys if rx_key == tx_key else cipher.key_chain(rx_key, initiator_id, j_max)
    for j, cpkt in enumerate(cipher_packets):
        recovered = cipher.decrypt_packet(cpkt, rx_keys[j])
        if cipher.xor_fold_digest(recovered.payload) != cipher.xor_fold_digest(payloads[j]):
            return False
    return True


class TestHonestChallenge:
    """The honest challenge against the oracle, and its receipt's reach."""

    INITIATOR_IDS = (0, 1, 7, 0xFFFFFFFF, 2**32 + 5, 2**64 - 1)

    @pytest.mark.parametrize("j_max", range(1, 7))
    def test_matches_oracle_verdict_and_stream(self, j_max):
        # One stream per side across all cases, with the adversary path's
        # random() draws now and then in between, as the engine's protocol
        # stream has them: the engine's bytes depend on what each call
        # consumes.
        rnd = random.Random(40 + j_max)
        rng, ref = np.random.default_rng(j_max), np.random.default_rng(j_max)
        for case in range(40):
            init = SeedPair((rnd.getrandbits(32) << 32) | rnd.randrange(360), rnd.getrandbits(64))
            how = case % 3
            if how == 0:
                cand = SeedPair(init.loc_seed, init.rtt_seed)
            elif how == 1:
                cand = SeedPair(init.loc_seed, (init.rtt_seed + 1) & (2**64 - 1))
            else:
                cand = SeedPair(init.loc_seed ^ (1 << 32), init.rtt_seed)
            initiator_id = self.INITIATOR_IDS[case % len(self.INITIATOR_IDS)]
            for _ in range(case % 3):
                assert rng.random() == ref.random()
            got = _run_honest_challenge(init, cand, initiator_id, j_max, rng)
            assert got == oracle_honest_challenge(init, cand, initiator_id, j_max, ref)
            assert got is (how == 0)
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "xor_fold_digest cannot see a wrong key on a two-block packet: the "
            "keystream block repeats, so its difference cancels in the fold.  "
            "Packets 2 and 3 of a j_max 4 challenge pass their receipt under "
            "any key; mending it changes output bytes and needs a declared "
            "re-baseline."
        ),
    )
    def test_off_by_one_rtt_seed_fails_every_receipt(self):
        j_max = 4
        bad = SeedPair(SEEDS.loc_seed, SEEDS.rtt_seed + 1)
        payloads = _challenge_payloads(j_max, np.random.default_rng(5))
        tx_key = cipher.derive_initial_key(SEEDS, 1, cipher.first_plain_segment(payloads[0]))
        tx_keys = cipher.key_chain(tx_key, 1, j_max)
        packets = [
            cipher.encrypt_packet(EnsemblePacket(p, j), key)
            for j, (p, key) in enumerate(zip(payloads, tx_keys), 1)
        ]
        rx_keys = cipher.key_chain(cipher.reconstruct_initial_key(packets[0], bad, 1), 1, j_max)
        passed = [
            cipher.xor_fold_digest(cipher.decrypt_packet(c, key).payload)
            == cipher.xor_fold_digest(p)
            for p, c, key in zip(payloads, packets, rx_keys)
        ]
        assert not any(passed), f"receipts passed under the wrong key: {passed}"


class TestAdversaryModel:
    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError):
            AdversaryModel(p_wh=1.5)
        with pytest.raises(ValueError):
            AdversaryModel(p_r=-0.1)


class TestDetectionFormulas:
    def test_all_zero_gives_certain_detection(self):
        assert detection_single(AdversaryModel(0, 0, 0)) == 1.0
        assert detection_rate(AdversaryModel(0, 0, 0), 7) == 1.0

    def test_any_certain_replay_gives_zero(self):
        assert detection_single(AdversaryModel(1, 0.3, 0.7)) == 0.0

    def test_half_half_half(self):
        assert detection_single(AdversaryModel(0.5, 0.5, 0.5)) == 0.125

    def test_rate_n1_equals_single(self):
        # up to one rounding step through the 1-(1-P) complement
        adv = AdversaryModel(0.2, 0.4, 0.9)
        assert detection_rate(adv, 1) == pytest.approx(detection_single(adv), rel=1e-12)

    def test_rate_half_half_half_n2(self):
        assert detection_rate(AdversaryModel(0.5, 0.5, 0.5), 2) == 0.234375

    def test_rate_rejects_zero_keys(self):
        with pytest.raises(ValueError):
            detection_rate(AdversaryModel(), 0)

    def test_monotonicity(self):
        grid = [0.0, 0.3, 0.7, 1.0]
        for p in grid:
            for q in grid:
                base = AdversaryModel(p, q, 0.5)
                rates = [detection_rate(base, n) for n in (1, 2, 4, 8)]
                assert rates == sorted(rates)
        for lo, hi in [(0.1, 0.6), (0.0, 1.0)]:
            assert detection_rate(AdversaryModel(hi, 0.2, 0.2), 3) <= detection_rate(
                AdversaryModel(lo, 0.2, 0.2), 3
            )
            assert detection_rate(AdversaryModel(0.2, hi, 0.2), 3) <= detection_rate(
                AdversaryModel(0.2, lo, 0.2), 3
            )
            assert detection_rate(AdversaryModel(0.2, 0.2, hi), 3) <= detection_rate(
                AdversaryModel(0.2, 0.2, lo), 3
            )


class TestMonteCarlo:
    def test_degenerate_exact(self):
        assert monte_carlo_detection(AdversaryModel(0, 0, 0), 1, 100, 5) == 1.0
        assert monte_carlo_detection(AdversaryModel(1, 1, 1), 5, 100, 5) == 0.0

    def test_against_closed_form_midpoint(self):
        adv = AdversaryModel(0.5, 0.5, 0.5)
        est = monte_carlo_detection(adv, 2, 100_000, rng_seed=42)
        assert est == pytest.approx(0.234375, abs=0.01)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            monte_carlo_detection(AdversaryModel(), 0, 100)
        with pytest.raises(ValueError):
            monte_carlo_detection(AdversaryModel(), 1, 0)


def oracle_monte_carlo(adv, n, trials, rng):
    """The sampler as one whole-array draw: the reference for blocked draws."""
    replays = rng.random((trials, n, 3)) < np.array([adv.p_wh, adv.p_i, adv.p_r])
    return float((~replays.any(axis=2)).any(axis=1).mean())


B = MC_BLOCK_TRIALS
CORNERS = [AdversaryModel(a, b, c) for a in (0.0, 1.0) for b in (0.0, 1.0) for c in (0.0, 1.0)]
INTERIOR = [
    AdversaryModel(0.25, 0.5, 0.75),
    AdversaryModel(0.5, 0.5, 0.5),
    AdversaryModel(0.75, 0.0, 0.25),
    AdversaryModel(0.25, 1.0, 0.5),
    AdversaryModel(0.5, 0.0, 0.0),
    AdversaryModel(0.0, 0.0, 0.25),
    AdversaryModel(0.25, -0.0, 0.5),
]


class TestMonteCarloBlocks:
    @pytest.mark.parametrize("trials", [1, B - 1, B, B + 1, 3 * B + 17])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12, 16])
    def test_matches_whole_array_draw(self, n, trials):
        for i, adv in enumerate(CORNERS + INTERIOR):
            seed = 1000 * n + i
            expected = oracle_monte_carlo(adv, n, trials, np.random.default_rng(seed))
            got = monte_carlo_detection(adv, n, trials, seed)
            assert repr(got) == repr(expected), (adv, n, trials)

    def test_draw_equal_to_probability_is_a_failed_replay(self):
        # u < p is False when u == p, so the lone key check detects.
        adv = AdversaryModel(*np.random.default_rng(11).random(3))
        assert oracle_monte_carlo(adv, 1, 1, np.random.default_rng(11)) == 1.0
        assert monte_carlo_detection(adv, 1, 1, 11) == 1.0

    # Seed 11's first double u0 = k * 2**-53 lies in [0.125, 0.25), so both
    # of its float neighbours fall between multiples of 2**-53.
    U0 = float(np.random.default_rng(11).random())
    THRESHOLD_PROBABILITIES = [
        U0,
        float(np.nextafter(U0, 0.0)),
        float(np.nextafter(U0, 1.0)),
        5e-324,
        1.0 - 2.0**-53,
        0.1,
    ]

    @pytest.mark.parametrize("p", THRESHOLD_PROBABILITIES)
    def test_word_threshold_equals_double_compare(self, p):
        words = np.random.PCG64(11).random_raw(20_000)
        doubles = np.random.Generator(np.random.PCG64(11)).random(20_000)
        assert np.array_equal(words >= _replay_fail_threshold(p), doubles >= p)

    def test_word_threshold_at_ties_and_extremes(self):
        # The first draw equals u0, and a draw equal to p is a failed replay,
        # so that word fails at u0 and its lower neighbour, not the upper.
        word = int(np.random.PCG64(11).random_raw())
        u0, below, above = self.THRESHOLD_PROBABILITIES[:3]
        assert 0.125 <= u0 < 0.25 and u0 * 2.0**53 == word >> 11
        assert _replay_fail_threshold(u0) == (word >> 11) << 11 <= word
        assert word >= _replay_fail_threshold(below)
        assert word < _replay_fail_threshold(above)
        assert isinstance(_replay_fail_threshold(0.1), np.uint64)
        assert _replay_fail_threshold(5e-324) == 2**11
        assert _replay_fail_threshold(1.0 - 2.0**-53) == 2**64 - 2**11

    @pytest.mark.parametrize("adv", [CORNERS[0], INTERIOR[0]])
    def test_generator_rejected(self, adv):
        # The sampler owns its stream; Generator(PCG64(5)) is default_rng(5).
        for bits in (np.random.PCG64, np.random.MT19937):
            rng, untouched = np.random.Generator(bits(5)), np.random.Generator(bits(5))
            with pytest.raises(TypeError):
                monte_carlo_detection(adv, 2, 10, rng)
            assert rng.random() == untouched.random()


class TestChallengePayloads:
    @pytest.mark.parametrize("j_max", range(1, 9))
    def test_single_draw_equals_per_packet_draws(self, j_max):
        # Generator.bytes of each packet is the reference.  The protocol
        # stream interleaves payloads with the adversary path's random()
        # draws: none, one or two of them come before and between the
        # payload draws, and more follow.
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                for _ in range(seed % 3):
                    assert rng.random() == ref.random()
                expected = [cipher.pad(ref.bytes(24 + 8 * (j % 3))) for j in range(j_max)]
                assert _challenge_payloads(j_max, rng) == expected
            assert rng.random() == ref.random()
            assert rng.bytes(8) == ref.bytes(8)
            assert rng.random() == ref.random()
