"""Strict friendliness verification: one screening call and detection math.

``complete_verification`` goes in one call from the seed pairs that the
initiator and the candidate derived in the preamble (location and
round-trip time) to a pass or a fail.  Honest candidates run the real
chained cipher with their own seeds; a candidate whose seeds disagree
fails the challenge.  Adversarial candidates are abstracted by three replay
probabilities, and the closed-form detection probability they induce is
cross-checked by a Monte Carlo sampler that simulates the replay draws
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from sectrack import cipher
from sectrack.cipher import EnsemblePacket, SeedPair


@dataclass(frozen=True)
class AdversaryModel:
    """Replay success probabilities available to a suspicious node.

    p_wh: challenge traffic replayed through a wormhole.
    p_i:  another node's key/identity replayed.
    p_r:  the round-trip time locally replayed.
    """

    p_wh: float = 0.0
    p_i: float = 0.0
    p_r: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{f.name} must be in [0, 1], got {v}")


def _challenge_payloads(j_max: int, rng: np.random.Generator) -> list[bytes]:
    # 24, 32 or 40 random bytes per packet, 1..2 blocks after padding.  Each
    # size is a whole number of 64-bit words, read little-endian straight
    # from the bit generator.  That is byte for byte rng.bytes, which splits
    # each PCG64 word into its low then its high 32 bits, as long as no half
    # word is buffered: the protocol stream draws only these words and
    # random(), which never leaves one.
    sizes = [24 + 8 * (j % 3) for j in range(j_max)]
    blob = rng.bit_generator.random_raw(sum(sizes) // 8).astype("<u8", copy=False).tobytes()
    payloads = []
    end = 0
    for size in sizes:
        payloads.append(cipher.pad(blob[end : end + size]))
        end += size
    return payloads


def _run_honest_challenge(
    initiator_seeds: SeedPair,
    candidate_seeds: SeedPair,
    initiator_id: int,
    j_max: int,
    rng: np.random.Generator,
) -> bool:
    """Drive the real cipher on both ends; True iff every packet validates."""
    payloads = _challenge_payloads(j_max, rng)

    tx_key = cipher.derive_initial_key(
        initiator_seeds, initiator_id, cipher.first_plain_segment(payloads[0])
    )
    tx_keys = cipher.key_chain(tx_key, initiator_id, j_max)
    cipher_packets = [
        cipher.encrypt_packet(EnsemblePacket(p, j), key)
        for j, (p, key) in enumerate(zip(payloads, tx_keys), 1)
    ]

    # Receiver side: reconstruct from its own seeds and the initiator's id.
    # The chain is a function of (first key, id, length) alone, so equal
    # first keys give the transmitter's chain.
    rx_key = cipher.reconstruct_initial_key(cipher_packets[0], candidate_seeds, initiator_id)
    rx_keys = tx_keys if rx_key == tx_key else cipher.key_chain(rx_key, initiator_id, j_max)

    for p, cpkt, key in zip(payloads, cipher_packets, rx_keys):
        recovered = cipher.decrypt_packet(cpkt, key)
        if cipher.xor_fold_digest(recovered.payload) != cipher.xor_fold_digest(p):
            return False
    return True


def _sample_evasion(
    adversary: AdversaryModel, n_keys: int, rng: np.random.Generator
) -> bool:
    """True iff the suspicious node slips through every one of n key checks.

    A single key check catches the node only when all three replay
    attempts fail; one successful replay defeats that check.
    """
    for _ in range(n_keys):
        wh = rng.random() < adversary.p_wh
        ki = rng.random() < adversary.p_i
        rt = rng.random() < adversary.p_r
        detected = not (wh or ki or rt)
        if detected:
            return False
    return True


def complete_verification(
    initiator_seeds: SeedPair,
    candidate_seeds: SeedPair,
    initiator_id: int,
    *,
    j_max: int,
    candidate_honest: bool,
    adversary: AdversaryModel,
    n_keys: int,
    rng: np.random.Generator,
) -> bool:
    """Screen one candidate; True exactly when it passes.

    Honest candidates exercise the real cipher chain of ``j_max`` packets
    keyed by ``initiator_id``; they pass exactly when their seeds match
    the initiator's.  Dishonest candidates pass only by slipping through
    ``n_keys`` independent key checks whose detection odds follow the
    replay model.

    The challenge payloads are the next raw 64-bit words of
    ``rng.bit_generator``.  For a ``default_rng`` (PCG64) generator that
    has drawn no odd number of 32-bit values, they equal ``rng.bytes``.
    """
    if candidate_honest:
        return _run_honest_challenge(initiator_seeds, candidate_seeds, initiator_id, j_max, rng)
    if n_keys < 1:
        raise ValueError("n_keys must be at least 1")
    return _sample_evasion(adversary, n_keys, rng)


def detection_single(adv: AdversaryModel) -> float:
    """Probability one friendly node catches a suspicious node on one key."""
    return (1.0 - adv.p_wh) * (1.0 - adv.p_i) * (1.0 - adv.p_r)


def detection_rate(adv: AdversaryModel, n: int) -> float:
    """Detection probability with n independent detection keys."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return 1.0 - (1.0 - detection_single(adv)) ** n


MC_BLOCK_TRIALS = 4096
"""Trials per block of :func:`monte_carlo_detection`; bounds its memory."""


def _replay_fail_threshold(p: float) -> np.uint64:
    """The least PCG64 word x whose ``Generator.random`` double is >= p.

    For p in (0, 1).  The result is a uint64 scalar, so that no numpy
    version promotes the compare with a uint64 array to float.
    """
    return np.uint64(math.ceil(p * 2.0**53) << 11)


def monte_carlo_detection(
    adv: AdversaryModel,
    n: int,
    trials: int,
    rng_seed: int = 0,
) -> float:
    """Empirical detection rate from simulating the replay draws directly.

    Each trial runs n key checks; a check detects when none of the three
    replays succeeds, and the trial detects when at least one check does.

    The draws are raw PCG64 output words, ``MC_BLOCK_TRIALS`` trials at a
    time, so memory does not grow with ``trials``.  ``Generator.random``
    turns the word x into the double ``u = (x >> 11) * 2**-53``, so a
    replay fails (``u >= p``) exactly when ``x >= ceil(p * 2**53) << 11``;
    ``p * 2**53`` is exact for every double p in (0, 1).  Each word is
    compared with that integer threshold, and the result equals that of
    one ``rng.random((trials, n, 3)) < [p_wh, p_i, p_r]`` draw with
    ``rng = default_rng(rng_seed)``.

    Some outcomes are certain and return without drawing.  The uniforms
    lie in [0, 1): with any probability at 1.0 that replay always
    succeeds, no check ever detects, and the rate is 0.0; with all three
    at 0.0 every replay fails, every trial detects, and the rate is 1.0.

    Only the replays with a nonzero probability are compared: ``u >= 0``
    always holds, so a zero column can never clear a catch.  A trial's n
    key flags are counted as words: their bytes are read as n // w unsigned
    words of the largest w in 8, 4, 2 and 1 that divides n, OR-ed
    together and counted when nonzero.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    # The bit generator of default_rng(rng_seed); its SeedSequence refuses
    # a Generator with TypeError instead of passing it through.
    bits = np.random.PCG64(rng_seed)
    probabilities = (adv.p_wh, adv.p_i, adv.p_r)
    if 1.0 in probabilities:
        return 0.0
    if not any(probabilities):
        return 1.0
    # The all-zero case has returned, so at least one live column is left.
    (first, t_first), *rest = [
        (col, _replay_fail_threshold(p)) for col, p in enumerate(probabilities) if p
    ]
    w = next(w for w in (8, 4, 2, 1) if n % w == 0)
    block = min(trials, MC_BLOCK_TRIALS)
    caught = np.empty(block * n, dtype=bool)
    failed = np.empty(block * n, dtype=bool)
    detected = 0
    for start in range(0, trials, block):
        rows = min(block, trials - start) * n
        key_caught, replay_failed = caught[:rows], failed[:rows]
        x = bits.random_raw(rows * 3).reshape(rows, 3)
        np.greater_equal(x[:, first], t_first, out=key_caught)
        for col, t in rest:
            np.greater_equal(x[:, col], t, out=replay_failed)
            key_caught &= replay_failed
        del x  # random_raw has no out=; free this block before the next draw
        words = key_caught.view(f"u{w}").reshape(-1, n // w)
        hit = words[:, 0].copy()
        for k in range(1, n // w):
            hit |= words[:, k]
        detected += int(np.count_nonzero(hit))
    return detected / trials
