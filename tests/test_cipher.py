"""Integrated-key cipher: reference RNGs, key chains, packet roundtrips.

The RNG asserts run against an independent re-implementation of the
SplitMix64 expansion (written here from the published constants, not
imported from the package) plus frozen values computed from it.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

import pytest

from sectrack import cipher
from sectrack.cipher import (
    CipherPacket,
    EnsemblePacket,
    IntegratedKey,
    MalformedPacketError,
    SeedPair,
    decrypt_packet,
    derive_initial_key,
    encrypt_packet,
    evolve_key,
    key_chain,
    pad,
    reconstruct_initial_key,
    rng1,
    rng2,
    unpad,
)

VECTOR_FILE = Path(__file__).parent / "vectors" / "cipher_vectors.txt"

_M64 = (1 << 64) - 1


def _layout_block(key: IntegratedKey) -> bytes:
    """The module docstring's keystream layout, spelled out segment by segment:
    bytes [0,12) carry k1, [12,20) k2 and [20,32) k3, each big-endian."""
    return key.k1.to_bytes(12, "big") + key.k2.to_bytes(8, "big") + key.k3.to_bytes(12, "big")


def _oracle_splitmix_next(state: int) -> tuple[int, int]:
    # Independent re-implementation from the published SplitMix64 constants.
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def _oracle_rng(seed: int, domain: int) -> int:
    if seed >> 64:
        seed = (seed >> 64) ^ (seed & _M64)
    state = seed ^ domain
    state, z1 = _oracle_splitmix_next(state)
    state, z2 = _oracle_splitmix_next(state)
    return (z1 << 32) | (z2 >> 32)


class TestReferenceRngs:
    def test_deterministic(self):
        assert rng1(12345) == rng1(12345)
        assert rng2(12345) == rng2(12345)

    def test_frozen_reference_values(self):
        # Computed once from the oracle above and frozen.
        assert rng1(0) == 0x910A2DEC89025CC1BEEB8DA1
        assert rng2(0) == 0x975835DE1C9756CEBFC84610
        assert rng1(1) == 0xE220A8397B1DCDAF6E789E6A
        assert rng2(1) == 0x1D0B14E4DB018FEDB3466F8A
        assert rng1(0xDEADBEEF) == 0xD8610A3085A6F28EA8A7F56F

    def test_matches_independent_oracle(self):
        rnd = random.Random(7)
        seeds = [rnd.getrandbits(rnd.choice([16, 64, 128])) for _ in range(500)]
        seeds += [rnd.getrandbits(127) | 1 << 127 for _ in range(50)]  # top bit set
        seeds += [0, _M64, 1 << 64, 1 << 127, (1 << 128) - 1]
        for seed in seeds:
            assert rng1(seed) == _oracle_rng(seed, 0x01)
            assert rng2(seed) == _oracle_rng(seed, 0x02)

    @pytest.mark.parametrize(
        "seed, message",
        [
            (-1, "nonnegative"),
            (-(1 << 64), "nonnegative"),
            (1 << 128, "wider than 128 bits"),
            ((1 << 128) + 5, "wider than 128 bits"),
            (1 << 200, "wider than 128 bits"),
        ],
    )
    def test_seed_outside_128_bits_refused(self, seed, message):
        for rng in (rng1, rng2):
            with pytest.raises(ValueError, match=message):
                rng(seed)

    def test_output_width(self):
        rnd = random.Random(8)
        for _ in range(200):
            s = rnd.getrandbits(64)
            assert 0 <= rng1(s) < (1 << 96)
            assert 0 <= rng2(s) < (1 << 96)

    def test_no_collisions_in_sample(self):
        rnd = random.Random(9)
        for _ in range(10_000):
            a, b = rnd.getrandbits(64), rnd.getrandbits(64)
            if a != b:
                assert rng1(a) != rng1(b)
                assert rng2(a) != rng2(b)

    def test_domain_separation(self):
        rnd = random.Random(10)
        for _ in range(10_000):
            s = rnd.getrandbits(64)
            assert rng1(s) != rng2(s)

    def test_128bit_seed_folds(self):
        s = 0xAAAA0000BBBB1111_CCCC2222DDDD3333
        folded = (s >> 64) ^ (s & _M64)
        assert rng1(s) == rng1(folded)


class TestKeyExpansionMemo:
    """``_rng96`` is memoised; the memo must not change any answer."""

    @pytest.mark.parametrize("seed", [-1, 1 << 128])
    def test_refused_on_every_call(self, seed):
        for rng in (rng1, rng2):
            rng(5)  # a valid call just before
            for _ in range(3):
                with pytest.raises(ValueError):
                    rng(seed)

    def test_float_seed_equal_to_a_cached_int_is_still_refused(self):
        rng1(1)
        with pytest.raises(TypeError):
            rng1(1.0)

    def test_repeated_calls_match_the_oracle(self):
        # More seeds than the memo holds, revisited in both orders, so
        # answers come from hits, misses and evicted entries alike.
        rnd = random.Random(11)
        n = 3 * cipher.RNG96_CACHE_SIZE
        seeds = [rnd.getrandbits(rnd.choice([16, 64, 128])) for _ in range(n)]
        seeds += [0, 1, _M64, (1 << 128) - 1]
        for order in (seeds, seeds[::-1], seeds):
            for seed in order:
                assert rng1(seed) == _oracle_rng(seed, 0x01)
                assert rng2(seed) == _oracle_rng(seed, 0x02)

    def test_memo_stays_within_its_bound_over_a_run(self):
        from sectrack.config import ScenarioConfig
        from sectrack.engine import run_scenario
        from sectrack.scenarios import switching_config

        cipher._rng96.cache_clear()
        run_scenario(switching_config(ScenarioConfig(duration=60.0), 20.0, master_seed=1))
        info = cipher._rng96.cache_info()
        assert info.maxsize == cipher.RNG96_CACHE_SIZE
        assert info.misses > info.maxsize  # the run expanded more keys than fit
        assert 0 < info.currsize <= info.maxsize


class TestSeedPair:
    def test_quantization(self):
        sp = SeedPair.from_measurements(100.7, 135.9, 42.3e-5, rtt_bucket=1e-5)
        assert sp.distance_m == 100
        assert sp.bearing_deg == 135
        assert sp.rtt_seed == 42

    def test_bearing_normalized(self):
        sp = SeedPair.from_measurements(10, 725.0, 0.0)
        assert sp.bearing_deg == 5

    def test_bearing_range_enforced(self):
        with pytest.raises(ValueError):
            SeedPair(loc_seed=400, rtt_seed=0)

    def test_same_measurements_same_seeds(self):
        a = SeedPair.from_measurements(57.3, 12.0, 8.4e-6)
        b = SeedPair.from_measurements(57.9, 12.9, 9.9e-6)
        assert a == b  # inside the same quantization buckets


class TestKeyDerivation:
    def test_key_width_is_256(self):
        key = derive_initial_key(SeedPair(1 << 32, 5), 0xABCD, 0)
        assert key.total_bits == 256
        assert key.as_int() < (1 << 256)

    def test_zero_first_segment_gives_raw_rng2(self):
        seeds = SeedPair((77 << 32) | 10, 3)
        key = derive_initial_key(seeds, 42, 0)
        assert key.k3 == rng2(3)
        assert key.k1 == rng1(seeds.loc_seed)
        assert key.k2 == 42

    def test_frozen_full_key_vector(self):
        # 100 m at 135 degrees, RTT bucket 42; hand-composed from the
        # oracle rng values and a counting plaintext block.
        seeds = SeedPair(loc_seed=0x0000006400000087, rtt_seed=0x2A)
        plain = bytes(range(32))
        key = derive_initial_key(seeds, 0x1122334455667788, cipher.first_plain_segment(plain))
        assert key.k1 == 0x7A491C9B05E0D9B5074FC654
        assert key.k3 == 0x369FAC0808A49715F0E680E1
        ct = encrypt_packet(EnsemblePacket(plain), key)
        assert ct.payload.hex() == (
            "7a481e9801e5dfb20f46cc5f1d2f3d4b4577659b228aba1f10bd8d0eecfb9efe"
        )

    def test_evolution_deterministic_and_keeps_identity(self):
        key = derive_initial_key(SeedPair(9 << 32, 7), 0xBEEF, 123)
        nxt1 = evolve_key(key, 0xBEEF)
        nxt2 = evolve_key(key, 0xBEEF)
        assert nxt1 == nxt2
        assert nxt1.k2 == key.k2

    def test_evolution_uses_key_halves(self):
        key = IntegratedKey(k1=(1 << 96) - 1, k2=0, k3=5)
        nxt = evolve_key(key, 0)
        assert nxt.k1 == rng1(key.first_half())
        assert nxt.k3 == rng2(key.second_half())

    def test_half_extraction(self):
        key = IntegratedKey(k1=0xAAAAAAAAAAAAAAAAAAAAAAAA, k2=0xBBBBBBBBBBBBBBBB, k3=0xCC)
        assert key.first_half() == (key.k1 << 32) | (key.k2 >> 32)
        assert key.second_half() == ((key.k2 & 0xFFFFFFFF) << 96) | key.k3


class TestPacketCipher:
    def test_zero_plaintext_exposes_keystream(self):
        key = IntegratedKey(k1=0xA1, k2=0xB2, k3=0xC3)
        ct = encrypt_packet(EnsemblePacket(bytes(32)), key)
        assert ct.payload == key.keystream_block()

    @pytest.mark.parametrize(
        "k1, k2, k3",
        [
            (1, 1, 1),  # leading zero bytes in every segment
            (0x00FF << 80, 0x00AB << 48, 0x0001 << 80),
            ((1 << 96) - 1, _M64, (1 << 96) - 1),  # all-ones segments
            ((1 << 96) - 1, 0, (1 << 96) - 1),
            (0, _M64, 0),
        ],
    )
    def test_keystream_block_follows_the_documented_byte_layout(self, k1, k2, k3):
        key = IntegratedKey(k1=k1, k2=k2, k3=k3)
        assert key.keystream_block() == _layout_block(key)

    def test_involution(self):
        key = derive_initial_key(SeedPair(0, 0), 1, 0)
        pkt = EnsemblePacket(bytes(range(64)))
        assert encrypt_packet(EnsemblePacket(encrypt_packet(pkt, key).payload), key).payload == pkt.payload

    def test_multiblock_matches_manual_xor(self):
        rnd = random.Random(11)
        plain = bytes(rnd.getrandbits(8) for _ in range(64))
        key = IntegratedKey(
            k1=rnd.getrandbits(96), k2=rnd.getrandbits(64), k3=rnd.getrandbits(96)
        )
        expected = bytes(a ^ b for a, b in zip(plain, _layout_block(key) * 2))
        assert encrypt_packet(EnsemblePacket(plain), key).payload == expected

    def test_bad_length_rejected(self):
        key = IntegratedKey(0, 0, 0)
        with pytest.raises(MalformedPacketError):
            encrypt_packet(EnsemblePacket(bytes(31)), key)
        with pytest.raises(MalformedPacketError):
            EnsemblePacket(b"")

    def test_roundtrip_random(self):
        rnd = random.Random(12)
        for _ in range(200):
            key = IntegratedKey(
                k1=rnd.getrandbits(96), k2=rnd.getrandbits(64), k3=rnd.getrandbits(96)
            )
            plain = bytes(rnd.getrandbits(8) for _ in range(32 * rnd.randint(1, 4)))
            pkt = EnsemblePacket(plain, index=3)
            back = decrypt_packet(encrypt_packet(pkt, key), key)
            assert back.payload == plain
            assert back.index == 3


class TestWholeIntegerHotPaths:
    """The integer XOR and fold against byte-wise and word-wise references."""

    @staticmethod
    def _random_key(rnd):
        return IntegratedKey(k1=rnd.getrandbits(96), k2=rnd.getrandbits(64), k3=rnd.getrandbits(96))

    def test_xor_matches_bytewise_reference(self):
        rnd = random.Random(21)
        for blocks in (1, 2, 3, 4):
            for _ in range(100):
                key = self._random_key(rnd)
                plain = rnd.randbytes(32 * blocks)
                expected = bytes(a ^ b for a, b in zip(plain, _layout_block(key) * blocks))
                assert cipher._xor_with_keystream(plain, key) == expected
                assert encrypt_packet(EnsemblePacket(plain), key).payload == expected

    def test_xor_keeps_leading_zero_bytes(self):
        key = IntegratedKey(k1=0, k2=0, k3=1)
        out = cipher._xor_with_keystream(bytes(64), key)
        assert out == _layout_block(key) * 2
        assert len(out) == 64 and out[0] == 0

    def test_fold_matches_wordwise_reference(self):
        rnd = random.Random(22)
        for blocks in range(1, 9):
            n = 32 * blocks
            payloads = [rnd.randbytes(n) for _ in range(50)]
            payloads += [bytes(n), b"\xff" * n]
            # One set bit in each word: the top, the bottom and a random one.
            for word in range(n // 8):
                for bit in (0, 63, rnd.randrange(64)):
                    one = bytearray(n)
                    one[8 * word + bit // 8] = 0x80 >> (bit % 8)
                    payloads.append(bytes(one))
            for payload in payloads:
                expected = 0
                for i in range(0, n, 8):
                    expected ^= int.from_bytes(payload[i : i + 8], "big")
                assert cipher.xor_fold_digest(payload) == expected

    def test_fold_edge_payloads(self):
        assert cipher.xor_fold_digest(bytes(32)) == 0
        assert cipher.xor_fold_digest(b"\xff" * 32) == 0  # four equal words cancel
        assert cipher.xor_fold_digest(bytes(31) + b"\x01") == 1
        assert cipher.xor_fold_digest(b"\x80" + bytes(31)) == 1 << 63
        for n in (0, 31, 33, 40, 65):
            with pytest.raises(MalformedPacketError):
                cipher.xor_fold_digest(bytes(n))

    def test_evolve_matches_half_accessors(self):
        rnd = random.Random(23)
        keys = [self._random_key(rnd) for _ in range(200)]
        ones96, ones64 = (1 << 96) - 1, _M64
        keys += [
            IntegratedKey(k1=ones96, k2=ones64, k3=ones96),
            IntegratedKey(k1=0, k2=0, k3=0),
            IntegratedKey(k1=1 << 95, k2=0, k3=0),  # first half's top bit only
            IntegratedKey(k1=0, k2=0xFFFFFFFF, k3=1 << 95),  # second half's top bit set
            IntegratedKey(k1=0, k2=0xFFFFFFFF00000000, k3=0),  # k2 split across the halves
        ]
        for key in keys:
            node_id = rnd.getrandbits(64)
            nxt = evolve_key(key, node_id)
            assert nxt == IntegratedKey(
                k1=rng1(key.first_half()), k2=node_id, k3=rng2(key.second_half())
            )
            assert nxt.k1 == _oracle_rng(key.as_int() >> 128, 0x01)
            assert nxt.k3 == _oracle_rng(key.as_int() & ((1 << 128) - 1), 0x02)


class TestRecords:
    """The slotted, frozen records keep value semantics and their checks."""

    KEY = IntegratedKey(k1=0xABC, k2=0xDEF, k3=0x123)
    SEEDS = SeedPair(loc_seed=(80 << 32) | 45, rtt_seed=7)

    @pytest.mark.parametrize(
        "record, field",
        [
            (KEY, "k1"),
            (SEEDS, "rtt_seed"),
            (EnsemblePacket(bytes(32), index=2), "payload"),
            (CipherPacket(bytes(32)), "index"),
        ],
    )
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, 1)
        assert not hasattr(record, "__dict__")  # slotted

    def test_replace_equality_and_hash(self):
        for record, field, value in ((self.KEY, "k3", 0x124), (self.SEEDS, "rtt_seed", 8)):
            twin = dataclasses.replace(record)
            assert twin == record and twin is not record
            assert hash(twin) == hash(record)
            changed = dataclasses.replace(record, **{field: value})
            assert changed != record and getattr(changed, field) == value
            assert len({record, twin, changed}) == 2
        assert self.KEY != self.SEEDS

    def test_plaintext_and_cipher_packets_are_distinct_types(self):
        plain, sealed = EnsemblePacket(bytes(32)), CipherPacket(bytes(32))
        assert plain != sealed
        assert not isinstance(plain, CipherPacket)
        assert not isinstance(sealed, EnsemblePacket)

    @pytest.mark.parametrize(
        "record, fields, message",
        [
            (SeedPair, {"loc_seed": -1, "rtt_seed": 0}, "loc_seed must fit in 64 bits"),
            (SeedPair, {"loc_seed": 1 << 64, "rtt_seed": 0}, "loc_seed must fit in 64 bits"),
            (SeedPair, {"loc_seed": 0, "rtt_seed": -1}, "rtt_seed must fit in 64 bits"),
            (SeedPair, {"loc_seed": 0, "rtt_seed": 1 << 64}, "rtt_seed must fit in 64 bits"),
            (SeedPair, {"loc_seed": 360, "rtt_seed": 0}, r"bearing field must be in \[0, 360\)"),
            (IntegratedKey, {"k1": 1 << 96, "k2": 0, "k3": 0}, "k1 must fit in 96 bits"),
            (IntegratedKey, {"k1": -1, "k2": 0, "k3": 0}, "k1 must fit in 96 bits"),
            (IntegratedKey, {"k1": 0, "k2": 1 << 64, "k3": 0}, "k2 must fit in 64 bits"),
            (IntegratedKey, {"k1": 0, "k2": -1, "k3": 0}, "k2 must fit in 64 bits"),
            (IntegratedKey, {"k1": 0, "k2": 0, "k3": 1 << 96}, "k3 must fit in 96 bits"),
            (IntegratedKey, {"k1": 0, "k2": 0, "k3": -1}, "k3 must fit in 96 bits"),
            (EnsemblePacket, {"payload": bytes(32), "index": 0}, "packet index starts at 1"),
            (CipherPacket, {"payload": bytes(32), "index": 0}, "packet index starts at 1"),
        ],
    )
    def test_constructor_refusals(self, record, fields, message):
        with pytest.raises(ValueError, match=message):
            record(**fields)

    @pytest.mark.parametrize("record", [EnsemblePacket, CipherPacket])
    @pytest.mark.parametrize("payload", [b"", bytes(31), bytes(40)])
    def test_packet_refuses_malformed_payload(self, record, payload):
        with pytest.raises(MalformedPacketError):
            record(payload)


class TestPadding:
    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 63, 64, 100])
    def test_pad_unpad_roundtrip(self, n):
        data = bytes(range(256))[:n]
        padded = pad(data)
        assert len(padded) % 32 == 0 and len(padded) > 0
        assert unpad(padded) == data

    def test_unpad_rejects_unmarked(self):
        with pytest.raises(MalformedPacketError):
            unpad(bytes(32))


class TestReceiverReconstruction:
    def test_roundtrip_reconstruction(self):
        seeds = SeedPair.from_measurements(88.0, 271.0, 13e-5)
        plain = pad(b"challenge packet one payload")
        key = derive_initial_key(seeds, 0xF00D, cipher.first_plain_segment(plain))
        ct = encrypt_packet(EnsemblePacket(plain), key)
        rebuilt = reconstruct_initial_key(ct, seeds, 0xF00D)
        # The honest challenge reuses the transmitter's chain on this equality.
        assert rebuilt == key and hash(rebuilt) == hash(key) and rebuilt is not key
        assert decrypt_packet(ct, rebuilt).payload == plain

    def test_rtt_off_by_one_bucket_breaks_k3(self):
        seeds = SeedPair(5 << 32, 100)
        off = SeedPair(5 << 32, 101)
        plain = pad(b"x" * 20)
        key = derive_initial_key(seeds, 7, cipher.first_plain_segment(plain))
        ct = encrypt_packet(EnsemblePacket(plain), key)
        rebuilt = reconstruct_initial_key(ct, off, 7)
        assert rebuilt.k1 == key.k1 and rebuilt.k2 == key.k2
        assert rebuilt.k3 != key.k3

    def test_wrong_id_breaks_identity_segment(self):
        seeds = SeedPair(5 << 32, 100)
        plain = pad(bytes(range(40)))
        key = derive_initial_key(seeds, 7, cipher.first_plain_segment(plain))
        ct = encrypt_packet(EnsemblePacket(plain), key)
        rebuilt = reconstruct_initial_key(ct, seeds, 8)
        recovered = decrypt_packet(ct, rebuilt).payload
        assert recovered[:12] == plain[:12]  # k1 segment still right
        assert recovered[12:20] != plain[12:20]  # identity segment corrupted
        assert recovered[20:32] == plain[20:32]


class TestChains:
    def test_sender_receiver_chains_interoperate(self):
        rnd = random.Random(13)
        for _ in range(50):
            seeds = SeedPair.from_measurements(
                rnd.uniform(0, 400), rnd.uniform(0, 360), rnd.uniform(0, 1e-3)
            )
            node_id = rnd.getrandbits(64)
            plain = bytes(rnd.getrandbits(8) for _ in range(32))
            first = derive_initial_key(seeds, node_id, cipher.first_plain_segment(plain))
            sender = key_chain(first, node_id, 8)
            ct = encrypt_packet(EnsemblePacket(plain), first)
            receiver = key_chain(reconstruct_initial_key(ct, seeds, node_id), node_id, 8)
            assert sender == receiver
            assert all(k.k2 == node_id for k in sender)

    def test_keyspace_arithmetic(self):
        key = IntegratedKey(0, 0, 0)
        assert key.total_bits == 256
        assert 2**key.total_bits == 2**256
        assert 2**256 // 2 == 2**255  # average brute-force trials


class TestFixtureVectors:
    def test_all_fixture_lines(self):
        lines = [
            ln
            for ln in VECTOR_FILE.read_text().splitlines()
            if ln.strip() and not ln.startswith("#")
        ]
        assert len(lines) >= 10
        for ln in lines:
            loc_s, rtt_s, id_s, plain_s, ct_s = ln.split()
            seeds = SeedPair(loc_seed=int(loc_s, 16), rtt_seed=int(rtt_s, 16))
            node_id = int(id_s, 16)
            plain = bytes.fromhex(plain_s)
            key = derive_initial_key(seeds, node_id, cipher.first_plain_segment(plain))
            assert encrypt_packet(EnsemblePacket(plain), key).payload.hex() == ct_s
            rebuilt = reconstruct_initial_key(
                CipherPacket(bytes.fromhex(ct_s)), seeds, node_id
            )
            assert decrypt_packet(CipherPacket(bytes.fromhex(ct_s)), rebuilt).payload == plain
