"""Integrated-key generation, key evolution, and the chained XOR packet cipher.

A key is 256 bits laid out as three segments k1 (96 bits), k2 (64 bits,
the transmitting node's identity) and k3 (96 bits).  k1 is expanded from
a location seed, k3 from a round-trip-time seed mixed with the leading 96
bits of the first plaintext block, and later keys in a chain are expanded
from the two halves of the previous key.  Both ends of a handshake can
therefore rebuild the identical key sequence from shared measurements
without the keys ever crossing the air.

Bit conventions used throughout (fixed so independent implementations
interoperate):

* bit 0 of a word is its most significant bit;
* a 256-bit key as an integer is k1 || k2 || k3, big-endian;
* byte layout of one 256-bit block: bytes [0,12) carry k1's segment,
  [12,20) k2's, [20,32) k3's.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1
_MASK96 = (1 << 96) - 1
_MASK128 = (1 << 128) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

DOMAIN_RNG1 = 0x01
DOMAIN_RNG2 = 0x02

BLOCK_BYTES = 32
K1_BYTES = 12

DEFAULT_RTT_BUCKET = 10e-6

# Entries of the _rng96 memo.  A screen asks for rng1(loc_seed) once at the
# transmitter and twice at the receiver, and rng2(rtt_seed) on both sides;
# the k1 chain depends only on loc_seed and the node id.  In one switching
# call at master seed 1000, 12,337 of 22,770 requests repeat an earlier
# (seed, domain), and 64 entries catch 8,279 of them.
RNG96_CACHE_SIZE = 64


class MalformedPacketError(ValueError):
    """Packet payload violates the 256-bit block structure."""


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX_A & _MASK64
    z = (z ^ (z >> 27)) * _MIX_B & _MASK64
    return z ^ (z >> 31)


@functools.lru_cache(maxsize=RNG96_CACHE_SIZE, typed=True)
def _rng96(seed: int, domain: int) -> int:
    # First 96 bits of two successive SplitMix64 draws.  A 128-bit seed
    # folds to 64 bits by XOR of its halves, and the domain constant is
    # mixed into the initial state.  Both rounds are _mix64, inlined.
    # Memoised: the result is an int that depends on (seed, domain) alone.
    # A refused seed raises on every call, since lru_cache stores only
    # returned values; typed=True keeps a float seed that equals a cached
    # int from skipping the TypeError it raises.
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if seed >> 128:
        raise ValueError("seed wider than 128 bits")
    state = (((seed >> 64) ^ (seed & _MASK64) ^ domain) + _GAMMA) & _MASK64
    z = (state ^ (state >> 30)) * _MIX_A & _MASK64
    z = (z ^ (z >> 27)) * _MIX_B & _MASK64
    z1 = z ^ (z >> 31)
    z = (state + _GAMMA) & _MASK64
    z = (z ^ (z >> 30)) * _MIX_A & _MASK64
    z = (z ^ (z >> 27)) * _MIX_B & _MASK64
    return (z1 << 32) | ((z ^ (z >> 31)) >> 32)


def rng1(seed: int) -> int:
    """Expand a 64- or 128-bit seed into the 96-bit k1 material."""
    return _rng96(seed, DOMAIN_RNG1)


def rng2(seed: int) -> int:
    """Expand a 64- or 128-bit seed into the 96-bit k3 material.

    Same construction as :func:`rng1` under a different domain constant,
    so rng2(s) != rng1(s) in general.
    """
    return _rng96(seed, DOMAIN_RNG2)


def derive_stream_seed(master: int, label: str, index: int = 0) -> int:
    """Derive a 64-bit child seed from a master seed and a stream label.

    One master seed reproducibly fans out into every per-node and
    per-purpose random stream of a run.  Uses the same SplitMix64 mixer
    as the key RNGs; labels absorb byte by byte so distinct labels give
    unrelated streams.
    """
    state = master & _MASK64
    for b in label.encode("utf-8"):
        state = _mix64((state + _GAMMA + b) & _MASK64)
    state = _mix64((state + _GAMMA + (index & _MASK64)) & _MASK64)
    return state


@dataclass(frozen=True, slots=True)
class SeedPair:
    """Shared key seeds both handshake parties derive independently.

    loc_seed packs the quantized distance (whole meters, bits [32,64)) and
    bearing (whole degrees, bits [0,32)); rtt_seed is the round-trip time
    in whole buckets (default 10 microseconds per bucket).
    """

    loc_seed: int
    rtt_seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.loc_seed <= _MASK64:
            raise ValueError("loc_seed must fit in 64 bits")
        if not 0 <= self.rtt_seed <= _MASK64:
            raise ValueError("rtt_seed must fit in 64 bits")
        if self.bearing_deg >= 360:
            raise ValueError("bearing field must be in [0, 360)")

    @classmethod
    def from_measurements(
        cls,
        distance_m: float,
        bearing_deg: float,
        rtt_s: float,
        rtt_bucket: float = DEFAULT_RTT_BUCKET,
    ) -> "SeedPair":
        if distance_m < 0:
            raise ValueError("distance must be nonnegative")
        if rtt_s < 0:
            raise ValueError("rtt must be nonnegative")
        if rtt_bucket <= 0:
            raise ValueError("rtt_bucket must be positive")
        dist_q = min(int(distance_m), 0xFFFFFFFF)
        bearing_q = int(bearing_deg % 360.0)
        if bearing_q >= 360:  # float wrap guard at the 360.0 boundary
            bearing_q = 0
        rtt_q = int(rtt_s / rtt_bucket) & _MASK64
        return cls(loc_seed=(dist_q << 32) | bearing_q, rtt_seed=rtt_q)

    @property
    def distance_m(self) -> int:
        return self.loc_seed >> 32

    @property
    def bearing_deg(self) -> int:
        return self.loc_seed & 0xFFFFFFFF


@dataclass(frozen=True, slots=True)
class IntegratedKey:
    """One 256-bit key: 96-bit k1, 64-bit node identity k2, 96-bit k3."""

    k1: int
    k2: int
    k3: int

    def __post_init__(self) -> None:
        if not 0 <= self.k1 <= _MASK96:
            raise ValueError("k1 must fit in 96 bits")
        if not 0 <= self.k2 <= _MASK64:
            raise ValueError("k2 must fit in 64 bits")
        if not 0 <= self.k3 <= _MASK96:
            raise ValueError("k3 must fit in 96 bits")

    @property
    def total_bits(self) -> int:
        return 96 + 64 + 96

    def as_int(self) -> int:
        return (self.k1 << 160) | (self.k2 << 96) | self.k3

    def first_half(self) -> int:
        """Bits [0,128) of the key, the seed for the next k1."""
        return self.as_int() >> 128

    def second_half(self) -> int:
        """Bits [128,256) of the key, the seed for the next k3."""
        return self.as_int() & _MASK128

    def keystream_block(self) -> bytes:
        return self.as_int().to_bytes(BLOCK_BYTES, "big")


@dataclass(frozen=True, slots=True)
class _Packet:
    """Whole 256-bit blocks plus the 1-based chain ordinal, checked once for both packets."""

    payload: bytes
    index: int = 1

    def __post_init__(self) -> None:
        _check_block_structure(self.payload)
        if self.index < 1:
            raise ValueError("packet index starts at 1")


# Distinct types: a dataclass compares equal only to its own class, so a
# plaintext packet never equals the cipher packet with the same bytes.
@dataclass(frozen=True, slots=True)
class EnsemblePacket(_Packet):
    """Plaintext packet: padded payload plus its 1-based chain ordinal."""


@dataclass(frozen=True, slots=True)
class CipherPacket(_Packet):
    """Encrypted packet; same length and ordinal as its plaintext."""


def _check_block_structure(payload: bytes) -> None:
    if len(payload) == 0:
        raise MalformedPacketError("payload must be at least one 256-bit block")
    if len(payload) % BLOCK_BYTES != 0:
        raise MalformedPacketError(
            f"payload length {len(payload)} bytes is not a multiple of 32"
        )


def pad(data: bytes) -> bytes:
    """Pad to a 256-bit multiple: a single 1 bit (0x80) then zeros.

    Always appends at least one byte, so padding is unambiguous even when
    the input is already block aligned.
    """
    padded = data + b"\x80"
    rem = len(padded) % BLOCK_BYTES
    if rem:
        padded += b"\x00" * (BLOCK_BYTES - rem)
    return padded


def unpad(data: bytes) -> bytes:
    stripped = data.rstrip(b"\x00")
    if not stripped or stripped[-1] != 0x80:
        raise MalformedPacketError("missing padding marker")
    return stripped[:-1]


def first_plain_segment(padded_payload: bytes) -> int:
    """Bits [0,96) of any packet's first block, plaintext or cipher, as an integer."""
    if len(padded_payload) < K1_BYTES:
        raise MalformedPacketError("payload shorter than one key segment")
    return int.from_bytes(padded_payload[:K1_BYTES], "big")


def derive_initial_key(seeds: SeedPair, node_id: int, first_plain_seg: int) -> IntegratedKey:
    """Build the first key of a chain at the transmitter."""
    if not 0 <= first_plain_seg <= _MASK96:
        raise ValueError("first_plain_seg must fit in 96 bits")
    return IntegratedKey(
        _rng96(seeds.loc_seed, DOMAIN_RNG1),
        node_id & _MASK64,
        _rng96(seeds.rtt_seed, DOMAIN_RNG2) ^ first_plain_seg,
    )


def evolve_key(prev: IntegratedKey, node_id: int) -> IntegratedKey:
    """Next key in the chain, expanded from the halves of the previous one."""
    # The halves of k1 || k2 || k3 split k2 in two: bits [0,128) are k1 and
    # k2's high 32 bits, bits [128,256) are k2's low 32 bits and k3.
    return IntegratedKey(
        _rng96((prev.k1 << 32) | (prev.k2 >> 32), DOMAIN_RNG1),
        node_id & _MASK64,
        _rng96(((prev.k2 & 0xFFFFFFFF) << 96) | prev.k3, DOMAIN_RNG2),
    )


def reconstruct_initial_key(
    cipher_first: CipherPacket, seeds: SeedPair, node_id: int
) -> IntegratedKey:
    """Rebuild the first chain key at the receiver from the first cipher packet.

    :func:`first_plain_segment` reads any packet's leading segment; the
    receiver uncovers the plaintext one from it with its own k1, then
    applies the transmitter's rule, :func:`derive_initial_key`.
    """
    plain_seg = first_plain_segment(cipher_first.payload) ^ rng1(seeds.loc_seed)
    return derive_initial_key(seeds, node_id, plain_seg)


def _xor_with_keystream(payload: bytes, key: IntegratedKey) -> bytes:
    # The whole payload XORed as one big-endian integer, byte for byte the
    # same as XORing each byte with the repeated keystream block: k1, k2
    # and k3 fill 96, 64 and 96 bits, so k1 || k2 || k3 is that block read
    # big-endian.  Packets hold at least one whole block.
    n = len(payload)
    block = (key.k1 << 160) | (key.k2 << 96) | key.k3
    stream = block
    for _ in range(1, n // BLOCK_BYTES):
        stream = (stream << (8 * BLOCK_BYTES)) | block
    return (int.from_bytes(payload, "big") ^ stream).to_bytes(n, "big")


def encrypt_packet(plain: EnsemblePacket, key: IntegratedKey) -> CipherPacket:
    """XOR each 256-bit block segment-wise with (k1, k2, k3).

    The key repeats across blocks of the same packet; chains change keys
    per packet via :func:`evolve_key`.
    """
    return CipherPacket(_xor_with_keystream(plain.payload, key), plain.index)


def decrypt_packet(cipher: CipherPacket, key: IntegratedKey) -> EnsemblePacket:
    """Exact inverse of :func:`encrypt_packet` (XOR is an involution)."""
    return EnsemblePacket(_xor_with_keystream(cipher.payload, key), cipher.index)


def key_chain(first: IntegratedKey, node_id: int, length: int) -> list[IntegratedKey]:
    """The first `length` keys of a chain starting from `first`."""
    if length < 1:
        raise ValueError("chain length must be at least 1")
    keys = [first]
    while len(keys) < length:
        keys.append(evolve_key(keys[-1], node_id))
    return keys


def xor_fold_digest(payload: bytes) -> int:
    """64-bit XOR fold of a block-aligned payload, the challenge receipt."""
    _check_block_structure(payload)
    # XOR of the big-endian 64-bit words, unpacked in one struct call.
    digest = 0
    for word in _word_struct(len(payload)).unpack(payload):
        digest ^= word
    return digest


@functools.lru_cache
def _word_struct(n: int) -> struct.Struct:
    # Cached per payload length: formatting the layout on every call
    # costs about as much as unpacking the words saves.
    return struct.Struct(f">{n >> 3}Q")
