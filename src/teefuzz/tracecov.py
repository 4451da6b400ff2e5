"""Branch coverage from raw branch-trace packets.

A trace packet pairs a base address with a short run of branch-condition
bits (taken / not taken).  Packets from outside the secure address window
are noise and get dropped; the rest become LCSAJ blocks, one per packet,
which hash to stable 64-bit branch IDs.  Everything here is pure and
stateless, so workers can share nothing and still agree on IDs.
"""

from __future__ import annotations

import struct
from typing import Iterable, NamedTuple

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Secure-world address window used by the simulated target.  Noise packets
# are injected from the normal-world window above it.
SECURE_RANGE = (0x1000_0000, 0x1FFF_FFFF)
NOISE_RANGE = (0x2000_0000, 0x2FFF_FFFF)


class TracePacket(NamedTuple):
    """One raw branch packet: base address plus 1..8 condition bits.

    `bits` holds the packed condition sequence; condition i of the run is
    bit i of the byte (first condition = LSB).
    """

    base_address: int
    bit_count: int
    bits: int

    def validate(self) -> None:
        if not 1 <= self.bit_count <= 8:
            raise ValueError(f"bit_count out of range: {self.bit_count}")
        if self.bits >> self.bit_count:
            raise ValueError("condition bits exceed bit_count")


def fnv1a64(data: bytes, h: int = FNV64_OFFSET) -> int:
    """64-bit FNV-1a over `data`, optionally chained from a prior hash."""
    for b in data:
        h = ((h ^ b) * FNV64_PRIME) & _MASK64
    return h


# A branch ID depends only on its packet, so IDs are cached across the
# campaign and the fuzzing loop pays one struct.pack per *distinct* block.
_hash_cache: dict[tuple[int, int, int], int] = {}


def coverage_of(trace: Iterable[TracePacket]) -> set[int]:
    """Branch-ID set of one per-syscall trace segment.

    A block's ID is FNV-1a64 over (address LE ‖ bit_count byte ‖ packed bits).
    """
    lo, hi = SECURE_RANGE
    cache = _hash_cache
    out = set()
    for p in trace:
        if not lo <= p[0] <= hi:
            continue
        key = (p[0], p[1], p[2])
        h = cache.get(key)
        if h is None:
            h = fnv1a64(struct.pack("<IBB", *key))
            cache[key] = h
        out.add(h)
    return out


# --- trace dump format ----------------------------------------------------------
#
# Binary stream of fixed 6-byte records: base_address u32 LE, bit_count u8,
# packed bits u8, the same layout that is hashed into a branch ID.

_REC = struct.Struct("<IBB")


def dump_trace(packets: Iterable[TracePacket]) -> bytes:
    return b"".join(_REC.pack(p.base_address, p.bit_count, p.bits) for p in packets)


def load_trace(data: bytes) -> list[TracePacket]:
    if len(data) % _REC.size:
        raise ValueError("truncated trace dump")
    packets = []
    for off in range(0, len(data), _REC.size):
        base, nbits, bits = _REC.unpack_from(data, off)
        pkt = TracePacket(base, nbits, bits)
        pkt.validate()
        packets.append(pkt)
    return packets
