"""Branch coverage from raw branch-trace packets.

A trace packet pairs a base address with a short run of branch-condition
bits (taken / not taken).  Packets from outside the secure address window
are noise and get dropped; the rest become LCSAJ blocks, one per packet,
which hash to stable 64-bit branch IDs.  A branch ID is a pure function of
its packet, so workers can share nothing and still agree on IDs.  Traces
live only in memory, as the TracePacket lists the probe returns.
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


def fnv1a64(data: bytes, h: int = FNV64_OFFSET) -> int:
    """64-bit FNV-1a over `data`, optionally chained from a prior hash."""
    for b in data:
        h = ((h ^ b) * FNV64_PRIME) & _MASK64
    return h


# A block as hashed into its branch ID: base_address u32 LE, bit_count u8,
# packed bits u8.
_REC = struct.Struct("<IBB")


class _BranchIds(dict):
    """Packet -> branch ID, filled on first sight of a distinct block.

    A branch ID depends only on its packet, so the table is shared by every
    campaign in the process; the target's blocks bound its size.  Keys are
    the packets themselves, which hash and compare as plain tuples.
    """

    def __missing__(self, packet):
        h = self[packet] = fnv1a64(_REC.pack(*packet))
        return h


_branch_ids = _BranchIds()


def coverage_of(trace: Iterable[TracePacket]) -> set[int]:
    """Branch-ID set of one per-syscall trace segment.

    A block's ID is FNV-1a64 over (address LE ‖ bit_count byte ‖ packed bits).
    """
    lo, hi = SECURE_RANGE
    ids = _branch_ids
    return {ids[p] for p in trace if lo <= p[0] <= hi}
