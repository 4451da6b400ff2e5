import struct
from random import Random
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teefuzz.tracecov import (
    FNV64_OFFSET,
    FNV64_PRIME,
    SECURE_RANGE,
    TracePacket,
    coverage_of,
    dump_trace,
    fnv1a64,
    load_trace,
)


# --- reference pipeline: the three stages that coverage_of fuses ------------


class LcsajBlock(NamedTuple):
    """Coverage unit: a base address bound to its condition sequence."""

    base_address: int
    bit_count: int
    bits: int


def filter_packets(packets):
    """Keep exactly the packets whose base address lies in the secure window."""
    lo, hi = SECURE_RANGE
    return [p for p in packets if lo <= p.base_address <= hi]


def build_blocks(packets):
    """One block per packet, stream order preserved."""
    return [LcsajBlock(p.base_address, p.bit_count, p.bits) for p in packets]


def hash_block(block):
    """Branch ID: FNV-1a64 over (address LE ‖ bit_count byte ‖ packed bits)."""
    return fnv1a64(
        struct.pack("<IBB", block.base_address, block.bit_count, block.bits)
    )


def reference_fnv1a64(data: bytes) -> int:
    # independent oracle: textbook FNV-1a, written without reference to the
    # implementation under test
    h = 14695981039346656037
    for byte in data:
        h ^= byte
        h = (h * 1099511628211) % (1 << 64)
    return h


packets_st = st.lists(
    st.builds(
        TracePacket,
        base_address=st.integers(0, 0xFFFFFFFF),
        bit_count=st.integers(1, 8),
        bits=st.integers(0, 0xFF),
    ).map(lambda p: TracePacket(p.base_address, p.bit_count, p.bits & ((1 << p.bit_count) - 1))),
    max_size=60,
)


def test_fnv_constants():
    assert FNV64_OFFSET == 14695981039346656037
    assert FNV64_PRIME == 1099511628211


@given(st.binary(max_size=64))
def test_fnv_matches_reference(data):
    assert fnv1a64(data) == reference_fnv1a64(data)


def test_zero_block_hash_is_the_fnv_derived_value():
    # block (base 0x0, one condition bit 0) hashes the 6 bytes
    # 00 00 00 00 | 01 | 00
    expected = reference_fnv1a64(bytes([0, 0, 0, 0, 1, 0]))
    assert hash_block(LcsajBlock(0x0, 1, 0)) == expected


def test_equal_blocks_equal_ids():
    a = LcsajBlock(0x1000_0004, 3, 0b101)
    b = LcsajBlock(0x1000_0004, 3, 0b101)
    assert hash_block(a) == hash_block(b)


def test_single_bit_difference_changes_id():
    a = LcsajBlock(0x1000_0004, 3, 0b101)
    b = LcsajBlock(0x1000_0004, 3, 0b100)
    assert hash_block(a) != hash_block(b)


def test_collision_sweep_100k_random_pairs():
    rng = Random(99)
    seen = {}
    collisions = 0
    for _ in range(100_000):
        nbits = rng.randint(1, 8)
        blk = LcsajBlock(rng.getrandbits(32), nbits, rng.getrandbits(nbits))
        h = hash_block(blk)
        prev = seen.get(h)
        if prev is not None and prev != blk:
            collisions += 1
        seen[h] = blk
    assert collisions == 0


def test_filter_drops_normal_world_packet():
    pkts = [TracePacket(0x2000_1000, 1, 1)]
    assert coverage_of(pkts) == set()


def test_filter_identity_on_all_secure_stream():
    pkts = [TracePacket(0x1000_0000 + i, 1, i & 1) for i in range(20)]
    assert coverage_of(pkts) == {hash_block(b) for b in build_blocks(pkts)}


def test_filter_mixed_stream_brute_force():
    rng = Random(5)
    pkts = []
    for _ in range(100):
        if rng.random() < 0.37:
            addr = rng.randint(*SECURE_RANGE)
        else:
            addr = rng.randint(0x2000_0000, 0x2FFF_FFFF)
        nbits = rng.randint(1, 8)
        pkts.append(TracePacket(addr, nbits, rng.getrandbits(nbits)))
    lo, hi = SECURE_RANGE
    expected = [p for p in pkts if lo <= p.base_address <= hi]
    assert coverage_of(pkts) == {hash_block(b) for b in build_blocks(expected)}


def test_coverage_empty_trace():
    assert coverage_of([]) == set()


@given(packets_st)
def test_coverage_deterministic(pkts):
    assert coverage_of(pkts) == coverage_of(pkts)


@given(packets_st)
@settings(max_examples=200)
def test_coverage_equals_pipeline_composition(pkts):
    expected = {hash_block(b) for b in build_blocks(filter_packets(pkts))}
    assert coverage_of(pkts) == expected


@given(packets_st)
def test_filter_soundness_noise_never_contributes(pkts):
    lo, hi = SECURE_RANGE
    noise_free = [p for p in pkts if lo <= p.base_address <= hi]
    assert coverage_of(pkts) == coverage_of(noise_free)


def test_hash_block_layout():
    blk = LcsajBlock(0xDEADBEEF, 5, 0b10011)
    assert hash_block(blk) == reference_fnv1a64(struct.pack("<IBB", 0xDEADBEEF, 5, 0b10011))


def test_packet_validation():
    with pytest.raises(ValueError):
        TracePacket(0, 0, 0).validate()
    with pytest.raises(ValueError):
        TracePacket(0, 9, 0).validate()
    with pytest.raises(ValueError):
        TracePacket(0, 2, 0b100).validate()
    TracePacket(0, 2, 0b11).validate()


@given(packets_st)
def test_trace_dump_roundtrip(pkts):
    assert load_trace(dump_trace(pkts)) == pkts


def test_trace_dump_truncation_detected():
    data = dump_trace([TracePacket(1, 1, 1)])
    with pytest.raises(ValueError):
        load_trace(data[:-1])
