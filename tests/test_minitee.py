import itertools
import struct
from random import Random

import pytest

from teefuzz import minitee
from teefuzz.corpus_io import parse_program
from teefuzz.minitee import (
    FAULT_MEM_OVERWRITE,
    FAULT_NULL_DEREF,
    FAULT_RESOURCE_EXHAUSTION,
    FAULT_UNTRUSTED_DEREF,
    GROUND_TRUTH_REGIONS,
    MiniTee,
    seeded_bug_catalog,
)
from teefuzz.payload import serialize_payload
from teefuzz.testcase import ArgValue, Syscall, TestCase, generate_testcase
from teefuzz.tracecov import NOISE_RANGE, SECURE_RANGE


def prog(templates, text):
    return serialize_payload(parse_program(text, templates))


@pytest.fixture()
def sim(templates):
    return MiniTee(campaign_seed=42, templates=templates)


def exec_fresh(payload, seed=42):
    sim = MiniTee(seed)
    sim.reset()
    return sim.execute_payload(payload)


# --- determinism -----------------------------------------------------------


def test_reset_execute_is_byte_identical(sim, templates):
    payload = prog(
        templates,
        "r0 = TEE_AllocateOperation(0x10, 0, 1024)\nTEE_Malloc(64, 1)\n",
    )
    sim.reset()
    a = sim.execute_payload(payload)
    sim.reset()
    b = sim.execute_payload(payload)
    assert a == b


def test_reset_on_fresh_instance_is_noop(templates):
    sim = MiniTee(1, templates)
    sim.reset()
    sim.reset()
    assert sim.live_handles() == []


def test_reset_isolates_payloads(sim, templates):
    p1 = prog(templates, "TEE_Malloc(128, 2)\nr0 = TEE_AllocateOperation(0x30, 1, 512)\n")
    p2 = prog(templates, "r0 = TEE_AllocateTransientObject(0xA1, 256)\n")
    sim.reset()
    sim.execute_payload(p1)
    sim.reset()
    after_other = sim.execute_payload(p2)
    assert after_other == exec_fresh(p2)


def test_campaign_seed_changes_noise_but_not_semantics(templates):
    payload = prog(templates, "r0 = TEE_AllocateOperation(0x10, 0, 1024)\n")
    a = exec_fresh(payload, seed=1)
    b = exec_fresh(payload, seed=2)
    assert [sr.return_code for sr in a.per_syscall] == [
        sr.return_code for sr in b.per_syscall
    ]
    assert a.per_syscall[0].snapshots != b.per_syscall[0].snapshots


# --- decode faults -----------------------------------------------------------


def test_undecodable_payload_yields_decode_fault(sim):
    result = sim.execute_payload(b"\x00\x00\x00\x00")
    assert result.executed_count == 0
    assert result.per_syscall == []
    assert result.fault is not None
    assert result.fault.kind == minitee.FAULT_HARD
    assert len(result.fault.frames) >= 3


# --- spec'd example behaviors ---------------------------------------------------


def test_fig7_sequence_state_progression(sim, seed_corpus, templates):
    result = sim.execute_payload(serialize_payload(seed_corpus[0]))
    assert result.fault is None
    states = []
    for sr in result.per_syscall:
        for snap in sr.snapshots:
            if snap.kind == "operation":
                states.append(struct.unpack_from("<I", snap.data, 12)[0])
    # handleState walks 0 (allocated) -> 1 (key_set) -> 3 (key_set_and_initialized)
    dedup = [s for s, _ in itertools.groupby(states)]
    assert dedup == [0, 1, 3]


def test_read_memory_fresh_operation_handle_state_is_zero(sim, templates):
    sim.execute_payload(prog(templates, "r0 = TEE_AllocateOperation(0x10, 0, 1024)\n"))
    h = sim.live_handles()[0]
    assert sim.read_memory(h.hid, 12, 4) == b"\x00\x00\x00\x00"


def test_read_memory_after_set_operation_key_reads_one(sim, templates):
    sim.execute_payload(
        prog(
            templates,
            """r0 = TEE_AllocateOperation(0x10, 0, 1024)
r1 = TEE_AllocateTransientObject(0xA0, 1024)
r2 = TEE_InitRefAttribute(0xC0, "000102030405060708090a0b0c0d0e0f")
TEE_PopulateTransientObject(r1, r2, 1)
TEE_SetOperationKey(r0, r1)""",
        )
    )
    op = [h for h in sim.live_handles() if h.kind == "operation"][0]
    assert sim.read_memory(op.hid, 12, 4) == b"\x01\x00\x00\x00"


def test_read_memory_out_of_range(sim, templates):
    sim.execute_payload(prog(templates, "r0 = TEE_AllocateOperation(0x10, 0, 1024)\n"))
    h = sim.live_handles()[0]
    with pytest.raises(ValueError):
        sim.read_memory(h.hid, 60, 8)


def test_read_memory_dead_handle(sim, templates):
    sim.execute_payload(
        prog(templates, "r0 = TEE_AllocateOperation(0x10, 0, 1024)\nTEE_FreeOperation(r0)\n")
    )
    with pytest.raises(KeyError):
        sim.read_memory(0x101, 0, 4)


# --- seeded bugs ------------------------------------------------------------------


def test_catalog_has_five_bugs():
    catalog = seeded_bug_catalog()
    assert len(catalog) == 5
    assert [b.bug_id for b in catalog] == ["B1", "B2", "B3", "B4", "B5"]
    deep = [b for b in catalog if "handleState=3" in b.min_state]
    assert len(deep) == 1 and deep[0].bug_id == "B4"


def test_b1_malloc_overflow(sim, templates):
    r = sim.execute_payload(prog(templates, "TEE_Malloc(2097152, 0)\n"))
    assert r.fault is not None and r.fault.kind == FAULT_RESOURCE_EXHAUSTION
    assert r.executed_count == 0


def test_b1_small_malloc_is_fine(sim, templates):
    r = sim.execute_payload(prog(templates, "TEE_Malloc(16, 0)\n"))
    assert r.fault is None
    assert r.per_syscall[0].return_code == minitee.RET_OK


def test_b2_populate_attr_count_overflow(sim, templates):
    r = sim.execute_payload(
        prog(
            templates,
            """r0 = TEE_AllocateTransientObject(0xA0, 1024)
r1 = TEE_InitRefAttribute(0xC0, "00112233")
TEE_PopulateTransientObject(r0, r1, 100000)""",
        )
    )
    assert r.fault is not None and r.fault.kind == FAULT_MEM_OVERWRITE
    assert r.fault.faulting_call_index == 2
    assert r.executed_count == 2


def test_b3_mac_compare_final_null_operation(sim, templates):
    r = sim.execute_payload(
        prog(
            templates,
            """r0 = TEE_AllocateOperation(0xF0, 0, 64)
r1 = TEE_MakeChunk(16, 0)
TEE_MACCompareFinal(r0, r1, "00")""",
        )
    )
    assert r.fault is not None and r.fault.kind == FAULT_NULL_DEREF


def test_b5_cipher_init_on_freed_handle(sim, templates):
    r = sim.execute_payload(
        prog(
            templates,
            """r0 = TEE_AllocateOperation(0x10, 0, 1024)
TEE_FreeOperation(r0)
r1 = TEE_MakeIV(16, 0)
TEE_CipherInit(r0, r1)""",
        )
    )
    assert r.fault is not None and r.fault.kind == FAULT_UNTRUSTED_DEREF


MAC_SETUP = """r0 = TEE_AllocateOperation(0x70, 4, 1024)
r1 = TEE_AllocateTransientObject(0xA1, 1024)
r2 = TEE_InitRefAttribute(0xC0, "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff")
TEE_PopulateTransientObject(r1, r2, 1)
TEE_SetOperationKey(r0, r1)
r3 = TEE_MakeIV(0, 0)
TEE_MACInit(r0, r3)
r4 = TEE_MakeChunk(64, 33)
"""


def test_b4_requires_deep_state(sim, templates):
    deep = prog(templates, MAC_SETUP + "TEE_MACUpdate(r0, r4, 100000)\n")
    r = sim.execute_payload(deep)
    assert r.fault is not None and r.fault.kind == FAULT_MEM_OVERWRITE
    assert r.fault.frames[0] == "mac_absorb_block"

    # identical trigger without the MACInit is a clean state error
    sim.reset()
    shallow = prog(
        templates,
        """r0 = TEE_AllocateOperation(0x70, 4, 1024)
r4 = TEE_MakeChunk(64, 33)
TEE_MACUpdate(r0, r4, 65536)""",
    )
    r = sim.execute_payload(shallow)
    assert r.fault is None
    assert r.per_syscall[-1].return_code == minitee.RET_BAD_STATE


def test_b4_gating_exhaustive_over_short_sequences(templates):
    """No sequence of at most 4 calls can reach the deep-state fault.

    The key-loading chain alone takes five calls, so over a reduced
    argument domain every length-<=4 program must run B4-free; the fault
    needs a prior snapshot in handleState 3 and none can exist.
    """
    by_name = templates.by_name
    mk = ArgValue
    menu = [
        ("TEE_AllocateOperation", (mk.const_enum(0x70), mk.const_enum(4), mk.scalar32(1024))),
        ("TEE_AllocateTransientObject", (mk.const_enum(0xA1), mk.scalar32(1024))),
        ("TEE_InitRefAttribute", (mk.const_enum(0xC0), mk.buffer(bytes(32)))),
        ("TEE_MakeIV", (mk.scalar32(0), mk.scalar32(0))),
        ("TEE_MakeChunk", (mk.scalar32(64), mk.scalar32(1))),
        ("TEE_MACInit", None),
        ("TEE_MACUpdate", None),
        ("TEE_SetOperationKey", None),
        ("TEE_PopulateTransientObject", None),
    ]

    def materialize(seq):
        # wire resource args to the nearest preceding producer; drop the
        # sequence when a producer is missing
        calls = []
        producers = {}
        for name, fixed in seq:
            t = by_name[name]
            if fixed is not None:
                args = fixed
            else:
                args = []
                for p in t.params:
                    if p.kind.name == "RESOURCE":
                        if p.resource_kind not in producers:
                            return None
                        args.append(mk.resource_ref(producers[p.resource_kind]))
                    elif p.name in ("chunkSize",):
                        args.append(mk.scalar32(1_000_000))  # would trigger B4
                    elif p.name in ("attrCount",):
                        args.append(mk.scalar32(1))
                    else:
                        args.append(mk.scalar32(16))
                args = tuple(args)
            if t.produces_resource:
                producers[t.produces_resource] = len(calls)
            calls.append(Syscall(t.ordinal, args))
        return TestCase(tuple(calls))

    sim = MiniTee(3, templates)
    checked = 0
    for n in range(1, 5):
        for seq in itertools.product(menu, repeat=n):
            tc = materialize(seq)
            if tc is None:
                continue
            sim.reset()
            result = sim.execute_payload(serialize_payload(tc))
            checked += 1
            if result.fault is not None:
                assert result.fault.frames[0] != "mac_absorb_block", tc
            # and independently: no snapshot ever shows handleState 3
            for sr in result.per_syscall:
                for snap in sr.snapshots:
                    if snap.kind == "operation":
                        assert struct.unpack_from("<I", snap.data, 12)[0] != 3
    assert checked > 900


# --- structural invariants ----------------------------------------------------------


def test_state_fields_stable_without_operation_syscalls(sim, templates):
    payload = prog(
        templates,
        """r0 = TEE_AllocateOperation(0x10, 0, 1024)
TEE_Malloc(64, 1)
r1 = TEE_InitRefAttribute(0xC0, "aa")
r2 = TEE_MakeIV(16, 3)
TEE_Malloc(32, 0)
r3 = TEE_MakeChunk(8, 9)
TEE_Free(r0)""",
    )
    # note: TEE_Free above frees a Mem resource; the op handle stays live
    result = sim.execute_payload(payload)
    assert result.fault is None
    op_states = []
    for sr in result.per_syscall:
        for snap in sr.snapshots:
            if snap.kind == "operation":
                op_states.append(snap.data[:24])
    assert len(set(op_states)) == 1  # offsets 0..23 never moved


def test_noise_regions_do_change_on_other_calls(sim, templates):
    payload = prog(
        templates,
        "r0 = TEE_AllocateOperation(0x10, 0, 1024)\nTEE_Malloc(64, 1)\nTEE_Malloc(32, 0)\n",
    )
    result = sim.execute_payload(payload)
    tails = [
        snap.data[24:]
        for sr in result.per_syscall
        for snap in sr.snapshots
        if snap.kind == "operation"
    ]
    assert len(set(tails)) == len(tails)


def test_trace_bracket_secure_and_noise(templates, rng):
    sim = MiniTee(11, templates)
    lo, hi = SECURE_RANGE
    nlo, nhi = NOISE_RANGE
    for _ in range(40):
        tc = generate_testcase(templates, rng, 8)
        sim.reset()
        result = sim.execute_payload(serialize_payload(tc))
        for sr in result.per_syscall:
            secure = [p for p in sr.trace if lo <= p.base_address <= hi]
            noise = [p for p in sr.trace if nlo <= p.base_address <= nhi]
            assert len(secure) >= 1
            assert len(secure) + len(noise) == len(sr.trace)
            assert len(noise) / len(sr.trace) >= 0.30


def test_walks_stay_within_40_blocks_and_emit_at_least_entry_exit(templates, rng):
    sim = MiniTee(13, templates)
    lo, hi = SECURE_RANGE
    per_handler_blocks = {}
    for _ in range(300):
        tc = generate_testcase(templates, rng, 8)
        sim.reset()
        result = sim.execute_payload(serialize_payload(tc))
        for sr in result.per_syscall:
            walk = [p for p in sr.trace if lo <= p.base_address <= hi]
            base = walk[0][0] & ~0xFFF
            ids = {addr for addr, _, _ in walk}
            per_handler_blocks.setdefault(base, set()).update(ids)
            assert 3 <= len(walk) <= 40
    for base, ids in per_handler_blocks.items():
        assert len(ids) <= 40


def test_executed_count_contract(sim, templates):
    r = sim.execute_payload(
        prog(templates, "TEE_Malloc(8, 0)\nTEE_Malloc(2097152, 0)\nTEE_Malloc(8, 0)\n")
    )
    assert r.fault is not None
    assert r.executed_count == 1
    assert len(r.per_syscall) == r.executed_count
    assert r.fault.faulting_call_index == 1
