import gc
import hashlib
import itertools
import struct
import tracemalloc
from random import Random

import pytest

from teefuzz import minitee
from teefuzz.corpus_io import parse_program
from teefuzz.minitee import (
    CACHE_NODES,
    DECODE_FRAMES,
    FAULT_MEM_OVERWRITE,
    FAULT_NULL_DEREF,
    FAULT_RESOURCE_EXHAUSTION,
    FAULT_UNTRUSTED_DEREF,
    GROUND_TRUTH_REGIONS,
    MiniTee,
)
from teefuzz.payload import serialize_payload
from teefuzz.templates import ArgKind
from teefuzz.testcase import ArgValue, Syscall, TestCase, generate_testcase, mutate_testcase
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
    payload = prog(templates, "r0 = TEE_AllocateOperation(0x10, 0, 1024)\nTEE_Malloc(64, 1)\n")
    sim = MiniTee(1, templates)
    sim.reset()
    sim.reset()
    assert sim.execute_payload(payload) == MiniTee(1, templates).execute_payload(payload)


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


def final_operation_word(result, offset):
    """The 4-byte word at `offset` of the operation handle after the last call."""
    (op,) = [s for s in result.per_syscall[-1].snapshots if s.kind == "operation"]
    return op.data[offset : offset + 4]


def test_fresh_operation_handle_state_is_zero(sim, templates):
    r = sim.execute_payload(prog(templates, "r0 = TEE_AllocateOperation(0x10, 0, 1024)\n"))
    assert final_operation_word(r, 12) == b"\x00\x00\x00\x00"


def test_handle_state_after_set_operation_key_is_one(sim, templates):
    r = sim.execute_payload(
        prog(
            templates,
            """r0 = TEE_AllocateOperation(0x10, 0, 1024)
r1 = TEE_AllocateTransientObject(0xA0, 1024)
r2 = TEE_InitRefAttribute(0xC0, "000102030405060708090a0b0c0d0e0f")
TEE_PopulateTransientObject(r1, r2, 1)
TEE_SetOperationKey(r0, r1)""",
        )
    )
    assert final_operation_word(r, 12) == b"\x01\x00\x00\x00"


# --- seeded bugs ------------------------------------------------------------------


def test_b1_malloc_overflow(sim, templates):
    r = sim.execute_payload(prog(templates, "TEE_Malloc(2097152, 0)\n"))
    assert r.fault is not None and r.fault.kind == FAULT_RESOURCE_EXHAUSTION
    assert len(r.per_syscall) == 0


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
    assert len(r.per_syscall) == 2


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


# --- argument decoding --------------------------------------------------------
#
# Decoded payloads need not be validator-clean.  Each oracle below pairs a
# call whose arguments break its template with the call that the argument
# contract says reads the same; both must walk the same secure blocks
# after block 0 (the arity check) and return the same codes.

ZERO = ArgValue.scalar32(0)


def with_args(tc, i, args):
    call = tc.calls[i]
    return TestCase(tc.calls[:i] + (Syscall(call.ordinal, tuple(args)),) + tc.calls[i + 1 :])


def replace_arg(tc, i, j, arg):
    args = list(tc.calls[i].args)
    args[j] = arg
    return with_args(tc, i, args)


def missing_last_arg(tc, i, templates, rng):
    args = tc.calls[i].args
    yield with_args(tc, i, args[:-1]), with_args(tc, i, args[:-1] + (ZERO,))


def extra_arg(tc, i, templates, rng):
    args = tc.calls[i].args
    yield with_args(tc, i, args + (ArgValue.scalar32(rng.getrandbits(32)),)), tc


def ref_to_no_earlier_call(tc, i, templates, rng):
    j = rng.randrange(len(tc.calls[i].args))
    for ref in (i, i + 1, len(tc.calls), 0xFFFF):
        yield replace_arg(tc, i, j, ArgValue.resource_ref(ref)), replace_arg(tc, i, j, ZERO)


def buffer_in_scalar_slot(tc, i, templates, rng):
    params = templates.by_ordinal[tc.calls[i].ordinal].params
    for j, param in enumerate(params):
        if param.kind is not ArgKind.BUFFER:
            n = rng.choice((0, 1, 16, 0xA0, rng.randrange(0x1_0000)))
            buf = ArgValue.buffer(bytes(n))
            yield replace_arg(tc, i, j, buf), replace_arg(tc, i, j, ArgValue.scalar32(n))


def secure_feedback(sim, tc):
    """Per call the secure blocks after block 0 and the return code; then
    the fault."""
    lo, hi = SECURE_RANGE
    sim.reset()
    result = sim.execute_payload(serialize_payload(tc))
    calls = [
        ([p for p in sr.trace if lo <= p.base_address <= hi][1:], sr.return_code)
        for sr in result.per_syscall
    ]
    return calls, result.fault


@pytest.mark.parametrize(
    "variants", [missing_last_arg, extra_arg, ref_to_no_earlier_call, buffer_in_scalar_slot]
)
def test_malformed_arguments_read_as_the_contract_says(templates, seed_corpus, variants):
    rng = Random(5)
    sim = MiniTee(1, templates)
    cases = list(seed_corpus) + [generate_testcase(templates, rng, 16) for _ in range(150)]
    handlers, reached_ok = set(), 0
    for tc in cases:
        for i in rng.sample(range(len(tc.calls)), min(3, len(tc.calls))):
            for variant, reference in variants(tc, i, templates, rng):
                expected = secure_feedback(sim, reference)
                assert secure_feedback(sim, variant) == expected
                if len(expected[0]) > i:
                    handlers.add(tc.calls[i].ordinal)
                    reached_ok += expected[0][i][1] == minitee.RET_OK
    assert len(handlers) == len(minitee._HANDLERS)
    assert reached_ok > 100


# --- structural invariants ----------------------------------------------------------


def test_every_handler_has_the_arity_of_its_bundled_template(templates):
    for name, (_, arity) in minitee._HANDLERS.items():
        assert len(templates.by_name[name].params) == arity, name


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


def test_execution_stops_at_the_faulting_call(sim, templates):
    r = sim.execute_payload(
        prog(templates, "TEE_Malloc(8, 0)\nTEE_Malloc(2097152, 0)\nTEE_Malloc(8, 0)\n")
    )
    assert r.fault is not None
    assert len(r.per_syscall) == 1
    assert r.fault.faulting_call_index == 1


# --- golden feedback ----------------------------------------------------------------

GOLDEN_FEEDBACK_SHA256 = "caf490ac70af38bcbc5e8a9319e786ed4c0e9fb5e7216672cbea6e4d2adc5b83"


def golden_payloads(templates, seed_corpus):
    """The bundled seeds, the deep MAC state that random cases do not reach
    (B4 among them), 2,000 generated and mutated cases from Random(1), and
    damaged payloads: one call given one argument fewer or one more than
    its template, a few bytes overwritten, or the tail cut off."""
    rng = Random(1)
    deep = [
        MAC_SETUP + f"TEE_MACUpdate(r0, r4, {size})\nTEE_MACComputeFinal(r0, r4, 64)\n"
        for size in (64, 65_536, 100_000)
    ]
    cases = list(seed_corpus) + [parse_program(text, templates) for text in deep]
    tc = cases[0]
    for k in range(2_000):
        if k % 2:
            tc = generate_testcase(templates, rng, 1 + k % 32)
        else:
            tc = mutate_testcase(rng.choice(cases), templates, rng, 32)
        cases.append(tc)
    payloads = [serialize_payload(tc) for tc in cases]
    for tc in cases[::4]:
        i = rng.randrange(len(tc.calls))
        call = tc.calls[i]
        extra = ArgValue.scalar32(rng.getrandbits(32))
        for args in (call.args[:-1], call.args + (extra,)):
            calls = tc.calls[:i] + (Syscall(call.ordinal, args),) + tc.calls[i + 1 :]
            payloads.append(serialize_payload(TestCase(calls)))
        data = bytearray(payloads[-1])
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.getrandbits(8)
        payloads.append(bytes(data))
        payloads.append(bytes(data[: rng.randrange(len(data))]))
    return payloads


def feedback_record(result):
    """What reaches feedback, noise left out: per call the secure-window
    packets, the return code and each snapshot's kind and ground-truth
    words; then the fault."""
    lo, hi = SECURE_RANGE
    offsets = {
        kind: [off for k, off in GROUND_TRUTH_REGIONS if k == kind]
        for kind in ("object", "operation")
    }
    calls = [
        (
            [tuple(p) for p in sr.trace if lo <= p.base_address <= hi],
            sr.return_code,
            [(s.kind, [s.data[o : o + 4] for o in offsets[s.kind]]) for s in sr.snapshots],
        )
        for sr in result.per_syscall
    ]
    return repr((calls, result.fault)).encode()


def test_golden_feedback(templates, seed_corpus):
    sim = MiniTee(1, templates)
    digest = hashlib.sha256()
    faults, codes = set(), set()
    for data in golden_payloads(templates, seed_corpus):
        sim.reset()
        result = sim.execute_payload(data)
        digest.update(feedback_record(result))
        if result.fault is not None:
            faults.add(result.fault.frames)
        codes.update(sr.return_code for sr in result.per_syscall)
    assert faults >= {*minitee.BUG_FRAMES.values(), minitee.DECODE_FRAMES}
    assert minitee.RET_OK in codes
    assert codes & {minitee.RET_BAD_STATE, minitee.RET_BAD_HANDLE}
    assert codes - {minitee.RET_OK, minitee.RET_BAD_STATE, minitee.RET_BAD_HANDLE}
    assert digest.hexdigest() == GOLDEN_FEEDBACK_SHA256


def test_golden_feedback_with_a_fresh_target_per_payload(templates, seed_corpus):
    digest = hashlib.sha256()
    for data in golden_payloads(templates, seed_corpus):
        digest.update(feedback_record(MiniTee(1, templates).execute_payload(data)))
    assert digest.hexdigest() == GOLDEN_FEEDBACK_SHA256


# --- resuming from cached call prefixes -------------------------------------------


def damaged(tc, rng):
    """Payloads of `tc` damaged as golden_payloads damages them."""
    i = rng.randrange(len(tc.calls))
    call = tc.calls[i]
    out = []
    for args in (call.args[:-1], call.args + (ArgValue.scalar32(rng.getrandbits(32)),)):
        out.append(serialize_payload(with_args(tc, i, args)))
    data = bytearray(out[-1])
    for _ in range(rng.randint(1, 3)):
        data[rng.randrange(len(data))] = rng.getrandbits(8)
    out.append(bytes(data))
    out.append(bytes(data[: rng.randrange(len(data))]))
    return out


@pytest.fixture(scope="module")
def payload_stream(templates, seed_corpus):
    """20,000 distinct payloads in the order a campaign might submit them:
    the bundled seeds and the deep MAC cases, then mutants of a growing
    pool, which mostly keep a prefix of their parent's calls, generated
    cases, and damaged variants of about one case in five."""
    rng = Random(7)
    deep = [MAC_SETUP + f"TEE_MACUpdate(r0, r4, {n})\n" for n in (64, 100_000)]
    pool = list(seed_corpus) + [parse_program(text, templates) for text in deep]
    stream, seen = [], set()

    def add(data):
        if data not in seen:
            seen.add(data)
            stream.append(data)

    for tc in pool:
        add(serialize_payload(tc))
    while len(stream) < 20_000:
        if rng.random() < 0.1:
            tc = generate_testcase(templates, rng, 1 + rng.randrange(32))
        else:
            tc = mutate_testcase(rng.choice(pool), templates, rng, 32)
        if rng.random() < 0.05:
            pool.append(tc)
        add(serialize_payload(tc))
        if rng.random() < 0.2:
            for data in damaged(tc, rng):
                add(data)
    return stream[:20_000]


def test_a_warm_target_gives_what_a_fresh_one_gives(templates, payload_stream):
    warm = MiniTee(1, templates)
    decode_faults = mid_faults = 0
    for data in payload_stream[:12_000]:
        result = warm.execute_payload(data)
        assert result == MiniTee(1, templates).execute_payload(data)
        if result.fault is not None:
            decode_faults += result.fault.frames == DECODE_FRAMES
            mid_faults += result.fault.faulting_call_index > 0
    assert decode_faults > 100 and mid_faults > 100
    assert len(warm._cache) == CACHE_NODES


def test_a_cached_call_returns_the_result_it_cached(templates, seed_corpus):
    sim = MiniTee(1, templates)
    data = serialize_payload(seed_corpus[0])
    fresh = MiniTee(1, templates).execute_payload(data)
    # the first run records the prefixes, the second caches them, and the
    # third is served from the cache
    first, cached, served = (sim.execute_payload(data) for _ in range(3))
    assert first == cached == served == fresh
    assert served.per_syscall is not cached.per_syscall
    assert len(served.per_syscall) == len(seed_corpus[0].calls)
    for was, sr in zip(cached.per_syscall, served.per_syscall):
        assert sr is was
        assert type(sr.trace) is tuple and type(sr.snapshots) is tuple


def test_a_full_cache_holds_at_most_2_mb(templates, payload_stream):
    sim = MiniTee(1, templates)
    for data in payload_stream:
        sim.execute_payload(data)
    assert len(sim._cache) == CACHE_NODES
    # refill the emptied cache under tracemalloc from the latest payloads,
    # whose prefixes the target has seen
    sim._cache.clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for data in reversed(payload_stream):
            sim.execute_payload(data)
            if len(sim._cache) == CACHE_NODES:
                break
        sim.reset()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sim._cache) == CACHE_NODES
    held += len(sim._seen) * sim._seen.itemsize
    assert held <= 2_000_000, held


def test_a_shared_call_prefix_gives_the_same_calls(templates):
    """Call i's result, noise included, depends on calls 0..i only; the
    first call that differs, and every call after it, draws other noise."""
    head = """r0 = TEE_AllocateOperation(0x70, 4, 1024)
r1 = TEE_AllocateTransientObject(0xA1, 1024)
"""
    tails = [
        "r2 = TEE_InitRefAttribute(0xC0, \"00112233\")\nTEE_Malloc(64, 1)\nTEE_Malloc(8, 0)\n",
        "r2 = TEE_InitRefAttribute(0xC0, \"00112244\")\nTEE_Malloc(64, 1)\nTEE_Malloc(8, 0)\n",
    ]
    a, b = (exec_fresh(prog(templates, head + tail), seed=1) for tail in tails)
    assert a.per_syscall[:2] == b.per_syscall[:2]
    lo, hi = SECURE_RANGE
    for x, y in zip(a.per_syscall[2:], b.per_syscall[2:]):
        assert x.return_code == y.return_code
        assert [p for p in x.trace if lo <= p.base_address <= hi] == [
            p for p in y.trace if lo <= p.base_address <= hi
        ]
        # the operation's keyBuffer and the object's noise words
        assert [s.data[24:40] for s in x.snapshots] != [s.data[24:40] for s in y.snapshots]
        assert x.trace != y.trace
