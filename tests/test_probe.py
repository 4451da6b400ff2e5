import pytest

from teefuzz.corpus_io import parse_program
from teefuzz.payload import serialize_payload
from teefuzz.probe import ProbeClosed, SimProbe
from teefuzz.statevars import ABSENT_MARKER, StateVarRegion, state_key_from_snapshots
from teefuzz.testcase import generate_testcase


def payload_for(templates, text):
    return serialize_payload(parse_program(text, templates))


def test_capabilities_present(probe):
    for cap in ("write_payload", "reset", "stream_trace", "read_memory"):
        assert cap in probe.capabilities
    assert probe.backend_id == "minitee-sim"


def test_submit_is_reset_prefixed(probe, templates, rng):
    # interleave different payloads; identical submissions stay identical
    a = payload_for(templates, "r0 = TEE_AllocateOperation(0x10, 0, 1024)\n")
    b = payload_for(templates, "TEE_Malloc(64, 1)\nTEE_Malloc(8, 0)\n")
    first = probe.submit(a)
    probe.submit(b)
    again = probe.submit(a)
    assert first == again


def test_two_submits_same_payload_identical(probe, templates, rng):
    tc = generate_testcase(templates, rng, 10)
    payload = serialize_payload(tc)
    assert probe.submit(payload) == probe.submit(payload)


def test_per_syscall_length_equals_executed_count(probe, templates, rng):
    for _ in range(20):
        tc = generate_testcase(templates, rng, 8)
        result = probe.submit(serialize_payload(tc))
        assert len(result.per_syscall) == result.executed_count


def test_bad_magic_payload_gives_decode_fault_result(probe):
    result = probe.submit(b"\x00\x00\x00\x00\x01")
    assert result.executed_count == 0
    assert result.fault is not None


def test_streaming_callback_order_and_timing(probe, templates):
    payload = payload_for(
        templates, "TEE_Malloc(8, 0)\nTEE_Malloc(16, 1)\nTEE_Malloc(24, 2)\n"
    )
    seen = []
    covs = []

    def on_syscall(idx, sr):
        seen.append(idx)
        # consumer may start coverage work before the run is fully consumed
        from teefuzz.tracecov import coverage_of

        covs.append(len(coverage_of(sr.trace)))

    result = probe.submit(payload, on_syscall=on_syscall)
    assert seen == [0, 1, 2]
    assert len(covs) == result.executed_count
    assert all(c >= 1 for c in covs)


KEY_SET = """r0 = TEE_AllocateOperation(0x10, 0, 1024)
r1 = TEE_AllocateTransientObject(0xA0, 1024)
r2 = TEE_InitRefAttribute(0xC0, "000102030405060708090a0b0c0d0e0f")
TEE_PopulateTransientObject(r1, r2, 1)
TEE_SetOperationKey(r0, r1)"""
HANDLE_STATE = [StateVarRegion("operation", 12, 4)]


def final_state_key(probe, templates, text, regions):
    result = probe.submit(payload_for(templates, text))
    return state_key_from_snapshots(regions, result.per_syscall[-1].snapshots)


def test_read_state_regions_after_key_set(probe, templates):
    assert final_state_key(probe, templates, KEY_SET, HANDLE_STATE) == b"\x01\x00\x00\x00"


def test_read_state_regions_absent_after_free(probe, templates):
    text = "r0 = TEE_AllocateOperation(0x10, 0, 1024)\nTEE_FreeOperation(r0)\n"
    assert final_state_key(probe, templates, text, HANDLE_STATE) == ABSENT_MARKER


def test_read_state_regions_empty_list(probe, templates):
    assert final_state_key(probe, templates, KEY_SET, []) == b""


def test_closed_endpoint_raises(templates):
    probe = SimProbe(1)
    probe.close()
    with pytest.raises(ProbeClosed):
        probe.submit(b"xx")
