import struct
from random import Random

import pytest

from teefuzz.payload import (
    MAGIC,
    PayloadError,
    PayloadErrorCode,
    deserialize_payload,
    serialize_payload,
)
from teefuzz.templates import U32_MAX, U64_MAX, ArgKind
from teefuzz.testcase import (
    ArgValue,
    Syscall,
    TestCase,
    _gen_arg_value,
    generate_testcase,
    mutate_testcase,
)


def test_hand_encoded_single_call_bit_exact(templates):
    # one call of ordinal 3 with no args; encoded by hand from the wire
    # format: magic, version 1, count 0x0001, ordinal 0x0003, argc 0
    tc = TestCase((Syscall(3, ()),))
    assert serialize_payload(tc) == bytes.fromhex("535a5452 01 0100 0300 00".replace(" ", ""))
    assert len(serialize_payload(tc)) == 10


def test_magic_is_sztr():
    assert MAGIC == b"SZTR"


def test_roundtrip_10000_random_testcases(templates):
    rng = Random(2024)
    for _ in range(10_000):
        tc = generate_testcase(templates, rng, 12)
        assert deserialize_payload(serialize_payload(tc), templates) == tc


def test_bounds_delimit_each_call_as_it_encodes_alone(templates):
    rng = Random(2025)
    for _ in range(1_000):
        tc = generate_testcase(templates, rng, 12)
        data, bounds = serialize_payload(tc), []
        assert deserialize_payload(data, templates, bounds) == tc
        assert bounds[0] == 7 and bounds[-1] == len(data) and len(bounds) == len(tc.calls) + 1
        for i, call in enumerate(tc.calls):
            alone = serialize_payload(TestCase((call,)))
            assert data[bounds[i] : bounds[i + 1]] == alone[7:]


def test_zero_length_buffer_encodes_length_zero_no_value(templates):
    attr = templates.by_name["TEE_InitRefAttribute"]
    tc = TestCase(
        (Syscall(attr.ordinal, (ArgValue.const_enum(0xC0), ArgValue.buffer(b""))),)
    )
    data = serialize_payload(tc)
    # ... tag 4, value 0xC0 LE, tag 2, length 0x0000, then nothing
    assert data[-3:] == b"\x02\x00\x00"
    assert deserialize_payload(data, templates) == tc


def test_buffer_over_65535_is_an_encoding_error(templates):
    attr = templates.by_name["TEE_InitRefAttribute"]
    tc = TestCase(
        (
            Syscall(
                attr.ordinal,
                (ArgValue.const_enum(0xC0), ArgValue.buffer(b"x" * 65_536)),
            ),
        )
    )
    with pytest.raises(PayloadError) as exc:
        serialize_payload(tc)
    assert exc.value.code is PayloadErrorCode.BUFFER_TOO_LONG


def test_arg_of_no_known_kind_is_not_encoded():
    with pytest.raises(ValueError, match="unknown arg kind"):
        serialize_payload(TestCase((Syscall(3, (ArgValue("scalar32", 1),)),)))


def test_bad_magic(templates):
    with pytest.raises(PayloadError) as exc:
        deserialize_payload(b"\x00\x00\x00\x00\x01\x00\x00", templates)
    assert exc.value.code is PayloadErrorCode.BAD_MAGIC


def test_bad_version(templates):
    with pytest.raises(PayloadError) as exc:
        deserialize_payload(MAGIC + b"\x07\x00\x00", templates)
    assert exc.value.code is PayloadErrorCode.BAD_VERSION


def test_truncated_mid_arg(templates):
    tc = TestCase((Syscall(16, (ArgValue.scalar32(5), ArgValue.scalar32(0))),))
    data = serialize_payload(tc)
    with pytest.raises(PayloadError) as exc:
        deserialize_payload(data[:-2], templates)
    assert exc.value.code is PayloadErrorCode.TRUNCATED


def test_truncated_header(templates):
    with pytest.raises(PayloadError) as exc:
        deserialize_payload(MAGIC, templates)
    assert exc.value.code is PayloadErrorCode.TRUNCATED


def test_unknown_ordinal(templates):
    data = MAGIC + b"\x01" + (1).to_bytes(2, "little") + (999).to_bytes(2, "little") + b"\x00"
    with pytest.raises(PayloadError) as exc:
        deserialize_payload(data, templates)
    assert exc.value.code is PayloadErrorCode.UNKNOWN_ORDINAL


def test_unknown_ordinal_is_reported_before_the_missing_arg_count(templates):
    data = MAGIC + b"\x01" + (1).to_bytes(2, "little") + (999).to_bytes(2, "little")
    with pytest.raises(PayloadError) as exc:
        deserialize_payload(data, templates)
    assert exc.value.code is PayloadErrorCode.UNKNOWN_ORDINAL


def test_unknown_arg_tag(templates):
    data = (
        MAGIC
        + b"\x01"
        + (1).to_bytes(2, "little")
        + (3).to_bytes(2, "little")
        + b"\x01"          # one arg
        + b"\x09"          # bogus tag
    )
    with pytest.raises(PayloadError) as exc:
        deserialize_payload(data, templates)
    assert exc.value.code is PayloadErrorCode.UNKNOWN_ARG_TAG


def test_serialization_depends_only_on_ordinals(templates):
    # renaming a template must not change the encoding: encode under the
    # bundled set, decode under a renamed clone
    import dataclasses

    from teefuzz.templates import TemplateSet

    renamed = TemplateSet(
        [dataclasses.replace(t, name=f"X{t.ordinal}") for t in templates.templates]
    )
    rng = Random(5)
    for _ in range(50):
        tc = generate_testcase(templates, rng, 8)
        assert deserialize_payload(serialize_payload(tc), renamed) == tc


def test_all_arg_kinds_roundtrip(templates):
    alloc = templates.by_name["TEE_AllocateOperation"]
    free = templates.by_name["TEE_FreeOperation"]
    attr = templates.by_name["TEE_InitRefAttribute"]
    tc = TestCase(
        (
            Syscall(
                alloc.ordinal,
                (
                    ArgValue.const_enum(0x10),
                    ArgValue.const_enum(0),
                    ArgValue.scalar32(0xDEADBEEF),
                ),
            ),
            Syscall(attr.ordinal, (ArgValue.const_enum(0xC0), ArgValue.buffer(bytes(range(32))))),
            Syscall(free.ordinal, (ArgValue.resource_ref(0),)),
        )
    )
    assert deserialize_payload(serialize_payload(tc), templates) == tc


# --- the table-driven codec, kept as the reference ---------------------------
#
# The codec packs and unpacks with precompiled structs and no kind -> tag
# table.  These are the versions it replaced: the bytes, the decoded cases
# and every error code and message must stay exactly theirs.

_TAG = {
    ArgKind.SCALAR32: 0,
    ArgKind.SCALAR64: 1,
    ArgKind.BUFFER: 2,
    ArgKind.RESOURCE_REF: 3,
    ArgKind.CONST_ENUM: 4,
}


def _serialize_reference(tc):
    out = bytearray(MAGIC)
    out.append(1)
    out += struct.pack("<H", len(tc.calls))
    for call in tc.calls:
        out += struct.pack("<HB", call.ordinal, len(call.args))
        for arg in call.args:
            out.append(_TAG[arg.kind])
            if arg.kind is ArgKind.SCALAR32 or arg.kind is ArgKind.CONST_ENUM:
                out += struct.pack("<I", arg.value)
            elif arg.kind is ArgKind.SCALAR64:
                out += struct.pack("<Q", arg.value)
            elif arg.kind is ArgKind.BUFFER:
                if len(arg.value) > 0xFFFF:
                    raise PayloadError(PayloadErrorCode.BUFFER_TOO_LONG, f"{len(arg.value)} bytes")
                out += struct.pack("<H", len(arg.value))
                out += arg.value
            else:
                out += struct.pack("<H", arg.value)
    return bytes(out)


def _deserialize_reference(data, templates):
    end = len(data)
    if end < 4 or data[:4] != MAGIC:
        if end >= 4:
            raise PayloadError(PayloadErrorCode.BAD_MAGIC)
        raise PayloadError(PayloadErrorCode.TRUNCATED, "short header")
    if end < 7:
        raise PayloadError(PayloadErrorCode.TRUNCATED, "short header")
    if data[4] != 1:
        raise PayloadError(PayloadErrorCode.BAD_VERSION, f"version {data[4]}")
    count = data[5] | (data[6] << 8)
    pos = 7
    calls = []
    try:
        for _ in range(count):
            ordinal = data[pos] | (data[pos + 1] << 8)
            if ordinal not in templates.by_ordinal:
                raise PayloadError(PayloadErrorCode.UNKNOWN_ORDINAL, str(ordinal))
            argc = data[pos + 2]
            pos += 3
            args = []
            for _ in range(argc):
                tag = data[pos]
                pos += 1
                if tag == 0 or tag == 4:
                    if pos + 4 > end:
                        raise IndexError
                    kind = ArgKind.SCALAR32 if tag == 0 else ArgKind.CONST_ENUM
                    args.append(ArgValue(kind, struct.unpack_from("<I", data, pos)[0]))
                    pos += 4
                elif tag == 1:
                    if pos + 8 > end:
                        raise IndexError
                    args.append(ArgValue(ArgKind.SCALAR64, struct.unpack_from("<Q", data, pos)[0]))
                    pos += 8
                elif tag == 2:
                    if pos + 2 > end:
                        raise IndexError
                    blen = data[pos] | (data[pos + 1] << 8)
                    pos += 2
                    if pos + blen > end:
                        raise IndexError
                    args.append(ArgValue(ArgKind.BUFFER, data[pos : pos + blen]))
                    pos += blen
                elif tag == 3:
                    if pos + 2 > end:
                        raise IndexError
                    args.append(ArgValue(ArgKind.RESOURCE_REF, data[pos] | (data[pos + 1] << 8)))
                    pos += 2
                else:
                    raise PayloadError(PayloadErrorCode.UNKNOWN_ARG_TAG, str(tag))
            calls.append(Syscall(ordinal, tuple(args)))
    except IndexError:
        raise PayloadError(PayloadErrorCode.TRUNCATED, f"at offset {pos}")
    return TestCase(tuple(calls))


def _decoded(decode, data, templates):
    """The decoded case, or the code and message of the PayloadError."""
    try:
        return decode(data, templates)
    except PayloadError as e:
        return e.code, str(e)


def _edge_case(templates, buffer_len):
    attr = templates.by_name["TEE_InitRefAttribute"].ordinal
    free = templates.by_name["TEE_FreeOperation"].ordinal
    malloc = templates.by_name["TEE_Malloc"].ordinal
    # the encoder does not type-check against templates; every kind at both
    # ends of its range, behind an ordinal the decoder knows
    return TestCase(
        (
            Syscall(malloc, (ArgValue.scalar32(0), ArgValue.scalar32(U32_MAX))),
            Syscall(malloc, (ArgValue.scalar64(0), ArgValue.scalar64(U64_MAX))),
            Syscall(attr, (ArgValue.const_enum(0), ArgValue.const_enum(U32_MAX))),
            Syscall(free, (ArgValue.resource_ref(0), ArgValue.resource_ref(0xFFFF))),
            Syscall(attr, (ArgValue.buffer(b""), ArgValue.buffer(bytes(buffer_len)))),
            Syscall(free, ()),
        )
    )


def _cases(templates, n):
    rng = Random(99)
    tc = generate_testcase(templates, rng, 64)
    for k in range(n):
        if k % 2:
            tc = generate_testcase(templates, rng, 1 + k % 64)
        else:
            tc = mutate_testcase(tc, templates, rng, 64)
        yield tc


def test_encoder_matches_the_table_driven_reference(templates):
    for tc in _cases(templates, 10_000):
        assert serialize_payload(tc) == _serialize_reference(tc)


@pytest.mark.parametrize("buffer_len", [0, 1, 255, 65_535])
def test_edge_values_encode_and_decode_as_the_reference(templates, buffer_len):
    tc = _edge_case(templates, buffer_len)
    data = serialize_payload(tc)
    assert data == _serialize_reference(tc)
    assert deserialize_payload(data, templates) == _deserialize_reference(data, templates) == tc


def test_every_strict_prefix_is_truncated_with_the_reference_message(templates):
    payloads = [serialize_payload(tc) for tc in _cases(templates, 40)]
    payloads.append(serialize_payload(_edge_case(templates, 3)))
    for data in payloads:
        for cut in range(len(data)):
            got = _decoded(deserialize_payload, data[:cut], templates)
            assert got[0] is PayloadErrorCode.TRUNCATED
            assert got == _decoded(_deserialize_reference, data[:cut], templates), cut


def test_decoder_matches_the_reference_on_damaged_payloads(templates):
    rng = Random(7)
    codes = set()
    for tc in _cases(templates, 1_000):
        data = bytearray(serialize_payload(tc))
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.choice((0, 1, 2, 3, 4, 5, 0xFF, rng.getrandbits(8)))
        data = bytes(data[: rng.randint(0, len(data))] if rng.random() < 0.3 else data)
        want = _decoded(_deserialize_reference, data, templates)
        assert _decoded(deserialize_payload, data, templates) == want
        if isinstance(want, tuple):
            codes.add(want[0])
    assert codes >= {
        PayloadErrorCode.BAD_MAGIC,
        PayloadErrorCode.BAD_VERSION,
        PayloadErrorCode.TRUNCATED,
        PayloadErrorCode.UNKNOWN_ORDINAL,
        PayloadErrorCode.UNKNOWN_ARG_TAG,
    }


def test_each_param_kind_is_its_args_kind_and_wire_tag(templates):
    rng = Random(3)
    specs = [spec for t in templates for spec in t.params]
    for spec in specs:
        arg = _gen_arg_value(rng, spec, {spec.resource_kind: [0]})
        assert arg.kind is spec.kind
        assert spec.kind.value == _TAG[spec.kind]
