"""Binary payload codec for shipping test cases to the execution engine.

Wire format (all multi-byte integers little-endian):

    magic   4 bytes  53 5A 54 52
    version u8       1
    count   u16      number of calls
    per call:
        ordinal   u16
        arg count u8
        per arg:  tag u8 (the arg's `ArgKind` value), then value
            tag 0 scalar32     4 bytes
            tag 1 scalar64     8 bytes
            tag 2 buffer       u16 length + bytes
            tag 3 resource_ref u16 call index
            tag 4 const_enum   4 bytes

The encoder has no lookup table: it picks each arg's tag with an `is`
chain over the kind (hashing an Enum member runs in Python), packs tag and
value with one precompiled struct and joins the pieces once.  The decoder
reads fields with precompiled unpackers and builds args and calls as plain
tuples of their named-tuple types.
"""

from __future__ import annotations

import struct
from enum import Enum

from .templates import ArgKind, TemplateSet
from .testcase import ArgValue, Syscall, TestCase

MAGIC = b"\x53\x5a\x54\x52"
VERSION = 1


class PayloadErrorCode(Enum):
    BAD_MAGIC = "bad_magic"
    BAD_VERSION = "bad_version"
    TRUNCATED = "truncated"
    UNKNOWN_ORDINAL = "unknown_ordinal"
    UNKNOWN_ARG_TAG = "unknown_arg_tag"
    BUFFER_TOO_LONG = "buffer_too_long"


class PayloadError(Exception):
    def __init__(self, code: PayloadErrorCode, detail: str = ""):
        self.code = code
        super().__init__(f"{code.value}: {detail}" if detail else code.value)


# The kind and tag chains below test the kinds in the order of how often
# they occur in a campaign: resource refs, scalar32, enums, buffers, scalar64.
_HEADER = struct.Struct("<4sBH").pack
_CALL = struct.Struct("<HB").pack
_TAG_U16 = struct.Struct("<BH").pack
_TAG_U32 = struct.Struct("<BI").pack
_TAG_U64 = struct.Struct("<BQ").pack
_U16 = struct.Struct("<H").unpack_from
_U32 = struct.Struct("<I").unpack_from
_U64 = struct.Struct("<Q").unpack_from

_new = tuple.__new__  # builds named tuples without their Python __new__


def serialize_payload(tc: TestCase) -> bytes:
    resref = ArgKind.RESOURCE_REF
    scalar32 = ArgKind.SCALAR32
    enum_k = ArgKind.CONST_ENUM
    buffer_k = ArgKind.BUFFER
    scalar64 = ArgKind.SCALAR64
    tag_u16 = _TAG_U16
    tag_u32 = _TAG_U32
    out = [_HEADER(MAGIC, VERSION, len(tc.calls))]
    append = out.append
    for ordinal, args in tc.calls:
        append(_CALL(ordinal, len(args)))
        for kind, value in args:
            if kind is resref:
                append(tag_u16(3, value))
            elif kind is scalar32:
                append(tag_u32(0, value))
            elif kind is enum_k:
                append(tag_u32(4, value))
            elif kind is buffer_k:
                if len(value) > 0xFFFF:
                    raise PayloadError(
                        PayloadErrorCode.BUFFER_TOO_LONG, f"{len(value)} bytes"
                    )
                append(tag_u16(2, len(value)))
                append(value)
            elif kind is scalar64:
                append(_TAG_U64(1, value))
            else:
                raise ValueError(f"unknown arg kind {kind!r}")
    return b"".join(out)


def deserialize_payload(
    data: bytes, templates: TemplateSet, bounds: list[int] | None = None
) -> TestCase:
    """Exact inverse of serialize_payload on its image.

    Decoding is structural: ordinals must exist in the template set (the
    executor only dispatches known syscalls) but arity and argument typing
    against templates stay the validator's job.  A given `bounds` list
    receives the offset where the calls start, then the offset just past
    each call, so call i's bytes are data[bounds[i]:bounds[i + 1]].
    """
    end = len(data)
    if end < 4 or data[:4] != MAGIC:
        if end >= 4:
            raise PayloadError(PayloadErrorCode.BAD_MAGIC)
        raise PayloadError(PayloadErrorCode.TRUNCATED, "short header")
    if end < 7:
        raise PayloadError(PayloadErrorCode.TRUNCATED, "short header")
    if data[4] != VERSION:
        raise PayloadError(PayloadErrorCode.BAD_VERSION, f"version {data[4]}")
    count = data[5] | (data[6] << 8)
    pos = 7
    if bounds is not None:
        bounds.append(pos)
    known = templates.by_ordinal
    new = _new
    u16 = _U16
    u32 = _U32
    calls = []
    resref = ArgKind.RESOURCE_REF
    scalar32 = ArgKind.SCALAR32
    enum_k = ArgKind.CONST_ENUM
    buffer_k = ArgKind.BUFFER
    scalar64 = ArgKind.SCALAR64
    # a read past the end raises IndexError (byte index) or struct.error
    # (unpack_from); either is a truncation at the field that starts at pos
    try:
        for _ in range(count):
            ordinal = data[pos] | (data[pos + 1] << 8)
            if ordinal not in known:
                raise PayloadError(PayloadErrorCode.UNKNOWN_ORDINAL, str(ordinal))
            argc = data[pos + 2]
            pos += 3
            args = []
            for _ in range(argc):
                tag = data[pos]
                pos += 1
                if tag == 3:
                    args.append(new(ArgValue, (resref, u16(data, pos)[0])))
                    pos += 2
                elif tag == 0:
                    args.append(new(ArgValue, (scalar32, u32(data, pos)[0])))
                    pos += 4
                elif tag == 4:
                    args.append(new(ArgValue, (enum_k, u32(data, pos)[0])))
                    pos += 4
                elif tag == 2:
                    blen = u16(data, pos)[0]
                    pos += 2
                    if pos + blen > end:
                        raise IndexError
                    args.append(new(ArgValue, (buffer_k, data[pos : pos + blen])))
                    pos += blen
                elif tag == 1:
                    args.append(new(ArgValue, (scalar64, _U64(data, pos)[0])))
                    pos += 8
                else:
                    raise PayloadError(PayloadErrorCode.UNKNOWN_ARG_TAG, str(tag))
            calls.append(new(Syscall, (ordinal, tuple(args))))
            if bounds is not None:
                bounds.append(pos)
    except (IndexError, struct.error):
        raise PayloadError(PayloadErrorCode.TRUNCATED, f"at offset {pos}")
    return TestCase(tuple(calls))
