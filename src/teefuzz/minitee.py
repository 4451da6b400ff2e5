"""MiniTEE: a deterministic simulated Trusted OS used as the fuzzing target.

The simulator implements a GP-flavoured crypto syscall surface over two
handle structures whose leading fields are ground-truth state variables.
Each handler is a hand-authored branching program; walking it emits
branch-trace packets from the secure address window, interleaved with
normal-world noise packets.  The dispatcher decodes each call's arguments
to numbers before the handler runs, and a handler branches on the very
bit it records (_Walk.bit), so each decision is written once.  Five bugs
are seeded (BUG_FRAMES), exactly one of which (B4) is gated behind the
key_set_and_initialized state, so that state feedback has something
measurable to win.

The probe uses one method, execute_payload(), which runs a payload from
the power-on state and returns each executed call's trace, return code
and a snapshot of every live handle buffer.  Nothing else of the target
is read from outside.

Given a fixed campaign seed, execution is a pure function of the payload
bytes, and call i's result is a function of calls 0..i alone.  Call i's
noise key is one splitmix64 finalizer of the campaign key xor the CRC-32
of the payload's call bytes up to and including call i.  The noise key
seeds a Weyl sequence that picks the trace noise packets from a fixed
table as the handler walks, it derives the noise words of every live
handle by multiplication, and it keys the self-pointer of an operation
allocated by the call.  Allocation addresses come from counters.  Noise
never reaches feedback: coverage drops normal-world packets, and state
inference rejects every noise word as volatile.  So a MiniTee can resume
a payload from the cached state after a prefix of its calls, as snapshot
fuzzers resume a target, and simulate only the calls after it.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from collections import OrderedDict
from typing import NamedTuple

from .payload import PayloadError, deserialize_payload
from .templates import ArgKind, TemplateSet, load_bundled_templates
from .tracecov import NOISE_RANGE, SECURE_RANGE, TracePacket

_M64 = 0xFFFFFFFFFFFFFFFF
_WEYL = 0x9E3779B97F4A7C15  # odd increment of the per-call noise sequence
_BUFFER = ArgKind.BUFFER
_REF = ArgKind.RESOURCE_REF
_new = tuple.__new__  # builds named tuples without their Python __new__
# noise layouts: operation keyBuffer 24..39 and iv/scratch 44..63 (selfPointer
# at 40 changes only per allocation); object 16..47
_OP_KEY_NOISE = struct.Struct("<QQ")
_OP_SCRATCH_NOISE = struct.Struct("<QQI")
_OBJ_NOISE = struct.Struct("<QQQQ")

# the most post-call states (_Node) one MiniTee caches
CACHE_NODES = 2_000
# slots of the direct-mapped record of prefixes seen once: a prefix's CRC-32
# picks its slot by the low bits and leaves its high 16 bits there, so two
# prefixes rarely pass for one, and then only a node is cached early
_SEEN_SLOTS = 1 << 14
_ADDR_BASE = 0x4000_0000

# --- GP-flavoured constants ---------------------------------------------------

ALG_AES_CBC = 0x10
ALG_AES_CTR = 0x30
ALG_HMAC_SHA256 = 0x70
ALG_HMAC_SHA1 = 0x71
ALG_INVALID = 0xF0

CLASS_CIPHER = 1
CLASS_MAC = 2

MODE_ENCRYPT = 0
MODE_DECRYPT = 1
MODE_MAC = 4

OBJ_TYPE_AES = 0xA0
OBJ_TYPE_HMAC = 0xA1
OBJ_TYPE_GENERIC = 0xA2
# block 2 of TEE_AllocateTransientObject; 0 marks an unsupported type
_OBJ_TYPE_BITS = {OBJ_TYPE_AES: 1, OBJ_TYPE_HMAC: 2, OBJ_TYPE_GENERIC: 3}

KEY_TYPE_FOR_ALG = {
    ALG_AES_CBC: OBJ_TYPE_AES,
    ALG_AES_CTR: OBJ_TYPE_AES,
    ALG_HMAC_SHA256: OBJ_TYPE_HMAC,
    ALG_HMAC_SHA1: OBJ_TYPE_HMAC,
}

# handleState values
HS_ALLOCATED = 0
HS_KEY_SET = 1
HS_KEY_SET_INITIALIZED = 3
# operationState values
OS_INITIAL = 0
OS_ACTIVE = 1

RET_OK = 0x00000000
RET_BAD_PARAM = 0xFFFF0006
RET_BAD_STATE = 0xFFFF0007
RET_BAD_HANDLE = 0xFFFF0008
RET_NOT_SUPPORTED = 0xFFFF000A
RET_NO_MEMORY = 0xFFFF000C
RET_SHORT_BUFFER = 0xFFFF0010
RET_MAC_INVALID = 0xFFFF0012
_STATE_ERRORS = (RET_BAD_STATE, RET_BAD_HANDLE)  # set bit 1 of the return block

OP_HANDLE_SIZE = 64
OBJ_HANDLE_SIZE = 48

# offsets of the ground-truth state fields inside the handle buffers
OP_STATE_OFFSETS = (0, 4, 8, 12, 16, 20)  # alg, mode, class, handleState, opState, keySize
OBJ_STATE_OFFSETS = (0, 4, 8, 12)         # type, usage, flags, committed attr count
GROUND_TRUTH_REGIONS = tuple(
    [("object", off) for off in OBJ_STATE_OFFSETS]
    + [("operation", off) for off in OP_STATE_OFFSETS]
)

MAX_KEY_BITS = 1024
MAX_OBJ_SIZE = 1024
VALID_KEY_LENS = (16, 24, 32)  # AES-128/192/256-sized secrets only
ATTR_COMMIT_CAP = 4           # attribute slots actually committed
ATTR_OVERFLOW_COUNT = 16      # B2 fires above this
CHUNK_OVERFLOW_SIZE = 65536   # B4 fires above this, only in the deep state
MALLOC_LIMIT = 0x0010_0000    # B1 fires above this
DATA_LIMIT = 4096             # clean length-check ceiling for final calls
MAX_LIVE_HANDLES = 1          # per kind; the target has one slot of each

FAULT_HARD = "hard_fault"
FAULT_MEM_OVERWRITE = "mem_overwrite"
FAULT_NULL_DEREF = "null_deref"
FAULT_UNTRUSTED_DEREF = "untrusted_deref"
FAULT_RESOURCE_EXHAUSTION = "resource_exhaustion"


class FaultRecord(NamedTuple):
    kind: str
    frames: tuple[str, ...]
    faulting_call_index: int


class HandleSnapshot(NamedTuple):
    handle_id: int
    kind: str  # "operation" | "object"
    data: bytes


class SyscallResult(NamedTuple):
    trace: tuple[TracePacket, ...]
    snapshots: tuple[HandleSnapshot, ...]
    return_code: int


class ExecutionResult(NamedTuple):
    per_syscall: list[SyscallResult]
    fault: FaultRecord | None


# Stack frames of the seeded bugs; a crash id is the top three.
#   B1  TEE_Malloc above MALLOC_LIMIT exhausts the secure heap
#   B2  TEE_PopulateTransientObject above ATTR_OVERFLOW_COUNT attributes
#   B3  TEE_MACCompareFinal on a null operation
#   B4  TEE_MACUpdate above CHUNK_OVERFLOW_SIZE, on a MAC operation in
#       handleState 3 (key_set_and_initialized) only
#   B5  TEE_CipherInit through a freed operation handle
BUG_FRAMES = {
    "B1": ("pool_reserve", "tee_malloc", "syscall_dispatch", "ta_invoke_entry"),
    "B2": (
        "utee_from_attr",
        "tee_populate_transient_object",
        "syscall_dispatch",
        "ta_invoke_entry",
    ),
    "B3": ("mac_ctx_load", "tee_mac_compare_final", "syscall_dispatch", "ta_invoke_entry"),
    "B4": ("mac_absorb_block", "tee_mac_update", "syscall_dispatch", "ta_invoke_entry"),
    "B5": ("op_validate_magic", "tee_cipher_init", "syscall_dispatch", "ta_invoke_entry"),
}
DECODE_FRAMES = ("payload_decode", "ta_process_payload", "ta_main_loop")


def _mix(x: int) -> int:
    # splitmix64 finalizer: cheap, stable, well distributed
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _mag3(v: int) -> int:
    """3-bit magnitude bucket of an unsigned value (0..7)."""
    if v <= 0:
        return 0
    return min(7, (v.bit_length() + 3) // 4)


def _noise_packet(m: int) -> TracePacket:
    nb = 1 + ((m >> 28) & 0x7)
    return TracePacket(NOISE_RANGE[0] + (m & 0x0FFF_FFFF), nb, (m >> 31) & ((1 << nb) - 1))


# the normal-world noise packets; each step of a call's noise sequence
# picks one by its top byte
_NOISE = [_noise_packet(_mix(i + 1)) for i in range(256)]
# secure packets, one object per distinct packet in the process, keyed by
# address << 16 | bit count << 8 | bits
_SECURE: dict[int, TracePacket] = {}


class _Handle:
    __slots__ = ("hid", "kind", "buf", "live", "max_key_bits", "key_len")

    def __init__(self, hid: int, kind: str, buf: bytearray | None):
        self.hid = hid
        self.kind = kind
        self.buf = buf
        self.live = True
        self.max_key_bits = 0
        self.key_len = 0

    def get32(self, off: int) -> int:
        return int.from_bytes(self.buf[off : off + 4], "little")

    def set32(self, off: int, value: int) -> None:
        self.buf[off : off + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")


class _Fault(Exception):
    def __init__(self, bug_id: str, kind: str):
        self.kind = kind
        self.frames = BUG_FRAMES[bug_id]


class _Walk:
    """The trace of one call, noise included, built as it walks.

    execute_payload emits block 0 before the handler and blocks 14 and 15
    after it.  Every call to b() records one secure block packet; blocks
    0, 2, 4, ... are each preceded by one normal-world noise packet, so
    noise is at least a third of every per-syscall trace by construction.
    A Weyl sequence (one add per packet) seeded with the call's noise key
    picks each noise packet from the fixed table _NOISE; secure packets
    come from the process-wide _SECURE, so a trace holds only shared
    packets.  bit() records a block holding one decision and returns that
    decision, so a handler that branches on it takes the branch its trace
    records.
    """

    __slots__ = ("base", "key", "trace", "noise", "even")

    def __init__(self, base: int, noise_key: int):
        self.base = base
        self.key = base << 16
        self.trace: list[TracePacket] = []
        self.noise = noise_key
        self.even = True

    def b(self, block_id: int, nbits: int, bits: int) -> None:
        trace = self.trace
        if self.even:
            k = self.noise = (self.noise + _WEYL) & _M64
            trace.append(_NOISE[k >> 56])
        self.even = not self.even
        key = self.key + (block_id << 19 | nbits << 8 | bits)
        p = _SECURE.get(key)
        if p is None:
            p = _SECURE[key] = _new(TracePacket, (self.base + block_id * 8, nbits, bits))
        trace.append(p)

    def bit(self, block_id: int, taken):
        self.b(block_id, 1, 1 if taken else 0)
        return taken


class _Node:
    """The target just after one call of a cached call prefix.

    `key` is (the node of the prefix one call shorter, or None for the
    power-on state; the call's payload bytes).  `result` is the call's
    immutable SyscallResult, handed out as it is each time the cache
    serves the call; `value` is what a later ref to the call reads.
    `state` packs, as unsigned 16-bit words, the handle count, then per
    handle (kind | live << 1, max_key_bits, key_len) and per entry of the
    attrs, ivs, chunks and mems maps (address index, map index, value).
    Live handle buffers are the result's snapshot data; a freed handle's
    buffer is never read again, so it is not kept.
    """

    __slots__ = ("key", "result", "value", "state")

    def __init__(self, key, result, value, state):
        self.key = key
        self.result = result
        self.value = value
        self.state = state


class MiniTee:
    """One simulated target instance.  Single-threaded; one per worker.

    execute_payload resumes each payload from the longest prefix of its
    calls whose post-call state is cached as a _Node, and simulates only
    the calls after it.  A prefix's node is admitted on the prefix's second
    visit, and only if the node of the prefix one call shorter is cached.
    At most CACHE_NODES nodes are kept, the least recently used dropped
    first.  Each execution marks its nodes used deepest first, so a node
    is dropped before the node it extends, and a key never holds a node
    the cache has dropped.
    """

    def __init__(self, campaign_seed: int, templates: TemplateSet | None = None):
        self.campaign_seed = campaign_seed & _M64
        self.templates = templates if templates is not None else load_bundled_templates()
        self._campaign_key = _mix(self.campaign_seed ^ 0x7EE5_0F0F_5EED_0001)
        by_name = self.templates.by_name
        # ordinal -> (handler, base address of its blocks, template arity)
        self._dispatch: dict[int, tuple] = {}
        for name, (handler, arity) in _HANDLERS.items():
            t = by_name.get(name)
            if t is None:
                raise ValueError(f"template set lacks required syscall {name}")
            self._dispatch[t.ordinal] = (handler, SECURE_RANGE[0] + 0x1000 * (t.ordinal + 1), arity)
        unknown = sorted(set(by_name) - set(_HANDLERS))
        if unknown:
            raise ValueError(f"template set names syscalls the target lacks: {', '.join(unknown)}")
        self._cache: OrderedDict[tuple[_Node | None, bytes], _Node] = OrderedDict()
        self._seen = array("H", [0]) * _SEEN_SLOTS
        self.reset()

    # --- probe-visible surface ------------------------------------------------

    def reset(self) -> None:
        """Power-cycle: handles freed, allocator and noise keys rewound."""
        self.handles: dict[int, _Handle] = {}
        self.attrs: dict[int, int] = {}   # addr -> key material length (bytes)
        self.ivs: dict[int, int] = {}     # addr -> iv length
        self.chunks: dict[int, int] = {}  # addr -> chunk length
        self.mems: dict[int, int] = {}    # addr -> 1 while allocated, 0 once freed
        self._next_handle = 0
        self._next_addr = 0
        self._call_key = 0

    def execute_payload(self, data: bytes) -> ExecutionResult:
        """Run one payload from the power-on state.

        Call i's noise key is the splitmix64 finalizer of the campaign key
        xor the CRC-32 of the payload's call bytes up to and including call
        i, so call i's whole result depends on calls 0..i only, and a cached
        prefix gives the result its calls would.  A cached call's
        SyscallResult is the very object its first run made.
        """
        bounds: list[int] = []
        try:
            calls = deserialize_payload(data, self.templates, bounds).calls
        except PayloadError:
            self.reset()
            return ExecutionResult(per_syscall=[], fault=FaultRecord(FAULT_HARD, DECODE_FRAMES, 0))
        cache = self._cache
        per_syscall: list[SyscallResult] = []
        results: list[int] = []
        path: list[_Node] = []
        parent = None
        start = bounds[0]
        for end in bounds[1:]:
            node = cache.get((parent, data[start:end]))
            if node is None:
                break
            path.append(node)
            per_syscall.append(node.result)
            results.append(node.value)
            parent = node
            start = end
        if path:
            self._restore(path[-1])
            crc = zlib.crc32(data[bounds[0] : start])
        else:
            self.reset()
            crc = 0
        campaign_key = self._campaign_key
        seen = self._seen
        admit = True
        fault: FaultRecord | None = None
        for idx in range(len(path), len(calls)):
            call = calls[idx]
            end = bounds[idx + 1]
            call_bytes = data[start:end]
            start = end
            crc = zlib.crc32(call_bytes, crc)
            self._call_key = noise_key = _mix(campaign_key ^ crc)
            handler, base, arity = self._dispatch[call.ordinal]
            w = _Walk(base, noise_key)
            args = call.args
            w.b(0, 1, 1 if len(args) == arity else 0)
            # Decoded payloads need not be validator-clean, so each argument
            # reads as a number with safe defaults: a buffer as its length, a
            # ref as the result of the earlier call it names (else 0), a
            # missing argument as 0; an extra argument is ignored.
            nums = []
            for a in args[:arity]:
                v = a.value
                if a.kind is _BUFFER:
                    v = len(v)
                elif a.kind is _REF:
                    v = results[v] if 0 <= v < len(results) else 0
                nums.append(v)
            nums += [0] * (arity - len(nums))
            try:
                ret, value = handler(self, w, call, *nums)
            except _Fault as f:
                fault = FaultRecord(f.kind, f.frames, idx)
                break
            w.b(14, 2, 0 if ret == RET_OK else 1 | (2 if ret in _STATE_ERRORS else 0))
            w.b(15, 1, 1)
            results.append(value)
            sr = _new(SyscallResult, (tuple(w.trace), self._refresh_noise(noise_key), ret))
            per_syscall.append(sr)
            slot, tag = crc & (_SEEN_SLOTS - 1), crc >> 16
            if admit and seen[slot] == tag:
                parent = _Node((parent, call_bytes), sr, value, self._pack())
                cache[parent.key] = parent
                path.append(parent)
            else:
                seen[slot] = tag
                admit = False
        # deepest first, so that the least recent node is never a prefix of
        # a cached node
        for node in reversed(path):
            cache.move_to_end(node.key)
        while len(cache) > CACHE_NODES:
            cache.popitem(last=False)
        return ExecutionResult(per_syscall=per_syscall, fault=fault)

    # --- internals --------------------------------------------------------------

    def _refresh_noise(self, noise_key: int) -> tuple[HandleSnapshot, ...]:
        """Rewrite the non-state regions of every live handle; snapshot them.

        A handle's noise word is the call's noise key xor its id, times an
        odd constant; the operation scratch word is that word times a
        second odd constant.  Both maps are bijections of the noise key,
        which differs per campaign and call prefix, so every noise word
        accumulates far more than 80 distinct values over any real
        pre-fuzzing run while execution stays deterministic.  Returns the
        live-handle snapshots in allocation order.
        """
        snaps = []
        for h in self.handles.values():
            if not h.live:
                continue
            k = ((noise_key ^ h.hid) * 0xFF51AFD7ED558CCD) & _M64
            buf = h.buf
            if h.kind == "operation":
                _OP_KEY_NOISE.pack_into(buf, 24, k, k)
                k2 = (k * 0xC4CEB9FE1A85EC53) & _M64
                _OP_SCRATCH_NOISE.pack_into(buf, 44, k2, k2, k2 & 0xFFFFFFFF)
            else:
                _OBJ_NOISE.pack_into(buf, 16, k, k, k, k)
            snaps.append(_new(HandleSnapshot, (h.hid, h.kind, bytes(buf))))
        return tuple(snaps)

    def _pack(self) -> bytes:
        """The machine state but the live buffers, as _Node.state."""
        words = [len(self.handles)]
        for h in self.handles.values():
            words += ((h.kind == "operation") | h.live << 1, h.max_key_bits, h.key_len)
        for i, addrs in enumerate((self.attrs, self.ivs, self.chunks, self.mems)):
            for addr, v in addrs.items():
                words += ((addr - _ADDR_BASE) >> 4, i, v)
        return array("H", words).tobytes()

    def _restore(self, node: _Node) -> None:
        """Set the machine to its state just after `node`'s call."""
        words = memoryview(node.state).cast("H").tolist()
        self.reset()
        handles = self.handles
        snapshots = iter(node.result.snapshots)  # the live handles, in order
        n = self._next_handle = words[0]
        for i in range(1, 3 * n + 1, 3):
            hid = 0x100 + (i + 2) // 3
            kind = "operation" if words[i] & 1 else "object"
            h = handles[hid] = _Handle(hid, kind, None)
            if words[i] & 2:
                h.buf = bytearray(next(snapshots).data)
            else:
                h.live = False
            h.max_key_bits, h.key_len = words[i + 1], words[i + 2]
        maps = (self.attrs, self.ivs, self.chunks, self.mems)
        for i in range(3 * n + 1, len(words), 3):
            maps[words[i + 1]][_ADDR_BASE + 16 * words[i]] = words[i + 2]
        self._next_addr = len(words) // 3 - n

    def _alloc_handle(self, kind: str, size: int) -> _Handle:
        self._next_handle += 1
        hid = 0x100 + self._next_handle
        h = _Handle(hid, kind, bytearray(size))
        self.handles[hid] = h
        if kind == "operation":
            ptr = _mix(self._call_key ^ (self._next_handle * 0xC2B2AE3D27D4EB4F))
            h.buf[40:44] = (ptr & 0xFFFFFFFF).to_bytes(4, "little")
        return h

    def _live_handles(self, kind: str) -> int:
        return sum(h.live and h.kind == kind for h in self.handles.values())

    def _alloc_addr(self) -> int:
        self._next_addr += 1
        return _ADDR_BASE + 16 * self._next_addr

    @staticmethod
    def _bytes_arg(call, i: int) -> bytes:
        # the raw bytes of a buffer argument; anything else reads as empty
        if i >= len(call.args):
            return b""
        a = call.args[i]
        return a.value if a.kind is _BUFFER else b""

    def _live(self, w, block_id: int, kind: str, value: int) -> _Handle | None:
        """Record whether value names a live handle of this kind; return it."""
        h = self.handles.get(value)
        return h if w.bit(block_id, h is not None and h.kind == kind and h.live) else None

    # --- handlers -------------------------------------------------------------
    #
    # Each handler is a small branching program; w.b(block, nbits, bits)
    # records one basic block with the branch decisions taken inside it
    # (first decision = LSB), and w.bit(block, taken) records a block with
    # one decision and returns it, so `if not w.bit(...)` branches on the
    # bit it records.  Block ids are static per handler.  A handler takes
    # the call (for the raw bytes of a buffer) and its arguments as
    # numbers, decoded by execute_payload, and returns (code, value);
    # execute_payload emits block 0, the arity check, before it and blocks
    # 14/15, the shared return path, after it.

    def _h_allocate_operation(self, w, call, alg, mode, max_key):
        if alg in (ALG_AES_CBC, ALG_AES_CTR):
            cls = CLASS_CIPHER
            w.b(2, 2, 1 | (2 if alg == ALG_AES_CTR else 0))
        else:
            w.b(2, 2, 2 if alg == ALG_HMAC_SHA1 else 0)
            if not w.bit(3, alg in (ALG_HMAC_SHA256, ALG_HMAC_SHA1)):
                return RET_NOT_SUPPORTED, 0
            cls = CLASS_MAC
        mode_ok = (cls == CLASS_CIPHER and mode in (MODE_ENCRYPT, MODE_DECRYPT)) or (
            cls == CLASS_MAC and mode == MODE_MAC
        )
        w.b(4, 2, (1 if mode_ok else 0) | (2 if mode == MODE_DECRYPT else 0))
        if not mode_ok:
            return RET_NOT_SUPPORTED, 0
        w.b(5, 3, _mag3(max_key))
        # size-class rounding of the context allocation
        w.b(10, 5, _mag3(max_key) | ((mode & 3) << 3))
        if not w.bit(6, max_key <= MAX_KEY_BITS):
            return RET_NO_MEMORY, 0
        if not w.bit(9, self._live_handles("operation") < MAX_LIVE_HANDLES):
            return RET_NO_MEMORY, 0
        h = self._alloc_handle("operation", OP_HANDLE_SIZE)
        h.max_key_bits = max_key
        h.set32(0, alg)
        h.set32(4, mode)
        h.set32(8, cls)
        h.set32(12, HS_ALLOCATED)
        h.set32(16, OS_INITIAL)
        h.set32(20, 0)
        w.b(7, 2, 1 | (2 if cls == CLASS_MAC else 0))
        return RET_OK, h.hid

    def _h_free_operation(self, w, call, v):
        if not w.bit(2, v != 0):
            return RET_BAD_HANDLE, 0
        h = self.handles.get(v)
        if h is None or h.kind != "operation" or not w.bit(3, h.live):
            return RET_BAD_HANDLE, 0
        w.b(4, 2, h.get32(12) & 3)
        w.b(5, 1, 1 if h.get32(16) == OS_ACTIVE else 0)
        h.live = False
        return RET_OK, 0

    def _h_reset_operation(self, w, call, v):
        h = self.handles.get(v)
        # block 2 records that the handle exists; liveness is tested unrecorded
        if not w.bit(2, h is not None and h.kind == "operation") or not h.live:
            return RET_BAD_HANDLE, 0
        hs = h.get32(12)
        w.b(3, 2, hs & 3)
        if not w.bit(4, hs != HS_ALLOCATED):
            return RET_BAD_STATE, 0
        h.set32(12, HS_KEY_SET)
        h.set32(16, OS_INITIAL)
        return RET_OK, 0

    def _h_set_operation_key(self, w, call, v, kv):
        h = self._live(w, 2, "operation", v)
        if h is None:
            return RET_BAD_HANDLE, 0
        obj = self._live(w, 3, "object", kv)
        if obj is None:
            return RET_BAD_HANDLE, 0
        if not w.bit(4, h.get32(12) != HS_KEY_SET_INITIALIZED):
            return RET_BAD_STATE, 0
        if not w.bit(5, obj.get32(8) & 1):  # not populated: no key material committed
            return RET_BAD_STATE, 0
        otype = obj.get32(0)
        cls = h.get32(8)
        type_ok = (cls == CLASS_CIPHER and otype in (OBJ_TYPE_AES, OBJ_TYPE_GENERIC)) or (
            cls == CLASS_MAC and otype in (OBJ_TYPE_HMAC, OBJ_TYPE_GENERIC)
        )
        w.b(6, 2, (1 if type_ok else 0) | (2 if otype == OBJ_TYPE_GENERIC else 0))
        if not type_ok:
            return RET_BAD_PARAM, 0
        key_bits = obj.key_len * 8
        w.b(7, 3, _mag3(key_bits))
        if not w.bit(8, obj.key_len in VALID_KEY_LENS and key_bits <= h.max_key_bits):
            return RET_BAD_PARAM, 0
        h.set32(12, HS_KEY_SET)
        h.set32(16, OS_INITIAL)
        h.set32(20, key_bits)
        return RET_OK, 0

    def _h_cipher_init(self, w, call, v, ivv):
        if not w.bit(2, v != 0):
            return RET_BAD_PARAM, 0
        h = self.handles.get(v)
        if not w.bit(3, h is not None and h.kind == "operation"):
            return RET_BAD_HANDLE, 0
        if not h.live:
            # missing liveness validation: the handler walks the freed
            # handle's stale self-pointer (seeded bug B5)
            raise _Fault("B5", FAULT_UNTRUSTED_DEREF)
        if not w.bit(4, h.get32(8) == CLASS_CIPHER):
            return RET_NOT_SUPPORTED, 0
        if not w.bit(5, h.get32(12) in (HS_KEY_SET, HS_KEY_SET_INITIALIZED)):
            return RET_BAD_STATE, 0
        iv_len = self.ivs.get(ivv)
        if not w.bit(6, iv_len is not None):
            return RET_BAD_PARAM, 0
        w.b(7, 3, _mag3(iv_len))
        w.b(9, 5, _mag3(iv_len) | ((h.get32(12) & 3) << 3))
        if not w.bit(8, iv_len == 16):
            return RET_BAD_PARAM, 0
        h.set32(12, HS_KEY_SET_INITIALIZED)
        h.set32(16, OS_INITIAL)
        return RET_OK, 0

    def _check_update_target(self, w, v, want_class):
        """Shared null/dead/class/state prologue for update and final calls.

        Returns (handle, None) when the deep region is reached, else
        (None, error return pair).
        """
        h = self._live(w, 2, "operation", v)
        if h is None:
            return None, (RET_BAD_HANDLE, 0)
        if not w.bit(3, h.get32(8) == want_class):
            return None, (RET_NOT_SUPPORTED, 0)
        if not w.bit(4, h.get32(12) == HS_KEY_SET_INITIALIZED):
            return None, (RET_BAD_STATE, 0)
        return h, None

    def _h_cipher_update(self, w, call, v, src, src_len):
        h, err = self._check_update_target(w, v, CLASS_CIPHER)
        if h is None:
            return err
        chunk_len = self.chunks.get(src)
        if not w.bit(5, chunk_len is not None):
            return RET_BAD_PARAM, 0
        w.b(6, 3, _mag3(src_len))
        if not w.bit(7, src_len <= chunk_len):
            return RET_SHORT_BUFFER, 0
        w.b(8, 2, (1 if h.get32(16) == OS_INITIAL else 0) | (2 if src_len == 0 else 0))
        h.set32(16, OS_ACTIVE)
        return RET_OK, 0

    def _h_cipher_do_final(self, w, call, v, src, dst_len):
        h, err = self._check_update_target(w, v, CLASS_CIPHER)
        if h is None:
            return err
        chunk_len = self.chunks.get(src)
        if not w.bit(5, chunk_len is not None):
            return RET_BAD_PARAM, 0
        w.b(6, 3, _mag3(dst_len))
        if not w.bit(7, dst_len <= DATA_LIMIT):
            return RET_SHORT_BUFFER, 0
        w.b(8, 1, 1 if h.get32(16) == OS_ACTIVE else 0)
        w.b(9, 5, _mag3(dst_len) | ((chunk_len & 3) << 3))
        h.set32(12, HS_KEY_SET)
        h.set32(16, OS_INITIAL)
        return RET_OK, 0

    def _h_mac_init(self, w, call, v, ivv):
        h = self._live(w, 2, "operation", v)
        if h is None:
            return RET_BAD_HANDLE, 0
        if not w.bit(3, h.get32(8) == CLASS_MAC):
            return RET_NOT_SUPPORTED, 0
        if not w.bit(4, h.get32(12) in (HS_KEY_SET, HS_KEY_SET_INITIALIZED)):
            return RET_BAD_STATE, 0
        iv_len = self.ivs.get(ivv)
        # MAC configuration takes at most a small salt
        ok = iv_len is not None and iv_len <= 8
        w.b(5, 2, (0 if iv_len is None else 1) | (2 if ok else 0))
        if not ok:
            return RET_BAD_PARAM, 0
        h.set32(12, HS_KEY_SET_INITIALIZED)
        h.set32(16, OS_INITIAL)
        return RET_OK, 0

    def _h_mac_update(self, w, call, v, chunk, chunk_size):
        # the absorb path is deliberately branch-poor: progress in here is
        # visible as state, barely as coverage
        h, err = self._check_update_target(w, v, CLASS_MAC)
        if h is None:
            return err
        chunk_len = self.chunks.get(chunk)
        if not w.bit(5, chunk_len is not None):
            return RET_BAD_PARAM, 0
        if chunk_size > CHUNK_OVERFLOW_SIZE:
            # the absorb loop trusts chunkSize with no bound check (seeded
            # bug B4) -- reachable only behind the class and
            # key_set_and_initialized gates
            raise _Fault("B4", FAULT_MEM_OVERWRITE)
        if not w.bit(6, chunk_size <= chunk_len):
            return RET_SHORT_BUFFER, 0
        h.set32(16, OS_ACTIVE)
        return RET_OK, 0

    def _h_mac_compute_final(self, w, call, v, msg, msg_len):
        h, err = self._check_update_target(w, v, CLASS_MAC)
        if h is None:
            return err
        chunk_len = self.chunks.get(msg)
        if not w.bit(5, chunk_len is not None):
            return RET_BAD_PARAM, 0
        if not w.bit(6, msg_len <= DATA_LIMIT):
            return RET_SHORT_BUFFER, 0
        h.set32(12, HS_KEY_SET)
        h.set32(16, OS_INITIAL)
        return RET_OK, 0

    def _h_mac_compare_final(self, w, call, v, msg, _mac_len):
        # context load dereferences the operation before any null check
        # (seeded bug B3)
        if v == 0:
            raise _Fault("B3", FAULT_NULL_DEREF)
        w.b(2, 1, 1)
        h = self._live(w, 3, "operation", v)
        if h is None:
            return RET_BAD_HANDLE, 0
        if not w.bit(4, h.get32(8) == CLASS_MAC):
            return RET_NOT_SUPPORTED, 0
        if not w.bit(5, h.get32(12) == HS_KEY_SET_INITIALIZED):
            return RET_BAD_STATE, 0
        chunk_len = self.chunks.get(msg)
        if not w.bit(6, chunk_len is not None):
            return RET_BAD_PARAM, 0
        mac = self._bytes_arg(call, 2)
        # keyed permutation stands in for the real MAC
        expect = _mix(self._campaign_key ^ h.get32(20) ^ (chunk_len * 0x9E37))
        match = w.bit(7, len(mac) == 8 and mac == (expect & _M64).to_bytes(8, "little"))
        h.set32(12, HS_KEY_SET)
        h.set32(16, OS_INITIAL)
        return (RET_OK if match else RET_MAC_INVALID), 0

    def _h_allocate_transient_object(self, w, call, otype, max_size):
        type_bits = _OBJ_TYPE_BITS.get(otype, 0)
        w.b(2, 2, type_bits)
        if not w.bit(3, type_bits):
            return RET_NOT_SUPPORTED, 0
        w.b(4, 3, _mag3(max_size))
        w.b(7, 5, _mag3(max_size) | ((otype & 3) << 3))
        if not w.bit(5, max_size <= MAX_OBJ_SIZE):
            return RET_NO_MEMORY, 0
        if not w.bit(6, self._live_handles("object") < MAX_LIVE_HANDLES):
            return RET_NO_MEMORY, 0
        h = self._alloc_handle("object", OBJ_HANDLE_SIZE)
        h.set32(0, otype)
        h.set32(4, 0xFF)  # default usage: everything allowed
        h.set32(8, 0)
        h.set32(12, 0)
        return RET_OK, h.hid

    def _h_free_transient_object(self, w, call, v):
        h = self._live(w, 2, "object", v)
        if h is None:
            return RET_BAD_HANDLE, 0
        w.b(3, 1, 1 if h.get32(8) & 1 else 0)
        h.live = False
        return RET_OK, 0

    def _h_reset_transient_object(self, w, call, v):
        h = self._live(w, 2, "object", v)
        if h is None:
            return RET_BAD_HANDLE, 0
        w.b(3, 1, 1 if h.get32(8) & 1 else 0)
        h.set32(4, 0xFF)
        h.set32(8, 0)
        h.set32(12, 0)
        h.key_len = 0
        w.b(4, 1, 1)
        return RET_OK, 0

    def _h_populate_transient_object(self, w, call, v, av, count):
        if not w.bit(2, v != 0):
            return RET_BAD_PARAM, 0
        h = self._live(w, 3, "object", v)
        if h is None:
            return RET_BAD_HANDLE, 0
        key_len = self.attrs.get(av)
        if not w.bit(4, key_len is not None):
            return RET_BAD_PARAM, 0
        w.b(5, 3, _mag3(count))
        if count > ATTR_OVERFLOW_COUNT:
            # attrs are staged into a fixed on-stack array sized for
            # ATTR_OVERFLOW_COUNT entries before any further validation
            # (seeded bug B2)
            raise _Fault("B2", FAULT_MEM_OVERWRITE)
        if not w.bit(6, count != 0):
            return RET_BAD_PARAM, 0
        if not w.bit(7, not h.get32(8) & 1):  # not yet populated
            return RET_BAD_STATE, 0
        h.key_len = key_len
        h.set32(8, 1 | (2 if key_len > 16 else 0))
        h.set32(4, 0x30 | (h.get32(0) & 0xF))
        h.set32(12, min(count, ATTR_COMMIT_CAP))
        w.b(8, 2, (1 if key_len else 0) | (2 if count > 1 else 0))
        # copy loop shape depends on staged count and material alignment
        w.b(9, 5, _mag3(count) | ((key_len & 3) << 3))
        return RET_OK, 0

    def _h_restrict_object_usage(self, w, call, v, usage):
        h = self._live(w, 2, "object", v)
        if h is None:
            return RET_BAD_HANDLE, 0
        # usage bits above the low two of the 0x30 family are reserved
        mask = 0x30 | (usage & 0x3)
        w.b(3, 2, usage & 3)
        w.b(4, 1, 1 if h.get32(4) & mask != h.get32(4) else 0)
        w.b(5, 5, _mag3(usage) | ((usage & 3) << 3))
        h.set32(4, h.get32(4) & mask)
        return RET_OK, 0

    def _h_malloc(self, w, call, size, hint):
        w.b(2, 3, _mag3(size))
        if size > MALLOC_LIMIT:
            # the pool reserves without any ceiling (seeded bug B1)
            raise _Fault("B1", FAULT_RESOURCE_EXHAUSTION)
        w.b(3, 2, hint & 3)
        # free-list bin choice depends on both size class and pool hint
        w.b(6, 5, _mag3(size) | ((hint & 3) << 3))
        w.b(4, 1, 1 if size == 0 else 0)
        addr = self._alloc_addr()
        self.mems[addr] = 1
        w.b(5, 1, 1)
        return RET_OK, addr

    def _h_free(self, w, call, ptr):
        if not w.bit(2, ptr != 0):
            return RET_OK, 0
        alive = self.mems.get(ptr)
        w.b(3, 2, (1 if alive is not None else 0) | (2 if alive else 0))
        if not alive:
            return RET_BAD_PARAM, 0
        self.mems[ptr] = 0
        return RET_OK, 0

    def _h_init_ref_attribute(self, w, call, attr_id, _data_len):
        data = self._bytes_arg(call, 1)
        w.b(2, 1, 1 if attr_id == 0xC0 else 0)
        w.b(3, 3, _mag3(len(data)))
        w.b(5, 4, _mag3(len(data)) | (8 if attr_id == 0xC0 else 0))
        addr = self._alloc_addr()
        self.attrs[addr] = len(data)
        w.b(4, 1, 1)
        return RET_OK, addr

    def _h_init_value_attribute(self, w, call, attr_id, a, b):
        w.b(2, 1, 1 if attr_id == 0xD0 else 0)
        w.b(3, 3, _mag3(a))
        w.b(4, 1, b & 1)
        w.b(5, 5, _mag3(b) | ((a & 3) << 3))
        addr = self._alloc_addr()
        self.attrs[addr] = a & 63
        return RET_OK, addr

    def _make_buffer(self, lengths: dict[int, int], w, length, fill):
        w.b(2, 3, _mag3(length))
        w.b(3, 1, fill & 1)
        w.b(4, 5, _mag3(length) | ((fill & 3) << 3))
        addr = self._alloc_addr()
        lengths[addr] = min(length, 0xFFFF)
        return RET_OK, addr

    def _h_make_iv(self, w, call, length, fill):
        return self._make_buffer(self.ivs, w, length, fill)

    def _h_make_chunk(self, w, call, length, fill):
        return self._make_buffer(self.chunks, w, length, fill)

# name -> (handler, arity of its template)
_HANDLERS = {
    "TEE_AllocateOperation": (MiniTee._h_allocate_operation, 3),
    "TEE_FreeOperation": (MiniTee._h_free_operation, 1),
    "TEE_ResetOperation": (MiniTee._h_reset_operation, 1),
    "TEE_SetOperationKey": (MiniTee._h_set_operation_key, 2),
    "TEE_CipherInit": (MiniTee._h_cipher_init, 2),
    "TEE_CipherUpdate": (MiniTee._h_cipher_update, 3),
    "TEE_CipherDoFinal": (MiniTee._h_cipher_do_final, 3),
    "TEE_MACInit": (MiniTee._h_mac_init, 2),
    "TEE_MACUpdate": (MiniTee._h_mac_update, 3),
    "TEE_MACComputeFinal": (MiniTee._h_mac_compute_final, 3),
    "TEE_MACCompareFinal": (MiniTee._h_mac_compare_final, 3),
    "TEE_AllocateTransientObject": (MiniTee._h_allocate_transient_object, 2),
    "TEE_FreeTransientObject": (MiniTee._h_free_transient_object, 1),
    "TEE_ResetTransientObject": (MiniTee._h_reset_transient_object, 1),
    "TEE_PopulateTransientObject": (MiniTee._h_populate_transient_object, 3),
    "TEE_RestrictObjectUsage": (MiniTee._h_restrict_object_usage, 2),
    "TEE_Malloc": (MiniTee._h_malloc, 2),
    "TEE_Free": (MiniTee._h_free, 1),
    "TEE_InitRefAttribute": (MiniTee._h_init_ref_attribute, 2),
    "TEE_InitValueAttribute": (MiniTee._h_init_value_attribute, 3),
    "TEE_MakeIV": (MiniTee._h_make_iv, 2),
    "TEE_MakeChunk": (MiniTee._h_make_chunk, 2),
}
