"""MiniTEE: a deterministic simulated Trusted OS used as the fuzzing target.

The simulator implements a GP-flavoured crypto syscall surface over two
handle structures whose leading fields are ground-truth state variables.
Each handler is a hand-authored branching program; walking it emits
branch-trace packets from the secure address window, interleaved with
normal-world noise packets.  Five bugs are seeded, exactly one of which
(B4) is gated behind the key_set_and_initialized state, so that state
feedback has something measurable to win.

Given a fixed campaign seed, execution is a pure function of the payload
bytes: handle noise fields, trace noise and allocation addresses all
derive from (campaign seed, payload digest, counters) and nothing else.
"""

from __future__ import annotations

from typing import NamedTuple

from .payload import PayloadError, deserialize_payload
from .templates import TemplateSet, load_bundled_templates
from .testcase import ArgKind
from .tracecov import NOISE_RANGE, SECURE_RANGE, TracePacket, fnv1a64

_M64 = 0xFFFFFFFFFFFFFFFF

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
    trace: list[TracePacket]
    snapshots: list[HandleSnapshot]
    return_code: int


class ExecutionResult(NamedTuple):
    per_syscall: list[SyscallResult]
    fault: FaultRecord | None
    executed_count: int


class SeededBug(NamedTuple):
    bug_id: str
    kind: str
    trigger: str
    min_state: str


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


def seeded_bug_catalog() -> list[SeededBug]:
    return [
        SeededBug(
            "B1",
            FAULT_RESOURCE_EXHAUSTION,
            f"TEE_Malloc with len > 0x{MALLOC_LIMIT:X} exhausts the secure heap",
            "any",
        ),
        SeededBug(
            "B2",
            FAULT_MEM_OVERWRITE,
            f"TEE_PopulateTransientObject with attrCount > {ATTR_OVERFLOW_COUNT} "
            "overruns the attribute staging array",
            "object allocated",
        ),
        SeededBug(
            "B3",
            FAULT_NULL_DEREF,
            "TEE_MACCompareFinal dereferences the operation parameter without "
            "a null check",
            "any",
        ),
        SeededBug(
            "B4",
            FAULT_MEM_OVERWRITE,
            f"TEE_MACUpdate with chunkSize > {CHUNK_OVERFLOW_SIZE} overruns the "
            "absorb buffer; chunkSize is only used once the state checks pass",
            "handleState=3 (key_set_and_initialized) on a MAC operation",
        ),
        SeededBug(
            "B5",
            FAULT_UNTRUSTED_DEREF,
            "TEE_CipherInit reads through a freed operation handle",
            "operation freed",
        ),
    ]


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


class _Handle:
    __slots__ = ("hid", "kind", "buf", "live", "max_key_bits", "key_len")

    def __init__(self, hid: int, kind: str, size: int):
        self.hid = hid
        self.kind = kind
        self.buf = bytearray(size)
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
    """Collects the (address, bit_count, bits) blocks of one handler run."""

    __slots__ = ("base", "blocks")

    def __init__(self, base: int):
        self.base = base
        self.blocks: list[tuple[int, int, int]] = []

    def b(self, block_id: int, nbits: int, bits: int) -> None:
        self.blocks.append((self.base + block_id * 8, nbits, bits))


class MiniTee:
    """One simulated target instance.  Single-threaded; one per worker."""

    def __init__(self, campaign_seed: int, templates: TemplateSet | None = None):
        self.campaign_seed = campaign_seed & _M64
        self.templates = templates if templates is not None else load_bundled_templates()
        self._campaign_key = _mix(self.campaign_seed ^ 0x7EE5_0F0F_5EED_0001)
        by_name = self.templates.by_name
        self._dispatch: dict[int, object] = {}
        for name, method in _HANDLERS.items():
            t = by_name.get(name)
            if t is None:
                raise ValueError(f"template set lacks required syscall {name}")
            self._dispatch[t.ordinal] = method
        self._handler_base = {
            ordinal: SECURE_RANGE[0] + 0x1000 * (ordinal + 1)
            for ordinal in self.templates.by_ordinal
        }
        self.reset()

    # --- probe-visible surface ------------------------------------------------

    def reset(self) -> None:
        """Power-cycle: handles freed, allocator and noise keys rewound."""
        self.handles: dict[int, _Handle] = {}
        self.attrs: dict[int, int] = {}   # addr -> key material length (bytes)
        self.ivs: dict[int, int] = {}     # addr -> iv length
        self.chunks: dict[int, int] = {}  # addr -> chunk length
        self.mems: dict[int, bool] = {}   # addr -> still allocated
        self._live_count = {"operation": 0, "object": 0}
        self._next_handle = 0
        self._next_addr = 0
        self._exec_key = 0

    def live_handles(self) -> list[_Handle]:
        return [h for h in self.handles.values() if h.live]

    def read_memory(self, handle_id: int, offset: int, length: int) -> bytes:
        h = self.handles.get(handle_id)
        if h is None or not h.live:
            raise KeyError(f"dead or unknown handle {handle_id:#x}")
        if offset < 0 or length < 0 or offset + length > len(h.buf):
            raise ValueError(
                f"read [{offset}, {offset + length}) out of range for "
                f"{h.kind} handle of {len(h.buf)} bytes"
            )
        return bytes(h.buf[offset : offset + length])

    def execute_payload(self, data: bytes) -> ExecutionResult:
        try:
            tc = deserialize_payload(data, self.templates)
        except PayloadError:
            return ExecutionResult(
                per_syscall=[],
                fault=FaultRecord(FAULT_HARD, DECODE_FRAMES, 0),
                executed_count=0,
            )
        self._exec_key = _mix(self._campaign_key ^ fnv1a64(data))
        per_syscall: list[SyscallResult] = []
        results: list[int] = []
        fault: FaultRecord | None = None
        for idx, call in enumerate(tc.calls):
            handler = self._dispatch[call.ordinal]
            w = _Walk(self._handler_base[call.ordinal])
            try:
                ret, value = handler(self, w, call, results)
            except _Fault as f:
                fault = FaultRecord(f.kind, f.frames, idx)
                break
            results.append(value)
            self._refresh_noise(idx)
            snaps = [
                HandleSnapshot(h.hid, h.kind, bytes(h.buf))
                for h in self.handles.values()
                if h.live
            ]
            per_syscall.append(
                SyscallResult(self._emit_packets(w.blocks, idx), snaps, ret)
            )
        return ExecutionResult(
            per_syscall=per_syscall,
            fault=fault,
            executed_count=len(per_syscall),
        )

    # --- internals --------------------------------------------------------------

    def _emit_packets(
        self, blocks: list[tuple[int, int, int]], call_idx: int
    ) -> list[TracePacket]:
        """Secure packets for the walk, with >=1/3 normal-world noise mixed in.

        One noise packet precedes every other secure packet, so noise is at
        least a third of every per-syscall stream by construction.
        """
        noise_lo = NOISE_RANGE[0]
        key = _mix(self._exec_key ^ (call_idx * 0x9E3779B97F4A7C15))
        out: list[TracePacket] = []
        for i, blk in enumerate(blocks):
            if i % 2 == 0:
                key = _mix(key)
                nbits = 1 + ((key >> 28) & 0x7)
                out.append(
                    TracePacket(
                        noise_lo + (key & 0x0FFF_FFFF),
                        nbits,
                        (key >> 31) & ((1 << nbits) - 1),
                    )
                )
            out.append(TracePacket(blk[0], blk[1], blk[2]))
        return out

    def _refresh_noise(self, call_idx: int) -> None:
        """Rewrite the non-state regions of every live handle.

        Values are a keyed hash of (campaign, payload, call index, handle),
        which keeps execution deterministic while guaranteeing that every
        noise word accumulates far more than 80 distinct values over any
        real pre-fuzzing run.
        """
        base = self._exec_key ^ (call_idx * 0xD1B54A32D192ED03)
        for h in self.handles.values():
            if not h.live:
                continue
            k = _mix(base ^ (h.hid * 0xFF51AFD7ED558CCD))
            buf = h.buf
            if h.kind == "operation":
                # keyBuffer 24..39 and iv/scratch 44..63; selfPointer at 40
                # changes only per allocation
                kb = k.to_bytes(8, "little")
                buf[24:40] = kb + kb
                kb2 = _mix(k).to_bytes(8, "little")
                buf[44:60] = kb2 + kb2
                buf[60:64] = kb2[:4]
            else:
                kb = k.to_bytes(8, "little")
                buf[16:48] = kb * 4

    def _alloc_handle(self, kind: str, size: int) -> _Handle:
        self._next_handle += 1
        hid = 0x100 + self._next_handle
        h = _Handle(hid, kind, size)
        self.handles[hid] = h
        self._live_count[kind] += 1
        if kind == "operation":
            ptr = _mix(self._exec_key ^ (self._next_handle * 0xC2B2AE3D27D4EB4F))
            h.buf[40:44] = (ptr & 0xFFFFFFFF).to_bytes(4, "little")
        return h

    def _free_handle(self, h: _Handle) -> None:
        h.live = False
        self._live_count[h.kind] -= 1

    def _alloc_addr(self) -> int:
        self._next_addr += 1
        return 0x4000_0000 + 16 * self._next_addr

    # Handlers run on *decoded* payloads, which need not be validator-clean,
    # so argument access degrades to safe defaults on shape mismatches.
    @staticmethod
    def _num(call, results: list[int], i: int) -> int:
        if i >= len(call.args):
            return 0
        a = call.args[i]
        if a.kind is ArgKind.BUFFER:
            return len(a.value)
        if a.kind is ArgKind.RESOURCE_REF:
            ref = a.value
            return results[ref] if 0 <= ref < len(results) else 0
        return a.value

    @staticmethod
    def _bytes_arg(call, i: int) -> bytes:
        if i >= len(call.args):
            return b""
        a = call.args[i]
        return a.value if a.kind is ArgKind.BUFFER else b""

    def _op_of(self, value: int) -> _Handle | None:
        h = self.handles.get(value)
        return h if h is not None and h.kind == "operation" else None

    def _obj_of(self, value: int) -> _Handle | None:
        h = self.handles.get(value)
        return h if h is not None and h.kind == "object" else None

    @staticmethod
    def _ret(w: _Walk, code: int, value: int = 0):
        if code == RET_OK:
            w.b(14, 2, 0)
        else:
            w.b(14, 2, 1 | (2 if code in (RET_BAD_STATE, RET_BAD_HANDLE) else 0))
        w.b(15, 1, 1)
        return code, value

    # --- handlers -------------------------------------------------------------
    #
    # Each handler is a small branching program; w.b(block, nbits, bits)
    # records one basic block with the branch decisions taken inside it
    # (first decision = LSB).  Block ids are static per handler, 14/15 are
    # the shared return path.

    def _h_allocate_operation(self, w, call, results):
        alg = self._num(call, results, 0)
        mode = self._num(call, results, 1)
        max_key = self._num(call, results, 2)
        w.b(0, 1, 1 if len(call.args) == 3 else 0)
        if alg in (ALG_AES_CBC, ALG_AES_CTR):
            cls = CLASS_CIPHER
            w.b(2, 2, 1 | (2 if alg == ALG_AES_CTR else 0))
        elif alg in (ALG_HMAC_SHA256, ALG_HMAC_SHA1):
            cls = CLASS_MAC
            w.b(2, 2, 2 if alg == ALG_HMAC_SHA1 else 0)
            w.b(3, 1, 1)
        else:
            w.b(2, 2, 0)
            w.b(3, 1, 0)
            return self._ret(w, RET_NOT_SUPPORTED)
        mode_ok = (cls == CLASS_CIPHER and mode in (MODE_ENCRYPT, MODE_DECRYPT)) or (
            cls == CLASS_MAC and mode == MODE_MAC
        )
        w.b(4, 2, (1 if mode_ok else 0) | (2 if mode == MODE_DECRYPT else 0))
        if not mode_ok:
            return self._ret(w, RET_NOT_SUPPORTED)
        w.b(5, 3, _mag3(max_key))
        # size-class rounding of the context allocation
        w.b(10, 5, _mag3(max_key) | ((mode & 3) << 3))
        if max_key > MAX_KEY_BITS:
            w.b(6, 1, 0)
            return self._ret(w, RET_NO_MEMORY)
        w.b(6, 1, 1)
        if self._live_count["operation"] >= MAX_LIVE_HANDLES:
            w.b(9, 1, 0)
            return self._ret(w, RET_NO_MEMORY)
        w.b(9, 1, 1)
        h = self._alloc_handle("operation", OP_HANDLE_SIZE)
        h.max_key_bits = max_key
        h.set32(0, alg)
        h.set32(4, mode)
        h.set32(8, cls)
        h.set32(12, HS_ALLOCATED)
        h.set32(16, OS_INITIAL)
        h.set32(20, 0)
        w.b(7, 2, 1 | (2 if cls == CLASS_MAC else 0))
        return self._ret(w, RET_OK, h.hid)

    def _h_free_operation(self, w, call, results):
        v = self._num(call, results, 0)
        w.b(0, 1, 1 if len(call.args) == 1 else 0)
        h = self._op_of(v)
        w.b(2, 1, 0 if v == 0 else 1)
        if v == 0 or h is None:
            return self._ret(w, RET_BAD_HANDLE)
        w.b(3, 1, 1 if h.live else 0)
        if not h.live:
            return self._ret(w, RET_BAD_HANDLE)
        w.b(4, 2, h.get32(12) & 3)
        w.b(5, 1, 1 if h.get32(16) == OS_ACTIVE else 0)
        self._free_handle(h)
        return self._ret(w, RET_OK)

    def _h_reset_operation(self, w, call, results):
        v = self._num(call, results, 0)
        w.b(0, 1, 1 if len(call.args) == 1 else 0)
        h = self._op_of(v)
        w.b(2, 1, 0 if v == 0 or h is None else 1)
        if v == 0 or h is None or not h.live:
            return self._ret(w, RET_BAD_HANDLE)
        hs = h.get32(12)
        w.b(3, 2, hs & 3)
        if hs == HS_ALLOCATED:
            w.b(4, 1, 0)
            return self._ret(w, RET_BAD_STATE)
        w.b(4, 1, 1)
        h.set32(12, HS_KEY_SET)
        h.set32(16, OS_INITIAL)
        return self._ret(w, RET_OK)

    def _h_set_operation_key(self, w, call, results):
        v = self._num(call, results, 0)
        kv = self._num(call, results, 1)
        w.b(0, 1, 1 if len(call.args) == 2 else 0)
        h = self._op_of(v)
        w.b(2, 1, 0 if v == 0 or h is None or not h.live else 1)
        if v == 0 or h is None or not h.live:
            return self._ret(w, RET_BAD_HANDLE)
        obj = self._obj_of(kv)
        w.b(3, 1, 0 if kv == 0 or obj is None or not obj.live else 1)
        if kv == 0 or obj is None or not obj.live:
            return self._ret(w, RET_BAD_HANDLE)
        w.b(4, 1, 0 if h.get32(12) == HS_KEY_SET_INITIALIZED else 1)
        if h.get32(12) == HS_KEY_SET_INITIALIZED:
            return self._ret(w, RET_BAD_STATE)
        w.b(5, 1, 1 if obj.get32(8) & 1 else 0)
        if not obj.get32(8) & 1:  # not populated: no key material committed
            return self._ret(w, RET_BAD_STATE)
        otype = obj.get32(0)
        cls = h.get32(8)
        type_ok = (cls == CLASS_CIPHER and otype in (OBJ_TYPE_AES, OBJ_TYPE_GENERIC)) or (
            cls == CLASS_MAC and otype in (OBJ_TYPE_HMAC, OBJ_TYPE_GENERIC)
        )
        w.b(6, 2, (1 if type_ok else 0) | (2 if otype == OBJ_TYPE_GENERIC else 0))
        if not type_ok:
            return self._ret(w, RET_BAD_PARAM)
        key_bits = obj.key_len * 8
        w.b(7, 3, _mag3(key_bits))
        if obj.key_len not in VALID_KEY_LENS or key_bits > h.max_key_bits:
            w.b(8, 1, 0)
            return self._ret(w, RET_BAD_PARAM)
        w.b(8, 1, 1)
        h.set32(12, HS_KEY_SET)
        h.set32(16, OS_INITIAL)
        h.set32(20, key_bits)
        return self._ret(w, RET_OK)

    def _h_cipher_init(self, w, call, results):
        v = self._num(call, results, 0)
        ivv = self._num(call, results, 1)
        w.b(0, 1, 1 if len(call.args) == 2 else 0)
        w.b(2, 1, 0 if v == 0 else 1)
        if v == 0:
            return self._ret(w, RET_BAD_PARAM)
        h = self._op_of(v)
        if h is None:
            w.b(3, 1, 0)
            return self._ret(w, RET_BAD_HANDLE)
        w.b(3, 1, 1)
        if not h.live:
            # missing liveness validation: the handler walks the freed
            # handle's stale self-pointer (seeded bug B5)
            raise _Fault("B5", FAULT_UNTRUSTED_DEREF)
        w.b(4, 1, 1 if h.get32(8) == CLASS_CIPHER else 0)
        if h.get32(8) != CLASS_CIPHER:
            return self._ret(w, RET_NOT_SUPPORTED)
        w.b(5, 1, 1 if h.get32(12) in (HS_KEY_SET, HS_KEY_SET_INITIALIZED) else 0)
        if h.get32(12) not in (HS_KEY_SET, HS_KEY_SET_INITIALIZED):
            return self._ret(w, RET_BAD_STATE)
        iv_len = self.ivs.get(ivv)
        w.b(6, 1, 0 if iv_len is None else 1)
        if iv_len is None:
            return self._ret(w, RET_BAD_PARAM)
        w.b(7, 3, _mag3(iv_len))
        w.b(9, 5, _mag3(iv_len) | ((h.get32(12) & 3) << 3))
        if iv_len != 16:
            w.b(8, 1, 0)
            return self._ret(w, RET_BAD_PARAM)
        w.b(8, 1, 1)
        h.set32(12, HS_KEY_SET_INITIALIZED)
        h.set32(16, OS_INITIAL)
        return self._ret(w, RET_OK)

    def _check_update_target(self, w, call, results, want_class):
        """Shared null/dead/class/state prologue for update and final calls.

        Returns (handle, None) when the deep region is reached, else
        (None, error return pair).
        """
        v = self._num(call, results, 0)
        h = self._op_of(v)
        w.b(2, 1, 0 if v == 0 or h is None or not h.live else 1)
        if v == 0 or h is None or not h.live:
            return None, self._ret(w, RET_BAD_HANDLE)
        w.b(3, 1, 1 if h.get32(8) == want_class else 0)
        if h.get32(8) != want_class:
            return None, self._ret(w, RET_NOT_SUPPORTED)
        w.b(4, 1, 1 if h.get32(12) == HS_KEY_SET_INITIALIZED else 0)
        if h.get32(12) != HS_KEY_SET_INITIALIZED:
            return None, self._ret(w, RET_BAD_STATE)
        return h, None

    def _h_cipher_update(self, w, call, results):
        w.b(0, 1, 1 if len(call.args) == 3 else 0)
        h, err = self._check_update_target(w, call, results, CLASS_CIPHER)
        if h is None:
            return err
        src = self._num(call, results, 1)
        src_len = self._num(call, results, 2)
        chunk_len = self.chunks.get(src)
        w.b(5, 1, 0 if chunk_len is None else 1)
        if chunk_len is None:
            return self._ret(w, RET_BAD_PARAM)
        w.b(6, 3, _mag3(src_len))
        if src_len > chunk_len:
            w.b(7, 1, 0)
            return self._ret(w, RET_SHORT_BUFFER)
        w.b(7, 1, 1)
        w.b(8, 2, (1 if h.get32(16) == OS_INITIAL else 0) | (2 if src_len == 0 else 0))
        h.set32(16, OS_ACTIVE)
        return self._ret(w, RET_OK)

    def _h_cipher_do_final(self, w, call, results):
        w.b(0, 1, 1 if len(call.args) == 3 else 0)
        h, err = self._check_update_target(w, call, results, CLASS_CIPHER)
        if h is None:
            return err
        src = self._num(call, results, 1)
        dst_len = self._num(call, results, 2)
        chunk_len = self.chunks.get(src)
        w.b(5, 1, 0 if chunk_len is None else 1)
        if chunk_len is None:
            return self._ret(w, RET_BAD_PARAM)
        w.b(6, 3, _mag3(dst_len))
        if dst_len > DATA_LIMIT:
            w.b(7, 1, 0)
            return self._ret(w, RET_SHORT_BUFFER)
        w.b(7, 1, 1)
        w.b(8, 1, 1 if h.get32(16) == OS_ACTIVE else 0)
        w.b(9, 5, _mag3(dst_len) | ((chunk_len & 3) << 3))
        h.set32(12, HS_KEY_SET)
        h.set32(16, OS_INITIAL)
        return self._ret(w, RET_OK)

    def _h_mac_init(self, w, call, results):
        v = self._num(call, results, 0)
        ivv = self._num(call, results, 1)
        w.b(0, 1, 1 if len(call.args) == 2 else 0)
        h = self._op_of(v)
        w.b(2, 1, 0 if v == 0 or h is None or not h.live else 1)
        if v == 0 or h is None or not h.live:
            return self._ret(w, RET_BAD_HANDLE)
        w.b(3, 1, 1 if h.get32(8) == CLASS_MAC else 0)
        if h.get32(8) != CLASS_MAC:
            return self._ret(w, RET_NOT_SUPPORTED)
        w.b(4, 1, 1 if h.get32(12) in (HS_KEY_SET, HS_KEY_SET_INITIALIZED) else 0)
        if h.get32(12) not in (HS_KEY_SET, HS_KEY_SET_INITIALIZED):
            return self._ret(w, RET_BAD_STATE)
        iv_len = self.ivs.get(ivv)
        # MAC configuration takes at most a small salt
        ok = iv_len is not None and iv_len <= 8
        w.b(5, 2, (0 if iv_len is None else 1) | (2 if ok else 0))
        if not ok:
            return self._ret(w, RET_BAD_PARAM)
        h.set32(12, HS_KEY_SET_INITIALIZED)
        h.set32(16, OS_INITIAL)
        return self._ret(w, RET_OK)

    def _h_mac_update(self, w, call, results):
        # the absorb path is deliberately branch-poor: progress in here is
        # visible as state, barely as coverage
        w.b(0, 1, 1 if len(call.args) == 3 else 0)
        h, err = self._check_update_target(w, call, results, CLASS_MAC)
        if h is None:
            return err
        chunk = self._num(call, results, 1)
        chunk_size = self._num(call, results, 2)
        chunk_len = self.chunks.get(chunk)
        w.b(5, 1, 0 if chunk_len is None else 1)
        if chunk_len is None:
            return self._ret(w, RET_BAD_PARAM)
        if chunk_size > CHUNK_OVERFLOW_SIZE:
            # the absorb loop trusts chunkSize with no bound check (seeded
            # bug B4) -- reachable only behind the class and
            # key_set_and_initialized gates
            raise _Fault("B4", FAULT_MEM_OVERWRITE)
        if chunk_size > chunk_len:
            w.b(6, 1, 0)
            return self._ret(w, RET_SHORT_BUFFER)
        w.b(6, 1, 1)
        h.set32(16, OS_ACTIVE)
        return self._ret(w, RET_OK)

    def _h_mac_compute_final(self, w, call, results):
        w.b(0, 1, 1 if len(call.args) == 3 else 0)
        h, err = self._check_update_target(w, call, results, CLASS_MAC)
        if h is None:
            return err
        msg = self._num(call, results, 1)
        msg_len = self._num(call, results, 2)
        chunk_len = self.chunks.get(msg)
        w.b(5, 1, 0 if chunk_len is None else 1)
        if chunk_len is None:
            return self._ret(w, RET_BAD_PARAM)
        if msg_len > DATA_LIMIT:
            w.b(6, 1, 0)
            return self._ret(w, RET_SHORT_BUFFER)
        w.b(6, 1, 1)
        h.set32(12, HS_KEY_SET)
        h.set32(16, OS_INITIAL)
        return self._ret(w, RET_OK)

    def _h_mac_compare_final(self, w, call, results):
        v = self._num(call, results, 0)
        w.b(0, 1, 1 if len(call.args) == 3 else 0)
        # context load dereferences the operation before any null check
        # (seeded bug B3)
        if v == 0:
            raise _Fault("B3", FAULT_NULL_DEREF)
        w.b(2, 1, 1)
        h = self._op_of(v)
        w.b(3, 1, 0 if h is None or not h.live else 1)
        if h is None or not h.live:
            return self._ret(w, RET_BAD_HANDLE)
        w.b(4, 1, 1 if h.get32(8) == CLASS_MAC else 0)
        if h.get32(8) != CLASS_MAC:
            return self._ret(w, RET_NOT_SUPPORTED)
        w.b(5, 1, 1 if h.get32(12) == HS_KEY_SET_INITIALIZED else 0)
        if h.get32(12) != HS_KEY_SET_INITIALIZED:
            return self._ret(w, RET_BAD_STATE)
        msg = self._num(call, results, 1)
        chunk_len = self.chunks.get(msg)
        w.b(6, 1, 0 if chunk_len is None else 1)
        if chunk_len is None:
            return self._ret(w, RET_BAD_PARAM)
        mac = self._bytes_arg(call, 2)
        # keyed permutation stands in for the real MAC
        expect = _mix(self._campaign_key ^ h.get32(20) ^ (chunk_len * 0x9E37))
        match = len(mac) == 8 and mac == (expect & _M64).to_bytes(8, "little")
        w.b(7, 1, 1 if match else 0)
        h.set32(12, HS_KEY_SET)
        h.set32(16, OS_INITIAL)
        return self._ret(w, RET_OK if match else RET_MAC_INVALID)

    def _h_allocate_transient_object(self, w, call, results):
        otype = self._num(call, results, 0)
        max_size = self._num(call, results, 1)
        w.b(0, 1, 1 if len(call.args) == 2 else 0)
        if otype == OBJ_TYPE_AES:
            w.b(2, 2, 1)
        elif otype == OBJ_TYPE_HMAC:
            w.b(2, 2, 2)
        elif otype == OBJ_TYPE_GENERIC:
            w.b(2, 2, 3)
        else:
            w.b(2, 2, 0)
            w.b(3, 1, 0)
            return self._ret(w, RET_NOT_SUPPORTED)
        w.b(3, 1, 1)
        w.b(4, 3, _mag3(max_size))
        w.b(7, 5, _mag3(max_size) | ((otype & 3) << 3))
        if max_size > MAX_OBJ_SIZE:
            w.b(5, 1, 0)
            return self._ret(w, RET_NO_MEMORY)
        w.b(5, 1, 1)
        if self._live_count["object"] >= MAX_LIVE_HANDLES:
            w.b(6, 1, 0)
            return self._ret(w, RET_NO_MEMORY)
        w.b(6, 1, 1)
        h = self._alloc_handle("object", OBJ_HANDLE_SIZE)
        h.set32(0, otype)
        h.set32(4, 0xFF)  # default usage: everything allowed
        h.set32(8, 0)
        h.set32(12, 0)
        return self._ret(w, RET_OK, h.hid)

    def _h_free_transient_object(self, w, call, results):
        v = self._num(call, results, 0)
        w.b(0, 1, 1 if len(call.args) == 1 else 0)
        h = self._obj_of(v)
        w.b(2, 1, 0 if v == 0 or h is None or not h.live else 1)
        if v == 0 or h is None or not h.live:
            return self._ret(w, RET_BAD_HANDLE)
        w.b(3, 1, 1 if h.get32(8) & 1 else 0)
        self._free_handle(h)
        return self._ret(w, RET_OK)

    def _h_reset_transient_object(self, w, call, results):
        v = self._num(call, results, 0)
        w.b(0, 1, 1 if len(call.args) == 1 else 0)
        h = self._obj_of(v)
        w.b(2, 1, 0 if v == 0 or h is None or not h.live else 1)
        if v == 0 or h is None or not h.live:
            return self._ret(w, RET_BAD_HANDLE)
        w.b(3, 1, 1 if h.get32(8) & 1 else 0)
        h.set32(4, 0xFF)
        h.set32(8, 0)
        h.set32(12, 0)
        h.key_len = 0
        w.b(4, 1, 1)
        return self._ret(w, RET_OK)

    def _h_populate_transient_object(self, w, call, results):
        v = self._num(call, results, 0)
        av = self._num(call, results, 1)
        count = self._num(call, results, 2)
        w.b(0, 1, 1 if len(call.args) == 3 else 0)
        h = self._obj_of(v)
        w.b(2, 1, 0 if v == 0 else 1)
        if v == 0:
            return self._ret(w, RET_BAD_PARAM)
        if h is None or not h.live:
            w.b(3, 1, 0)
            return self._ret(w, RET_BAD_HANDLE)
        w.b(3, 1, 1)
        key_len = self.attrs.get(av)
        w.b(4, 1, 0 if key_len is None else 1)
        if key_len is None:
            return self._ret(w, RET_BAD_PARAM)
        w.b(5, 3, _mag3(count))
        if count > ATTR_OVERFLOW_COUNT:
            # attrs are staged into a fixed on-stack array sized for
            # ATTR_OVERFLOW_COUNT entries before any further validation
            # (seeded bug B2)
            raise _Fault("B2", FAULT_MEM_OVERWRITE)
        if count == 0:
            w.b(6, 1, 0)
            return self._ret(w, RET_BAD_PARAM)
        w.b(6, 1, 1)
        w.b(7, 1, 0 if h.get32(8) & 1 else 1)
        if h.get32(8) & 1:  # already populated
            return self._ret(w, RET_BAD_STATE)
        h.key_len = key_len
        h.set32(8, 1 | (2 if key_len > 16 else 0))
        h.set32(4, 0x30 | (h.get32(0) & 0xF))
        h.set32(12, min(count, ATTR_COMMIT_CAP))
        w.b(8, 2, (1 if key_len else 0) | (2 if count > 1 else 0))
        # copy loop shape depends on staged count and material alignment
        w.b(9, 5, _mag3(count) | ((key_len & 3) << 3))
        return self._ret(w, RET_OK)

    def _h_restrict_object_usage(self, w, call, results):
        v = self._num(call, results, 0)
        usage = self._num(call, results, 1)
        w.b(0, 1, 1 if len(call.args) == 2 else 0)
        h = self._obj_of(v)
        w.b(2, 1, 0 if v == 0 or h is None or not h.live else 1)
        if v == 0 or h is None or not h.live:
            return self._ret(w, RET_BAD_HANDLE)
        # usage bits above the low two of the 0x30 family are reserved
        mask = 0x30 | (usage & 0x3)
        w.b(3, 2, usage & 3)
        w.b(4, 1, 1 if h.get32(4) & mask != h.get32(4) else 0)
        w.b(5, 5, _mag3(usage) | ((usage & 3) << 3))
        h.set32(4, h.get32(4) & mask)
        return self._ret(w, RET_OK)

    def _h_malloc(self, w, call, results):
        size = self._num(call, results, 0)
        hint = self._num(call, results, 1)
        w.b(0, 1, 1 if len(call.args) == 2 else 0)
        w.b(2, 3, _mag3(size))
        if size > MALLOC_LIMIT:
            # the pool reserves without any ceiling (seeded bug B1)
            raise _Fault("B1", FAULT_RESOURCE_EXHAUSTION)
        w.b(3, 2, hint & 3)
        # free-list bin choice depends on both size class and pool hint
        w.b(6, 5, _mag3(size) | ((hint & 3) << 3))
        w.b(4, 1, 1 if size == 0 else 0)
        addr = self._alloc_addr()
        self.mems[addr] = True
        w.b(5, 1, 1)
        return self._ret(w, RET_OK, addr)

    def _h_free(self, w, call, results):
        ptr = self._num(call, results, 0)
        w.b(0, 1, 1 if len(call.args) == 1 else 0)
        w.b(2, 1, 0 if ptr == 0 else 1)
        if ptr == 0:
            return self._ret(w, RET_OK)
        alive = self.mems.get(ptr)
        w.b(3, 2, (1 if alive is not None else 0) | (2 if alive else 0))
        if alive is None or not alive:
            return self._ret(w, RET_BAD_PARAM)
        self.mems[ptr] = False
        return self._ret(w, RET_OK)

    def _h_init_ref_attribute(self, w, call, results):
        attr_id = self._num(call, results, 0)
        data = self._bytes_arg(call, 1)
        w.b(0, 1, 1 if len(call.args) == 2 else 0)
        w.b(2, 1, 1 if attr_id == 0xC0 else 0)
        w.b(3, 3, _mag3(len(data)))
        w.b(5, 4, _mag3(len(data)) | (8 if attr_id == 0xC0 else 0))
        addr = self._alloc_addr()
        self.attrs[addr] = len(data)
        w.b(4, 1, 1)
        return self._ret(w, RET_OK, addr)

    def _h_init_value_attribute(self, w, call, results):
        attr_id = self._num(call, results, 0)
        a = self._num(call, results, 1)
        b = self._num(call, results, 2)
        w.b(0, 1, 1 if len(call.args) == 3 else 0)
        w.b(2, 1, 1 if attr_id == 0xD0 else 0)
        w.b(3, 3, _mag3(a))
        w.b(4, 1, b & 1)
        w.b(5, 5, _mag3(b) | ((a & 3) << 3))
        addr = self._alloc_addr()
        self.attrs[addr] = a & 63
        return self._ret(w, RET_OK, addr)

    def _h_make_iv(self, w, call, results):
        length = self._num(call, results, 0)
        fill = self._num(call, results, 1)
        w.b(0, 1, 1 if len(call.args) == 2 else 0)
        w.b(2, 3, _mag3(length))
        w.b(3, 1, fill & 1)
        w.b(4, 5, _mag3(length) | ((fill & 3) << 3))
        addr = self._alloc_addr()
        self.ivs[addr] = min(length, 0xFFFF)
        return self._ret(w, RET_OK, addr)

    def _h_make_chunk(self, w, call, results):
        length = self._num(call, results, 0)
        fill = self._num(call, results, 1)
        w.b(0, 1, 1 if len(call.args) == 2 else 0)
        w.b(2, 3, _mag3(length))
        w.b(3, 1, fill & 1)
        w.b(4, 5, _mag3(length) | ((fill & 3) << 3))
        addr = self._alloc_addr()
        self.chunks[addr] = min(length, 0xFFFF)
        return self._ret(w, RET_OK, addr)


_HANDLERS = {
    "TEE_AllocateOperation": MiniTee._h_allocate_operation,
    "TEE_FreeOperation": MiniTee._h_free_operation,
    "TEE_ResetOperation": MiniTee._h_reset_operation,
    "TEE_SetOperationKey": MiniTee._h_set_operation_key,
    "TEE_CipherInit": MiniTee._h_cipher_init,
    "TEE_CipherUpdate": MiniTee._h_cipher_update,
    "TEE_CipherDoFinal": MiniTee._h_cipher_do_final,
    "TEE_MACInit": MiniTee._h_mac_init,
    "TEE_MACUpdate": MiniTee._h_mac_update,
    "TEE_MACComputeFinal": MiniTee._h_mac_compute_final,
    "TEE_MACCompareFinal": MiniTee._h_mac_compare_final,
    "TEE_AllocateTransientObject": MiniTee._h_allocate_transient_object,
    "TEE_FreeTransientObject": MiniTee._h_free_transient_object,
    "TEE_ResetTransientObject": MiniTee._h_reset_transient_object,
    "TEE_PopulateTransientObject": MiniTee._h_populate_transient_object,
    "TEE_RestrictObjectUsage": MiniTee._h_restrict_object_usage,
    "TEE_Malloc": MiniTee._h_malloc,
    "TEE_Free": MiniTee._h_free,
    "TEE_InitRefAttribute": MiniTee._h_init_ref_attribute,
    "TEE_InitValueAttribute": MiniTee._h_init_value_attribute,
    "TEE_MakeIV": MiniTee._h_make_iv,
    "TEE_MakeChunk": MiniTee._h_make_chunk,
}
