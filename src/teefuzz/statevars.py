"""State-variable inference and state hashing.

The pipeline mirrors the handle-snapshot approach: run a coverage-only
pre-fuzzing pass while logging handle buffers (in columns, as the log is
what grows with the budget), drop four-byte words that take more distinct
values than the volatility threshold (buffers and pointers), then confirm
the survivors by running each distinct program of a fixed grid of crypto
configurations twice.  A word is confirmed when its final value differs
between configurations and repeats across the two runs of every one; a
word that differs between the runs, or whose handle is live in only one
of them, is not.  The state key is the inferred regions' bytes in the one
live handle of each kind (a second live handle of a kind is an error);
hashed, it is the state-coverage unit.
"""

from __future__ import annotations

import logging
from array import array
from collections.abc import Iterable, Iterator
from pathlib import Path
from random import Random
from typing import NamedTuple

from . import minitee
from .corpus_io import parse_program
from .payload import serialize_payload
from .templates import TemplateSet
from .testcase import DEFAULT_MAX_LEN, TestCase, generate_testcase, mutate_testcase
from .tracecov import coverage_of, fnv1a64

log = logging.getLogger("teefuzz.statevars")

VOLATILITY_THRESHOLD = 80
ABSENT_MARKER = b"\xa5"


class StateVarRegion(NamedTuple):
    handle_kind: str
    offset: int
    length: int = 4


class SnapshotEntry(NamedTuple):
    testcase_id: int
    call_index: int
    handle_kind: str
    data: bytes


class HandleSnapshotLog:
    """Every handle snapshot of a pre-fuzzing pass, stored in columns.

    `data` holds the rows' bytes back to back, `ends[i]` is where row i
    ends in it, and `rows[i]` packs `call_index << 48 | testcase_id << 8 |
    kind`, with `kinds` mapping kind names to indices (a payload has
    under 2**16 calls, a target a few kinds).  A 64-byte row costs under
    90 B, not the 175 B of a `SnapshotEntry` in a list.  Iterating
    `entries`, the log itself, builds one `SnapshotEntry` per step.
    """

    def __init__(self, entries: Iterable[SnapshotEntry] = ()):
        self.data, self.ends, self.rows = bytearray(), array("Q"), array("Q")
        self.kinds: dict[str, int] = {}
        for tc, call, kind, data in entries:
            self.rows.append(call << 48 | tc << 8 | self.kinds.setdefault(kind, len(self.kinds)))
            self.data += data
            self.ends.append(len(self.data))

    def append_result(self, testcase_id: int, result) -> None:
        data, ends, rows, kinds = self.data, self.ends, self.rows, self.kinds
        row = testcase_id << 8
        for sr in result.per_syscall:
            for snap in sr.snapshots:
                rows.append(row | kinds.setdefault(snap.kind, len(kinds)))
                data += snap.data
                ends.append(len(data))
            row += 1 << 48

    def __len__(self) -> int:
        return len(self.ends)

    def __iter__(self) -> Iterator[SnapshotEntry]:
        # slices, not a memoryview, so that a paused iterator lets the log grow
        names, data, start = list(self.kinds), self.data, 0
        for end, row in zip(self.ends, self.rows):
            tc, call, kind = row >> 8 & 0xFF_FFFF_FFFF, row >> 48, names[row & 0xFF]
            yield SnapshotEntry(tc, call, kind, bytes(data[start:end]))
            start = end

    @property
    def entries(self) -> HandleSnapshotLog:
        return self


# --- snapshot collection -------------------------------------------------------


def collect_snapshots(
    seeds: list[TestCase],
    budget: int,
    probe,
    templates: TemplateSet,
    rng: Random,
    max_len: int = DEFAULT_MAX_LEN,
) -> HandleSnapshotLog:
    """Coverage-only fuzzing for `budget` executions, logging every buffer.

    This is the basic pre-fuzzing pass that feeds volatility filtering; it
    keeps a plain coverage-preserved corpus and needs none of the
    composite-feedback machinery.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not seeds:
        raise ValueError("snapshot collection needs a non-empty seed corpus")
    logbook = HandleSnapshotLog()
    corpus = list(seeds)
    global_cov: set[int] = set()
    execs = 0
    cursor = 0
    while execs < budget:
        if cursor < len(seeds):
            tc = seeds[cursor]
            cursor += 1
        elif rng.random() < 0.2:
            tc = generate_testcase(templates, rng, max_len)
        else:
            tc = mutate_testcase(rng.choice(corpus), templates, rng, max_len)
        result = probe.submit(serialize_payload(tc))
        logbook.append_result(execs, result)
        new_cov = False
        for sr in result.per_syscall:
            cov = coverage_of(sr.trace)
            if not cov <= global_cov:
                new_cov = True
                global_cov |= cov
        if new_cov and len(tc.calls) <= max_len:
            corpus.append(tc)
        execs += 1
    return logbook


# --- volatility filter ----------------------------------------------------------


def filter_volatile(
    logbook: HandleSnapshotLog,
    threshold: int = VOLATILITY_THRESHOLD,
    metric: str = "distinct",
) -> dict[str, list[int]]:
    """Candidate four-byte offsets per handle kind.

    An offset is excluded when it takes more than `threshold` distinct
    words over the log.  A kind's offsets span its first snapshot.

    The count only grows as entries are read, so an offset is dropped, and
    never read again, the moment it passes `threshold`: the result is the
    one counting the whole log would give, and each offset holds at most
    `threshold + 1` words.
    """
    if not logbook:
        raise ValueError("empty snapshot log")
    # `metric` is kept only because bench/worker.py:96 passes
    # `cfg.volatility_metric`; it goes with the next benchmark change.
    if metric != "distinct":
        raise ValueError(f"unknown volatility metric '{metric}'")
    if threshold < 0:
        raise ValueError(f"volatility threshold must be >= 0, got {threshold}")
    # per kind, each offset still at or under the threshold with the words
    # seen at it so far
    live: list[dict[int, set[bytes]] | None] = [None] * len(logbook.kinds)
    start = 0
    with memoryview(logbook.data) as view:
        for end, row in zip(logbook.ends, logbook.rows):
            data, start = view[start:end].tobytes(), end
            offs = live[row & 0xFF]
            if offs is None:
                offs = live[row & 0xFF] = {off: set() for off in range(0, len(data), 4)}
            gone = []
            for off, words in offs.items():
                words.add(data[off : off + 4])
                if len(words) > threshold:
                    gone.append(off)
            for off in gone:
                del offs[off]
    return {kind: list(live[i]) for kind, i in sorted(logbook.kinds.items())}


# --- active inference --------------------------------------------------------------


# One crypto configuration in the seed-program format, run down its
# lifecycle: its first line allocates the operation, its first five also set
# a key, and all nine also initialize it and feed it one update.
TRIAL_PROGRAM = """\
r0 = TEE_AllocateOperation({alg}, {mode}, 1024)
r1 = TEE_AllocateTransientObject({key_type}, 1024)
r2 = TEE_InitRefAttribute(0xC0, "{key}")
TEE_PopulateTransientObject(r1, r2, {attr_count})
TEE_SetOperationKey(r0, r1)
r5 = TEE_MakeIV({iv_len}, 0)
TEE_{family}Init(r0, r5)
r7 = TEE_MakeChunk(32, 0xAB)
TEE_{family}Update(r0, r7, 16)
"""

MAX_TRIALS = 11  # len(trial_grid(...))


def trial_grid(templates: TemplateSet) -> list[TestCase]:
    """The confirm trials: algorithm (cipher, MAC) x variant (mode for the
    cipher, key width for the MAC) x lifecycle depth (1, 5 or 9 calls),
    each distinct payload once.  The one-call MAC programs are the same
    payload, as the first call carries no key, so the grid holds 11."""
    grid: dict[bytes, TestCase] = {}
    for alg in (minitee.ALG_AES_CBC, minitee.ALG_HMAC_SHA256):
        is_mac = alg == minitee.ALG_HMAC_SHA256
        for variant in (0, 1):
            cipher_mode = minitee.MODE_DECRYPT if variant else minitee.MODE_ENCRYPT
            lines = TRIAL_PROGRAM.format(
                alg=alg,
                mode=minitee.MODE_MAC if is_mac else cipher_mode,
                key_type=minitee.KEY_TYPE_FOR_ALG[alg],
                key=bytes(range(32 if is_mac and variant else 16)).hex(),
                attr_count=1 + variant,
                iv_len=0 if is_mac else 16,
                family="MAC" if is_mac else "Cipher",
            ).splitlines()
            for depth in (1, 5, 9):
                tc = parse_program("\n".join(lines[:depth]), templates)
                grid.setdefault(serialize_payload(tc), tc)
    return list(grid.values())


def _final_data(result, kind: str) -> bytes | None:
    """The bytes of the last snapshot of `kind` in `result`, if any."""
    for sr in reversed(result.per_syscall):
        for snap in reversed(sr.snapshots):
            if snap.kind == kind:
                return snap.data
    return None


def infer_state_vars(
    candidates: dict[str, list[int]],
    templates: TemplateSet,
    probe,
    trials: int = MAX_TRIALS,
) -> list[StateVarRegion]:
    """Confirm candidates by running each trial of the grid twice.

    A candidate offset becomes a state-variable region iff its final word
    differs between at least two trials and repeats across the two runs of
    every trial: a word that differs between the runs, or whose handle is
    live in one run only, is never confirmed (on a real device such a word
    is a nonce or a counter).
    """
    # `trials` is kept only because bench/worker.py:98 passes
    # `cfg.infer_trials`; it goes with the next benchmark change.
    if trials != MAX_TRIALS:
        raise ValueError(f"trials must be {MAX_TRIALS}, the size of the trial grid")
    # (kind, offset) -> the final words across trials, or None once the two
    # runs of a trial disagreed
    seen: dict[tuple[str, int], set[bytes] | None] = {
        (kind, off): set() for kind, offs in candidates.items() for off in offs
    }
    for payload in map(serialize_payload, trial_grid(templates)):
        runs = probe.submit(payload), probe.submit(payload)
        for kind, offs in candidates.items():
            first, second = (_final_data(r, kind) for r in runs)
            for off in offs:
                word = None if first is None else first[off : off + 4]
                if word != (None if second is None else second[off : off + 4]):
                    seen[kind, off] = None
                elif word is not None and seen[kind, off] is not None:
                    seen[kind, off].add(word)
    return [
        StateVarRegion(kind, off, 4)
        for (kind, off), words in sorted(seen.items())
        if words is not None and len(words) >= 2
    ]


# --- state hashing ----------------------------------------------------------------


def sort_regions(regions: list[StateVarRegion]) -> list[StateVarRegion]:
    return sorted(regions, key=lambda r: (r.handle_kind, r.offset))


class CompiledRegions:
    """Sorted state regions compiled once per campaign for per-call keys.

    The state key concatenates, in (kind, offset) order, each region's bytes
    in the live handle of its kind, or the absent marker when the kind has
    no live handle.  Per kind this keeps the runs of adjacent regions
    merged and the absent bytes, so a key costs one slice per run.  A
    target holds at most one live handle per kind (MiniTEE's
    `MAX_LIVE_HANDLES`), and `key` raises ValueError on a second one.
    `hashes` caches key -> hash for this campaign only.
    """

    def __init__(self, regions: list[StateVarRegion]):
        self.hashes: dict[bytes, int] = {}
        kinds: dict[str, list[tuple[int, int]]] = {}
        for r in sort_regions(regions):
            kinds.setdefault(r.handle_kind, []).append((r.offset, r.offset + r.length))
        self.kinds = []
        for kind, spans in kinds.items():
            runs = [spans[0]]
            for off, end in spans[1:]:
                if off == runs[-1][1]:
                    runs[-1] = (runs[-1][0], end)
                else:
                    runs.append((off, end))
            self.kinds.append((kind, runs, ABSENT_MARKER * len(spans)))

    def key(self, snapshots) -> bytes:
        """State key of one call's live-handle snapshots (allocation order)."""
        parts = []
        for kind, runs, absent in self.kinds:
            data = None
            for snap in snapshots:
                if snap[1] == kind:
                    if data is not None:
                        raise ValueError(f"a state key takes one live {kind} handle, got several")
                    data = snap[2]
            if data is None:
                parts.append(absent)
            else:
                for off, end in runs:
                    parts.append(data[off:end])
        return b"".join(parts)


def state_hash_from_snapshots(compiled: CompiledRegions, snapshots) -> int:
    key = compiled.key(snapshots)
    h = compiled.hashes.get(key)
    if h is None:
        h = compiled.hashes[key] = fnv1a64(key)
    return h


# --- regions file ------------------------------------------------------------------


def save_regions(regions: list[StateVarRegion], path: str | Path) -> None:
    lines = [f"{r.handle_kind} {r.offset} {r.length}" for r in sort_regions(regions)]
    Path(path).write_text("\n".join(lines) + "\n")


_HANDLE_SIZES = {"operation": minitee.OP_HANDLE_SIZE, "object": minitee.OBJ_HANDLE_SIZE}


def load_regions(path: str | Path) -> list[StateVarRegion]:
    """Read a regions file, rejecting any region outside its handle buffer."""
    regions = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{where}: expected 'kind offset length'")
        kind = parts[0]
        size = _HANDLE_SIZES.get(kind)
        if size is None:
            raise ValueError(f"{where}: unknown handle kind '{kind}'")
        try:
            offset, length = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"{where}: offset and length must be integers") from None
        if length < 1:
            raise ValueError(f"{where}: length must be >= 1, got {length}")
        if offset < 0 or offset + length > size:
            raise ValueError(
                f"{where}: bytes [{offset}, {offset + length}) lie outside the "
                f"{size}-byte {kind} handle"
            )
        regions.append(StateVarRegion(kind, offset, length))
    return sort_regions(regions)
