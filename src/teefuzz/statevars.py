"""State-variable inference and state hashing.

The pipeline mirrors the handle-snapshot approach: run a coverage-only
pre-fuzzing pass while logging handle buffers, drop four-byte words that
behave like buffers or pointers (too many distinct values), then confirm
the survivors by executing systematically varied crypto configurations
and keeping the words that respond to configuration changes but stay
repeatable run-to-run.  The combined value of the inferred regions over
all live handles, hashed, is the state-coverage unit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import NamedTuple

from . import minitee
from .payload import serialize_payload
from .templates import TemplateSet
from .testcase import ArgValue, Syscall, TestCase, generate_testcase, mutate_testcase
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
    ordinal: int
    handle_kind: str
    data: bytes


@dataclass
class HandleSnapshotLog:
    entries: list[SnapshotEntry] = field(default_factory=list)

    def append_result(self, testcase_id: int, tc: TestCase, result) -> None:
        for call_index, sr in enumerate(result.per_syscall):
            ordinal = tc.calls[call_index].ordinal
            for snap in sr.snapshots:
                self.entries.append(
                    SnapshotEntry(testcase_id, call_index, ordinal, snap.kind, snap.data)
                )


# --- snapshot collection -------------------------------------------------------


def collect_snapshots(
    seeds: list[TestCase],
    budget: int,
    probe,
    templates: TemplateSet,
    rng: Random,
    max_len: int = 64,
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
        logbook.append_result(execs, tc, result)
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

    An offset is excluded when its churn exceeds `threshold`; what counts
    as churn is the `volatility_metric` switch: "distinct" counts distinct
    observed words (the default reading), "occurrences" counts how many
    times the word changed between consecutive snapshots of the kind.
    """
    if not logbook.entries:
        raise ValueError("empty snapshot log")
    if metric not in ("distinct", "occurrences"):
        raise ValueError(f"unknown volatility metric '{metric}'")
    sizes: dict[str, int] = {}
    for e in logbook.entries:
        sizes.setdefault(e.handle_kind, len(e.data))
    counters: dict[tuple[str, int], set[bytes] | int] = {}
    last_seen: dict[tuple[str, int], bytes] = {}
    for e in logbook.entries:
        data = e.data
        for off in range(0, sizes[e.handle_kind], 4):
            key = (e.handle_kind, off)
            word = data[off : off + 4]
            if metric == "distinct":
                bucket = counters.setdefault(key, set())
                bucket.add(word)
            else:
                prev = last_seen.get(key)
                if prev is not None and prev != word:
                    counters[key] = counters.get(key, 0) + 1
                last_seen[key] = word
    candidates: dict[str, list[int]] = {}
    for kind, size in sorted(sizes.items()):
        kept = []
        for off in range(0, size, 4):
            c = counters.get((kind, off))
            count = len(c) if isinstance(c, set) else (c or 0)
            if count <= threshold:
                kept.append(off)
        candidates[kind] = kept
    return candidates


# --- active inference --------------------------------------------------------------


def _trial_testcase(templates: TemplateSet, alg: int, variant: int, prefix: int) -> TestCase:
    """One systematically varied crypto configuration.

    The grid varies algorithm (cipher vs MAC), an operation variant (mode
    for ciphers, key width for MACs) and how far down the lifecycle the
    sequence runs: 1 = allocated, 2 = key set, 3 = initialized + one
    update.
    """
    by_name = templates.by_name

    def call(name: str, *args: ArgValue) -> Syscall:
        return Syscall(by_name[name].ordinal, tuple(args))

    is_mac = alg == minitee.ALG_HMAC_SHA256
    mode = minitee.MODE_MAC if is_mac else (
        minitee.MODE_ENCRYPT if variant == 0 else minitee.MODE_DECRYPT
    )
    key_len = (32 if variant else 16) if is_mac else 16
    calls = [
        call(
            "TEE_AllocateOperation",
            ArgValue.const_enum(alg),
            ArgValue.const_enum(mode),
            ArgValue.scalar32(1024),
        )
    ]
    if prefix >= 2:
        calls.append(
            call(
                "TEE_AllocateTransientObject",
                ArgValue.const_enum(minitee.KEY_TYPE_FOR_ALG[alg]),
                ArgValue.scalar32(1024),
            )
        )
        calls.append(
            call(
                "TEE_InitRefAttribute",
                ArgValue.const_enum(0xC0),
                ArgValue.buffer(bytes(range(key_len))),
            )
        )
        calls.append(
            call(
                "TEE_PopulateTransientObject",
                ArgValue.resource_ref(1),
                ArgValue.resource_ref(2),
                ArgValue.scalar32(1 + variant),
            )
        )
        calls.append(
            call(
                "TEE_SetOperationKey",
                ArgValue.resource_ref(0),
                ArgValue.resource_ref(1),
            )
        )
    if prefix >= 3:
        calls.append(
            call(
                "TEE_MakeIV",
                ArgValue.scalar32(0 if is_mac else 16),
                ArgValue.scalar32(0),
            )
        )
        calls.append(
            call(
                "TEE_MACInit" if is_mac else "TEE_CipherInit",
                ArgValue.resource_ref(0),
                ArgValue.resource_ref(5),
            )
        )
        calls.append(
            call("TEE_MakeChunk", ArgValue.scalar32(32), ArgValue.scalar32(0xAB))
        )
        calls.append(
            call(
                "TEE_MACUpdate" if is_mac else "TEE_CipherUpdate",
                ArgValue.resource_ref(0),
                ArgValue.resource_ref(7),
                ArgValue.scalar32(16),
            )
        )
    return TestCase(tuple(calls))


def trial_grid(templates: TemplateSet) -> list[TestCase]:
    grid = []
    for alg in (minitee.ALG_AES_CBC, minitee.ALG_HMAC_SHA256):
        for variant in (0, 1):
            for prefix in (1, 2, 3):
                grid.append(_trial_testcase(templates, alg, variant, prefix))
    return grid


def _final_words(result, kind: str, offsets: list[int]) -> dict[int, bytes] | None:
    """Word values at `offsets` in the last snapshot of `kind`, if any."""
    for sr in reversed(result.per_syscall):
        for snap in reversed(sr.snapshots):
            if snap.kind == kind:
                return {off: snap.data[off : off + 4] for off in offsets}
    return None


def infer_state_vars(
    candidates: dict[str, list[int]],
    templates: TemplateSet,
    probe,
    trials: int = 12,
    repeats: int = 2,
) -> list[StateVarRegion]:
    """Confirm candidates by running the varied-configuration trials.

    A candidate offset becomes a state-variable region iff its final value
    differs between at least two trials while being identical across
    repeated runs of the same trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grid = trial_grid(templates)[:trials]
    # per kind, per offset, the per-trial final words (None = handle absent
    # in that trial, "unstable" = repeats disagreed)
    observed: dict[str, dict[int, list[bytes | None | str]]] = {
        kind: {off: [] for off in offs} for kind, offs in candidates.items()
    }
    for tc in grid:
        payload = serialize_payload(tc)
        runs = [probe.submit(payload) for _ in range(max(1, repeats))]
        for kind, offs in candidates.items():
            per_run = [_final_words(r, kind, offs) for r in runs]
            for off in offs:
                words = [None if w is None else w[off] for w in per_run]
                if any(w is not None and w != words[0] for w in words):
                    observed[kind][off].append("unstable")
                else:
                    observed[kind][off].append(words[0])
    regions = []
    for kind in sorted(observed):
        for off, per_trial in sorted(observed[kind].items()):
            if any(w == "unstable" for w in per_trial):
                continue
            values = {w for w in per_trial if w is not None}
            if len(values) >= 2:
                regions.append(StateVarRegion(kind, off, 4))
    return regions


# --- state hashing ----------------------------------------------------------------


def sort_regions(regions: list[StateVarRegion]) -> list[StateVarRegion]:
    return sorted(regions, key=lambda r: (r.handle_kind, r.offset))


_hash_cache: dict[bytes, int] = {}


def state_key_from_snapshots(regions: list[StateVarRegion], snapshots) -> bytes:
    """Concatenated region values over live handles, in (kind, offset) order.

    `regions` must already be sorted (see sort_regions); `snapshots` is the
    per-call live-handle snapshot list in allocation order.  A region whose
    kind has no live handle contributes the absent marker.
    """
    parts = []
    by_kind: dict[str, list[bytes]] = {}
    for snap in snapshots:
        by_kind.setdefault(snap.kind, []).append(snap.data)
    for region in regions:
        datas = by_kind.get(region.handle_kind)
        if not datas:
            parts.append(ABSENT_MARKER)
            continue
        off, end = region.offset, region.offset + region.length
        for data in datas:
            parts.append(data[off:end])
    return b"".join(parts)


def state_hash_from_snapshots(regions: list[StateVarRegion], snapshots) -> int:
    key = state_key_from_snapshots(regions, snapshots)
    h = _hash_cache.get(key)
    if h is None:
        h = fnv1a64(key)
        _hash_cache[key] = h
    return h


def empty_state_hash(regions: list[StateVarRegion]) -> int:
    """State hash when no handles are live (the transition-tree root)."""
    return fnv1a64(ABSENT_MARKER * len(regions))


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
