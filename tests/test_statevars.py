import hashlib
import re
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teefuzz.config import CampaignConfig
from teefuzz.minitee import (
    GROUND_TRUTH_REGIONS,
    OBJ_HANDLE_SIZE,
    OP_HANDLE_SIZE,
    ExecutionResult,
    HandleSnapshot,
    SyscallResult,
)
from teefuzz.payload import serialize_payload
from teefuzz.probe import SimProbe
from teefuzz.statevars import (
    ABSENT_MARKER,
    MAX_TRIALS,
    VOLATILITY_THRESHOLD,
    CompiledRegions,
    HandleSnapshotLog,
    SnapshotEntry,
    StateVarRegion,
    collect_snapshots,
    filter_volatile,
    infer_state_vars,
    load_regions,
    save_regions,
    sort_regions,
    state_hash_from_snapshots,
    trial_grid,
)
from teefuzz.tracecov import fnv1a64


def empty_state_hash(regions: list[StateVarRegion]) -> int:
    """Oracle: the state hash when no handles are live (the transition-tree
    root), straight from the key layout."""
    return fnv1a64(ABSENT_MARKER * len(regions))


def regions_file(tmp_path, bad_line):
    path = tmp_path / "regions.txt"
    path.write_text(f"# kind offset length\noperation 12 4\n{bad_line}\n")
    return path


def test_save_load_roundtrip(tmp_path):
    regions = [StateVarRegion("operation", 12, 4), StateVarRegion("object", 0, 4)]
    path = tmp_path / "regions.txt"
    save_regions(regions, path)
    assert load_regions(path) == sorted(regions)


def test_regions_may_end_at_the_handle_end(tmp_path):
    path = tmp_path / "regions.txt"
    path.write_text(f"operation {OP_HANDLE_SIZE - 4} 4\nobject {OBJ_HANDLE_SIZE - 1} 1\n")
    assert len(load_regions(path)) == 2


@pytest.mark.parametrize(
    "bad_line, reason",
    [
        ("operation twelve 4", "integers"),
        ("operation 12 4.0", "integers"),
        ("keystore 0 4", "unknown handle kind 'keystore'"),
        ("operation 12 0", "length must be >= 1"),
        ("object 8 -4", "length must be >= 1"),
        ("operation -4 4", "outside"),
        (f"operation {OP_HANDLE_SIZE - 2} 4", "outside the 64-byte operation handle"),
        (f"object {OBJ_HANDLE_SIZE} 4", "outside the 48-byte object handle"),
    ],
)
def test_bad_region_is_rejected_with_path_and_line(tmp_path, bad_line, reason):
    path = regions_file(tmp_path, bad_line)
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: ") + ".*" + re.escape(reason)):
        load_regions(path)


# --- inference ------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_inference(templates, seed_corpus):
    """The default config's pipeline, as `teefuzz infer-state` runs it."""
    cfg = CampaignConfig()
    probe = SimProbe(cfg.campaign_seed, templates)
    logbook = collect_snapshots(
        seed_corpus, cfg.infer_budget, probe, templates, Random(cfg.campaign_seed), cfg.max_len
    )
    candidates = filter_volatile(logbook, cfg.volatility_threshold, cfg.volatility_metric)
    regions = infer_state_vars(candidates, templates, probe, cfg.infer_trials)
    return logbook, regions


def test_default_config_recovers_exactly_the_ground_truth(default_inference):
    _, regions = default_inference
    assert [(r.handle_kind, r.offset, r.length) for r in regions] == sorted(
        (kind, off, 4) for kind, off in GROUND_TRUTH_REGIONS
    )


def test_every_other_logged_word_is_volatile(default_inference):
    logbook, _ = default_inference
    distinct: dict[tuple[str, int], set[bytes]] = {}
    for e in logbook.entries:
        for off in range(0, len(e.data), 4):
            distinct.setdefault((e.handle_kind, off), set()).add(e.data[off : off + 4])
    truth = set(GROUND_TRUTH_REGIONS)
    others = {key: len(words) for key, words in distinct.items() if key not in truth}
    assert len(others) == (OP_HANDLE_SIZE + OBJ_HANDLE_SIZE) // 4 - len(truth)
    assert min(others.values()) > VOLATILITY_THRESHOLD, others


# sha256 of each trial payload, per algorithm (AES-CBC, HMAC-SHA256) and
# variant, at lifecycle depths 1, 5 and 9 calls; the second HMAC variant
# has no one-call payload of its own
TRIAL_PAYLOAD_SHA256 = [
    "7f775ac611254d21", "29790470d0f7589b", "87009183850a0e64",
    "c1c32a5077e2e31d", "c479c6313e17b50e", "dd48bee35cf9641c",
    "170125a34137b933", "54df7bd692017bed", "5acd99c18228c2eb",
    "30ae5c11af221e4a", "190dc2576dbd54ed",
]


def test_trial_grid_payloads_are_pinned(templates):
    got = [hashlib.sha256(serialize_payload(tc)).hexdigest()[:16] for tc in trial_grid(templates)]
    assert got == TRIAL_PAYLOAD_SHA256


def test_trial_grid_holds_each_program_once(templates):
    payloads = [serialize_payload(tc) for tc in trial_grid(templates)]
    assert len(set(payloads)) == len(payloads) == MAX_TRIALS == 11


@pytest.mark.parametrize("trials", [1, 2, 10, 12])
def test_trials_other_than_the_whole_grid_are_rejected(templates, trials):
    with pytest.raises(ValueError, match=f"trials must be {MAX_TRIALS}, the size"):
        infer_state_vars({"operation": [12]}, templates, SimProbe(1, templates), trials)


class UnrepeatableProbe:
    """A probe whose second run of trial `reworded` reads `word` at
    `offset` of the operation handle, and whose second run of trial
    `dropped` holds no object handle."""

    def __init__(self, probe, reworded: int, offset: int, word: bytes, dropped: int):
        self.probe, self.submissions = probe, 0
        self.reworded, self.offset, self.word, self.dropped = reworded, offset, word, dropped

    def submit(self, payload):
        result = self.probe.submit(payload)
        trial, run = divmod(self.submissions, 2)
        self.submissions += 1
        if run == 0 or trial not in (self.reworded, self.dropped):
            return result
        per_syscall = []
        for sr in result.per_syscall:
            snaps = []
            for snap in sr.snapshots:
                if trial == self.dropped and snap.kind == "object":
                    continue
                if trial == self.reworded and snap.kind == "operation":
                    end = self.offset + 4
                    snap = snap._replace(data=snap.data[: self.offset] + self.word + snap.data[end:])
                snaps.append(snap)
            per_syscall.append(sr._replace(snapshots=snaps))
        return result._replace(per_syscall=per_syscall)


def test_a_word_that_does_not_repeat_is_never_confirmed(templates):
    # operation 12 and 16 and object 0 all vary across trials and repeat
    candidates = {"object": [0], "operation": [12, 16]}
    assert infer_state_vars(candidates, templates, SimProbe(1, templates)) == [
        StateVarRegion("object", 0),
        StateVarRegion("operation", 12),
        StateVarRegion("operation", 16),
    ]
    # trials 5 (a decrypting cipher) and 8 (a MAC) run to their update, so
    # both hold both handles
    probe = UnrepeatableProbe(SimProbe(1, templates), 5, 12, b"\xee" * 4, 8)
    assert infer_state_vars(candidates, templates, probe) == [StateVarRegion("operation", 16)]
    assert probe.submissions == 2 * MAX_TRIALS


# --- volatility filter ------------------------------------------------------------


def unbounded_churn(logbook) -> dict[str, list[int]]:
    """Reference churn of every offset over the whole log, per kind in
    sorted order: its distinct words.  Nothing is dropped early, so memory
    grows with the log."""
    sizes: dict[str, int] = {}
    for e in logbook.entries:
        sizes.setdefault(e.handle_kind, len(e.data))
    words: dict[tuple[str, int], set[bytes]] = {}
    for e in logbook.entries:
        for off in range(0, sizes[e.handle_kind], 4):
            words.setdefault((e.handle_kind, off), set()).add(e.data[off : off + 4])
    return {
        kind: [len(words[kind, off]) for off in range(0, size, 4)]
        for kind, size in sorted(sizes.items())
    }


def unbounded_filter(churn: dict[str, list[int]], threshold: int) -> dict[str, list[int]]:
    """Reference filter: the offsets whose whole-log churn is <= threshold."""
    return {
        kind: [4 * i for i, count in enumerate(counts) if count <= threshold]
        for kind, counts in churn.items()
    }


class RecordingProbe:
    """A probe that keeps, in order, the rows a log of its results must
    hold: (execution index, call index, kind, data) per snapshot."""

    def __init__(self, probe):
        self.probe = probe
        self.executions = 0
        self.rows: list[SnapshotEntry] = []

    def submit(self, payload):
        result = self.probe.submit(payload)
        for call, sr in enumerate(result.per_syscall):
            self.rows += [SnapshotEntry(self.executions, call, s.kind, s.data) for s in sr.snapshots]
        self.executions += 1
        return result


@pytest.fixture(scope="module")
def recorded_logbooks(templates, seed_corpus):
    """Snapshot logs of three campaign seeds at budgets 1, 50 and 3,000,
    each with the rows its probe returned."""
    books = {}
    for seed in (1, 2, 3):
        for budget in (1, 50, 3_000):
            probe = RecordingProbe(SimProbe(seed, templates))
            logbook = collect_snapshots(seed_corpus, budget, probe, templates, Random(seed))
            books[seed, budget] = logbook, probe.rows
    return books


@pytest.fixture(scope="module")
def logbooks(recorded_logbooks):
    """Snapshot logs of three campaign seeds at budgets 1, 50 and 3,000."""
    return {key: logbook for key, (logbook, _) in recorded_logbooks.items()}


def test_the_log_reads_back_every_snapshot_the_probe_returned(recorded_logbooks):
    for key, (logbook, rows) in recorded_logbooks.items():
        assert list(logbook.entries) == rows, key
        assert len(logbook) == len(logbook.entries) == len(list(logbook.entries)), key
        assert list(HandleSnapshotLog(logbook.entries).entries) == rows, key


# "distinct" is the one volatility metric; `filter_volatile` still takes it
@pytest.mark.parametrize("metric", ["distinct"])
def test_bounded_filter_equals_the_unbounded_reference(logbooks, metric):
    for (seed, budget), logbook in logbooks.items():
        churn = unbounded_churn(logbook)
        for threshold in (0, 1, 2, 80, 81, 10**6):
            want = unbounded_filter(churn, threshold)
            got = filter_volatile(logbook, threshold, metric)
            where = (seed, budget, threshold)
            assert list(got.items()) == list(want.items()), where


@pytest.mark.parametrize("metric", ["distinct"])
def test_filter_memory_is_bounded_by_the_threshold(metric):
    """20,000 snapshots whose last twelve words are noise: the filter holds
    at most threshold + 1 words per offset, not one per snapshot."""
    rng = Random(11)
    logbook = HandleSnapshotLog(
        [SnapshotEntry(i, 0, "operation", bytes(16) + rng.randbytes(48)) for i in range(20_000)]
    )
    tracemalloc.start()
    try:
        got = filter_volatile(logbook, VOLATILITY_THRESHOLD, metric)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == {"operation": [0, 4, 8, 12]}
    assert peak < 1_000_000, peak


def test_the_log_holds_its_rows_in_columns():
    """20,000 results of one fresh 64-byte snapshot each, dropped after the
    append as in the pre-fuzzing pass: the log holds under 90 B a row, and
    reading it as entries builds one row at a time."""
    rng = Random(11)
    tracemalloc.start()
    try:
        logbook = HandleSnapshotLog()
        for i in range(20_000):
            snap = HandleSnapshot(0, "operation", rng.randbytes(OP_HANDLE_SIZE))
            logbook.append_result(i, ExecutionResult([SyscallResult([], [snap], 0)], None))
        del snap
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in logbook.entries:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 2_000_000, held
    assert peak - held <= 100_000, peak - held
    assert len(logbook.entries) == 20_000


@pytest.mark.parametrize("metric", ["distinct"])
def test_negative_threshold_is_rejected(metric):
    logbook = HandleSnapshotLog([SnapshotEntry(0, 0, "operation", bytes(OP_HANDLE_SIZE))])
    with pytest.raises(ValueError, match="threshold"):
        filter_volatile(logbook, -1, metric)


def test_the_occurrences_metric_is_rejected():
    logbook = HandleSnapshotLog([SnapshotEntry(0, 0, "operation", bytes(OP_HANDLE_SIZE))])
    with pytest.raises(ValueError, match="unknown volatility metric 'occurrences'"):
        filter_volatile(logbook, VOLATILITY_THRESHOLD, "occurrences")


# --- state keys -------------------------------------------------------------------


def state_key_from_snapshots(regions, snapshots) -> bytes:
    """Reference state key, one region at a time.

    Concatenated region values over live handles, in (kind, offset) order:
    `regions` must already be sorted; `snapshots` is the per-call
    live-handle snapshot list in allocation order.  A region whose kind has
    no live handle contributes the absent marker.
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


SIZES = {"operation": OP_HANDLE_SIZE, "object": OBJ_HANDLE_SIZE}

# word-aligned offsets and lengths make adjacent runs common; the raw
# integers add gaps, overlaps and zero-length regions
region_st = st.builds(
    StateVarRegion,
    st.sampled_from(sorted(SIZES)),
    st.sampled_from(range(0, OBJ_HANDLE_SIZE, 4)) | st.integers(0, OBJ_HANDLE_SIZE - 1),
    st.sampled_from([4, 8]) | st.integers(0, 12),
)


@st.composite
def snapshots_st(draw):
    snaps = [
        HandleSnapshot(0, kind, draw(st.binary(min_size=size, max_size=size)))
        for kind, size in SIZES.items()
        for _ in range(draw(st.integers(0, 3)))
    ]
    return draw(st.permutations(snaps))


@settings(max_examples=300, deadline=None)
@given(st.lists(region_st, max_size=8), snapshots_st())
def test_compiled_key_equals_the_per_region_oracle(regions, snapshots):
    compiled = CompiledRegions(regions)
    kinds = [snap.kind for snap in snapshots]
    if any(kinds.count(r.handle_kind) > 1 for r in regions):
        # a target holds at most one live handle per kind
        with pytest.raises(ValueError, match="one live"):
            compiled.key(snapshots)
        return
    want = state_key_from_snapshots(sort_regions(regions), snapshots)
    assert compiled.key(snapshots) == want
    assert state_hash_from_snapshots(compiled, snapshots) == fnv1a64(want)


@given(st.lists(region_st, max_size=8))
def test_empty_state_hash_is_the_compiled_hash_of_no_snapshots(regions):
    assert empty_state_hash(regions) == state_hash_from_snapshots(CompiledRegions(regions), [])


def test_ground_truth_regions_compile_to_one_run_per_kind():
    compiled = CompiledRegions([StateVarRegion(k, off, 4) for k, off in GROUND_TRUTH_REGIONS])
    assert [(kind, runs) for kind, runs, _ in compiled.kinds] == [
        ("object", [(0, 16)]),
        ("operation", [(0, 24)]),
    ]
