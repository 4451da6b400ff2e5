"""The main fuzzing loop with composite state+branch feedback.

The corpus is two maps keyed by state hash: SeedMap holds per-state seed
buckets, HitMap counts how often each state was reached.  Selection picks
a state inversely to its hit count, then a seed inside the bucket
proportionally to its branch-coverage size; preservation adds seeds that
reach new states or new branches.  There is no triage stage: a test case
is executed once, plus a single confirmation replay when it crashes.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from .config import CampaignConfig
from .corpus_io import format_program
from .minitee import FaultRecord
from .payload import serialize_payload
from .statevars import StateVarRegion, sort_regions, state_hash_from_snapshots
from .templates import TemplateSet
from .testcase import TestCase, generate_testcase, mutate_testcase
from .tracecov import coverage_of, fnv1a64

log = logging.getLogger("teefuzz.fuzz")

# feedback state key used when state feedback is off (coverage-only mode
# degenerates to one synthetic bucket)
SYNTHETIC_STATE = 0

CrashId = tuple[str, ...]


@dataclass
class SeedNode:
    testcase: TestCase
    branch_cov: frozenset[int]
    cov_size: int = field(init=False)

    def __post_init__(self):
        self.cov_size = len(self.branch_cov)


@dataclass
class CrashRecord:
    crash_id: CrashId
    kind: str
    frames: tuple[str, ...]
    exec_index: int
    payload: bytes


@dataclass
class CampaignReport:
    executions: int = 0
    unique_branches: int = 0
    unique_states: int = 0
    unique_crashes: list[CrashId] = field(default_factory=list)
    timeline: list[tuple[int, int, int, int]] = field(default_factory=list)
    crashes: list[CrashRecord] = field(default_factory=list)
    # loop accounting for the no-triage invariant:
    # submissions == generated + mutated + seed replays + crash replays
    submissions: int = 0
    generated: int = 0
    mutated: int = 0
    seed_replays: int = 0
    crash_replays: int = 0
    # calls executed by the fed-back submissions (crash replays excluded)
    syscalls: int = 0


def dedup(fault: FaultRecord, known: set[CrashId]) -> tuple[CrashId, bool]:
    """Crash identity is the top three stack frames."""
    if not fault.frames:
        raise ValueError("fault carries no frames")
    crash_id = tuple(fault.frames[:3])
    return crash_id, crash_id not in known


def preserve(
    testcase: TestCase,
    per_syscall: list[tuple[set[int], int]],
    global_cov: set[int],
    seedmap: dict[int, list[SeedNode]],
    hitmap: dict[int, int],
) -> list[int]:
    """Fold one execution's feedback into the corpus maps.

    per_syscall pairs each executed call's branch-ID set with its state
    hash.  New states open buckets; new branches append a node to the
    bucket of the state the triggering call produced.  Hit counts bump
    once per state occurrence.  Returns the states that gained a node
    (empty when the execution contributed nothing new).
    """
    node_states: list[int] = []
    seen_here: set[int] = set()
    for cov, sh in per_syscall:
        hitmap[sh] = hitmap.get(sh, 0) + 1
        wants_node = sh not in seedmap or not cov <= global_cov
        if wants_node and sh not in seen_here:
            node_states.append(sh)
            seen_here.add(sh)
    if not node_states:
        for cov, _ in per_syscall:
            global_cov |= cov
        return node_states
    union: set[int] = set()
    for cov, _ in per_syscall:
        union |= cov
    node = SeedNode(testcase, frozenset(union))
    for sh in node_states:
        seedmap.setdefault(sh, []).append(node)
    global_cov |= union
    return node_states


class SeedSelector:
    """Incremental two-stage weighted selection over the corpus maps.

    State weights (reciprocal hit counts) live in a Fenwick tree so a
    campaign pays O(log n) per pick and per hit-count bump instead of
    rescanning every state; the in-bucket stage is a short scan over the
    bucket's coverage sizes.
    """

    def __init__(self):
        self._states: list[int] = []
        self._pos: dict[int, int] = {}
        self._tree: list[float] = [0.0]  # 1-based
        self._bucket_cov: dict[int, int] = {}

    def __len__(self):
        return len(self._states)

    # Fenwick plumbing ----------------------------------------------------

    def _prefix(self, i: int) -> float:
        s = 0.0
        while i > 0:
            s += self._tree[i]
            i -= i & (-i)
        return s

    def _add(self, i: int, delta: float) -> None:
        n = len(self._states)
        i += 1
        while i <= n:
            self._tree[i] += delta
            i += i & (-i)

    def _append(self, w: float) -> None:
        i = len(self._states)  # new 1-based index
        lb = i & (-i)
        self._tree.append(w + self._prefix(i - 1) - self._prefix(i - lb))

    # corpus updates --------------------------------------------------------

    def note_hits(self, state: int, new_hits: int, delta: int) -> None:
        """Record that `state` now has `new_hits` hits (bumped by `delta`)."""
        pos = self._pos.get(state)
        if pos is None:
            self._pos[state] = len(self._states)
            self._states.append(state)
            self._append(1.0 / new_hits)
        else:
            self._add(pos, 1.0 / new_hits - 1.0 / (new_hits - delta))

    def note_node(self, state: int, node: SeedNode) -> None:
        self._bucket_cov[state] = self._bucket_cov.get(state, 0) + node.cov_size

    # selection ----------------------------------------------------------------

    def pick(self, seedmap: dict[int, list[SeedNode]], rng: Random) -> SeedNode:
        n = len(self._states)
        if n == 0:
            raise LookupError("empty seed corpus")
        total = self._prefix(n)
        r = rng.random() * total
        i = 0
        bit = 1 << (n.bit_length())
        while bit:
            ni = i + bit
            if ni <= n and self._tree[ni] <= r:
                r -= self._tree[ni]
                i = ni
            bit >>= 1
        state = self._states[min(i, n - 1)]
        bucket = seedmap[state]
        total_cov = self._bucket_cov.get(state, 0)
        if total_cov <= 0:
            return bucket[rng.randrange(len(bucket))]
        r = rng.random() * total_cov
        acc = 0.0
        for node in bucket:
            acc += node.cov_size
            if r < acc:
                return node
        return bucket[-1]


class FuzzCampaign:
    """One campaign: owns the corpus maps and drives a probe endpoint."""

    def __init__(
        self,
        cfg: CampaignConfig,
        probe,
        templates: TemplateSet,
        seeds: list[TestCase],
        regions: list[StateVarRegion],
        out_dir: str | Path | None = None,
    ):
        cfg.validate()
        self.cfg = cfg
        self.probe = probe
        self.templates = templates
        self.seeds = seeds
        self.regions = sort_regions(regions)
        self.state_feedback = cfg.mode in ("composite", "state_only")
        self.branch_feedback = cfg.mode in ("composite", "coverage_only")
        if self.state_feedback and not self.regions:
            raise ValueError(f"mode {cfg.mode} needs inferred state regions")
        self.rng = Random(cfg.campaign_seed)
        self.seedmap: dict[int, list[SeedNode]] = {}
        self.hitmap: dict[int, int] = {}
        self.selector = SeedSelector()
        self.global_cov: set[int] = set()
        # metrics are always measured, whatever the feedback mode uses
        self.all_branches: set[int] = (
            self.global_cov if self.branch_feedback else set()
        )
        self.measured_states: set[int] = set()
        self.known_crashes: set[CrashId] = set()
        self.report = CampaignReport()
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self._stats_fp = None
        self._t0 = time.monotonic()
        if self.out_dir is not None:
            (self.out_dir / "corpus").mkdir(parents=True, exist_ok=True)
            (self.out_dir / "crashes").mkdir(parents=True, exist_ok=True)

    # --- persistence ---------------------------------------------------------

    def _persist_seed(self, tc: TestCase, payload: bytes) -> None:
        if self.out_dir is None:
            return
        name = f"{fnv1a64(payload):016x}.prog"
        path = self.out_dir / "corpus" / name
        if not path.exists():
            path.write_text(format_program(tc, self.templates))

    def _persist_crash(self, rec: CrashRecord, tc: TestCase) -> None:
        if self.out_dir is None:
            return
        slug = "__".join(rec.crash_id)[:80]
        d = self.out_dir / "crashes" / slug
        d.mkdir(parents=True, exist_ok=True)
        (d / "payload.bin").write_bytes(rec.payload)
        (d / "frames.txt").write_text("\n".join(rec.frames) + "\n")
        (d / "program.prog").write_text(format_program(tc, self.templates))

    def _tick(self) -> None:
        row = (
            self.report.executions,
            len(self.all_branches),
            self._state_count(),
            len(self.report.unique_crashes),
        )
        self.report.timeline.append(row)
        if self._stats_fp is not None:
            self._stats_fp.write(
                json.dumps(
                    {
                        "execs": row[0],
                        "branches": row[1],
                        "states": row[2],
                        "crashes": row[3],
                        "syscalls": self.report.syscalls,
                    }
                )
                + "\n"
            )
            self._stats_fp.flush()

    def _state_count(self) -> int:
        if self.regions:
            return len(self.measured_states)
        return len(self.hitmap)

    # --- execution -----------------------------------------------------------

    def _feedback(self, tc: TestCase, result) -> list[tuple[set[int], int]]:
        """Per executed syscall: (branch-ID set, feedback state hash)."""
        out = []
        regions = self.regions
        for sr in result.per_syscall:
            cov = coverage_of(sr.trace)
            if not self.branch_feedback:
                self.all_branches |= cov
                cov = set()
            if regions:
                sh = state_hash_from_snapshots(regions, sr.snapshots)
                self.measured_states.add(sh)
            else:
                sh = SYNTHETIC_STATE
            out.append((cov, sh if self.state_feedback else SYNTHETIC_STATE))
            self.report.syscalls += 1
        return out

    def _execute(self, tc: TestCase) -> None:
        payload = serialize_payload(tc)
        result = self.probe.submit(payload)
        self.report.submissions += 1
        per_syscall = self._feedback(tc, result)
        occurrences: dict[int, int] = {}
        for _, sh in per_syscall:
            occurrences[sh] = occurrences.get(sh, 0) + 1
        added = preserve(tc, per_syscall, self.global_cov, self.seedmap, self.hitmap)
        for sh, k in occurrences.items():
            self.selector.note_hits(sh, self.hitmap[sh], k)
        for sh in added:
            self.selector.note_node(sh, self.seedmap[sh][-1])
        if added:
            self._persist_seed(tc, payload)
        if result.fault is not None:
            self._handle_fault(tc, payload, result.fault)
        self.report.executions += 1
        if self.report.executions % self.cfg.stats_every == 0:
            self._tick()

    def _handle_fault(self, tc: TestCase, payload: bytes, fault: FaultRecord) -> None:
        crash_id, is_new = dedup(fault, self.known_crashes)
        if not is_new:
            return
        # confirm determinism with a single replay before recording
        replay = self.probe.submit(payload)
        self.report.submissions += 1
        self.report.crash_replays += 1
        if replay.fault is None or dedup(replay.fault, set())[0] != crash_id:
            log.warning("crash %s did not reproduce; dropping", crash_id)
            return
        self.known_crashes.add(crash_id)
        self.report.unique_crashes.append(crash_id)
        rec = CrashRecord(
            crash_id=crash_id,
            kind=fault.kind,
            frames=fault.frames,
            exec_index=self.report.executions,
            payload=payload,
        )
        self.report.crashes.append(rec)
        self._persist_crash(rec, tc)

    def run(self) -> CampaignReport:
        cfg = self.cfg
        budget = cfg.budget
        if self.out_dir is not None:
            self._stats_fp = open(self.out_dir / "stats.jsonl", "w")
        try:
            # replaying the seed corpus rebuilds the maps and counts against
            # the budget like any other execution
            for tc in self.seeds:
                if self.report.executions >= budget:
                    break
                self.report.seed_replays += 1
                self._execute(tc)
            while self.report.executions < budget:
                if not self.seedmap or self.rng.random() < cfg.p_gen:
                    tc = generate_testcase(self.templates, self.rng, cfg.max_len)
                    self.report.generated += 1
                else:
                    node = self.selector.pick(self.seedmap, self.rng)
                    tc = mutate_testcase(node.testcase, self.templates, self.rng, cfg.max_len)
                    self.report.mutated += 1
                self._execute(tc)
            if budget > 0 and (not self.report.timeline or self.report.timeline[-1][0] != self.report.executions):
                self._tick()
        finally:
            if self._stats_fp is not None:
                self._stats_fp.close()
                self._stats_fp = None
        self.report.unique_branches = len(self.all_branches)
        self.report.unique_states = self._state_count()
        log.info(
            "campaign done: %d execs, %d branches, %d states, %d crashes (%.1fs)",
            self.report.executions,
            self.report.unique_branches,
            self.report.unique_states,
            len(self.report.unique_crashes),
            time.monotonic() - self._t0,
        )
        return self.report
