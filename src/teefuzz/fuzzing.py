"""The main fuzzing loop with composite state+branch feedback.

The corpus lives in the SeedSelector, keyed by state hash: its `buckets`
hold each state's seeds and its `hits` count how often each state was
reached.  Selection picks a state inversely to its hit count, then a seed
inside the bucket proportionally to its branch-coverage size;
preservation adds seeds that reach new states or new branches.  There is
no triage stage: a test case is executed once, plus a single confirmation
replay when it crashes.
"""

from __future__ import annotations

import json
import logging
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from .config import CampaignConfig
from .corpus_io import format_program
from .minitee import FaultRecord
from .payload import serialize_payload
from .statevars import (
    CompiledRegions,
    StateVarRegion,
    sort_regions,
    state_hash_from_snapshots,
)
from .templates import TemplateSet
from .testcase import TestCase, generate_testcase, mutate_testcase
from .tracecov import coverage_of, fnv1a64

log = logging.getLogger("teefuzz.fuzz")

# feedback state key in coverage-only mode, which degenerates to one
# synthetic bucket
SYNTHETIC_STATE = 0

CrashId = tuple[str, ...]


@dataclass
class SeedNode:
    testcase: TestCase
    cov_size: int  # distinct branches its execution covered


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

    @property
    def unique_crashes(self) -> list[CrashId]:
        return [c.crash_id for c in self.crashes]


def crash_id_of(fault: FaultRecord) -> CrashId:
    """Crash identity is the top three stack frames."""
    if not fault.frames:
        raise ValueError("fault carries no frames")
    return tuple(fault.frames[:3])


def preserve(
    testcase: TestCase,
    per_syscall: list[tuple[set[int], int]],
    global_cov: set[int],
    selector: SeedSelector,
) -> list[int]:
    """Decide which buckets of `selector` one execution's test case joins.

    per_syscall pairs each executed call's branch-ID set with its state
    hash.  New states open buckets; new branches append a node to the
    bucket of the state the triggering call produced.  Returns the states
    that gained a node (empty when the execution contributed nothing new).
    """
    buckets = selector.buckets
    node_states: list[int] = []
    for cov, sh in per_syscall:
        if (sh not in buckets or not cov <= global_cov) and sh not in node_states:
            node_states.append(sh)
    if not node_states:
        # every call's coverage is already in global_cov
        return node_states
    union: set[int] = set()
    for cov, _ in per_syscall:
        union |= cov
    node = SeedNode(testcase, len(union))
    for sh in node_states:
        selector.note_node(sh, node)
    global_cov |= union
    return node_states


class SeedSelector:
    """The corpus, and incremental two-stage weighted selection over it.

    `buckets` maps each state to its seed nodes and `hits` each state to
    its hit count.  State weights (reciprocal hit counts) live in a
    Fenwick tree, in the order states were first hit, so a campaign pays
    O(log n) per pick and per hit-count bump instead of rescanning every
    state; the in-bucket stage is a short scan over the bucket's coverage
    sizes.
    """

    def __init__(self):
        self.buckets: dict[int, list[SeedNode]] = {}
        self.hits: dict[int, int] = {}
        self._states: list[int] = []
        self._pos: dict[int, int] = {}
        self._tree: list[float] = [0.0]  # 1-based
        self._bucket_cov: dict[int, int] = {}

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

    def note_hits(self, state: int, k: int) -> None:
        """Count `k` more hits of `state`."""
        h = self.hits[state] = self.hits.get(state, 0) + k
        if h == k:
            self._pos[state] = len(self._states)
            self._states.append(state)
            self._append(1.0 / h)
        else:
            self._add(self._pos[state], 1.0 / h - 1.0 / (h - k))

    def note_node(self, state: int, node: SeedNode) -> None:
        self.buckets.setdefault(state, []).append(node)
        self._bucket_cov[state] = self._bucket_cov.get(state, 0) + node.cov_size

    # selection ----------------------------------------------------------------

    def pick(self, rng: Random) -> SeedNode:
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
        bucket = self.buckets[state]
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
    """One campaign: owns the seed selector and drives a probe endpoint."""

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
        # compiled once per campaign; also owns the campaign's state-hash cache
        self.compiled = CompiledRegions(self.regions) if self.regions else None
        self.state_feedback = cfg.mode == "composite"
        if self.state_feedback and not self.regions:
            raise ValueError("composite mode needs at least one inferred state region")
        self.rng = Random(cfg.campaign_seed)
        self.selector = SeedSelector()
        self.seedmap = self.selector.buckets
        self.global_cov: set[int] = set()
        # states are measured whenever there are regions, whatever the mode
        self.measured_states: set[int] = set()
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
            len(self.global_cov),
            len(self.measured_states),
            len(self.report.crashes),
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

    # --- execution -----------------------------------------------------------

    def _feedback(self, result) -> list[tuple[set[int], int]]:
        """Per executed syscall: (branch-ID set, feedback state hash)."""
        out = []
        compiled = self.compiled
        for sr in result.per_syscall:
            cov = coverage_of(sr.trace)
            if compiled is not None:
                sh = state_hash_from_snapshots(compiled, sr.snapshots)
                self.measured_states.add(sh)
            else:
                sh = SYNTHETIC_STATE
            out.append((cov, sh if self.state_feedback else SYNTHETIC_STATE))
        self.report.syscalls += len(out)
        return out

    def _execute(self, tc: TestCase) -> None:
        payload = serialize_payload(tc)
        result = self.probe.submit(payload)
        self.report.submissions += 1
        per_syscall = self._feedback(result)
        # once per distinct state, in first-occurrence order
        for sh, k in Counter(sh for _, sh in per_syscall).items():
            self.selector.note_hits(sh, k)
        if preserve(tc, per_syscall, self.global_cov, self.selector):
            self._persist_seed(tc, payload)
        if result.fault is not None:
            self._handle_fault(tc, payload, result.fault)
        self.report.executions += 1
        if self.report.executions % self.cfg.stats_every == 0:
            self._tick()

    def _handle_fault(self, tc: TestCase, payload: bytes, fault: FaultRecord) -> None:
        crash_id = crash_id_of(fault)
        if crash_id in self.report.unique_crashes:
            return
        # confirm determinism with a single replay before recording
        replay = self.probe.submit(payload)
        self.report.submissions += 1
        self.report.crash_replays += 1
        if replay.fault is None or crash_id_of(replay.fault) != crash_id:
            log.warning("crash %s did not reproduce; dropping", crash_id)
            return
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
                    node = self.selector.pick(self.rng)
                    tc = mutate_testcase(node.testcase, self.templates, self.rng, cfg.max_len)
                    self.report.mutated += 1
                self._execute(tc)
            if budget > 0 and (not self.report.timeline or self.report.timeline[-1][0] != self.report.executions):
                self._tick()
        finally:
            if self._stats_fp is not None:
                self._stats_fp.close()
                self._stats_fp = None
        self.report.unique_branches = len(self.global_cov)
        self.report.unique_states = len(self.measured_states)
        log.info(
            "campaign done: %d execs, %d branches, %d states, %d crashes (%.1fs)",
            self.report.executions,
            self.report.unique_branches,
            self.report.unique_states,
            len(self.report.crashes),
            time.monotonic() - self._t0,
        )
        return self.report
