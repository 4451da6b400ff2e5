import hashlib
import json
from collections import Counter
from random import Random

import pytest

from teefuzz.config import CampaignConfig
from teefuzz.fuzzing import FuzzCampaign, SeedNode, SeedSelector, crash_id_of, preserve
from teefuzz.minitee import GROUND_TRUTH_REGIONS, ExecutionResult, FaultRecord
from teefuzz.probe import SimProbe
from teefuzz.statevars import CompiledRegions, StateVarRegion, state_hash_from_snapshots
from teefuzz.stt import build_stt, to_dot
from test_statevars import empty_state_hash

REGIONS = [StateVarRegion(kind, off, 4) for kind, off in GROUND_TRUTH_REGIONS]
BUDGET = 3_000


def select_seed(
    buckets: dict[int, list[SeedNode]],
    hits: dict[int, int],
    rng: Random,
) -> SeedNode:
    """Reference selection, O(n) per pick: rare states first, then
    coverage-heavy seeds inside the bucket.

    State weight is the reciprocal of its hit count, normalised over all
    states; the in-bucket weight of a seed is its branch-coverage size as
    a share of the bucket total, falling back to uniform when every node
    in the bucket has empty coverage.
    """
    if not buckets:
        raise LookupError("empty seed corpus")
    total = 0.0
    weights = []
    for sh in buckets:
        w = 1.0 / hits[sh]
        weights.append(w)
        total += w
    r = rng.random() * total
    acc = 0.0
    bucket = None
    for sh, w in zip(buckets, weights):
        acc += w
        if r < acc:
            bucket = buckets[sh]
            break
    if bucket is None:  # float edge: fall back to the last state
        bucket = buckets[next(reversed(buckets))]
    total_cov = 0
    for node in bucket:
        total_cov += node.cov_size
    if total_cov == 0:
        return bucket[rng.randrange(len(bucket))]
    r = rng.random() * total_cov
    acc = 0.0
    for node in bucket:
        acc += node.cov_size
        if r < acc:
            return node
    return bucket[-1]


def run_campaign(templates, seeds, seed=1, mode="composite"):
    config = CampaignConfig(budget=BUDGET, campaign_seed=seed, mode=mode)
    campaign = FuzzCampaign(config, SimProbe(seed, templates), templates, seeds, REGIONS)
    return campaign, campaign.run()


@pytest.fixture(scope="module")
def composite(templates, seed_corpus):
    return run_campaign(templates, seed_corpus)


def test_selector_picks_what_the_reference_picks(composite):
    campaign, _ = composite
    assert len(campaign.seedmap) > 100
    for k in range(10_000):
        got = campaign.selector.pick(Random(k))
        want = select_seed(campaign.seedmap, campaign.selector.hits, Random(k))
        assert got is want, f"draw {k}"


class RecordingProbe:
    """Probe that keeps every result it returns, in order."""

    def __init__(self, probe):
        self.probe = probe
        self.results = []

    def submit(self, payload, on_syscall=None):
        result = self.probe.submit(payload, on_syscall)
        self.results.append(result)
        return result


def test_selector_hits_count_the_fed_back_calls_of_each_state(templates, seed_corpus):
    probe = RecordingProbe(SimProbe(1, templates))
    config = CampaignConfig(budget=500, campaign_seed=1, mode="composite")
    campaign = FuzzCampaign(config, probe, templates, seed_corpus, REGIONS)
    report = campaign.run()
    compiled = CompiledRegions(REGIONS)
    want, known, results = Counter(), set(), iter(probe.results)
    for result in results:
        want.update(state_hash_from_snapshots(compiled, sr.snapshots) for sr in result.per_syscall)
        if result.fault is not None and crash_id_of(result.fault) not in known:
            known.add(crash_id_of(result.fault))
            next(results)  # its confirmation replay, which is not fed back
    assert report.crash_replays == len(known) > 0 and len(want) > 50
    assert campaign.selector.hits == dict(want)
    assert list(campaign.selector.hits) == list(campaign.seedmap)


def test_no_triage_accounting(composite):
    _, report = composite
    assert report.executions == BUDGET
    assert report.submissions == (
        report.generated + report.mutated + report.seed_replays + report.crash_replays
    )
    assert report.crash_replays >= len(report.unique_crashes) > 0


def test_each_campaign_has_its_own_state_hash_cache(composite, templates, seed_corpus):
    campaign, _ = composite
    config = CampaignConfig(budget=0, campaign_seed=1)
    fresh = FuzzCampaign(config, SimProbe(1, templates), templates, seed_corpus, REGIONS)
    assert len(campaign.compiled.hashes) > 100
    assert fresh.compiled.hashes == {}


def outcome(report):
    return (
        report.timeline,
        [(c.crash_id, c.exec_index) for c in report.crashes],
        (
            report.submissions,
            report.generated,
            report.mutated,
            report.seed_replays,
            report.crash_replays,
            report.syscalls,
        ),
    )


def test_same_seed_same_report(composite, templates, seed_corpus):
    _, first = composite
    _, again = run_campaign(templates, seed_corpus)
    assert outcome(again) == outcome(first)


CLAIM_SEEDS = (1, 2, 3)


def test_composite_reaches_more_states_than_coverage_only(composite, templates, seed_corpus):
    """The paper's state claim at equal budget, over several seeds."""
    states = {}
    for seed in CLAIM_SEEDS:
        report = composite[1] if seed == 1 else run_campaign(templates, seed_corpus, seed)[1]
        baseline = run_campaign(templates, seed_corpus, seed, "coverage_only")[1]
        states[seed] = (report.unique_states, baseline.unique_states)
    wins = sum(ours > theirs for ours, theirs in states.values())
    verdict = (
        f"composite reached more states than coverage_only on {wins} of "
        f"{len(CLAIM_SEEDS)} seeds at {BUDGET} executions; (composite, coverage_only) "
        f"per seed: {states}"
    )
    print(verdict)
    assert wins == len(CLAIM_SEEDS), verdict


class FailingProbe:
    """Probe that raises on its Nth submit, after saving the stats file."""

    def __init__(self, probe, fail_at):
        self.probe = probe
        self.fail_at = fail_at
        self.submits = 0
        self.campaign = None
        self.stats_fp = None

    def submit(self, payload, on_syscall=None):
        self.submits += 1
        if self.submits == self.fail_at:
            self.stats_fp = self.campaign._stats_fp
            raise RuntimeError("probe link lost")
        return self.probe.submit(payload, on_syscall)


def test_stats_file_closed_when_run_raises(templates, seed_corpus, tmp_path):
    probe = FailingProbe(SimProbe(1, templates), fail_at=60)
    config = CampaignConfig(budget=BUDGET, campaign_seed=1, stats_every=10)
    campaign = FuzzCampaign(config, probe, templates, seed_corpus, REGIONS, tmp_path)
    probe.campaign = campaign
    with pytest.raises(RuntimeError, match="probe link lost"):
        campaign.run()
    assert probe.stats_fp is not None and probe.stats_fp.closed
    rows = [json.loads(line) for line in (tmp_path / "stats.jsonl").read_text().splitlines()]
    assert rows and all(set(r) == {"execs", "branches", "states", "crashes", "syscalls"} for r in rows)
    assert [r["execs"] for r in rows] == list(range(10, 10 * len(rows) + 1, 10))


# --- preservation, crash identity and crash confirmation ----------------------


def test_preserve_opens_a_bucket_for_a_new_state(seed_corpus):
    tc = seed_corpus[0]
    selector, global_cov = SeedSelector(), set()
    assert preserve(tc, [({1, 2}, 10), ({2}, 20)], global_cov, selector) == [10, 20]
    buckets = selector.buckets
    assert buckets[10] == buckets[20] and len(buckets[10]) == 1
    node = buckets[10][0]
    assert node.testcase is tc and node.cov_size == 2
    # preserve decides nodes only; hits are the loop's to note
    assert selector.hits == {}
    assert global_cov == {1, 2}


def test_preserve_appends_one_node_to_the_bucket_of_the_state_with_a_new_branch(seed_corpus):
    old, tc = seed_corpus[0], seed_corpus[1]
    selector, global_cov = SeedSelector(), set()
    preserve(old, [({1}, 10), ({2}, 20)], global_cov, selector)
    # branch 3 is new and first seen after the call that reached state 20;
    # state 10 is known and its call brought nothing new
    added = preserve(tc, [({1}, 10), ({2, 3}, 20), ({3}, 20)], global_cov, selector)
    assert added == [20]
    assert [n.testcase for n in selector.buckets[10]] == [old]
    assert [n.testcase for n in selector.buckets[20]] == [old, tc]
    assert selector.buckets[20][1].cov_size == 3
    assert global_cov == {1, 2, 3}


def test_preserve_gives_a_state_reached_several_times_one_node(seed_corpus):
    selector, global_cov = SeedSelector(), set()
    per_call = [(set(), 10), (set(), 10), (set(), 20), (set(), 10)]
    assert preserve(seed_corpus[0], per_call, global_cov, selector) == [10, 20]
    assert preserve(seed_corpus[1], per_call, global_cov, selector) == []
    assert [len(selector.buckets[10]), len(selector.buckets[20])] == [1, 1]


def test_preserve_of_a_run_with_nothing_new_adds_no_node(seed_corpus):
    selector, global_cov = SeedSelector(), set()
    preserve(seed_corpus[0], [({1, 2}, 10)], global_cov, selector)
    before = {sh: list(nodes) for sh, nodes in selector.buckets.items()}
    per_call = [({1}, 10), ({2}, 10)]
    assert preserve(seed_corpus[1], per_call, global_cov, selector) == []
    assert selector.buckets == before
    assert global_cov == {1, 2} and all(cov <= global_cov for cov, _ in per_call)


class FaultingProbe:
    """Probe whose every submission ends in the fault it is set to."""

    def __init__(self):
        self.fault = None

    def submit(self, payload, on_syscall=None):
        return ExecutionResult([], self.fault)


def test_dedup_keys_on_the_top_three_frames(templates, seed_corpus):
    fault = FaultRecord("hard_fault", ("a", "b", "c", "d"), 0)
    deeper = FaultRecord("null_deref", ("a", "b", "c", "e", "f"), 3)
    other = FaultRecord("hard_fault", ("a", "b", "x", "d"), 0)
    assert crash_id_of(fault) == ("a", "b", "c")
    assert crash_id_of(deeper) == ("a", "b", "c")
    assert crash_id_of(other) == ("a", "b", "x")
    assert crash_id_of(FaultRecord("hard_fault", ("a",), 0)) == ("a",)
    # a fault whose crash id is known is neither replayed nor recorded again
    probe = FaultingProbe()
    config = CampaignConfig(budget=1, campaign_seed=1)
    campaign = FuzzCampaign(config, probe, templates, seed_corpus, REGIONS)
    for f in (fault, deeper, other):
        probe.fault = f
        campaign._handle_fault(seed_corpus[0], b"payload", f)
    assert campaign.report.unique_crashes == [("a", "b", "c"), ("a", "b", "x")]
    assert [c.frames for c in campaign.report.crashes] == [fault.frames, other.frames]
    assert campaign.report.crash_replays == 2


def test_dedup_rejects_a_fault_without_frames():
    with pytest.raises(ValueError, match="no frames"):
        crash_id_of(FaultRecord("hard_fault", (), 0))


class FlakyCrashProbe:
    """Probe whose replay of a crashing payload comes back clean."""

    def __init__(self, probe):
        self.probe = probe
        self.crashed: set[bytes] = set()
        self.faults = 0

    def submit(self, payload, on_syscall=None):
        result = self.probe.submit(payload, on_syscall)
        if result.fault is None:
            return result
        if payload in self.crashed:
            return result._replace(fault=None)
        self.crashed.add(payload)
        self.faults += 1
        return result


def test_a_crash_that_does_not_replay_is_dropped_but_counted(templates, seed_corpus):
    probe = FlakyCrashProbe(SimProbe(1, templates))
    config = CampaignConfig(budget=300, campaign_seed=1)
    campaign = FuzzCampaign(config, probe, templates, seed_corpus, REGIONS)
    report = campaign.run()
    assert probe.faults > 0
    assert report.unique_crashes == [] and report.crashes == []
    # every first-time fault is replayed once, since none is ever recorded
    assert report.crash_replays == probe.faults
    assert report.submissions == (
        report.generated + report.mutated + report.seed_replays + report.crash_replays
    )


# --- golden reports -----------------------------------------------------------
#
# Recorded before the trace and noise path was rewritten to emit noise inside
# the handler walk.  Noise never reaches feedback, so any change to how the
# simulator makes or drops noise must leave these exactly as they are.

GOLDEN_CRASH_FRAMES = {
    "B1": ("pool_reserve", "tee_malloc", "syscall_dispatch"),
    "B2": ("utee_from_attr", "tee_populate_transient_object", "syscall_dispatch"),
    "B3": ("mac_ctx_load", "tee_mac_compare_final", "syscall_dispatch"),
    "B5": ("op_validate_magic", "tee_cipher_init", "syscall_dispatch"),
}
GOLDEN = {
    "composite": (
        [
            (250, 345, 101, 4), (500, 370, 118, 4), (750, 384, 149, 4),
            (1000, 392, 168, 4), (1250, 400, 192, 4), (1500, 402, 210, 4),
            (1750, 410, 232, 4), (2000, 417, 252, 4),
        ],
        [("B5", 12), ("B2", 24), ("B3", 111), ("B1", 166)],
        (2004, 205, 1783, 12, 4, 23948),
    ),
    "coverage_only": (
        [
            (250, 342, 82, 4), (500, 369, 102, 4), (750, 378, 128, 4),
            (1000, 393, 153, 4), (1250, 397, 162, 4), (1500, 399, 169, 4),
            (1750, 408, 177, 4), (2000, 411, 179, 4),
        ],
        [("B5", 12), ("B2", 24), ("B3", 34), ("B1", 124)],
        (2004, 214, 1774, 12, 4, 27299),
    ),
}
GOLDEN_STT_NODES = 48
GOLDEN_STT_SHA256 = "f627e4bfe9b17ec9d47bac0688c5e15799fd7c24a76fe79c627eef4e0b8563f7"
GOLDEN_STT_EDGES = 61
GOLDEN_STT_DOT_SHA256 = "cad1e0830bba0d2eb3b8bcfe98aff02d966daa6f2126cfe024eee04f4ee5db41"


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_golden_report(mode, templates, seed_corpus):
    config = CampaignConfig(budget=2_000, campaign_seed=1, mode=mode, stats_every=250)
    report = FuzzCampaign(config, SimProbe(1, templates), templates, seed_corpus, REGIONS).run()
    timeline, crashes, counters = GOLDEN[mode]
    assert outcome(report) == (
        timeline,
        [(GOLDEN_CRASH_FRAMES[bug], at) for bug, at in crashes],
        counters,
    )


def test_golden_stt_nodes(templates, seed_corpus):
    tree = build_stt(seed_corpus, SimProbe(1, templates), REGIONS, templates)
    assert tree.nodes[0] == empty_state_hash(REGIONS)
    assert len(tree.nodes) == GOLDEN_STT_NODES
    assert hashlib.sha256(repr(tree.nodes).encode()).hexdigest() == GOLDEN_STT_SHA256


def test_golden_stt_dot(templates, seed_corpus):
    """Edges too: the DOT text of the bundled seeds' tree, byte for byte."""
    tree = build_stt(seed_corpus, SimProbe(1, templates), REGIONS, templates)
    assert len(tree.edges) == GOLDEN_STT_EDGES
    dot = to_dot(tree)
    assert hashlib.sha256(dot.encode()).hexdigest() == GOLDEN_STT_DOT_SHA256
