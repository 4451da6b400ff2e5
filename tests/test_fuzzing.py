import json
from random import Random

import pytest

from teefuzz.config import CampaignConfig
from teefuzz.fuzzing import FuzzCampaign, SeedNode
from teefuzz.minitee import GROUND_TRUTH_REGIONS
from teefuzz.probe import SimProbe
from teefuzz.statevars import StateVarRegion

REGIONS = [StateVarRegion(kind, off, 4) for kind, off in GROUND_TRUTH_REGIONS]
BUDGET = 3_000


def select_seed(
    seedmap: dict[int, list[SeedNode]],
    hitmap: dict[int, int],
    rng: Random,
) -> SeedNode:
    """Reference selection, O(n) per pick: rare states first, then
    coverage-heavy seeds inside the bucket.

    State weight is the reciprocal of its hit count, normalised over all
    states; the in-bucket weight of a seed is its branch-coverage size as
    a share of the bucket total, falling back to uniform when every node
    in the bucket has empty coverage.
    """
    if not seedmap:
        raise LookupError("empty seed corpus")
    total = 0.0
    weights = []
    for sh in seedmap:
        w = 1.0 / hitmap[sh]
        weights.append(w)
        total += w
    r = rng.random() * total
    acc = 0.0
    bucket = None
    for sh, w in zip(seedmap, weights):
        acc += w
        if r < acc:
            bucket = seedmap[sh]
            break
    if bucket is None:  # float edge: fall back to the last state
        bucket = seedmap[next(reversed(seedmap))]
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


def run_campaign(templates, seeds):
    config = CampaignConfig(budget=BUDGET, campaign_seed=1)
    campaign = FuzzCampaign(config, SimProbe(1, templates), templates, seeds, REGIONS)
    return campaign, campaign.run()


@pytest.fixture(scope="module")
def composite(templates, seed_corpus):
    return run_campaign(templates, seed_corpus)


def test_selector_picks_what_the_reference_picks(composite):
    campaign, _ = composite
    assert len(campaign.seedmap) > 100
    for k in range(10_000):
        got = campaign.selector.pick(campaign.seedmap, Random(k))
        want = select_seed(campaign.seedmap, campaign.hitmap, Random(k))
        assert got is want, f"draw {k}"


def test_no_triage_accounting(composite):
    _, report = composite
    assert report.executions == BUDGET
    assert report.submissions == (
        report.generated + report.mutated + report.seed_replays + report.crash_replays
    )
    assert report.crash_replays >= len(report.unique_crashes) > 0


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
