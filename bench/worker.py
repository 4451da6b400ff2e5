"""One benchmark job in a fresh process: set up, run, observe, check.

    python3 bench/worker.py WORKLOAD SEED BUDGET MODE

MODE is `plain` (untraced job), `traced` (job under per-layer spans) or
`setup` (set-up only).  Prints one JSON summary as its last line.  The
orchestrator, bench/run.py, starts one worker per job so that every job
begins with cold module-level caches, as a `teefuzz` invocation does.
"""

from __future__ import annotations

import json
import resource
import sys
import time

T_START = time.perf_counter()

from pathlib import Path  # noqa: E402
from random import Random  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REGIONS_FIXTURE = BENCH / "regions.txt"
CAMPAIGN_WORKLOADS = ("composite", "coverage_only")
WORKLOADS = CAMPAIGN_WORKLOADS + ("infer_state",)

sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer, rebind, restore  # noqa: E402


class ObservedProbe:
    """Probe endpoint that counts what the program gets back from the target.

    Syscalls are counted from the ExecutionResults themselves, so the count
    does not depend on how the loop labels its own counters.
    """

    def __init__(self, probe, decode_frames):
        self.probe = probe
        self.decode_frames = decode_frames
        self.submissions = 0
        self.calls = 0
        self.decode_rejects = 0
        self.crash_ids: set[tuple[str, ...]] = set()

    def submit(self, payload, on_syscall=None):
        result = self.probe.submit(payload, on_syscall)
        self.submissions += 1
        self.calls += len(result.per_syscall)
        fault = result.fault
        if fault is not None:
            if tuple(fault.frames) == self.decode_frames:
                self.decode_rejects += 1
            else:
                self.crash_ids.add(tuple(fault.frames[:3]))
        return result


def setup(workload: str, seed: int, budget: int) -> SimpleNamespace:
    """Load templates, seeds and regions and build the probe and campaign.

    The returned job's `run()` does the measured work; `campaign` is None
    for inference.
    """
    from teefuzz import fuzzing, minitee, probe, statevars
    from teefuzz.config import CampaignConfig
    from teefuzz.corpus_io import load_seed_corpus
    from teefuzz.templates import bundled_template_path, load_templates

    template_path = bundled_template_path()
    templates = load_templates(template_path)
    cfg = CampaignConfig(budget=budget, campaign_seed=seed, infer_budget=budget)
    seeds = load_seed_corpus(Path(template_path).parent / "seeds", templates, cfg.max_len)
    endpoint = ObservedProbe(probe.SimProbe(seed, templates), tuple(minitee.DECODE_FRAMES))
    job = SimpleNamespace(endpoint=endpoint, templates=templates, campaign=None)
    if workload in CAMPAIGN_WORKLOADS:
        cfg.mode = workload
        regions = statevars.load_regions(REGIONS_FIXTURE)
        job.campaign = fuzzing.FuzzCampaign(cfg, endpoint, templates, seeds, regions)
        # looked up at call time, so a span installed after set-up applies
        job.run = lambda: job.campaign.run()
        return job
    rng = Random(seed)

    def infer():
        logbook = statevars.collect_snapshots(
            seeds, cfg.infer_budget, endpoint, templates, rng, cfg.max_len
        )
        candidates = statevars.filter_volatile(
            logbook, cfg.volatility_threshold, cfg.volatility_metric
        )
        regions = statevars.infer_state_vars(candidates, templates, endpoint, cfg.infer_trials)
        return logbook, regions

    job.run = infer
    return job


def observe_branches() -> tuple[set[int], list]:
    """Union every branch-ID set `coverage_of` returns while installed.

    Inference keeps its coverage to itself, so this is how the benchmark
    learns which branches the pre-fuzzing pass reached.  The wrapper costs
    one call and one set union per syscall.
    """
    from teefuzz import tracecov

    seen: set[int] = set()
    coverage_of = tracecov.coverage_of

    def observed(trace, *args):
        ids = coverage_of(trace, *args)
        seen.update(ids)
        return ids

    return seen, rebind(coverage_of, observed)


def campaign_summary(job, report, seed: int) -> dict:
    from teefuzz.minitee import BUG_FRAMES
    from teefuzz.probe import SimProbe

    endpoint = job.endpoint
    fresh = SimProbe(seed, job.templates)
    crashes = []
    for rec in report.crashes:
        replay = fresh.submit(rec.payload).fault
        replayed = list(replay.frames[:3]) if replay is not None else None
        crashes.append([list(rec.crash_id), rec.exec_index, replayed])
    bug_of = {tuple(frames[:3]): bug for bug, frames in BUG_FRAMES.items()}
    counters = {
        "submissions": report.submissions,
        "generated": report.generated,
        "mutated": report.mutated,
        "seed_replays": report.seed_replays,
        "crash_replays": report.crash_replays,
    }
    return {
        "executions": report.executions,
        "branches": report.unique_branches,
        "states": report.unique_states,
        "crash_ids": [c[0] for c in crashes],
        "crashes": crashes,
        "first_crash": {
            bug_of.get(tuple(c[0]), " <- ".join(c[0])): c[1] for c in crashes
        },
        "counters": counters,
        "calls": endpoint.calls,
        "submissions": endpoint.submissions,
        "failed": endpoint.decode_rejects + report.crash_replays - len(report.unique_crashes),
        "region_keys": [[r.handle_kind, r.offset] for r in job.campaign.regions],
        "digest": checks.digest(
            {
                "timeline": report.timeline,
                "crashes": [c[:2] for c in crashes],
                "counters": counters,
            }
        ),
    }


def distinct_states(entries, regions) -> int:
    """Distinct combined region values over the calls in a snapshot log.

    The same state key as the campaign hashes: per region, in (kind,
    offset) order, its bytes in every live handle of its kind; computed
    here without the program's hash path.
    """
    per_call: dict[tuple[int, int], dict[str, list[bytes]]] = {}
    for e in entries:
        per_call.setdefault((e.testcase_id, e.call_index), {}).setdefault(
            e.handle_kind, []
        ).append(e.data)
    ordered = sorted(regions, key=lambda r: (r.handle_kind, r.offset))
    return len(
        {
            tuple(
                tuple(d[r.offset : r.offset + r.length] for d in kinds.get(r.handle_kind, ()))
                for r in ordered
            )
            for kinds in per_call.values()
        }
    )


def inference_summary(job, logbook, regions, branches: set[int]) -> dict:
    """Outcome of one inference; `states` counts the distinct states the
    pre-fuzzing pass logged, keyed by the regions it inferred."""
    endpoint = job.endpoint
    summary = {
        "executions": endpoint.submissions,
        "branches": len(branches),
        "states": distinct_states(logbook.entries, regions),
        "crash_ids": sorted(list(c) for c in endpoint.crash_ids),
        "calls": endpoint.calls,
        "submissions": endpoint.submissions,
        "failed": endpoint.decode_rejects,
        "region_keys": sorted([r.handle_kind, r.offset] for r in regions),
        "snapshot_entries": len(logbook.entries),
    }
    summary["digest"] = checks.digest(summary)
    return summary


def main(argv: list[str]) -> dict:
    workload, seed, budget, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    if mode not in ("plain", "traced", "setup"):
        raise SystemExit(f"unknown mode {mode!r}")
    job = setup(workload, seed, budget)
    out = {"workload": workload, "seed": seed, "budget": budget,
           "setup_s": time.perf_counter() - T_START}
    if mode == "setup":
        return out

    from teefuzz.minitee import BUG_FRAMES, GROUND_TRUTH_REGIONS

    branches, undo = observe_branches() if job.campaign is None else (set(), [])
    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        counts = layers.install(tracer)
    t0 = time.perf_counter()
    result = job.run()
    wall_s = time.perf_counter() - t0
    out["wall_s"] = wall_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layers.metrics(tracer, counts, wall_s, job.campaign)
        out["missing_spans"] = tracer.missing
    restore(undo)

    if job.campaign is not None:
        out.update(campaign_summary(job, result, seed))
    else:
        out.update(inference_summary(job, *result, branches))
    out["problems"] = checks.check(out, [frames[:3] for frames in BUG_FRAMES.values()])
    out["regions"] = len(out["region_keys"])
    out["precision"], out["recall"] = checks.precision_recall(
        out["region_keys"], GROUND_TRUTH_REGIONS
    )
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
