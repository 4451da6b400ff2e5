"""The teefuzz benchmark: real campaigns and state inference, end to end.

    python3 bench/run.py --workload composite --seed 1 --seconds 20 --trace 0

Workloads (bench/layer_map.json records why each was chosen):

  composite      FuzzCampaign with composite feedback, the paper's setting
  coverage_only  the same campaign with branch feedback only, the baseline
  infer_state    collect_snapshots -> filter_volatile -> infer_state_vars

Every job is closed-loop, one thread, one execution in flight, and runs
in a fresh worker process (bench/worker.py), so each starts with cold
module-level caches.  A run executes the job once at each of the
workload's derived campaign seeds, then repeats them in turn until
`--seconds` have passed; repeats at one seed must give the same report
digest.  Campaign seeds derive from `--seed`, so the same seed gives the
same inputs.

With `--trace 0` the run prints every end-to-end metric.  With `--trace 1`
it runs the first seed twice untraced and twice under per-layer spans and
prints every per-layer metric, averaged over the two traced jobs.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

from layers import UNITS as PER_LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

# executions per job and campaign seeds per run; the inference budget is
# CampaignConfig's default infer_budget
WORKLOADS = {
    "composite": {"budget": 10_000, "seeds": 3},
    "coverage_only": {"budget": 10_000, "seeds": 3},
    "infer_state": {"budget": 5_000, "seeds": 6},
}
SEED_STRIDE = 1000
SETUP_SAMPLES = 15
DEADLINE_S = 170  # every worker is stopped by then, well inside 180 s

END_TO_END_UNITS = {
    "exec_per_s": "1/s",
    "calls_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "branches": "count",
    "states": "count",
    "crashes": "count",
    "regions": "count",
    "infer_precision": "share",
    "infer_recall": "share",
}


class BenchError(Exception):
    pass


def campaign_seeds(seed: int, n: int) -> list[int]:
    return [seed + SEED_STRIDE * i for i in range(n)]


def call_worker(workload: str, seed: int, budget: int, mode: str, started: float) -> dict:
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 1:
        raise BenchError("out of time before the next job")
    cmd = [sys.executable, str(WORKER), workload, str(seed), str(budget), mode]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} job {workload} seed {seed} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"{mode} job {workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest_problems(jobs: list[dict]) -> list[str]:
    """Repeats of one workload at one seed must agree on the digest."""
    first: dict[int, str] = {}
    problems = []
    for job in jobs:
        d = first.setdefault(job["seed"], job["digest"])
        if job["digest"] != d:
            problems.append(f"seed {job['seed']}: digest {job['digest']} != {d} of an earlier repeat")
    return problems


def end_to_end(jobs: list[dict], setup_samples: list[float]) -> dict[str, float]:
    by_seed: dict[int, list[dict]] = {}
    for job in jobs:
        by_seed.setdefault(job["seed"], []).append(job)
    firsts = [runs[0] for runs in by_seed.values()]
    walls = [median(j["wall_s"] for j in runs) for runs in by_seed.values()]
    return {
        "exec_per_s": sum(j["executions"] for j in firsts) / sum(walls),
        "calls_per_s": sum(j["calls"] for j in firsts) / sum(walls),
        "setup_s": median(setup_samples),
        "peak_rss_mb": median(j["peak_rss_mb"] for j in jobs),
        "branches": mean(j["branches"] for j in firsts),
        "states": mean(j["states"] for j in firsts),
        "crashes": mean(len(j["crash_ids"]) for j in firsts),
        "regions": mean(j["regions"] for j in firsts),
        "infer_precision": mean(j["precision"] for j in firsts),
        "infer_recall": mean(j["recall"] for j in firsts),
    }


def describe(job: dict) -> str:
    line = (
        f"seed {job['seed']}: digest {job['digest'][:16]} wall {job['wall_s']:.2f}s "
        f"branches {job['branches']} states {job['states']} regions {job['regions']}"
    )
    if "first_crash" in job:
        firsts = " ".join(f"{bug}@{idx}" for bug, idx in job["first_crash"].items())
        line += f" first crashes: {firsts or 'none'}"
    else:
        line += f" crash ids seen: {len(job['crash_ids'])}"
    return line


def run(workload: str, seed: int, seconds: float, trace: bool, budget: int | None) -> dict:
    spec = WORKLOADS[workload]
    budget = spec["budget"] if budget is None else budget
    seeds = campaign_seeds(seed, spec["seeds"])
    started = time.monotonic()
    jobs: list[dict] = []
    if trace:
        # untraced and traced jobs in ABBA order, so a steady drift in machine
        # speed cancels out of trace_overhead
        for mode in ("plain", "traced", "traced", "plain"):
            jobs.append(call_worker(workload, seeds[0], budget, mode, started))
        traced = [j for j in jobs if "layers" in j]
        plain = [j for j in jobs if "layers" not in j]
        metrics = {name: mean(j["layers"][name] for j in traced) for name in traced[0]["layers"]}
        metrics["trace_overhead"] = (
            sum(j["wall_s"] for j in traced) / sum(j["wall_s"] for j in plain) - 1
        )
        units = PER_LAYER_UNITS
        for name in traced[0]["missing_spans"]:
            print(f"warning: no span for {name}; its time counts as other_s", file=sys.stderr)
    else:
        while len(jobs) < len(seeds) or time.monotonic() - started < seconds:
            t0 = time.monotonic()
            jobs.append(call_worker(workload, seeds[len(jobs) % len(seeds)], budget, "plain", started))
            # stop while another job of the same length still fits
            if time.monotonic() - started + (time.monotonic() - t0) > DEADLINE_S - 20:
                break
        setup_samples = [j["setup_s"] for j in jobs]
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(call_worker(workload, seeds[0], budget, "setup", started)["setup_s"])
        metrics = end_to_end(jobs, setup_samples)
        units = END_TO_END_UNITS
    problems = [p for job in jobs for p in job["problems"]] + digest_problems(jobs)
    for job in jobs:
        print(describe(job))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(j["submissions"] for j in jobs),
        "failed": sum(j["failed"] for j in jobs),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1, help="campaign seed (default 1)")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--budget", type=int, help="executions per job (default: the workload's)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "teefuzz" / "__init__.py").is_file():
        print(f"error: no teefuzz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.budget)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
