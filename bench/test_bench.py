"""Tests of the benchmark itself.  Run with: python3 -m pytest bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import layers
import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from teefuzz.minitee import BUG_FRAMES  # noqa: E402

CATALOG = [frames[:3] for frames in BUG_FRAMES.values()]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 150


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def worker(workload: str, mode: str, seed: int = 2) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(TINY), mode],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", trace, "--budget", str(TINY))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    printed = dict(line.split(" = ", 1) for line in lines[:-1] if " = " in line)
    assert {name: text.split()[-1] for name, text in printed.items()} == wanted


def test_metric_tables_match_benchmark_json():
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert layers.UNITS == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    assert set(layer_map["per_layer"]) == set(layers.UNITS)
    assert set(layer_map["workloads"]) == set(run.WORKLOADS)


def test_real_summary_passes_and_tampered_summaries_fail():
    summary = worker("composite", "plain")
    assert summary["crash_ids"], "tiny campaign found no crash to tamper with"
    assert checks.check(summary, CATALOG) == []

    off_by_one = json.loads(json.dumps(summary))
    off_by_one["counters"]["mutated"] += 1
    assert any("submissions" in p for p in checks.check(off_by_one, CATALOG))

    foreign = json.loads(json.dumps(summary))
    foreign["crash_ids"][0] = ["not_a_frame", "tee_cipher_init", "syscall_dispatch"]
    assert any("not a seeded bug" in p for p in checks.check(foreign, CATALOG))

    unreplayed = json.loads(json.dumps(summary))
    unreplayed["crashes"][0][2] = None
    assert any("replays" in p for p in checks.check(unreplayed, CATALOG))

    short = json.loads(json.dumps(summary))
    short["executions"] -= 1
    assert any("budget" in p for p in checks.check(short, CATALOG))


def test_repeats_that_disagree_fail():
    jobs = [{"seed": 1, "digest": "a"}, {"seed": 2, "digest": "b"}, {"seed": 1, "digest": "c"}]
    assert len(run.digest_problems(jobs)) == 1
    assert run.digest_problems(jobs[:2]) == []


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_spans_change_no_behaviour_and_cover_the_traced_wall(workload):
    plain = worker(workload, "plain")
    traced = worker(workload, "traced")
    assert traced["digest"] == plain["digest"]
    assert traced["missing_spans"] == []
    lay = traced["layers"]
    self_times = sum(lay[name] for name in layers.SELF_TIMES)
    assert self_times + lay["other_s"] == pytest.approx(lay["traced_wall_s"])
    assert lay["other_s"] >= 0
    assert lay["minitee.submit_s"] > 0 and lay["payload.decode_s"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "composite", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
