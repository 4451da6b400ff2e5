"""Output checks and the report digest.

Checks fail the run; they are never turned into a metric.  They work on
the plain JSON summary a worker prints, so a test can tamper with one.
"""

from __future__ import annotations

import hashlib
import json


def digest(parts: dict) -> str:
    """sha256 over a canonical JSON rendering of `parts`."""
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def check(summary: dict, catalog) -> list[str]:
    """Every problem with one job's summary; empty when the outputs hold.

    `catalog` lists the crash ids the target can raise: the top three
    frames of each seeded bug.
    """
    known = {tuple(frames) for frames in catalog}
    problems = [
        f"crash id {' <- '.join(cid)} is not a seeded bug"
        for cid in summary["crash_ids"]
        if tuple(cid) not in known
    ]
    if "counters" not in summary:
        return problems
    if summary["executions"] != summary["budget"]:
        problems.append(f"executions {summary['executions']} != budget {summary['budget']}")
    c = summary["counters"]
    accounted = c["generated"] + c["mutated"] + c["seed_replays"] + c["crash_replays"]
    if c["submissions"] != accounted:
        problems.append(
            f"submissions {c['submissions']} != generated + mutated + seed_replays"
            f" + crash_replays = {accounted}"
        )
    if summary["submissions"] != c["submissions"]:
        problems.append(
            f"probe saw {summary['submissions']} submissions, the loop counted"
            f" {c['submissions']}"
        )
    for crash_id, exec_index, replayed in summary["crashes"]:
        if replayed != crash_id:
            problems.append(
                f"crash {' <- '.join(crash_id)} at execution {exec_index} replays"
                f" as {replayed} on a fresh probe"
            )
    return problems


def precision_recall(found, truth) -> tuple[float, float]:
    """Inferred (kind, offset) regions scored against the ground truth."""
    found = {tuple(r) for r in found}
    truth = {tuple(r) for r in truth}
    hits = len(found & truth)
    return (hits / len(found) if found else 0.0), hits / len(truth)
