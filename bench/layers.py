"""The layer map: which public functions are spans, and the per-layer metrics.

Each layer is a teefuzz module.  Spans wrap its public functions from the
outside (see tracer.py); the counts are taken from the arguments and
results those functions already pass.  bench/layer_map.json says which
end-to-end metric each per-layer metric should move, on which workload.
"""

from __future__ import annotations

from statistics import quantiles

# (module, attribute, span) for functions; (module, class, method, span)
# for methods.  Two methods may share a span.
FUNCTION_SPANS = (
    ("payload", "serialize_payload", "payload.encode"),
    ("payload", "deserialize_payload", "payload.decode"),
    ("tracecov", "coverage_of", "tracecov.coverage"),
    ("statevars", "state_hash_from_snapshots", "statevars.state_hash"),
    ("statevars", "collect_snapshots", "statevars.collect"),
    ("statevars", "filter_volatile", "statevars.filter_volatile"),
    ("statevars", "infer_state_vars", "statevars.confirm"),
    ("testcase", "generate_testcase", "testcase.generate"),
    ("testcase", "mutate_testcase", "testcase.mutate"),
    ("fuzzing", "preserve", "fuzzing.preserve"),
)
METHOD_SPANS = (
    ("probe", "SimProbe", "submit", "minitee.submit"),
    ("statevars", "HandleSnapshotLog", "append_result", "statevars.log_snapshots"),
    ("fuzzing", "SeedSelector", "pick", "fuzzing.select"),
    ("fuzzing", "SeedSelector", "note_hits", "fuzzing.note"),
    ("fuzzing", "SeedSelector", "note_node", "fuzzing.note"),
    ("fuzzing", "FuzzCampaign", "run", "fuzzing.loop"),
)

# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "payload.encode_s": "payload.encode",
    "payload.decode_s": "payload.decode",
    "minitee.submit_s": "minitee.submit",
    "tracecov.coverage_s": "tracecov.coverage",
    "statevars.state_hash_s": "statevars.state_hash",
    "statevars.collect_s": "statevars.collect",
    "statevars.log_snapshots_s": "statevars.log_snapshots",
    "statevars.filter_volatile_s": "statevars.filter_volatile",
    "statevars.confirm_s": "statevars.confirm",
    "testcase.generate_s": "testcase.generate",
    "testcase.mutate_s": "testcase.mutate",
    "fuzzing.preserve_s": "fuzzing.preserve",
    "fuzzing.select_s": "fuzzing.select",
    "fuzzing.note_s": "fuzzing.note",
    "fuzzing.loop_self_s": "fuzzing.loop",
}

UNITS = {
    **{name: "s" for name in SELF_TIMES},
    "payload.bytes_per_exec": "B",
    "minitee.submit_us.p50": "us",
    "minitee.submit_us.p99": "us",
    "minitee.submit_samples": "count",
    "minitee.calls_per_exec": "count",
    "minitee.packets_per_call": "count",
    "minitee.noise_share": "share",
    "minitee.snapshot_bytes_per_call": "B",
    "tracecov.branch_ids_per_call": "count",
    "statevars.state_hashes": "count",
    "testcase.generated": "count",
    "testcase.mutated": "count",
    "fuzzing.corpus_nodes": "count",
    "fuzzing.buckets": "count",
    "fuzzing.mutate_yield": "share",
    "fuzzing.generate_yield": "share",
    "fuzzing.crash_replays": "count",
    "other_s": "s",
    "traced_wall_s": "s",
    "trace_overhead": "share",
}


class Counts:
    """What the `after` hooks accumulate while the spans are installed."""

    def __init__(self, secure_range):
        self.secure_lo, self.secure_hi = secure_range
        self.encoded_bytes = 0
        self.submit_s: list[float] = []
        self.calls = 0
        self.packets = 0
        self.noise_packets = 0
        self.snapshot_bytes = 0
        self.branch_ids = 0
        self.origin = None  # (operator, test case) that made the latest case
        self.yields = {"mutate": 0, "generate": 0}

    def encoded(self, args, payload, seconds):
        self.encoded_bytes += len(payload)

    def submitted(self, args, result, seconds):
        self.submit_s.append(seconds)
        lo, hi = self.secure_lo, self.secure_hi
        for sr in result.per_syscall:
            self.calls += 1
            self.packets += len(sr.trace)
            self.noise_packets += sum(1 for p in sr.trace if not lo <= p[0] <= hi)
            self.snapshot_bytes += sum(len(s.data) for s in sr.snapshots)

    def covered(self, args, ids, seconds):
        self.branch_ids += len(ids)

    def generated(self, args, tc, seconds):
        self.origin = ("generate", tc)

    def mutated(self, args, tc, seconds):
        self.origin = ("mutate", tc)

    def preserved(self, args, added_states, seconds):
        if added_states and self.origin is not None and self.origin[1] is args[0]:
            self.yields[self.origin[0]] += 1


def install(tracer) -> Counts:
    from teefuzz import fuzzing, payload, probe, statevars, testcase, tracecov

    modules = {
        "payload": payload,
        "probe": probe,
        "tracecov": tracecov,
        "statevars": statevars,
        "testcase": testcase,
        "fuzzing": fuzzing,
    }
    counts = Counts(tracecov.SECURE_RANGE)
    hooks = {
        "payload.encode": counts.encoded,
        "minitee.submit": counts.submitted,
        "tracecov.coverage": counts.covered,
        "testcase.generate": counts.generated,
        "testcase.mutate": counts.mutated,
        "fuzzing.preserve": counts.preserved,
    }
    for module, attr, span in FUNCTION_SPANS:
        tracer.install_function(modules[module], attr, span, hooks.get(span))
    for module, cls, attr, span in METHOD_SPANS:
        owner = getattr(modules[module], cls, None)
        if owner is None:
            tracer.missing.append(f"{module}.{cls}")
            continue
        tracer.install_method(owner, attr, span, hooks.get(span))
    return counts


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def metrics(tracer, counts: Counts, traced_wall_s: float, campaign) -> dict[str, float]:
    """Per-layer metrics of one traced job (all but `trace_overhead`,
    which needs the untraced job too)."""
    self_s, calls = tracer.self_s, tracer.calls
    out = {name: self_s.get(span, 0.0) for name, span in SELF_TIMES.items()}
    submits_us = sorted(s * 1e6 for s in counts.submit_s)
    if len(submits_us) >= 2:
        cuts = quantiles(submits_us, n=100)
        p50, p99 = cuts[49], cuts[98]
    else:
        p50 = p99 = submits_us[0] if submits_us else 0.0
    submits = calls.get("minitee.submit", 0)
    out.update(
        {
            "payload.bytes_per_exec": _share(counts.encoded_bytes, calls.get("payload.encode", 0)),
            "minitee.submit_us.p50": p50,
            "minitee.submit_us.p99": p99,
            "minitee.submit_samples": len(submits_us),
            "minitee.calls_per_exec": _share(counts.calls, submits),
            "minitee.packets_per_call": _share(counts.packets, counts.calls),
            "minitee.noise_share": _share(counts.noise_packets, counts.packets),
            "minitee.snapshot_bytes_per_call": _share(counts.snapshot_bytes, counts.calls),
            "tracecov.branch_ids_per_call": _share(
                counts.branch_ids, calls.get("tracecov.coverage", 0)
            ),
            "statevars.state_hashes": calls.get("statevars.state_hash", 0),
            "testcase.generated": calls.get("testcase.generate", 0),
            "testcase.mutated": calls.get("testcase.mutate", 0),
            "fuzzing.mutate_yield": _share(
                counts.yields["mutate"], calls.get("testcase.mutate", 0)
            ),
            "fuzzing.generate_yield": _share(
                counts.yields["generate"], calls.get("testcase.generate", 0)
            ),
            "other_s": traced_wall_s - sum(self_s.values()),
            "traced_wall_s": traced_wall_s,
        }
    )
    if campaign is not None:
        nodes = {id(n) for bucket in campaign.seedmap.values() for n in bucket}
        out["fuzzing.corpus_nodes"] = len(nodes)
        out["fuzzing.buckets"] = len(campaign.seedmap)
        out["fuzzing.crash_replays"] = campaign.report.crash_replays
    else:
        out["fuzzing.corpus_nodes"] = out["fuzzing.buckets"] = out["fuzzing.crash_replays"] = 0
    return out
