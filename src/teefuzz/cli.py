"""Command-line front end.

Subcommands: fuzz, infer-state, replay, stt-export, plot.
Log level comes from the SYZT_LOG environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from random import Random

from . import fuzzing, statevars, stt
from .config import CampaignConfig, ConfigError, load_config
from .corpus_io import load_seed_corpus
from .minitee import GROUND_TRUTH_REGIONS
from .payload import PayloadError, deserialize_payload
from .probe import SimProbe
from .templates import TemplateSet, bundled_template_path, load_templates
from .testcase import TestCase
from .tracecov import coverage_of

log = logging.getLogger("teefuzz")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2


def _setup_logging() -> None:
    level = os.environ.get("SYZT_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def _load_inputs(cfg: CampaignConfig) -> tuple[TemplateSet, list[TestCase]]:
    tmpl_path = cfg.templates_file or bundled_template_path()
    templates = load_templates(tmpl_path)
    corpus_dir = cfg.corpus_dir or Path(bundled_template_path()).parent / "seeds"
    seeds = load_seed_corpus(corpus_dir, templates, cfg.max_len)
    return templates, seeds


def cmd_fuzz(args) -> int:
    try:
        cfg = load_config(args.config)
        templates, seeds = _load_inputs(cfg)
        regions = []
        if cfg.mode in ("composite", "state_only") or cfg.regions_file:
            if not cfg.regions_file or not Path(cfg.regions_file).exists():
                raise ConfigError(
                    f"mode {cfg.mode} requires regions_file pointing at an "
                    "inferred-regions file (run infer-state first)"
                )
            regions = statevars.load_regions(cfg.regions_file)
    except (ConfigError, OSError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = SimProbe(cfg.campaign_seed, templates)
    report = fuzzing.FuzzCampaign(cfg, probe, templates, seeds, regions, out_dir).run()
    print(
        f"executions={report.executions} branches={report.unique_branches} "
        f"states={report.unique_states} crashes={len(report.unique_crashes)}"
    )
    for crash_id in report.unique_crashes:
        print("crash: " + " <- ".join(crash_id))
    return EXIT_OK


def cmd_infer_state(args) -> int:
    try:
        cfg = load_config(args.config)
        if not cfg.regions_file:
            raise ConfigError("infer-state requires regions_file as output path")
        templates, seeds = _load_inputs(cfg)
        if not seeds:
            raise ConfigError("infer-state needs a non-empty seed corpus")
    except (ConfigError, FileNotFoundError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    probe = SimProbe(cfg.campaign_seed, templates)
    rng = Random(cfg.campaign_seed)
    logbook = statevars.collect_snapshots(
        seeds, cfg.infer_budget, probe, templates, rng, cfg.max_len
    )
    candidates = statevars.filter_volatile(
        logbook, cfg.volatility_threshold, cfg.volatility_metric
    )
    regions = statevars.infer_state_vars(candidates, templates, probe, cfg.infer_trials)
    statevars.save_regions(regions, cfg.regions_file)
    truth = set(GROUND_TRUTH_REGIONS)
    found = {(r.handle_kind, r.offset) for r in regions}
    tp = len(found & truth)
    precision = tp / len(found) if found else 0.0
    recall = tp / len(truth)
    print(
        f"inferred {len(regions)} regions -> {cfg.regions_file} "
        f"(vs simulator ground truth: precision={precision:.2f} recall={recall:.2f})"
    )
    return EXIT_OK


def cmd_replay(args) -> int:
    try:
        payload = Path(args.payload).read_bytes()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    templates = load_templates(args.templates or bundled_template_path())
    regions = statevars.load_regions(args.regions) if args.regions else []
    try:
        tc = deserialize_payload(payload, templates)
    except PayloadError as e:
        print(f"decode error: {e}", file=sys.stderr)
        return EXIT_ERROR
    probe = SimProbe(args.campaign_seed, templates)
    result = probe.submit(payload)
    for i, sr in enumerate(result.per_syscall):
        name = templates.by_ordinal[tc.calls[i].ordinal].name
        cov = coverage_of(sr.trace)
        line = f"[{i:3d}] {name:32s} ret=0x{sr.return_code:08X} branches={len(cov)}"
        if regions:
            sh = statevars.state_hash_from_snapshots(
                statevars.sort_regions(regions), sr.snapshots
            )
            line += f" state={sh:016x}"
        print(line)
    if result.fault is not None:
        f = result.fault
        crash_id = fuzzing.dedup(f, set())[0]
        print(f"FAULT kind={f.kind} at call {f.faulting_call_index}")
        print("frames: " + " <- ".join(f.frames))
        print("crash-id: " + "__".join(crash_id))
    else:
        print(f"completed {result.executed_count} calls, no fault")
    return EXIT_OK


def cmd_stt_export(args) -> int:
    templates = load_templates(args.templates or bundled_template_path())
    seeds = load_seed_corpus(args.corpus, templates)
    if not seeds:
        print("error: corpus is empty", file=sys.stderr)
        return EXIT_ERROR
    regions = statevars.load_regions(args.regions) if args.regions else []
    probe = SimProbe(args.campaign_seed, templates)
    tree = stt.build_stt(seeds, probe, regions, templates)
    stt.write_dot(tree, args.out)
    print(f"wrote {args.out}: {len(tree.nodes)} states, {len(tree.edges)} transitions")
    return EXIT_OK


def cmd_plot(args) -> int:
    try:
        lines = Path(args.stats).read_text().splitlines()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    rows = [json.loads(line) for line in lines if line.strip()]
    out = Path(args.out)
    with open(out, "w") as fp:
        fp.write("execs,branches,states,crashes,syscalls\n")
        for r in rows:
            fp.write(
                f"{r['execs']},{r['branches']},{r['states']},"
                f"{r['crashes']},{r['syscalls']}\n"
            )
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="teefuzz",
        description="State-aware greybox fuzzer for the MiniTEE simulated trusted OS",
    )
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fuzz", help="run a fuzzing campaign from a config file")
    f.add_argument("config")
    f.add_argument("-o", "--out", help="output directory (default: config out_dir)")
    f.set_defaults(fn=cmd_fuzz)

    i = sub.add_parser("infer-state", help="infer state-variable regions")
    i.add_argument("config")
    i.set_defaults(fn=cmd_infer_state)

    r = sub.add_parser("replay", help="replay a payload and print its feedback")
    r.add_argument("payload")
    r.add_argument("--regions", help="inferred regions file")
    r.add_argument("--templates", help="template file (default: bundled)")
    r.add_argument("--campaign-seed", type=int, default=1)
    r.set_defaults(fn=cmd_replay)

    s = sub.add_parser("stt-export", help="export the state transition tree as DOT")
    s.add_argument("corpus", help="seed corpus directory")
    s.add_argument("--regions", help="inferred regions file")
    s.add_argument("--templates", help="template file (default: bundled)")
    s.add_argument("--campaign-seed", type=int, default=1)
    s.add_argument("-o", "--out", default="stt.dot")
    s.set_defaults(fn=cmd_stt_export)

    pl = sub.add_parser("plot", help="convert stats.jsonl to CSV for plotting")
    pl.add_argument("stats")
    pl.add_argument("-o", "--out", default="stats.csv")
    pl.set_defaults(fn=cmd_plot)
    return p


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
