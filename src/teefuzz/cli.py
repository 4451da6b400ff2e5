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
from .templates import TemplateError, TemplateSet, bundled_template_path, load_templates
from .testcase import TestCase
from .tracecov import coverage_of

log = logging.getLogger("teefuzz")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2

# what a bad config, template, regions or corpus input raises while loading
INPUT_ERRORS = (ConfigError, OSError, ValueError)
STATS_COLUMNS = ("execs", "branches", "states", "crashes", "syscalls")


def _setup_logging() -> None:
    level = os.environ.get("SYZT_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def _load_templates(path: str | None) -> TemplateSet:
    path = path or bundled_template_path()
    try:
        return load_templates(path)
    except TemplateError as e:
        raise ConfigError(f"{path}: {e}") from None


def _load_inputs(cfg: CampaignConfig) -> tuple[TemplateSet, list[TestCase]]:
    templates = _load_templates(cfg.templates_file)
    corpus_dir = cfg.corpus_dir or Path(bundled_template_path()).parent / "seeds"
    seeds = load_seed_corpus(corpus_dir, templates, cfg.max_len)
    return templates, seeds


def cmd_fuzz(args) -> int:
    try:
        cfg = load_config(args.config)
        templates, seeds = _load_inputs(cfg)
        regions = []
        if cfg.mode == "composite" or cfg.regions_file:
            if not cfg.regions_file or not Path(cfg.regions_file).exists():
                raise ConfigError(
                    f"mode {cfg.mode} requires regions_file pointing at an "
                    "inferred-regions file (run infer-state first)"
                )
            regions = statevars.load_regions(cfg.regions_file)
        probe = SimProbe(cfg.campaign_seed, templates)
        out_dir = args.out or cfg.out_dir
        campaign = fuzzing.FuzzCampaign(cfg, probe, templates, seeds, regions, out_dir)
    except INPUT_ERRORS as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    report = campaign.run()
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
        probe = SimProbe(cfg.campaign_seed, templates)
    except INPUT_ERRORS as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    rng = Random(cfg.campaign_seed)
    logbook = statevars.collect_snapshots(
        seeds, cfg.infer_budget, probe, templates, rng, cfg.max_len
    )
    if not logbook:
        print(f"error: no handle was ever live (executions: {cfg.infer_budget})", file=sys.stderr)
        return EXIT_ERROR
    candidates = statevars.filter_volatile(logbook, cfg.volatility_threshold)
    regions = statevars.infer_state_vars(candidates, templates, probe)
    if not regions:
        print("error: inferred 0 regions; raise infer_budget", file=sys.stderr)
        return EXIT_ERROR
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
    try:
        templates = _load_templates(args.templates)
        regions = statevars.load_regions(args.regions) if args.regions else []
        if args.regions and not regions:
            raise ConfigError(f"{args.regions}: the regions file names no region")
        probe = SimProbe(args.campaign_seed, templates)
    except INPUT_ERRORS as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        tc = deserialize_payload(payload, templates)
    except PayloadError as e:
        print(f"decode error: {e}", file=sys.stderr)
        return EXIT_ERROR
    compiled = statevars.CompiledRegions(regions) if regions else None
    result = probe.submit(payload)
    for i, sr in enumerate(result.per_syscall):
        name = templates.by_ordinal[tc.calls[i].ordinal].name
        cov = coverage_of(sr.trace)
        line = f"[{i:3d}] {name:32s} ret=0x{sr.return_code:08X} branches={len(cov)}"
        if compiled is not None:
            sh = statevars.state_hash_from_snapshots(compiled, sr.snapshots)
            line += f" state={sh:016x}"
        print(line)
    if result.fault is not None:
        f = result.fault
        crash_id = fuzzing.crash_id_of(f)
        print(f"FAULT kind={f.kind} at call {f.faulting_call_index}")
        print("frames: " + " <- ".join(f.frames))
        print("crash-id: " + "__".join(crash_id))
    else:
        print(f"completed {len(result.per_syscall)} calls, no fault")
    return EXIT_OK


def cmd_stt_export(args) -> int:
    try:
        templates = _load_templates(args.templates)
        seeds = load_seed_corpus(args.corpus, templates)
        regions = statevars.load_regions(args.regions) if args.regions else []
        if not regions:
            raise ConfigError("stt-export needs --regions naming a non-empty regions file")
        probe = SimProbe(args.campaign_seed, templates)
    except INPUT_ERRORS as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if not seeds:
        print("error: corpus is empty", file=sys.stderr)
        return EXIT_ERROR
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
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            rows.append(",".join(str(row[k]) for k in STATS_COLUMNS))
        except (ValueError, KeyError, TypeError):
            print(
                f"error: {args.stats}:{lineno}: malformed stats line, expected a "
                f"JSON object with keys {', '.join(STATS_COLUMNS)}",
                file=sys.stderr,
            )
            return EXIT_ERROR
    out = Path(args.out)
    out.write_text("\n".join((",".join(STATS_COLUMNS), *rows)) + "\n")
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
