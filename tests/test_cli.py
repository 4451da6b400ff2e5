import json
import re
from pathlib import Path

import pytest

from teefuzz.cli import EXIT_CONFIG, EXIT_ERROR, EXIT_OK, main
from teefuzz.corpus_io import parse_program
from teefuzz.minitee import GROUND_TRUTH_REGIONS
from teefuzz.payload import serialize_payload
from teefuzz.statevars import load_regions
from teefuzz.templates import bundled_template_path, load_templates

PROGRAM = """r0 = TEE_AllocateOperation(0x10, 0, 1024)
TEE_ResetOperation(r0)
TEE_FreeOperation(r0)
TEE_ResetOperation(r0)
"""


def swapped_template_file(tmp_path) -> Path:
    """The bundled templates with TEE_FreeOperation and TEE_ResetOperation
    swapped, so the two calls trade ordinals."""
    lines = Path(bundled_template_path()).read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("TEE_FreeOperation("))
    j = next(k for k, line in enumerate(lines) if line.startswith("TEE_ResetOperation("))
    lines[i], lines[j] = lines[j], lines[i]
    path = tmp_path / "swapped.tmpl"
    path.write_text("\n".join(lines) + "\n")
    return path


def replay(tmp_path, capsys, template_path, *args) -> str:
    payload = serialize_payload(parse_program(PROGRAM, load_templates(template_path)))
    path = tmp_path / "payload.bin"
    path.write_bytes(payload)
    assert main(["replay", str(path), *args]) == 0
    return capsys.readouterr().out


def test_replay_target_decodes_with_the_given_templates(tmp_path, capsys):
    swapped = swapped_template_file(tmp_path)
    bundled_out = replay(tmp_path, capsys, bundled_template_path())
    swapped_out = replay(tmp_path, capsys, swapped, "--templates", str(swapped))
    assert "TEE_FreeOperation" in bundled_out
    assert swapped_out == bundled_out


def test_fuzz_rejects_out_of_range_regions_file(tmp_path, capsys):
    regions = tmp_path / "regions.txt"
    regions.write_text("operation 62 4\n")
    config = tmp_path / "campaign.cfg"
    config.write_text(f"budget = 10\nregions_file = {regions}\n")
    assert main(["fuzz", str(config), "-o", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"{regions}:1:" in capsys.readouterr().err


def test_plot_writes_syscall_column(tmp_path, capsys):
    stats = tmp_path / "stats.jsonl"
    row = {"execs": 1000, "branches": 300, "states": 40, "crashes": 2, "syscalls": 14000}
    stats.write_text(json.dumps(row) + "\n")
    out = tmp_path / "stats.csv"
    assert main(["plot", str(stats), "-o", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "execs,branches,states,crashes,syscalls",
        "1000,300,40,2,14000",
    ]


def bad_input(tmp_path, which) -> tuple[list[str], str]:
    """Command-line flags naming one bad input file, and the text its
    config error must carry."""
    if which == "regions":
        path = tmp_path / "regions.txt"
        path.write_text("operation 12 4\noperation 62 4\n")
        return ["--regions", str(path)], f"{path}:2:"
    path = tmp_path / "broken.tmpl"
    path.write_text("TEE_Malloc(size:scalar32, hint:nosuchkind)\n")
    return ["--templates", str(path)], f"{path}: line 1:"


@pytest.mark.parametrize("which", ["regions", "templates"])
def test_replay_bad_input_is_a_config_error(tmp_path, capsys, which):
    payload = tmp_path / "payload.bin"
    templates = load_templates(bundled_template_path())
    payload.write_bytes(serialize_payload(parse_program(PROGRAM, templates)))
    flags, where = bad_input(tmp_path, which)
    assert main(["replay", str(payload), *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and where in err


def test_replay_with_an_empty_regions_file_is_a_config_error(tmp_path, capsys):
    payload = tmp_path / "payload.bin"
    templates = load_templates(bundled_template_path())
    payload.write_bytes(serialize_payload(parse_program(PROGRAM, templates)))
    regions = tmp_path / "regions.txt"
    regions.write_text("# kind offset length\n")
    assert main(["replay", str(payload), "--regions", str(regions)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and str(regions) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("which", ["regions", "templates"])
def test_stt_export_bad_input_is_a_config_error(tmp_path, capsys, which):
    corpus = Path(bundled_template_path()).parent / "seeds"
    flags, where = bad_input(tmp_path, which)
    out = tmp_path / "stt.dot"
    assert main(["stt-export", str(corpus), *flags, "-o", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and where in err
    assert not out.exists()


@pytest.mark.parametrize("bad_line", ['{"execs": 2000', '[1, 2, 3]', '{"execs": 2000}'])
def test_plot_reports_the_malformed_line(tmp_path, capsys, bad_line):
    stats = tmp_path / "stats.jsonl"
    row = {"execs": 1000, "branches": 300, "states": 40, "crashes": 2, "syscalls": 14000}
    stats.write_text(json.dumps(row) + "\n\n" + bad_line + "\n")
    out = tmp_path / "stats.csv"
    assert main(["plot", str(stats), "-o", str(out)]) == EXIT_ERROR
    assert f"{stats}:3: malformed stats line" in capsys.readouterr().err
    assert not out.exists()


def test_fuzz_composite_with_an_empty_regions_file_is_a_config_error(tmp_path, capsys):
    regions = tmp_path / "regions.txt"
    regions.write_text("# kind offset length\n")
    config = tmp_path / "campaign.cfg"
    config.write_text(f"budget = 10\nmode = composite\nregions_file = {regions}\n")
    assert main(["fuzz", str(config), "-o", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "state region" in err


@pytest.mark.parametrize("empty_file", [False, True])
def test_stt_export_without_regions_is_a_config_error(tmp_path, capsys, empty_file):
    corpus = Path(bundled_template_path()).parent / "seeds"
    flags = []
    if empty_file:
        regions = tmp_path / "regions.txt"
        regions.write_text("")
        flags = ["--regions", str(regions)]
    out = tmp_path / "stt.dot"
    assert main(["stt-export", str(corpus), *flags, "-o", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "--regions" in err
    assert not out.exists()


def extra_syscall_template_file(tmp_path) -> Path:
    """The bundled templates plus one syscall the target does not implement."""
    path = tmp_path / "extra.tmpl"
    bundled = Path(bundled_template_path()).read_text()
    path.write_text(bundled + "TEE_Extra(x:s32[0..16])\n")
    return path


def test_replay_of_a_syscall_the_target_lacks_is_a_config_error(tmp_path, capsys):
    extra = extra_syscall_template_file(tmp_path)
    payload = tmp_path / "payload.bin"
    payload.write_bytes(serialize_payload(parse_program("TEE_Extra(3)\n", load_templates(extra))))
    assert main(["replay", str(payload), "--templates", str(extra)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and "TEE_Extra" in captured.err
    assert captured.out == ""


def test_fuzz_with_a_syscall_the_target_lacks_is_a_config_error(tmp_path, capsys):
    extra = extra_syscall_template_file(tmp_path)
    config = tmp_path / "campaign.cfg"
    config.write_text(f"budget = 200\nmode = coverage_only\ntemplates_file = {extra}\n")
    assert main(["fuzz", str(config), "-o", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "TEE_Extra" in err


def test_infer_state_writes_the_regions_it_reports(tmp_path, capsys):
    regions = tmp_path / "regions.txt"
    config = tmp_path / "infer.cfg"
    config.write_text(f"infer_budget = 300\nregions_file = {regions}\n")
    assert main(["infer-state", str(config)]) == EXIT_OK
    out = capsys.readouterr().out
    m = re.fullmatch(
        r"inferred (\d+) regions -> (\S+) \(vs simulator ground truth: "
        r"precision=(\d\.\d\d) recall=(\d\.\d\d)\)\n",
        out,
    )
    assert m, out
    loaded = {(r.handle_kind, r.offset) for r in load_regions(regions)}
    truth = set(GROUND_TRUTH_REGIONS)
    assert (len(loaded), m[2]) == (int(m[1]), str(regions))
    assert loaded and m[3] == f"{len(loaded & truth) / len(loaded):.2f}"
    assert m[4] == f"{len(loaded & truth) / len(truth):.2f}"


def test_infer_state_with_a_negative_threshold_is_a_config_error(tmp_path, capsys):
    regions = tmp_path / "regions.txt"
    config = tmp_path / "infer.cfg"
    config.write_text(f"volatility_threshold = -1\nregions_file = {regions}\n")
    assert main(["infer-state", str(config)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and "volatility_threshold" in captured.err
    assert captured.out == "" and not regions.exists()


def test_infer_state_that_logs_no_snapshot_is_an_error(tmp_path, capsys):
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    (seeds / "malloc.prog").write_text("TEE_Malloc(16, 0)\n")
    regions = tmp_path / "regions.txt"
    config = tmp_path / "infer.cfg"
    config.write_text(f"corpus_dir = {seeds}\ninfer_budget = 1\nregions_file = {regions}\n")
    assert main(["infer-state", str(config)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: no handle was ever live (executions: 1)\n"
    assert captured.out == "" and not regions.exists()


@pytest.mark.parametrize("line", ["volatility_metric = occurrences", "infer_trials = 12"])
def test_infer_state_with_a_removed_key_is_a_config_error(tmp_path, capsys, line):
    regions = tmp_path / "regions.txt"
    regions.write_text("operation 12 4\n")
    config = tmp_path / "infer.cfg"
    config.write_text(f"{line}\ninfer_budget = 300\nregions_file = {regions}\n")
    assert main(["infer-state", str(config)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config error: line 1: unknown key '{line.split()[0]}'\n"
    assert captured.out == "" and regions.read_text() == "operation 12 4\n"


@pytest.mark.parametrize("knob", ["volatility_threshold = 0"])
def test_infer_state_that_infers_no_region_is_an_error(tmp_path, capsys, knob):
    regions = tmp_path / "regions.txt"
    regions.write_text("operation 12 4\n")
    config = tmp_path / "infer.cfg"
    config.write_text(f"infer_budget = 300\n{knob}\nregions_file = {regions}\n")
    assert main(["infer-state", str(config)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: inferred 0 regions; raise infer_budget\n"
    assert captured.out == "" and regions.read_text() == "operation 12 4\n"
