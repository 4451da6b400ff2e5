import json
from pathlib import Path

from teefuzz.cli import EXIT_CONFIG, main
from teefuzz.corpus_io import parse_program
from teefuzz.payload import serialize_payload
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
