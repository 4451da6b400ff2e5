import re

import pytest

from teefuzz.minitee import OBJ_HANDLE_SIZE, OP_HANDLE_SIZE
from teefuzz.statevars import StateVarRegion, load_regions, save_regions


def regions_file(tmp_path, bad_line):
    path = tmp_path / "regions.txt"
    path.write_text(f"# kind offset length\noperation 12 4\n{bad_line}\n")
    return path


def test_save_load_roundtrip(tmp_path):
    regions = [StateVarRegion("operation", 12, 4), StateVarRegion("object", 0, 4)]
    path = tmp_path / "regions.txt"
    save_regions(regions, path)
    assert load_regions(path) == sorted(regions)


def test_regions_may_end_at_the_handle_end(tmp_path):
    path = tmp_path / "regions.txt"
    path.write_text(f"operation {OP_HANDLE_SIZE - 4} 4\nobject {OBJ_HANDLE_SIZE - 1} 1\n")
    assert len(load_regions(path)) == 2


@pytest.mark.parametrize(
    "bad_line, reason",
    [
        ("operation twelve 4", "integers"),
        ("operation 12 4.0", "integers"),
        ("keystore 0 4", "unknown handle kind 'keystore'"),
        ("operation 12 0", "length must be >= 1"),
        ("object 8 -4", "length must be >= 1"),
        ("operation -4 4", "outside"),
        (f"operation {OP_HANDLE_SIZE - 2} 4", "outside the 64-byte operation handle"),
        (f"object {OBJ_HANDLE_SIZE} 4", "outside the 48-byte object handle"),
    ],
)
def test_bad_region_is_rejected_with_path_and_line(tmp_path, bad_line, reason):
    path = regions_file(tmp_path, bad_line)
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: ") + ".*" + re.escape(reason)):
        load_regions(path)
