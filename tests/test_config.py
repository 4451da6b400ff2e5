from dataclasses import fields

import pytest

from teefuzz.config import CampaignConfig, ConfigError, parse_config


def test_state_only_mode_is_rejected_naming_both_modes():
    with pytest.raises(ConfigError) as e:
        parse_config("mode = state_only\n")
    assert "composite" in str(e.value) and "coverage_only" in str(e.value)


@pytest.mark.parametrize("value", ["0", "-1"])
def test_stats_every_below_one_is_rejected(value):
    with pytest.raises(ConfigError, match="stats_every"):
        parse_config(f"stats_every = {value}\n")


def test_negative_volatility_threshold_is_rejected():
    with pytest.raises(ConfigError, match="volatility_threshold"):
        parse_config("volatility_threshold = -1\n")
    assert parse_config("volatility_threshold = 0\n").volatility_threshold == 0


@pytest.mark.parametrize("line", ["volatility_metric = occurrences", "infer_trials = 12"])
def test_removed_inference_keys_are_unknown(line):
    # inference always counts distinct words and runs the whole trial grid
    key = line.split()[0]
    with pytest.raises(ConfigError, match=f"^line 1: unknown key '{key}'$"):
        parse_config(f"{line}\n")


def test_settable_keys_are_pinned():
    # a new knob needs a deliberate edit here
    assert {f.name for f in fields(CampaignConfig)} == {
        "budget", "p_gen", "max_len", "mode", "campaign_seed", "regions_file",
        "templates_file", "corpus_dir", "volatility_threshold", "out_dir",
        "infer_budget", "stats_every",
    }
