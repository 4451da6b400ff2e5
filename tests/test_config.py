import pytest

from teefuzz.config import ConfigError, parse_config
from teefuzz.statevars import MAX_TRIALS


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


@pytest.mark.parametrize("value", ["1", "0", "13"])
def test_fewer_than_two_infer_trials_are_rejected(value):
    # and more than the trial grid holds, which would be silently capped
    bound = ">= 2" if int(value) < 2 else f"<= {MAX_TRIALS}"
    with pytest.raises(ConfigError, match=f"infer_trials must be {bound}"):
        parse_config(f"infer_trials = {value}\n")
    assert parse_config("infer_trials = 2\n").infer_trials == 2
    assert parse_config(f"infer_trials = {MAX_TRIALS}\n").infer_trials == MAX_TRIALS
