"""Campaign configuration: a flat key=value text file."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import ClassVar

from .statevars import MAX_TRIALS, VOLATILITY_THRESHOLD
from .testcase import DEFAULT_MAX_LEN

MODES = ("composite", "coverage_only")


class ConfigError(Exception):
    pass


@dataclass
class CampaignConfig:
    budget: int = 50_000
    p_gen: float = 0.1
    max_len: int = DEFAULT_MAX_LEN
    mode: str = "composite"
    campaign_seed: int = 1
    regions_file: str = ""
    templates_file: str = ""          # empty = bundled MiniTEE templates
    corpus_dir: str = ""              # empty = bundled seed corpus
    volatility_threshold: int = VOLATILITY_THRESHOLD
    out_dir: str = "out"
    infer_budget: int = 5_000
    stats_every: int = 1_000
    # Not settable: inference counts distinct words and runs the whole trial
    # grid.  Kept only because bench/worker.py:96-98 reads both; they go
    # with the next benchmark change.
    volatility_metric: ClassVar[str] = "distinct"
    infer_trials: ClassVar[int] = MAX_TRIALS

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got '{self.mode}'")
        if self.volatility_threshold < 0:
            raise ConfigError("volatility_threshold must be >= 0")
        if not 0.0 <= self.p_gen <= 1.0:
            raise ConfigError("p_gen must be in [0, 1]")
        if self.budget < 0:
            raise ConfigError("budget must be >= 0")
        if self.max_len < 1:
            raise ConfigError("max_len must be >= 1")
        if self.infer_budget < 1:
            raise ConfigError("infer_budget must be >= 1")
        if self.stats_every < 1:
            raise ConfigError("stats_every must be >= 1")


_FIELD_TYPES = {f.name: f.type for f in fields(CampaignConfig)}


def parse_config(text: str) -> CampaignConfig:
    cfg = CampaignConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got '{line}'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        ftype = _FIELD_TYPES[key]
        try:
            if ftype == "int":
                setattr(cfg, key, int(value, 0))
            elif ftype == "float":
                setattr(cfg, key, float(value))
            else:
                setattr(cfg, key, value)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key}: '{value}'")
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> CampaignConfig:
    return parse_config(Path(path).read_text())
