"""Line-oriented run configuration: ``key = value`` under ``[section]`` headers.

Each section is the RunConfig field of its name and each key the field of its
name, with a documented default; unknown sections or keys are hard errors so a
misspelled ablation flag fails loudly instead of silently running the default.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace

from .data import DATASET_FORMATS, SPLIT_NAMES, TIME_GRANULARITIES
from .heterogeneity import WindowPolicy
from .model import ModelConfig
from .synth import SynthSpec
from .ted import TedConfig


class ConfigError(ValueError):
    pass


@dataclass
class DatasetConfig:
    path: str = ""
    format: str = "auto"
    time_granularity: str = "daily"

    def __post_init__(self):
        if self.format not in DATASET_FORMATS:
            raise ConfigError(f"unknown dataset format {self.format!r}")
        if self.time_granularity not in TIME_GRANULARITIES:
            raise ConfigError(f"unknown time granularity {self.time_granularity!r}")


@dataclass
class TrainConfig:
    lr: float = 0.001
    epochs: int = 200
    patience: int = 10
    negatives: int = 500
    batch_snapshots: int = 8
    snapshot_cap: int = 3000
    seed: int = 0
    val_cap: int = 500

    def __post_init__(self):
        if not 0.0 < self.lr < float("inf"):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        for name, least in (("negatives", 1), ("batch_snapshots", 1), ("snapshot_cap", 1),
                            ("val_cap", 1), ("patience", 0), ("epochs", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")


FILTER_MODES = ("time_aware", "static")


@dataclass
class EvalConfig:
    filter: str = "time_aware"            # or 'static'
    filter_splits: str = "train,valid,test"
    tpf_window: str = "full_history"      # 'strict_past' | 'trailing'
    tpf_trailing_width: int = 15

    def __post_init__(self):
        if self.filter not in FILTER_MODES:
            raise ConfigError(f"unknown filter mode {self.filter!r}")
        names = self.filter_split_names()
        if not names or not set(names) <= set(SPLIT_NAMES):
            raise ConfigError(f"filter_splits must name one or more of {SPLIT_NAMES}, "
                              f"got {self.filter_splits!r}")
        self.window_policy()

    def filter_split_names(self) -> tuple[str, ...]:
        return tuple(s.strip() for s in self.filter_splits.split(",") if s.strip())

    def window_policy(self) -> WindowPolicy:
        """The pattern-frequency window; the width counts only when trailing."""
        return WindowPolicy(self.tpf_window, self.tpf_trailing_width)


@dataclass
class TedSection:
    sigmas: str = "0.1"
    blend: str = "tiered"
    split: str = "valid"

    def __post_init__(self):
        sigmas = self.sigma_list()
        if not sigmas:
            raise ConfigError(f"sigmas must name at least one sigma, got {self.sigmas!r}")
        for sigma in sigmas:
            TedConfig(sigma, self.blend)
        if self.split not in SPLIT_NAMES:
            raise ConfigError(f"unknown ted split {self.split!r}")

    def sigma_list(self) -> list[float]:
        try:
            return [float(tok) for tok in self.sigmas.replace(",", " ").split()]
        except ValueError as err:
            raise ConfigError(f"bad sigma list {self.sigmas!r}") from err


@dataclass
class RunConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    synth: SynthSpec = field(default_factory=lambda: SynthSpec(20, 4, 10))
    ted: TedSection = field(default_factory=TedSection)


_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def _coerce(raw: str, target_type, key: str):
    if target_type is bool:
        low = raw.strip().lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return target_type(raw)
    except ValueError as err:
        raise ConfigError(f"{key}: expected {target_type.__name__}, got {raw!r}") from err


def _build_section(default, pairs: dict[str, str]):
    """``default`` with each key, a field name, set from its raw text."""
    types = {f.name: type(getattr(default, f.name)) for f in fields(default)}
    values = {}
    for key, raw in pairs.items():
        if key not in types:
            raise ConfigError(f"unknown key {key!r}")
        values[key] = _coerce(raw, types[key], key)
    return replace(default, **values)


def load_config(path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse a config file; ``overrides`` are 'section.key' -> raw value."""
    # no header names the empty section, so [DEFAULT] is an ordinary section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    try:
        read = parser.read(path)
        sections = {section: dict(parser.items(section)) for section in parser.sections()}
    except configparser.Error as err:  # a repeated key, no section, no '=', a lone '%'
        raise ConfigError(f"cannot parse config file {path}: {err}") from err
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for dotted, raw in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        sections.setdefault(section, {})[key] = raw
    config = RunConfig()
    for section, pairs in sections.items():
        if section not in {f.name for f in fields(config)}:
            raise ConfigError(f"unknown config section [{section}]")
        try:
            setattr(config, section, _build_section(getattr(config, section), pairs))
        except ValueError as err:
            raise ConfigError(f"[{section}] {err}") from err
    return config
