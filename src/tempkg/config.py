"""Line-oriented run configuration: ``key = value`` under ``[section]`` headers.

Every key has a documented default; unknown sections or keys are hard errors
so a misspelled ablation flag fails loudly instead of silently running the
default.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

from .data import SPLIT_NAMES
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
            raise ValueError(f"train.lr must be positive and finite, got {self.lr}")
        for name, least in (("negatives", 1), ("batch_snapshots", 1), ("snapshot_cap", 1),
                            ("val_cap", 1), ("patience", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"train.{name} must be at least {least}")


@dataclass
class EvalConfig:
    filter: str = "time_aware"            # or 'static'
    filter_splits: str = "train,valid,test"
    tpf_window: str = "full_history"      # 'strict_past' | 'trailing'
    tpf_trailing_width: int = 15

    def __post_init__(self):
        self.window_policy()

    def window_policy(self) -> WindowPolicy:
        """The pattern-frequency window; the width counts only when trailing."""
        return WindowPolicy(self.tpf_window, self.tpf_trailing_width)


@dataclass
class TedSection:
    sigmas: str = "0.1"
    blend: str = "tiered"
    split: str = "valid"

    def __post_init__(self):
        for sigma in self.sigma_list():
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

    def filter_split_names(self) -> tuple[str, ...]:
        names = tuple(s.strip() for s in self.eval.filter_splits.split(",") if s.strip())
        for name in names:
            if name not in SPLIT_NAMES:
                raise ConfigError(f"unknown split {name!r} in filter_splits")
        if not names:
            raise ConfigError("filter_splits must name at least one split")
        return names


# map config-file keys onto dataclass fields; the model section renames a few
_SECTION_TARGETS = {
    "dataset": ("dataset", {}),
    "model": ("model", {"loss": "loss_mode"}),
    "train": ("train", {}),
    "eval": ("eval", {}),
    "synth": ("synth", {}),
    "ted": ("ted", {}),
}

_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def _coerce(raw: str, target_type, where: str):
    if target_type is bool:
        low = raw.strip().lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError(f"{where}: expected a boolean, got {raw!r}")
    try:
        return target_type(raw)
    except ValueError as err:
        raise ConfigError(f"{where}: expected {target_type.__name__}, got {raw!r}") from err


def _section_target(config: RunConfig, section: str):
    if section not in _SECTION_TARGETS:
        raise ConfigError(f"unknown config section [{section}]")
    attr, renames = _SECTION_TARGETS[section]
    return getattr(config, attr), renames


def _assign(target, renames: dict[str, str], section: str, key: str, raw: str,
            where: str) -> None:
    """Set one field from its raw text; only dataclass fields are settable."""
    name = renames.get(key, key)
    if name not in {f.name for f in fields(target)}:
        raise ConfigError(f"unknown key '{key}' in section [{section}]")
    setattr(target, name, _coerce(raw, type(getattr(target, name)), where))


def load_config(path, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse a config file; ``overrides`` are 'section.key' -> raw value."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    config = RunConfig()
    for section in parser.sections():
        target, renames = _section_target(config, section)
        for key, raw in parser.items(section):
            _assign(target, renames, section, key, raw, f"[{section}] {key}")
    for dotted, raw in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        target, renames = _section_target(config, section)
        _assign(target, renames, section, key, raw, dotted)
    for built in (config.model, config.train, config.eval, config.synth, config.ted):
        built.__post_init__()
    return config
