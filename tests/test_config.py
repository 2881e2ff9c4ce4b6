from dataclasses import fields

import pytest

from tempkg.config import (FILTER_MODES, ConfigError, EvalConfig, RunConfig, TedSection,
                           TrainConfig, load_config)
from tempkg.data import DATASET_FORMATS, SPLIT_NAMES, TIME_GRANULARITIES
from tempkg.decoder import DECODERS, LOSS_MODES
from tempkg.heterogeneity import FREQ_TRANSFORMS
from tempkg.model import VARIANTS
from tempkg.synth import SynthSpec

# every config key whose values form a closed set, with each value it takes
CLOSED_SETS = {
    "dataset.format": DATASET_FORMATS,
    "dataset.time_granularity": TIME_GRANULARITIES,
    "model.variant": VARIANTS,
    "model.decoder": DECODERS,
    "model.loss": LOSS_MODES,
    "model.freq_transform": FREQ_TRANSFORMS,
    "eval.filter": FILTER_MODES,
    "eval.filter_splits": SPLIT_NAMES,
    "eval.tpf_window": ("full_history", "strict_past", "trailing"),
    "ted.blend": ("tiered", "sum"),
    "ted.split": SPLIT_NAMES,
}


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_defaults_mirror_reference_settings(self):
        cfg = RunConfig()
        assert cfg.model.dim == 128
        assert cfg.model.layers == 2
        assert cfg.model.heads == 8
        assert cfg.model.window == 15
        assert cfg.train.lr == 0.001
        assert cfg.train.negatives == 500
        assert cfg.train.batch_snapshots == 8
        assert cfg.train.snapshot_cap == 3000
        assert cfg.train.patience == 10
        assert cfg.model.dropout_current == 0.5
        assert cfg.model.dropout_reference == 0.2

    def test_parse_sections_and_values(self, tmp_path):
        path = write(tmp_path, """
[dataset]
path = /data/toy
[model]
variant = temp-sa
dim = 16
heads = 4
gating = true
loss = prob_sum
[train]
lr = 0.01
epochs = 7
[synth]
entities = 30
periodicity = 0.9
[ted]
sigmas = 1e-5 0.1 10
""")
        cfg = load_config(path)
        assert cfg.dataset.path == "/data/toy"
        assert cfg.model.variant == "temp-sa"
        assert cfg.model.dim == 16 and cfg.model.heads == 4
        assert cfg.model.gating is True
        assert cfg.model.loss == "prob_sum"
        assert cfg.train.lr == 0.01 and cfg.train.epochs == 7
        assert cfg.synth.entities == 30
        assert cfg.ted.sigma_list() == [1e-5, 0.1, 10.0]

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = write(tmp_path, "[model]\nwidth = 64\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "width" in str(err.value)

    def test_unknown_section_is_hard_error(self, tmp_path):
        path = write(tmp_path, "[optimizer]\nlr = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_value_type(self, tmp_path):
        path = write(tmp_path, "[train]\nepochs = many\n")
        with pytest.raises(ConfigError):
            load_config(path)
        path2 = write(tmp_path, "[model]\ngating = perhaps\n")
        with pytest.raises(ConfigError):
            load_config(path2)

    def test_invalid_model_combination_caught(self, tmp_path):
        path = write(tmp_path, "[model]\nvariant = temp-sa\ndim = 10\nheads = 4\n")
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize("dotted, raw", [
        ("train.lr", "nan"), ("train.lr", "0"), ("train.lr", "-0.1"), ("train.lr", "inf"),
        ("train.negatives", "0"), ("train.batch_snapshots", "0"),
        ("train.snapshot_cap", "0"), ("train.val_cap", "-1"), ("train.patience", "-1"),
        ("train.epochs", "-3"),
        ("synth.entities", "-3"), ("synth.relations", "0"), ("synth.steps", "0"),
        ("synth.periodicity", "1.5"), ("synth.periodicity", "nan"), ("synth.period", "0"),
        ("synth.valid_fraction", "1.5"), ("synth.test_fraction", "-0.1"),
        ("synth.density", "-1.0"), ("synth.density", "nan"), ("synth.density", "inf"),
    ])
    def test_degenerate_train_and_synth_values_rejected(self, tmp_path, dotted, raw):
        path = write(tmp_path, "[train]\nseed = 1\n")
        with pytest.raises(ValueError):
            load_config(path, overrides={dotted: raw})
        section, _, key = dotted.partition(".")
        with pytest.raises(ValueError):
            load_config(write(tmp_path, f"[{section}]\n{key} = {raw}\n"))

    def test_degenerate_train_config_rejected_when_built(self):
        for bad in (dict(lr=float("nan")), dict(lr=0.0), dict(negatives=0),
                    dict(batch_snapshots=0), dict(snapshot_cap=0), dict(val_cap=0),
                    dict(patience=-1), dict(epochs=-3)):
            with pytest.raises(ValueError):
                TrainConfig(**bad)
        TrainConfig(patience=0, negatives=1, batch_snapshots=1, snapshot_cap=1, val_cap=1,
                    epochs=0)

    def test_degenerate_synth_spec_rejected_when_built(self):
        for bad in (dict(entities=-3), dict(relations=0), dict(steps=0),
                    dict(periodicity=-0.1), dict(period=0), dict(valid_fraction=1.5),
                    dict(test_fraction=-0.1), dict(valid_fraction=0.6, test_fraction=0.6),
                    dict(density=-1.0), dict(density=float("nan")),
                    dict(density=float("inf"))):
            with pytest.raises(ValueError):
                SynthSpec(**dict(dict(entities=4, relations=2, steps=3), **bad))
        SynthSpec(4, 2, 3, density=0.0, valid_fraction=0.5, test_fraction=0.5)

    @pytest.mark.parametrize("section, lines", [
        ("ted", ["blend = summ"]), ("ted", ["sigmas = 0.1,abc"]), ("ted", ["sigmas = -1"]),
        ("ted", ["sigmas = 0.1 nan"]), ("ted", ["sigmas = ,"]), ("ted", ["split = vaild"]),
        ("eval", ["tpf_window = trailng"]),
        ("eval", ["tpf_window = trailing", "tpf_trailing_width = 0"]),
    ], ids=["blend", "sigma-text", "sigma-negative", "sigma-nan", "sigma-empty", "split",
            "window", "trailing-width"])
    def test_degenerate_ted_and_eval_values_rejected(self, tmp_path, section, lines):
        with pytest.raises(ValueError):
            load_config(write(tmp_path, "\n".join([f"[{section}]"] + lines) + "\n"))
        overrides = {f"{section}.{key.strip()}": raw.strip()
                     for key, _, raw in (line.partition("=") for line in lines)}
        with pytest.raises(ValueError):
            load_config(write(tmp_path, "[train]\nseed = 1\n"), overrides=overrides)

    def test_ted_and_eval_sections_rejected_when_built(self):
        for bad in (dict(blend="summ"), dict(sigmas="0.1,abc"), dict(sigmas="0"),
                    dict(sigmas=","), dict(split="vaild")):
            with pytest.raises(ValueError):
                TedSection(**bad)
        for bad in (dict(tpf_window="trailng"),
                    dict(tpf_window="trailing", tpf_trailing_width=0)):
            with pytest.raises(ValueError):
                EvalConfig(**bad)
        # the width only counts for a trailing window
        assert EvalConfig(tpf_trailing_width=0).window_policy().kind == "full_history"
        assert TedSection(sigmas="1e-5, 0.1", blend="sum", split="test").sigma_list() == \
            [1e-5, 0.1]

    @pytest.mark.parametrize("section, line, detail", [
        ("train", "lr = 0", "lr must be positive"), ("model", "dim = 0", "dim must be positive"),
        ("synth", "steps = 0", "at least one entity, relation and step"),
        ("ted", "sigmas = nan", "sigma must be positive"),
        ("eval", "tpf_window = trailng", "unknown window policy"),
    ])
    def test_range_errors_are_config_errors_naming_their_section(self, tmp_path, section,
                                                                 line, detail):
        with pytest.raises(ConfigError, match=rf"^\[{section}\] .*{detail}") as err:
            load_config(write(tmp_path, f"[{section}]\n{line}\n"))
        assert type(err.value.__cause__) is ValueError

    @pytest.mark.parametrize("text, kind", [
        ("[model]\ndim = 8\ndim = 16\n", "already exists"),
        ("dim = 8\n[model]\n", "no section headers"),
        ("[model]\ndim 8\n", "parsing errors"),
        ("[dataset]\npath = /data/100%\n", "'%' must be followed"),
    ], ids=["repeated-key", "key-before-section", "no-equals", "lone-percent"])
    def test_malformed_file_is_config_error_naming_it(self, tmp_path, text, kind):
        path = write(tmp_path, text)
        with pytest.raises(ConfigError, match=kind) as err:
            load_config(path)
        assert str(path) in str(err.value)

    def test_seed_override(self, tmp_path):
        path = write(tmp_path, "[train]\nseed = 1\n")
        cfg = load_config(path, overrides={"train.seed": "42"})
        assert cfg.train.seed == 42

    @pytest.mark.parametrize("dotted", ["model.temporal_active", "ted.sigma_list",
                                        "model.width", "optimizer.lr"])
    def test_unknown_override_is_config_error(self, tmp_path, dotted):
        # overrides pass the key check of the config file: a property or a
        # method is not a settable key
        path = write(tmp_path, "[train]\nseed = 1\n")
        with pytest.raises(ConfigError):
            load_config(path, overrides={dotted: "1"})

    def test_renamed_override_key(self, tmp_path):
        path = write(tmp_path, "[train]\nseed = 1\n")
        cfg = load_config(path, overrides={"model.loss": "prob_sum"})
        assert cfg.model.loss == "prob_sum"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_filter_split_names_validated(self, tmp_path):
        for raw in ("train,holdout", ","):
            with pytest.raises(ConfigError):
                load_config(write(tmp_path, f"[eval]\nfilter_splits = {raw}\n"))
        cfg = load_config(write(tmp_path, "[eval]\nfilter_splits = train, test\n"))
        assert cfg.eval.filter_split_names() == ("train", "test")


@pytest.mark.parametrize("dotted", sorted(CLOSED_SETS))
def test_closed_set_key_loads_its_values_and_rejects_others(tmp_path, dotted):
    # a misspelled choice fails when the file is loaded, from the file and
    # from an override alike, not when the value is first read
    section, _, key = dotted.partition(".")
    for raw in CLOSED_SETS[dotted]:
        load_config(write(tmp_path, f"[{section}]\n{key} = {raw}\n"))
    with pytest.raises(ValueError):
        load_config(write(tmp_path, f"[{section}]\n{key} = bogus\n"))
    with pytest.raises(ValueError):
        load_config(write(tmp_path, "[train]\nseed = 1\n"), overrides={dotted: "bogus"})


def test_renamed_field_name_is_an_unknown_key(tmp_path):
    for text, overrides in (("[model]\nloss_mode = prob_sum\n", None),
                            ("[model]\nloss = prob_sum\nloss_mode = prob_sum\n", None),
                            ("[train]\nseed = 1\n", {"model.loss_mode": "prob_sum"})):
        with pytest.raises(ConfigError, match=r"^\[model\] unknown key 'loss_mode'$"):
            load_config(write(tmp_path, text), overrides=overrides)


@pytest.mark.parametrize("text", ["[DEFAULT]\nseed = 3\n",
                                  "[DEFAULT]\nseed = 3\n[train]\nlr = 0.01\n"],
                         ids=["alone", "beside-train"])
def test_default_section_is_an_unknown_section(tmp_path, text):
    with pytest.raises(ConfigError, match=r"^unknown config section \[DEFAULT\]$"):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("section, key, raw, message", [
    ("dataset", "format", "xml", "unknown dataset format 'xml'"),
    ("model", "dim", "0", "embedding dim must be positive"),
    ("model", "gating", "perhaps", "gating: expected a boolean, got 'perhaps'"),
    ("train", "lr", "nan", "lr must be positive and finite, got nan"),
    ("train", "epochs", "many", "epochs: expected int, got 'many'"),
    ("eval", "filter", "fuzzy", "unknown filter mode 'fuzzy'"),
    ("synth", "steps", "0", "generator needs at least one entity, relation and step"),
    ("ted", "split", "vaild", "unknown ted split 'vaild'"),
])
def test_each_error_carries_its_section_prefix_once(tmp_path, section, key, raw, message):
    for text, overrides in ((f"[{section}]\n{key} = {raw}\n", None),
                            ("[train]\nseed = 1\n", {f"{section}.{key}": raw})):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text), overrides=overrides)
        assert str(err.value) == f"[{section}] {message}"


def _word_runs(name):
    """The leading and trailing runs of a name's '_'-separated words, the
    shapes a shortened alias of a field would take ('loss' for 'loss_mode')."""
    words = name.split("_")
    return {"_".join(words[:i]) for i in range(1, len(words))} | \
        {"_".join(words[i:]) for i in range(1, len(words))}


@pytest.mark.parametrize("section", [f.name for f in fields(RunConfig)])
def test_keys_are_exactly_field_names(tmp_path, section):
    # each field loads from its own name, and nothing else is a key: a table
    # of renamed keys cannot come back unnoticed
    default = getattr(RunConfig(), section)
    own = {f.name for f in fields(default)}
    for name in own:
        text = str(getattr(default, name))
        assert load_config(write(tmp_path, f"[{section}]\n{name} = {text}\n")) == RunConfig()
        assert load_config(write(tmp_path, "[train]\nseed = 0\n"),
                           overrides={f"{section}.{name}": text}) == RunConfig()
    every_field = {f.name for s in fields(RunConfig) for f in fields(getattr(RunConfig(), s.name))}
    others = every_field | {n for name in every_field for n in _word_runs(name)} | \
        {n for n in dir(default) if not n.startswith("_")}
    for key in sorted(others - own):
        with pytest.raises(ConfigError, match=rf"^\[{section}\] unknown key '{key}'$"):
            load_config(write(tmp_path, f"[{section}]\n{key} = 1\n"))
