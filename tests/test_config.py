import pytest

from tempkg.config import (ConfigError, EvalConfig, RunConfig, TedSection, TrainConfig,
                           load_config)
from tempkg.synth import SynthSpec


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
        assert cfg.model.loss_mode == "prob_sum"
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
                    dict(patience=-1)):
            with pytest.raises(ValueError):
                TrainConfig(**bad)
        TrainConfig(patience=0, negatives=1, batch_snapshots=1, snapshot_cap=1, val_cap=1)

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
        ("ted", ["sigmas = 0.1 nan"]), ("ted", ["split = vaild"]),
        ("eval", ["tpf_window = trailng"]),
        ("eval", ["tpf_window = trailing", "tpf_trailing_width = 0"]),
    ], ids=["blend", "sigma-text", "sigma-negative", "sigma-nan", "split", "window",
            "trailing-width"])
    def test_degenerate_ted_and_eval_values_rejected(self, tmp_path, section, lines):
        with pytest.raises(ValueError):
            load_config(write(tmp_path, "\n".join([f"[{section}]"] + lines) + "\n"))
        overrides = {f"{section}.{key.strip()}": raw.strip()
                     for key, _, raw in (line.partition("=") for line in lines)}
        with pytest.raises(ValueError):
            load_config(write(tmp_path, "[train]\nseed = 1\n"), overrides=overrides)

    def test_ted_and_eval_sections_rejected_when_built(self):
        for bad in (dict(blend="summ"), dict(sigmas="0.1,abc"), dict(sigmas="0"),
                    dict(split="vaild")):
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
        assert cfg.model.loss_mode == "prob_sum"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_filter_split_names_validated(self, tmp_path):
        path = write(tmp_path, "[eval]\nfilter_splits = train,holdout\n")
        cfg = load_config(path)
        with pytest.raises(ConfigError):
            cfg.filter_split_names()
