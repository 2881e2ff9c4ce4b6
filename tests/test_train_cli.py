import json
import os

import numpy as np
import pytest

from tempkg.cli import main
from tempkg.config import RunConfig
from tempkg.data import Snapshot, TkgDataset, cross_split_repeats, load_dataset
from tempkg.evaluation import evaluate
from tempkg.model import ModelConfig, TempModel, init_params
from tempkg.synth import SynthSpec, generate_synthetic
from tempkg.train import (TrainingError, _validation_mrr, filter_index_for, tpf_table,
                          train)


def small_run_config(**model_kw):
    cfg = RunConfig()
    defaults = dict(variant="temp-gru", decoder="complex", dim=4, layers=1,
                    window=2, heads=2)
    defaults.update(model_kw)
    cfg.model = ModelConfig(**defaults)
    cfg.train.lr = 0.01
    cfg.train.negatives = 3
    cfg.train.batch_snapshots = 3
    cfg.train.val_cap = 30
    cfg.train.seed = 2
    return cfg


@pytest.fixture(scope="module")
def small_dataset():
    return generate_synthetic(SynthSpec(entities=10, relations=2, steps=5,
                                        density=1.0, periodicity=0.5), seed=6)


class TestTrainLoop:
    def test_two_runs_identical_logs_and_checkpoints(self, small_dataset, tmp_path):
        cfg = small_run_config()
        train(cfg, small_dataset, tmp_path / "a", max_epochs=3)
        train(cfg, small_dataset, tmp_path / "b", max_epochs=3)
        log_a = (tmp_path / "a" / "training_log.jsonl").read_bytes()
        log_b = (tmp_path / "b" / "training_log.jsonl").read_bytes()
        assert log_a == log_b
        ckpt_a = (tmp_path / "a" / "best.ckpt").read_bytes()
        ckpt_b = (tmp_path / "b" / "best.ckpt").read_bytes()
        assert ckpt_a == ckpt_b

    def test_loss_decreases_over_epochs(self, small_dataset, tmp_path):
        cfg = small_run_config()
        _, logbook = train(cfg, small_dataset, tmp_path / "run", max_epochs=8)
        losses = [r.train_loss for r in logbook.records]
        assert losses[-1] < losses[0]

    def test_early_stopping_with_zero_patience(self, small_dataset, tmp_path):
        cfg = small_run_config()
        cfg.train.patience = 0
        _, logbook = train(cfg, small_dataset, tmp_path / "run", max_epochs=50)
        assert len(logbook.records) < 50
        assert logbook.records[-1].stopped

    def test_best_checkpoint_tracks_max_validation_mrr(self, small_dataset, tmp_path):
        cfg = small_run_config()
        _, logbook = train(cfg, small_dataset, tmp_path / "run", max_epochs=6)
        vals = [r.val_mrr for r in logbook.records]
        assert logbook.best_epoch == int(np.argmax(vals))

    def test_non_finite_loss_aborts(self, small_dataset, tmp_path):
        cfg = small_run_config()
        cfg.train.lr = 1e150
        with pytest.raises(TrainingError):
            with np.errstate(all="ignore"):
                train(cfg, small_dataset, tmp_path / "run", max_epochs=10)

    def test_validation_mrr_ranks_like_evaluate(self, small_dataset):
        cfg = small_run_config(gating=True)
        ds = small_dataset
        params = init_params(cfg.model, ds.entity_count, ds.relation_count,
                             ds.step_count, seed=3)
        model = TempModel(cfg.model, ds, params)
        tpf = tpf_table(cfg, ds)
        index = filter_index_for(cfg, ds)
        facts = ds.split_sizes()["valid"]
        got = _validation_mrr(model, ds, index, tpf, cap=facts, seed=0)
        expect = evaluate(ds, "valid", model.snapshot_scorer(tpf), index).mrr
        assert got == expect

    def test_gating_and_imputation_variant_trains(self, small_dataset, tmp_path):
        cfg = small_run_config(gating=True, imputation=True, bidirectional=True)
        _, logbook = train(cfg, small_dataset, tmp_path / "run", max_epochs=2)
        assert len(logbook.records) == 2


def run_cli(args):
    return main(args)


def write_config(path, body):
    path.write_text(body)
    return str(path)


class TestFilterIndex:
    def dataset(self):
        # (0, 0, 1) holds at steps 0 and 1 (twice at step 1: train and test),
        # (0, 0, 3) at step 0, (0, 0, 2) and (4, 0, 1) at step 2
        facts = {"train": {0: [(0, 0, 1), (0, 0, 3)], 1: [(0, 0, 1)]},
                 "valid": {2: [(0, 0, 2), (4, 0, 1)]},
                 "test": {1: [(0, 0, 1)]}}
        splits = {name: [Snapshot(t, np.array(facts[name].get(t, []), dtype=np.int64)
                                  if t in facts[name] else None) for t in range(3)]
                  for name in facts}
        return TkgDataset(5, 1, 3, splits)

    @pytest.mark.parametrize("mode,objects_at_2,subjects_at_2,objects_at_1", [
        ("time_aware", [2], [4], [1]),
        ("static", [1, 2, 3], [0, 4], [1, 2, 3]),
    ])
    def test_static_filter_ignores_time(self, mode, objects_at_2, subjects_at_2,
                                        objects_at_1):
        cfg = RunConfig()
        cfg.eval.filter = mode
        index = filter_index_for(cfg, self.dataset())
        got = [index.objects_for(0, 0, 2), index.subjects_for(0, 1, 2),
               index.objects_for(0, 0, 1)]
        assert [a.tolist() for a in got] == [objects_at_2, subjects_at_2, objects_at_1]
        assert all(a.dtype == np.int64 for a in got)

    def test_unknown_filter_mode_rejected(self):
        cfg = RunConfig()
        cfg.eval.filter = "fuzzy"
        with pytest.raises(ValueError):
            filter_index_for(cfg, self.dataset())


class TestCli:
    @pytest.fixture()
    def synth_config(self, tmp_path):
        return write_config(tmp_path / "synth.cfg", """
[synth]
entities = 10
relations = 2
steps = 5
density = 1.0
periodicity = 0.5
[train]
seed = 6
""")

    def make_dataset_dir(self, tmp_path, synth_config):
        data_dir = tmp_path / "data"
        assert run_cli(["synth", "--config", synth_config, "--out", str(data_dir)]) == 0
        return data_dir

    def full_config(self, tmp_path, data_dir):
        return write_config(tmp_path / "run.cfg", f"""
[dataset]
path = {data_dir}
[model]
variant = temp-gru
dim = 4
layers = 1
window = 2
heads = 2
[train]
lr = 0.01
epochs = 2
negatives = 3
batch_snapshots = 3
val_cap = 20
seed = 2
[ted]
sigmas = 0.1 10
split = test
""")

    def test_synth_then_stats(self, tmp_path, synth_config, capsys):
        data_dir = self.make_dataset_dir(tmp_path, synth_config)
        cfg = self.full_config(tmp_path, data_dir)
        out_dir = tmp_path / "stats"
        assert run_cli(["stats", "--config", cfg, "--out", str(out_dir)]) == 0
        captured = capsys.readouterr().out
        assert "entities,10" in captured
        stats = (out_dir / "stats.csv").read_text().splitlines()
        assert "relations,2" in stats
        activity = (out_dir / "activity.csv").read_text().splitlines()
        assert activity[0].startswith("step,active_entities")
        assert len(activity) == 6

    def test_stats_reports_cross_split_repeats(self, tmp_path, synth_config):
        data_dir = self.make_dataset_dir(tmp_path, synth_config)
        train_lines = (data_dir / "train.txt").read_text().splitlines()
        with open(data_dir / "test.txt", "a", encoding="utf-8") as fh:
            fh.write("\n".join(train_lines[:2]) + "\n")   # two facts leak into test
        (data_dir / "stat.txt").unlink()   # its declared total no longer holds
        repeats = cross_split_repeats(load_dataset(data_dir))
        assert repeats >= 2
        out_dir = tmp_path / "stats"
        cfg = self.full_config(tmp_path, data_dir)
        assert run_cli(["stats", "--config", cfg, "--out", str(out_dir)]) == 0
        stats = (out_dir / "stats.csv").read_text().splitlines()
        assert stats[-1] == f"cross_split_repeats,{repeats}"

    def test_train_eval_analyze_pipeline(self, tmp_path, synth_config):
        data_dir = self.make_dataset_dir(tmp_path, synth_config)
        cfg = self.full_config(tmp_path, data_dir)
        run_dir = tmp_path / "run"
        assert run_cli(["train", "--config", cfg, "--out", str(run_dir)]) == 0
        assert (run_dir / "best.ckpt").exists()
        assert (run_dir / "training_log.jsonl").exists()

        assert run_cli(["eval", "--config", cfg, "--out", str(run_dir),
                        "--split", "test"]) == 0
        summary = (run_dir / "summary_test.csv").read_text()
        assert summary.startswith("metric,value")
        results = run_dir / "results_test.jsonl"
        lines = [json.loads(x) for x in results.read_text().splitlines()]
        assert all("rank" in rec and "tpf" in rec for rec in lines)

        out2 = tmp_path / "analysis"
        assert run_cli(["analyze", "--config", cfg, "--results", str(results),
                        "--out", str(out2)]) == 0
        assert (out2 / "bins.csv").read_text().startswith(
            "pattern_kind,direction,bin_lo,bin_hi,count,hits10")

    def test_eval_twice_is_identical(self, tmp_path, synth_config):
        data_dir = self.make_dataset_dir(tmp_path, synth_config)
        cfg = self.full_config(tmp_path, data_dir)
        run_dir = tmp_path / "run"
        assert run_cli(["train", "--config", cfg, "--out", str(run_dir)]) == 0
        assert run_cli(["eval", "--config", cfg, "--out", str(run_dir)]) == 0
        first = (run_dir / "summary_test.csv").read_bytes()
        assert run_cli(["eval", "--config", cfg, "--out", str(run_dir)]) == 0
        assert (run_dir / "summary_test.csv").read_bytes() == first

    def test_ted_sweep_csv(self, tmp_path, synth_config):
        data_dir = self.make_dataset_dir(tmp_path, synth_config)
        cfg = self.full_config(tmp_path, data_dir)
        out_dir = tmp_path / "ted"
        assert run_cli(["ted", "--config", cfg, "--out", str(out_dir)]) == 0
        lines = (out_dir / "ted_test.csv").read_text().splitlines()
        assert lines[0] == "sigma,MRR,Hits1,Hits3,Hits10"
        assert len(lines) == 3

    def test_analyze_empty_results(self, tmp_path, synth_config):
        cfg = write_config(tmp_path / "min.cfg", "[train]\nseed = 1\n")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out_dir = tmp_path / "an"
        assert run_cli(["analyze", "--config", cfg, "--results", str(empty),
                        "--out", str(out_dir)]) == 0
        assert (out_dir / "bins.csv").read_text().splitlines()[0].startswith("pattern_kind")

    def test_errors_exit_nonzero_with_single_line(self, tmp_path, capsys):
        bad = write_config(tmp_path / "bad.cfg", "[model]\nwidth = 3\n")
        assert run_cli(["stats", "--config", bad, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ")
        assert "\n" not in err

    def test_eval_shape_mismatch_rejected(self, tmp_path, synth_config, capsys):
        data_dir = self.make_dataset_dir(tmp_path, synth_config)
        cfg = self.full_config(tmp_path, data_dir)
        run_dir = tmp_path / "run"
        assert run_cli(["train", "--config", cfg, "--out", str(run_dir)]) == 0
        other = write_config(tmp_path / "other.cfg", f"""
[dataset]
path = {data_dir}
[model]
variant = temp-gru
dim = 8
layers = 1
window = 2
heads = 2
""")
        assert run_cli(["eval", "--config", other, "--out", str(run_dir)]) == 1
        assert "error: " in capsys.readouterr().err

    def test_missing_dataset_path_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "nopath.cfg", "[train]\nseed = 1\n")
        assert run_cli(["stats", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "dataset.path" in capsys.readouterr().err
