import json
import logging
import os

import numpy as np
import pytest

from tempkg import autodiff as ad
from tempkg.checkpoint import load_checkpoint, save_checkpoint
from tempkg.cli import main
from tempkg.config import EvalConfig, RunConfig, TrainConfig
from tempkg.data import (SPLIT_NAMES, TkgDataset, build_true_index, cross_split_repeats,
                         load_dataset, write_dataset)
from tempkg.evaluation import evaluate
from tempkg.model import ModelConfig, TempModel, grads_by_name, init_params, leaves_on_tape
from tempkg.synth import SynthSpec, generate_synthetic
from tempkg.train import (TrainingError, _Trainer, _validation_mrr, filter_index_for,
                          tpf_table, train)

from gradcheck import scaled_error
from helpers import objects_for, subjects_for


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

    @pytest.mark.parametrize("variant", ["temp-gru", "temp-sa"])
    def test_training_builds_no_snapshot_views(self, tmp_path, variant):
        # every step's facts are a slice of the sorted quads, so an epoch with
        # validation and a checkpoint never builds the per-step Snapshot views
        dataset = generate_synthetic(SynthSpec(entities=10, relations=2, steps=5,
                                               density=1.0, periodicity=0.5), seed=6)
        cfg = small_run_config(variant=variant)
        cfg.train.snapshot_cap = 4
        train(cfg, dataset, tmp_path / "run", max_epochs=2)
        assert (tmp_path / "run" / "best.ckpt").exists()
        assert "splits" not in dataset.__dict__

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

    def test_empty_validation_split_aborts_before_training(self, small_dataset, tmp_path):
        # with nothing to rank, every epoch would score 0.0 and epoch 0 would
        # be kept as the best
        ds = small_dataset
        empty_valid = TkgDataset(ds.entity_count, ds.relation_count, ds.step_count,
                                 dict(ds.quads, valid=[]))
        with pytest.raises(TrainingError, match="validation split has no facts"):
            train(small_run_config(), empty_valid, tmp_path / "run", max_epochs=1)
        assert not (tmp_path / "run" / "training_log.jsonl").exists()

    def test_zero_epochs_abort_before_writing(self, small_dataset, tmp_path):
        # no epoch runs, so none could be selected as the best
        cfg = small_run_config()
        for epochs, max_epochs in ((5, 0), (0, None), (0, -1)):
            cfg.train.epochs = epochs
            with pytest.raises(TrainingError, match="select no best epoch"):
                train(cfg, small_dataset, tmp_path / "run", max_epochs=max_epochs)
            assert not (tmp_path / "run" / "best.ckpt").exists()
            assert not (tmp_path / "run" / "training_log.jsonl").exists()

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


def one_tape_batch_gradients(trainer, batch, epoch):
    """_Trainer.batch_gradients the way training ran before each target had a
    tape of its own: every target of the batch in batch order on one tape,
    the loss their add chain, one backward."""
    params = trainer.model.params
    tape = ad.Tape()
    leaves = leaves_on_tape(tape, params)
    loss = None
    for t in batch:
        term = trainer.target_loss(leaves, t, epoch)
        loss = term if loss is None else ad.add(loss, term)
    return loss.item(), grads_by_name(tape, leaves, loss, params)


# the train-gru benchmark workload, and a bidirectional, gated, imputing temp-sa
ORACLE_MODELS = {
    "temp-gru": dict(variant="temp-gru", decoder="complex", dim=64, window=6,
                     imputation=True),
    "temp-sa": dict(variant="temp-sa", decoder="complex", dim=64, window=6,
                    bidirectional=True, imputation=True, gating=True),
}


@pytest.fixture(scope="module")
def oracle_dataset():
    return generate_synthetic(SynthSpec(200, 20, 24, density=1.0, periodicity=0.5,
                                        period=3), seed=0)


class TestTapePerTarget:
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_log_and_checkpoint_bytes_match_one_tape_batch(self, oracle_dataset, name,
                                                           tmp_path, monkeypatch):
        """Two epochs with a tape per target write the log bytes that one tape
        per batch writes, and a checkpoint within rounding of its: the batch
        gradient adds the targets' gradients in another order than the one
        tape's backward does."""
        config = RunConfig()
        config.model = ModelConfig(**ORACLE_MODELS[name])
        config.train = TrainConfig(lr=0.01, negatives=100, batch_snapshots=4, seed=0)
        train(config, oracle_dataset, tmp_path / "per-target", max_epochs=2)
        monkeypatch.setattr(_Trainer, "batch_gradients", one_tape_batch_gradients)
        train(config, oracle_dataset, tmp_path / "one-tape", max_epochs=2)
        log = "training_log.jsonl"
        assert (tmp_path / "per-target" / log).read_bytes() == \
            (tmp_path / "one-tape" / log).read_bytes()
        got = load_checkpoint(tmp_path / "per-target" / "best.ckpt")
        want = load_checkpoint(tmp_path / "one-tape" / "best.ckpt")
        assert sorted(got) == sorted(want)
        for tensor in want:
            assert scaled_error(got[tensor], want[tensor]) <= 1e-12, tensor

    def test_batch_is_batch_order_sum_of_its_targets(self, oracle_dataset):
        """A batch's loss and every gradient are its targets', added in batch
        order, bit for bit."""
        ds = oracle_dataset
        model_config = ModelConfig(**ORACLE_MODELS["temp-gru"])
        params = init_params(model_config, ds.entity_count, ds.relation_count,
                             ds.step_count, 0)
        trainer = _Trainer(TempModel(model_config, ds, params),
                           TrainConfig(negatives=100, seed=0),
                           build_true_index(ds, splits=("train",)), None)
        batch, epoch = [9, 10, 11, 12], 1
        loss, grads = trainer.batch_gradients(batch, epoch)
        want_loss, want = trainer.target_gradients(batch[0], epoch)
        for t in batch[1:]:
            value, more = trainer.target_gradients(t, epoch)
            want_loss += value
            want = {name: g + more[name] for name, g in want.items()}
        assert loss == want_loss
        assert sorted(grads) == sorted(want) == sorted(params)
        for name in params:
            assert grads[name].tobytes() == want[name].tobytes(), name

    def test_each_target_runs_its_own_backward(self, small_dataset, tmp_path,
                                               monkeypatch):
        """One backward per target, each over a tape smaller than its batch's."""
        sizes = {}
        original = ad.Tape.backward

        def spy(tape, loss):
            sizes.setdefault(run, []).append(len(tape))
            return original(tape, loss)

        monkeypatch.setattr(ad.Tape, "backward", spy)
        cfg = small_run_config()
        run = "per-target"
        train(cfg, small_dataset, tmp_path / run, max_epochs=2)
        monkeypatch.setattr(_Trainer, "batch_gradients", one_tape_batch_gradients)
        run = "one-tape"
        train(cfg, small_dataset, tmp_path / run, max_epochs=2)
        targets = sum(1 for snap in small_dataset.splits["train"] if len(snap))
        assert len(sizes["per-target"]) == 2 * targets > len(sizes["one-tape"])
        assert max(sizes["per-target"]) < max(sizes["one-tape"])

    def test_negative_shortfall_summarised_once_per_epoch(self, small_dataset, tmp_path,
                                                          caplog):
        cfg = small_run_config()
        cfg.train.negatives = 20    # more than the 10 entities: every query is short
        with caplog.at_level("WARNING", logger="tempkg"):
            train(cfg, small_dataset, tmp_path / "run", max_epochs=3)
        queries = 2 * sum(len(snap) for snap in small_dataset.splits["train"])
        assert [r.getMessage() for r in caplog.records] == [
            f"epoch {epoch} negatives: 0 of {queries} queries have no valid corruption "
            f"and sample among known-true entities; {queries} have fewer than 20 and "
            "sample with replacement" for epoch in range(3)]


def activity_dense(dataset):
    """Oracle: the lines of ``activity.csv`` from two dense (T + 1, E) tables;
    row t + 1 of ``active`` marks the entities active at step t."""
    active = np.zeros((dataset.step_count + 1, dataset.entity_count), dtype=np.int64)
    for split in SPLIT_NAMES:
        s, _, o, t = dataset.quads[split].T
        active[t + 1, s] = active[t + 1, o] = 1
    before = np.cumsum(active, axis=0)  # before[t, e]: steps < t at which e was active
    lines = ["step,active_entities,active_with_recent_history,avg_occurrences_last15"]
    for t in range(dataset.step_count):
        occurrences = (before[t] - before[max(0, t - 15)])[active[t + 1] == 1]
        avg_occ = float(np.mean(occurrences)) if len(occurrences) else 0.0
        lines.append(f"{t},{len(occurrences)},{np.count_nonzero(occurrences)},{avg_occ:.4f}")
    return lines


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
        return TkgDataset(5, 1, 3, {name: [(*fact, t) for t, triples in steps.items()
                                           for fact in triples]
                                    for name, steps in facts.items()})

    @pytest.mark.parametrize("mode,objects_at_2,subjects_at_2,objects_at_1", [
        ("time_aware", [2], [4], [1]),
        ("static", [1, 2, 3], [0, 4], [1, 2, 3]),
    ])
    def test_static_filter_ignores_time(self, mode, objects_at_2, subjects_at_2,
                                        objects_at_1):
        cfg = RunConfig()
        cfg.eval.filter = mode
        index = filter_index_for(cfg, self.dataset())
        got = [objects_for(index, 0, 0, 2), subjects_for(index, 0, 1, 2),
               objects_for(index, 0, 0, 1)]
        assert [a.tolist() for a in got] == [objects_at_2, subjects_at_2, objects_at_1]
        assert all(a.dtype == np.int64 for a in got)

    def test_unknown_filter_mode_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(filter="fuzzy")


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

    @pytest.mark.parametrize("dataset", [
        generate_synthetic(SynthSpec(entities=40, relations=3, steps=45, density=0.2,
                                     periodicity=0.5, period=7), seed=4),
        # steps 1 and 3 to 19 are empty, entity 6 is never active, entity 5
        # only in test, and the facts of step 20 repeat across splits
        TkgDataset(7, 2, 40, {"train": [(0, 0, 1, 0), (0, 1, 2, 2), (1, 0, 2, 20),
                                        (2, 1, 0, 21), (0, 0, 1, 36)],
                              "valid": [(1, 0, 2, 20), (3, 1, 4, 22)],
                              "test": [(5, 0, 0, 37), (4, 1, 5, 39)]}),
    ], ids=["synth", "sparse"])
    def test_stats_activity_matches_dense_oracle(self, tmp_path, dataset):
        write_dataset(dataset, tmp_path / "data")
        cfg = write_config(tmp_path / "stats.cfg", f"[dataset]\npath = {tmp_path / 'data'}\n")
        out_dir = tmp_path / "stats"
        assert run_cli(["stats", "--config", cfg, "--out", str(out_dir)]) == 0
        want = activity_dense(load_dataset(tmp_path / "data"))
        assert (out_dir / "activity.csv").read_text() == "\n".join(want) + "\n"

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

    def test_analyze_rejects_results_with_frequencies_on_some_lines(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "min.cfg", "[train]\nseed = 1\n")
        query = {"direction": "object", "object": 1, "rank": 2, "relation": 0,
                 "subject": 0, "time": 0}
        tpf = dict.fromkeys(("s", "o", "r", "sr", "ro", "so", "sro"), 1)
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(json.dumps({**query, "tpf": tpf}) + "\n" + json.dumps(query) + "\n")
        out_dir = tmp_path / "an"
        assert run_cli(["analyze", "--config", cfg, "--results", str(mixed),
                        "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ValueError: ") and "1 of 2 results" in err
        assert not (out_dir / "bins.csv").exists()

    @pytest.mark.parametrize("field, value", [("direction", "subjects"), ("rank", 0),
                                              ("tpf", {"s": 1})])
    def test_analyze_rejects_a_malformed_line(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path / "min.cfg", "[train]\nseed = 1\n")
        query = {"direction": "object", "object": 1, "rank": 2, "relation": 0,
                 "subject": 0, "time": 0,
                 "tpf": dict.fromkeys(("s", "o", "r", "sr", "ro", "so", "sro"), 1)}
        results = tmp_path / "results.jsonl"
        results.write_text(json.dumps(query) + "\n" + json.dumps({**query, field: value}) + "\n")
        out_dir = tmp_path / "an"
        assert run_cli(["analyze", "--config", cfg, "--results", str(results),
                        "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: ValueError: {results}:2: ")
        assert not (out_dir / "bins.csv").exists()

    def test_errors_exit_nonzero_with_single_line(self, tmp_path, capsys):
        bad = write_config(tmp_path / "bad.cfg", "[model]\nwidth = 3\n")
        for args, kind in (
                (["stats", "--config", bad, "--out", str(tmp_path)], "ConfigError"),
                (["eval"], "UsageError"),                  # a required flag missing
                (["bogus", "--config", bad], "UsageError"),  # an unknown command
                ([], "UsageError"),
                (["ted", "--config", bad, "--seed", "3"], "UsageError"),  # a stray flag
                (["stats", "--config", bad, "--checkpoint", "x"], "UsageError")):
            assert run_cli(args) == 1, args
            captured = capsys.readouterr()
            err = captured.err.strip()
            assert err.startswith(f"error: {kind}: ") and "\n" not in err, args
            assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        for args in (["--help"], ["train", "--help"]):
            with pytest.raises(SystemExit) as exited:
                run_cli(args)
            assert exited.value.code == 0
            captured = capsys.readouterr()
            assert captured.out.startswith("usage: tempkg") and captured.err == ""

    def test_zero_epoch_train_fails_on_one_line(self, tmp_path, synth_config, capsys):
        data_dir = self.make_dataset_dir(tmp_path, synth_config)
        self.full_config(tmp_path, data_dir)
        text = (tmp_path / "run.cfg").read_text()
        zero = write_config(tmp_path / "zero.cfg", text.replace("epochs = 2", "epochs = 0"))
        capsys.readouterr()
        run_dir = tmp_path / "run"
        assert run_cli(["train", "--config", zero, "--out", str(run_dir)]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: TrainingError: ") and "\n" not in err
        assert not (run_dir / "best.ckpt").exists()
        assert not (run_dir / "training_log.jsonl").exists()

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

    def test_eval_rejects_a_per_relation_checkpoint(self, tmp_path, synth_config, capsys):
        # a checkpoint that stores each relation matrix as rgcn.l{l}.rel{r}
        # does not load; the one-line error names the stacked tensor
        data_dir = self.make_dataset_dir(tmp_path, synth_config)
        cfg = self.full_config(tmp_path, data_dir)
        run_dir = tmp_path / "run"
        assert run_cli(["train", "--config", cfg, "--out", str(run_dir)]) == 0
        params = load_checkpoint(run_dir / "best.ckpt")
        params.update((f"rgcn.l0.rel{r}", w) for r, w in enumerate(params.pop("rgcn.l0.rel")))
        save_checkpoint(run_dir / "best.ckpt", params)
        capsys.readouterr()
        assert run_cli(["eval", "--config", cfg, "--out", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert "rgcn.l0.rel None vs (4, 4, 4)" in err

    def sa_config(self, tmp_path, data_dir, heads):
        with open(self.full_config(tmp_path, data_dir)) as f:
            text = f.read().replace("temp-gru", "temp-sa").replace("heads = 2", f"heads = {heads}")
        return write_config(tmp_path / f"sa{heads}.cfg", text)

    def test_eval_rejects_a_per_head_checkpoint(self, tmp_path, synth_config, capsys):
        # a checkpoint that stores each head's projection as sa.h{k}.{nm}
        # does not load; the configured stacks lead the one-line error
        data_dir = self.make_dataset_dir(tmp_path, synth_config)
        cfg = self.sa_config(tmp_path, data_dir, 2)
        run_dir = tmp_path / "run"
        assert run_cli(["train", "--config", cfg, "--out", str(run_dir)]) == 0
        params = load_checkpoint(run_dir / "best.ckpt")
        for nm in ("wq", "wk", "wv"):
            params.update((f"sa.h{k}.{nm}", params[f"sa.{nm}"][:, k].copy()) for k in range(2))
            del params[f"sa.{nm}"]
        save_checkpoint(run_dir / "best.ckpt", params)
        capsys.readouterr()
        assert run_cli(["eval", "--config", cfg, "--out", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert "sa.wq None vs (4, 2, 2)" in err

    def test_eval_rejects_another_head_count(self, tmp_path, synth_config, capsys):
        data_dir = self.make_dataset_dir(tmp_path, synth_config)
        run_dir = tmp_path / "run"
        assert run_cli(["train", "--config", self.sa_config(tmp_path, data_dir, 2),
                        "--out", str(run_dir)]) == 0
        capsys.readouterr()
        assert run_cli(["eval", "--config", self.sa_config(tmp_path, data_dir, 4),
                        "--out", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
        assert "sa.wq (4, 2, 2) vs (4, 4, 1)" in err

    def test_missing_dataset_path_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "nopath.cfg", "[train]\nseed = 1\n")
        assert run_cli(["stats", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "dataset.path" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["loud", "basic_format"])
    def test_unknown_log_level_fails_on_one_line(self, tmp_path, synth_config, capsys,
                                                 monkeypatch, value):
        monkeypatch.setenv("TEMPKG_LOG", value)
        out_dir = tmp_path / "data"
        assert run_cli(["synth", "--config", synth_config, "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert err.startswith("error: UsageError: TEMPKG_LOG ") and "\n" not in err
        assert repr(value) in err and captured.out == ""
        assert not out_dir.exists()

    def test_log_level_comes_from_the_environment(self, tmp_path, synth_config, monkeypatch):
        seen = {}
        monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: seen.update(kwargs))
        args = ["synth", "--config", synth_config, "--out", str(tmp_path / "data")]
        for value, level in (("info", logging.INFO), ("DEBUG", logging.DEBUG),
                             ("error", logging.ERROR), ("", logging.WARNING)):
            monkeypatch.setenv("TEMPKG_LOG", value)
            assert run_cli(args) == 0 and seen["level"] == level, value
        monkeypatch.delenv("TEMPKG_LOG")
        assert run_cli(args) == 0 and seen["level"] == logging.WARNING
