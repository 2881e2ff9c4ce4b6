"""Mini-batch training loop with early stopping on validation MRR.

A batch covers a run of consecutive target snapshots; each target gets its
own dropout-thinned context window and negative draws, losses from both query
directions accumulate on one tape, and a single optimizer step follows. All
randomness flows from named substreams of the run seed, so a (config, seed)
pair fully determines the log, the checkpoint, and every report.
"""

from __future__ import annotations

import json
import logging
import os
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import decoder as dec
from . import evaluation as ev
from . import heterogeneity as het
from .autodiff import Tape
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .data import TkgDataset, TrueTripleIndex, build_true_index
from .model import TempModel, grads_by_name, init_params, leaves_on_tape
from .optim import AdamState

log = logging.getLogger("tempkg")


class TrainingError(RuntimeError):
    pass


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_mrr: float
    best_val_mrr: float
    improved: bool
    stopped: bool
    wall_time: float = 0.0  # informational only; excluded from serialized logs

    def to_json(self) -> str:
        return json.dumps({"epoch": self.epoch, "train_loss": round(self.train_loss, 10),
                           "val_mrr": round(self.val_mrr, 10),
                           "best_val_mrr": round(self.best_val_mrr, 10),
                           "improved": self.improved, "stopped": self.stopped},
                          sort_keys=True)


@dataclass
class TrainingLog:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1

    def write_jsonl(self, path) -> None:
        text = "".join(r.to_json() + "\n" for r in self.records)
        ev.atomic_write(path, text)


def _substream(seed: int, *tags) -> np.random.Generator:
    mixed = [seed] + [zlib.crc32(str(t).encode()) for t in tags]
    return np.random.default_rng(mixed)


def _batches(target_steps: list[int], batch_size: int,
             rng: np.random.Generator) -> list[list[int]]:
    chunks = [target_steps[i:i + batch_size]
              for i in range(0, len(target_steps), batch_size)]
    order = rng.permutation(len(chunks))
    return [chunks[i] for i in order]


def tpf_table(config: RunConfig, dataset: TkgDataset) -> het.TpfTable:
    """Pattern frequencies under the configured evaluation window policy."""
    return het.compute_tpf(dataset, config.eval.window_policy())


def filter_index_for(config: RunConfig, dataset: TkgDataset) -> TrueTripleIndex:
    if config.eval.filter not in ("time_aware", "static"):
        raise ValueError(f"unknown filter mode {config.eval.filter!r}")
    return build_true_index(dataset, splits=config.filter_split_names(),
                            static=config.eval.filter == "static")


def _subsample(triples: np.ndarray, cap: int, rng: np.random.Generator) -> np.ndarray:
    if len(triples) <= cap:
        return triples
    picks = rng.choice(len(triples), size=cap, replace=False)
    return triples[np.sort(picks)]


def _validation_mrr(model: TempModel, dataset: TkgDataset, filter_index,
                    tpf, cap: int, seed: int) -> float:
    """Fast reciprocal-rank estimate on a seeded subsample of validation facts."""
    quads = dataset.quadruples("valid")
    if len(quads) == 0:
        return 0.0
    if len(quads) > cap:
        rng = _substream(seed, "val-subsample")
        picks = np.sort(rng.choice(len(quads), size=cap, replace=False))
        quads = quads[picks]
    chunks = [(t, quads[quads[:, 3] == t][:, :3])
              for t in np.unique(quads[:, 3]).tolist()]
    report = ev.rank_snapshots(dataset.entity_count, chunks,
                               model.snapshot_scorer(tpf), filter_index)
    return report.mrr


def train(config: RunConfig, dataset: TkgDataset, out_dir,
          max_epochs: int | None = None) -> tuple[dict[str, np.ndarray], TrainingLog]:
    """Train per the config; returns best parameters and the epoch log.

    Side effects in ``out_dir``: best.ckpt and training_log.jsonl.
    """
    os.makedirs(out_dir, exist_ok=True)
    tcfg = config.train
    epochs = max_epochs if max_epochs is not None else tcfg.epochs
    seed = tcfg.seed

    params = init_params(config.model, dataset.entity_count, dataset.relation_count,
                         dataset.step_count, seed)
    model = TempModel(config.model, dataset, params)
    adam = AdamState(lr=tcfg.lr)
    tpf = tpf_table(config, dataset) if config.model.gating else None
    negative_index = build_true_index(dataset, splits=("train",))
    filter_index = filter_index_for(config, dataset)

    target_steps = [snap.time for snap in dataset.splits["train"] if len(snap)]
    if not target_steps:
        raise TrainingError("training split has no facts")

    logbook = TrainingLog()
    best = {"mrr": -1.0, "epoch": -1}
    stale = 0
    ckpt_path = os.path.join(out_dir, "best.ckpt")

    for epoch in range(epochs):
        t0 = time.perf_counter()
        epoch_loss = 0.0
        for batch in _batches(target_steps, tcfg.batch_snapshots,
                              _substream(seed, "order", epoch)):
            tape = Tape()
            leaves = leaves_on_tape(tape, params)
            loss = None
            for t in batch:
                drop_rng = _substream(seed, "dropout", epoch, t)
                window, target_pos = model.window_triples(t, rng=drop_rng)
                ctx = model.encode_context(leaves, t, window, target_pos)
                positives = _subsample(dataset.splits["train"][t].triples,
                                       tcfg.snapshot_cap,
                                       _substream(seed, "cap", epoch, t))
                if len(positives) == 0:
                    continue
                neg_rng = _substream(seed, "negatives", epoch, t)
                obj_negs, sub_negs = [], []
                for s, r, o in positives.tolist():
                    no, ns = dec.sample_negatives(s, r, o, t, negative_index,
                                                  tcfg.negatives, neg_rng,
                                                  dataset.entity_count)
                    obj_negs.append(no)
                    sub_negs.append(ns)
                term = model.snapshot_loss(leaves, ctx, positives,
                                           (np.stack(obj_negs), np.stack(sub_negs)),
                                           tpf)
                loss = term if loss is None else loss + term
            if loss is None:
                continue
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise TrainingError(f"non-finite loss {loss_value} at epoch {epoch}")
            epoch_loss += loss_value
            adam.step(params, grads_by_name(tape, leaves, loss, params))

        val_mrr = _validation_mrr(model, dataset, filter_index, tpf,
                                  tcfg.val_cap, seed)
        improved = val_mrr > best["mrr"]
        if improved:
            best = {"mrr": val_mrr, "epoch": epoch}
            stale = 0
            save_checkpoint(ckpt_path, params)
        else:
            stale += 1
        stopped = stale > tcfg.patience
        record = EpochRecord(epoch, epoch_loss, val_mrr, best["mrr"], improved,
                             stopped, wall_time=time.perf_counter() - t0)
        logbook.records.append(record)
        log.info("epoch %d loss %.4f val_mrr %.4f%s", epoch, epoch_loss, val_mrr,
                 " *" if improved else "")
        if stopped:
            break

    logbook.best_epoch = best["epoch"]
    logbook.write_jsonl(os.path.join(out_dir, "training_log.jsonl"))
    if best["epoch"] < 0:
        save_checkpoint(ckpt_path, params)
    return load_checkpoint(ckpt_path), logbook
