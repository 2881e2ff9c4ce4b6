"""Mini-batch training loop with early stopping on validation MRR.

A batch covers a run of consecutive target snapshots; each target gets its
own dropout-thinned context window and negative draws, and runs forward and
backward on its own tape, so a batch holds one target's graph at a time. The
targets' gradients add up across their tapes and a single optimizer step
follows. All randomness flows from named substreams of the run seed, so a
(config, seed) pair fully determines the log, the checkpoint, and every
report.
"""

from __future__ import annotations

import json
import logging
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import decoder as dec
from . import evaluation as ev
from . import heterogeneity as het
from .autodiff import Tape, Tensor
from .checkpoint import atomic_write, load_checkpoint, save_checkpoint
from .config import RunConfig, TrainConfig
from .data import TkgDataset, TrueTripleIndex, build_true_index
from .model import TempModel, grads_by_name, init_params, leaves_on_tape, substream
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
        atomic_write(path, text)


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
    return build_true_index(dataset, splits=config.eval.filter_split_names(),
                            static=config.eval.filter == "static")


def _subsample(triples: np.ndarray, cap: int, rng: np.random.Generator) -> np.ndarray:
    if len(triples) <= cap:
        return triples
    picks = rng.choice(len(triples), size=cap, replace=False)
    return triples[np.sort(picks)]


def _validation_mrr(model: TempModel, dataset: TkgDataset, filter_index,
                    tpf, cap: int, seed: int) -> float:
    """Fast reciprocal-rank estimate on a seeded subsample of validation facts."""
    quads = _subsample(dataset.quads["valid"], cap, substream(seed, "val-subsample"))
    report = ev.rank_snapshots(dataset.entity_count, quads,
                               model.snapshot_scorer(tpf), filter_index)
    return report.mrr


@dataclass
class _Trainer:
    """A batch's loss and gradients, one target and one tape at a time, from
    what a target's loss reads besides the parameters."""
    model: TempModel
    config: TrainConfig
    negative_index: TrueTripleIndex
    tpf: het.TpfTable | None
    shortfall: Counter = field(default_factory=Counter)  # sample_negatives tally

    def target_loss(self, leaves: dict[str, Tensor], t: int, epoch: int) -> Tensor:
        """Loss of target step ``t`` on the tape of ``leaves``: its thinned
        window, capped positives and negatives, each drawn from a substream
        keyed by (epoch, t), so no other target's draws move them."""
        model, tcfg, seed = self.model, self.config, self.config.seed
        ctx = model.encode_context(leaves, t, substream(seed, "dropout", epoch, t))
        positives = _subsample(model.dataset.splits["train"][t].triples,
                               tcfg.snapshot_cap, substream(seed, "cap", epoch, t))
        negatives = dec.sample_negatives(positives, t, self.negative_index, tcfg.negatives,
                                         substream(seed, "negatives", epoch, t),
                                         model.dataset.entity_count, self.shortfall)
        return model.snapshot_loss(leaves, ctx, positives, negatives, self.tpf)

    def target_gradients(self, t: int, epoch: int, running: dict[str, np.ndarray],
                         ) -> tuple[float, dict[str, np.ndarray]]:
        """Loss value of target ``t`` on a tape of its own and every
        parameter's gradient with its contributions added onto ``running``.
        The tape is freed on return."""
        tape = Tape()
        leaves = leaves_on_tape(tape, self.model.params)
        loss = self.target_loss(leaves, t, epoch)
        return loss.item(), grads_by_name(tape, leaves, loss, self.model.params, running)

    def batch_gradients(self, batch: list[int], epoch: int,
                        ) -> tuple[float, dict[str, np.ndarray]]:
        """Summed loss and parameter gradients of one batch of targets.

        The targets run in reverse batch order, each backward starting from
        the leaf gradients the previous one left. That makes every float
        sum the same as one tape over the whole batch with loss
        t1 + t2 + ... + tn: that tape's backward visits the nodes of tn
        first, and the add chain hands each term a gradient of exactly 1.0.
        The loss values are added in batch order, as that chain adds them.
        """
        running: dict[str, np.ndarray] = {}
        values = {}
        for t in reversed(batch):
            values[t], grads = self.target_gradients(t, epoch, running)
        total = values[batch[0]]
        for t in batch[1:]:
            total += values[t]
        return total, grads


def train(config: RunConfig, dataset: TkgDataset, out_dir,
          max_epochs: int | None = None) -> tuple[dict[str, np.ndarray], TrainingLog]:
    """Train per the config; returns best parameters and the epoch log.

    Side effects in ``out_dir``: best.ckpt and training_log.jsonl.
    """
    tcfg = config.train
    epochs = max_epochs if max_epochs is not None else tcfg.epochs
    if epochs < 1:
        raise TrainingError(f"{epochs} epochs select no best epoch; train at least one")
    seed = tcfg.seed
    target_steps = np.unique(dataset.quads["train"][:, 3]).tolist()
    if not target_steps:
        raise TrainingError("training split has no facts")
    if not len(dataset.quads["valid"]):
        raise TrainingError("validation split has no facts to select the best epoch by")
    os.makedirs(out_dir, exist_ok=True)

    params = init_params(config.model, dataset.entity_count, dataset.relation_count,
                         dataset.step_count, seed)
    model = TempModel(config.model, dataset, params)
    adam = AdamState(lr=tcfg.lr)
    tpf = tpf_table(config, dataset) if config.model.gating else None
    trainer = _Trainer(model, tcfg, build_true_index(dataset, splits=("train",)), tpf)
    filter_index = filter_index_for(config, dataset)

    logbook = TrainingLog()
    best = {"mrr": -1.0, "epoch": -1}
    stale = 0
    ckpt_path = os.path.join(out_dir, "best.ckpt")

    for epoch in range(epochs):
        epoch_loss = 0.0
        trainer.shortfall.clear()
        for batch in _batches(target_steps, tcfg.batch_snapshots,
                              substream(seed, "order", epoch)):
            loss_value, grads = trainer.batch_gradients(batch, epoch)
            if not np.isfinite(loss_value):
                raise TrainingError(f"non-finite loss {loss_value} at epoch {epoch}")
            epoch_loss += loss_value
            adam.step(params, grads)
        short = trainer.shortfall
        if short["full"] or short["short"]:
            log.warning("epoch %d negatives: %d of %d queries have no valid corruption "
                        "and sample among known-true entities; %d have fewer than %d "
                        "and sample with replacement", epoch, short["full"],
                        short["queries"], short["short"], tcfg.negatives)

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
        record = EpochRecord(epoch, epoch_loss, val_mrr, best["mrr"], improved, stopped)
        logbook.records.append(record)
        log.info("epoch %d loss %.4f val_mrr %.4f%s", epoch, epoch_loss, val_mrr,
                 " *" if improved else "")
        if stopped:
            break

    logbook.best_epoch = best["epoch"]
    logbook.write_jsonl(os.path.join(out_dir, "training_log.jsonl"))
    return load_checkpoint(ckpt_path), logbook
