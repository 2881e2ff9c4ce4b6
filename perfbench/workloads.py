"""The three benchmark workloads and their correctness gates.

Each workload has a ``setup(seed)`` that builds every input from the seed,
a ``run_pass(state)`` that does one timed unit of work, and a
``check(state, result)`` that judges that pass outside the timed region and
returns how many of its operations failed. Workload code calls the package
through module attributes (``synth.generate_synthetic``, not a local alias),
so the traced run sees those calls.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from tempkg import data, evaluation, heterogeneity, model, synth, ted, train
from tempkg.config import RunConfig, TrainConfig

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
EXPECTED = json.loads((HERE / "expected.json").read_text())
RERANK_QUERIES = 24     # queries re-ranked by the brute-force oracle per pass
FILTER_SPLITS = ("train", "valid", "test")


@dataclass
class PassResult:
    items: int                  # facts trained or queries ranked
    ops: int                    # operations attempted: batches or queries
    value: float = math.nan     # epoch loss or MRR, checked against expected.json
    detail: dict = field(default_factory=dict)


def misses_expected(workload: str, seed: int, name: str, value: float) -> bool:
    """True when a default-seed figure misses its recorded value."""
    rec = EXPECTED[workload]
    if seed != EXPECTED["seed"]:
        return False
    want, tol = rec[name], rec["tolerance"]
    scale = max(1.0, abs(want)) if rec.get("relative") else 1.0
    return not abs(value - want) <= tol * scale


# --- brute-force filtered rank --------------------------------------------------

def true_completions(dataset, direction: str, s: int, r: int, o: int, t: int) -> set:
    """Entities completing the query into a known fact at step t, by scanning."""
    out = set()
    for split in FILTER_SPLITS:
        triples = dataset.splits[split][t].triples
        for s2, r2, o2 in triples.tolist():
            if direction == "object" and (s2, r2) == (s, r):
                out.add(o2)
            elif direction == "subject" and (r2, o2) == (r, o):
                out.add(s2)
    return out


def brute_force_rank(scores, answer: int, filtered: set) -> int:
    """1 + candidates scoring at least the answer, skipping filtered ones."""
    target = scores[answer]
    rank = 1
    for e, score in enumerate(scores.tolist()):
        if e != answer and e not in filtered and score >= target:
            rank += 1
    return rank


def rerank_picks(dataset, seed: int) -> set:
    """A seeded subsample of (t, row, direction) test queries."""
    queries = [(snap.time, i, d) for snap in dataset.splits["test"]
               for i in range(len(snap)) for d in ("object", "subject")]
    rng = np.random.default_rng([seed, 0x7E57])
    picks = rng.choice(len(queries), size=min(RERANK_QUERIES, len(queries)),
                       replace=False)
    return {queries[i] for i in picks.tolist()}


def capturing(scorer, picks: set, store: dict):
    """Wrap a snapshot scorer so the rows of picked queries are kept."""
    steps = {t for t, _, _ in picks}

    def wrapped(t, triples):
        obj, sub = scorer(t, triples)
        if t in steps:
            for i, (s, r, o) in enumerate(triples.tolist()):
                for direction, rows in (("object", obj), ("subject", sub)):
                    if (t, i, direction) in picks:
                        store[(direction, s, r, o, t)] = rows[i].copy()
        return obj, sub

    return wrapped


def check_ranking(workload: str, state, result: PassResult) -> int:
    """Failed queries of one evaluation pass."""
    report = result.detail.get("report")
    if report is None or misses_expected(workload, state.seed, "mrr", result.value):
        return result.ops
    ranks = {(q.direction, q.subject, q.relation, q.object, q.time): q.rank
             for q in report.results}
    failed = 0
    for key, scores in result.detail["scores"].items():
        direction, s, r, o, t = key
        answer = o if direction == "object" else s
        filtered = true_completions(state.dataset, direction, s, r, o, t)
        if ranks.get(key) != brute_force_rank(scores, answer, filtered):
            failed += 1
    return failed


def evaluate_pass(state, scorer, tpf=None) -> PassResult:
    """Rank the test split. ``evaluate`` ends with
    ``RankingReport.check_invariants``; a broken invariant fails every query."""
    scores: dict = {}
    queries = 2 * state.dataset.split_sizes()["test"]
    try:
        report = evaluation.evaluate(state.dataset, "test",
                                     capturing(scorer, state.picks, scores),
                                     state.filter_index, tpf)
    except AssertionError as err:
        return PassResult(queries, queries, detail={"error": repr(err)})
    return PassResult(queries, queries, report.mrr, {"report": report, "scores": scores})


# --- train-gru ----------------------------------------------------------------------

TRAIN_SPEC = synth.SynthSpec(200, 20, 24, density=1.0, periodicity=0.5, period=3)


@dataclass
class TrainState:
    seed: int
    dataset: object
    config: RunConfig


def train_setup(seed: int) -> TrainState:
    dataset = synth.generate_synthetic(TRAIN_SPEC, seed)
    config = RunConfig()
    config.model = model.ModelConfig(variant="temp-gru", decoder="complex", dim=64,
                                     window=6, imputation=True)
    config.train = TrainConfig(lr=0.01, negatives=100, batch_snapshots=4, seed=seed)
    return TrainState(seed, dataset, config)


def train_pass(state: TrainState) -> PassResult:
    steps = sum(1 for snap in state.dataset.splits["train"] if len(snap))
    batches = -(-steps // state.config.train.batch_snapshots)
    facts = state.dataset.split_sizes()["train"]
    OUT_DIR.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=OUT_DIR, prefix="train-")
    try:
        _, logbook = train.train(state.config, state.dataset, out_dir, max_epochs=1)
    except train.TrainingError as err:
        return PassResult(facts, batches, detail={"error": str(err)})
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    record = logbook.records[0]
    return PassResult(facts, batches, record.train_loss, {"val_mrr": record.val_mrr})


def train_check(state: TrainState, result: PassResult) -> int:
    """A non-finite or unexpected epoch loss fails every batch of the epoch."""
    val_mrr = result.detail.get("val_mrr", math.nan)
    ok = (math.isfinite(result.value)
          and 1.0 / state.dataset.entity_count <= val_mrr <= 1.0
          and not misses_expected("train-gru", state.seed, "epoch_loss", result.value))
    return 0 if ok else result.ops


# --- eval-sa ------------------------------------------------------------------------

EVAL_SPEC = synth.SynthSpec(1000, 50, 30, density=0.5, periodicity=0.5, period=3)


@dataclass
class EvalState:
    seed: int
    dataset: object
    filter_index: object
    picks: set
    tpf: object
    temp_model: object


def eval_setup(seed: int) -> EvalState:
    dataset = synth.generate_synthetic(EVAL_SPEC, seed)
    config = model.ModelConfig(variant="temp-sa", decoder="complex", dim=64, window=6,
                               imputation=True, gating=True)
    tpf = heterogeneity.compute_tpf(dataset, heterogeneity.WindowPolicy())
    params = model.init_params(config, dataset.entity_count, dataset.relation_count,
                               dataset.step_count, seed)
    return EvalState(seed, dataset, build_index(dataset), rerank_picks(dataset, seed),
                     tpf, model.TempModel(config, dataset, params))


def build_index(dataset):
    return data.build_true_index(dataset, FILTER_SPLITS)


def eval_pass(state: EvalState) -> PassResult:
    return evaluate_pass(state, state.temp_model.snapshot_scorer(state.tpf), state.tpf)


# --- ted-icews ----------------------------------------------------------------------

# Shaped like ICEWS14: 7128 entities, 230 relations, 365 daily steps.
TED_SPEC = synth.SynthSpec(7128, 230, 365, density=0.035, periodicity=0.5, period=7)


@dataclass
class TedState:
    seed: int
    dataset: object
    filter_index: object
    picks: set
    ted_model: object
    config: object


def ted_setup(seed: int) -> TedState:
    dataset = synth.generate_synthetic(TED_SPEC, seed)
    return TedState(seed, dataset, build_index(dataset), rerank_picks(dataset, seed),
                    ted.TedModel(dataset), ted.TedConfig(sigma=0.1))


def ted_pass(state: TedState) -> PassResult:
    return evaluate_pass(state, state.ted_model.snapshot_scorer(state.config))


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], object]
    run_pass: Callable[[object], PassResult]
    check: Callable[[object, PassResult], int]
    item: str           # what items_per_s counts
    op: str             # what one attempted operation is
    checked: str        # the figure checked against expected.json


WORKLOADS = {
    "train-gru": Workload(train_setup, train_pass, train_check, "train facts", "batch",
                          "epoch_loss"),
    "eval-sa": Workload(eval_setup, eval_pass,
                        lambda st, res: check_ranking("eval-sa", st, res),
                        "ranked queries", "query", "mrr"),
    "ted-icews": Workload(ted_setup, ted_pass,
                          lambda st, res: check_ranking("ted-icews", st, res),
                          "ranked queries", "query", "mrr"),
}
