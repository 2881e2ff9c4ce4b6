"""The benchmark's tracer wraps package functions by dotted name; a rename in
the package must fail here rather than only in a traced benchmark run."""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from tempkg import autodiff as ad
from tempkg.config import RunConfig, TrainConfig
from tempkg.data import TkgDataset
from tempkg.heterogeneity import compute_tpf
from tempkg.model import ModelConfig, TempModel, init_params, substream
from tempkg.synth import SynthSpec, generate_synthetic
from tempkg.ted import TedConfig, TedModel
from tempkg.train import train

from fact_oracles import PerQueryTedModel
from helpers import cached_encodes

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_perfbench("tracing")


def bound_names(originals):
    """(module, attribute) -> object for every tempkg module attribute that
    holds one of ``originals``, so `from ... import` copies are seen too."""
    ids = {id(fn) for fn in originals}
    return {(key, attr): obj for key, m in list(sys.modules.items())
            if key == "tempkg" or key.startswith("tempkg.")
            for attr, obj in vars(m).items() if id(obj) in ids}


def test_every_traced_name_resolves_and_is_restored():
    tracing = load_tracing()
    names = list(dict.fromkeys(tracing.SPANS + tuple(tracing.COUNTERS)))

    def current():
        out = {}
        for dotted in names:
            owner, attr, _ = tracing._resolve(dotted)
            out[dotted] = getattr(owner, attr)
        return out

    before = current()
    bound_before = bound_names(before.values())
    with tracing.Tracer().installed():
        during = current()
        for dotted in names:
            assert during[dotted] is not before[dotted], dotted
            assert during[dotted].__wrapped__ is before[dotted], dotted
    after = current()
    for dotted in names:
        assert after[dotted] is before[dotted], dotted
    assert bound_names(before.values()) == bound_before


def test_scatter_row_counter_counts_the_rows_passed():
    """The benchmark counts kernel rows as the length of the kernel's second
    argument; one scatter forward and one gather backward must add exactly
    the rows each passed."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tape = ad.Tape()
    src, table = tape.leaf(np.ones((5, 2))), tape.leaf(np.ones((4, 2)))
    with tracer.installed():
        tracer.begin("pass")
        counts = tracer.segments[-1][1]
        scattered = ad.scatter_add_rows(src, [0, 2, 2, 1, 0], num_rows=3)
        assert counts["kernels.scatter_add_rows.rows"] == 5
        gathered = ad.gather_rows(table, [3, 0, 3])
        assert counts["kernels.scatter_add_rows.rows"] == 5
        tape.backward(ad.add(ad.reduce_sum(scattered), ad.reduce_sum(gathered)))
        assert counts["kernels.scatter_add_rows.rows"] == 5 + 3
    calls = [tracer.names[span[0]] for span in tracer.spans]
    assert calls.count("kernels.scatter_add_rows") == 2


def test_ted_tuple_counter_matches_per_query_oracle():
    """A traced whole-snapshot decay-rule pass counts as many reference tuples
    as the per-query scorer finds, 7950 on this corpus, and each TED span fires
    once per snapshot and direction."""
    tracing = load_tracing()
    ds = generate_synthetic(SynthSpec(60, 5, 14, density=0.5, periodicity=0.5, period=3,
                                      test_fraction=0.2), seed=2)
    snaps = [(snap.time, snap.triples) for snap in ds.splits["test"] if len(snap)]
    oracle = PerQueryTedModel(ds)
    want = sum(len(tier) for t, triples in snaps for direction in ("object", "subject")
               for s, r, o in triples.tolist()
               for tier in oracle.reference_sets(direction, s, r, o, t))
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.begin("pass")
        scorer = TedModel(ds).snapshot_scorer(TedConfig(0.2))
        for t, triples in snaps:
            scorer(t, triples)
    # pinned as well, so a rewrite of reference_sets that changes the tuples
    # the oracle and the benchmark count together still fails here
    assert tracer.segments[-1][1]["ted.tuples"] == want == 7950
    calls = [tracer.names[span[0]] for span in tracer.spans]
    for span in ("ted.TedModel.reference_sets", "ted.TedModel.tier_scores",
                 "ted.TedModel.rank_scores", "kernels.decay_accumulate"):
        assert calls.count(span) == 2 * len(snaps), span


def without_train_step(ds, t):
    """``ds`` with no training fact at step t."""
    quads = ds.quads["train"]
    return TkgDataset(ds.entity_count, ds.relation_count, ds.step_count,
                      dict(ds.quads, train=quads[quads[:, 3] != t]))


def test_negative_counter_counts_every_draw_of_a_train_epoch(tmp_path):
    """A traced training epoch counts 2·k negatives per trained positive, and
    sample_negatives fires once per non-empty target snapshot."""
    tracing = load_tracing()
    spec = SynthSpec(10, 2, 5, density=1.0, periodicity=0.5)
    ds = without_train_step(generate_synthetic(spec, seed=6), 2)
    config = RunConfig()
    config.model = ModelConfig(variant="temp-gru", decoder="complex", dim=4, layers=1,
                               window=2)
    config.train.negatives, config.train.snapshot_cap = 3, 8
    targets = [len(snap) for snap in ds.splits["train"] if len(snap)]
    assert max(targets) > config.train.snapshot_cap
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.begin("pass")
        train(config, ds, tmp_path, max_epochs=1)
    positives = sum(min(n, config.train.snapshot_cap) for n in targets)
    assert tracer.segments[-1][1]["decoder.negatives_drawn"] == 2 * 3 * positives
    calls = [tracer.names[span[0]] for span in tracer.spans]
    assert calls.count("decoder.sample_negatives") == len(targets) == 4


def test_encode_counters_of_a_train_epoch(tmp_path):
    """A traced training epoch encodes each target's thinned window in one
    call and, through the validation scorer's cache, each step its validation
    reads once, in one call per window with a missing step; rgcn.edges
    counts two directed edges per fact encoded."""
    tracing = load_tracing()
    spec = SynthSpec(10, 2, 8, density=1.0, periodicity=0.5, valid_fraction=0.3)
    ds = without_train_step(generate_synthetic(spec, seed=6), 3)
    config = RunConfig()
    config.model = ModelConfig(variant="temp-gru", decoder="complex", dim=4, layers=2,
                               window=2)
    config.train.negatives = 3
    model = TempModel(config.model, ds, {})
    targets = [snap.time for snap in ds.splits["train"] if len(snap)]
    seed = config.train.seed
    target_facts = sum(len(model.window_facts(t, substream(seed, "dropout", 0, t))[0])
                       for t in targets)
    val_times = [snap.time for snap in ds.splits["valid"] if len(snap)]
    val_steps = {step for t in val_times for step in model.window_positions(t)[0]}
    val_facts = sum(len(ds.splits["train"][step]) for step in val_steps)
    assert 3 in val_steps and len(val_steps) < sum(
        len(model.window_positions(t)[0]) for t in val_times)
    val_calls = cached_encodes(model, val_times)
    assert sorted(step for call in val_calls for step in call) == sorted(val_steps)
    assert 1 < len(val_calls) < len(val_steps)
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.begin("pass")
        train(config, ds, tmp_path, max_epochs=1)
    calls = [tracer.names[span[0]] for span in tracer.spans]
    assert calls.count("rgcn.encode_snapshot") == len(targets) + len(val_calls)
    assert tracer.segments[-1][1]["rgcn.edges"] == 2 * (target_facts + val_facts) > 0


def small_eval_state(workloads, kind):
    """A workload state over a small corpus, with a seed that has no recorded
    figure, so only the re-ranked queries are judged."""
    ds = generate_synthetic(SynthSpec(60, 5, 14, density=0.5, periodicity=0.5, period=3,
                                      test_fraction=0.2), seed=2)
    seed = workloads.EXPECTED["seed"] + 1
    index, picks = workloads.build_index(ds), workloads.rerank_picks(ds, seed)
    if kind == "ted-icews":
        return workloads.TedState(seed, ds, index, picks, TedModel(ds), TedConfig(0.2))
    config = ModelConfig(variant="temp-sa", decoder="complex", dim=8, window=3, heads=2,
                         imputation=True, gating=True)
    params = init_params(config, ds.entity_count, ds.relation_count, ds.step_count, seed)
    return workloads.EvalState(seed, ds, index, picks, compute_tpf(ds),
                               TempModel(config, ds, params))


@pytest.mark.parametrize("kind", ["ted-icews", "eval-sa"])
def test_ranking_check_reads_the_report_rows(kind):
    """The benchmark's ranking check, which reads the report one row at a time,
    passes a traced evaluation and catches one wrong rank; the traced query
    count is two per test fact."""
    tracing, workloads = load_tracing(), load_perfbench("workloads")
    state = small_eval_state(workloads, kind)
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.begin("pass")
        result = workloads.WORKLOADS[kind].run_pass(state)
    facts = state.dataset.split_sizes()["test"]
    assert tracer.segments[-1][1]["evaluation.queries"] == 2 * facts == result.ops
    assert len(result.detail["scores"]) == len(state.picks) > 0
    assert workloads.WORKLOADS[kind].check(state, result) == 0
    results = result.detail["report"].results
    direction, s, r, o, t = next(iter(result.detail["scores"]))
    row = ((results.direction == direction) & (results.subject == s)
           & (results.relation == r) & (results.object == o) & (results.time == t))
    assert np.count_nonzero(row) == 1
    results.rank[row] += 1
    assert workloads.WORKLOADS[kind].check(state, result) == 1


def test_train_pass_counts_and_checks_a_small_epoch():
    """The benchmark's train-gru pass over a 10-entity corpus: it counts its
    items with split_sizes and its batches over the training snapshots, and
    its check passes the epoch, so a data-model change that breaks what the
    benchmark reads of a dataset fails here."""
    workloads = load_perfbench("workloads")
    seed = workloads.EXPECTED["seed"] + 1   # no recorded epoch loss to match
    ds = generate_synthetic(SynthSpec(10, 2, 6, density=1.0, periodicity=0.5), seed=6)
    config = RunConfig()
    config.model = ModelConfig(variant="temp-gru", decoder="complex", dim=4, layers=1,
                               window=2)
    config.train = TrainConfig(negatives=3, batch_snapshots=2, seed=seed)
    state = workloads.TrainState(seed, ds, config)
    result = workloads.WORKLOADS["train-gru"].run_pass(state)
    targets = len(np.unique(ds.quads["train"][:, 3]))
    assert (result.items, result.ops) == (len(ds.quads["train"]), -(-targets // 2))
    assert np.isfinite(result.value) and "error" not in result.detail
    assert workloads.WORKLOADS["train-gru"].check(state, result) == 0
