"""The benchmark's tracer wraps package functions by dotted name; a rename in
the package must fail here rather than only in a traced benchmark run."""

import importlib.util
import pathlib
import sys

import numpy as np

from tempkg import autodiff as ad
from tempkg.config import RunConfig
from tempkg.data import Snapshot
from tempkg.model import ModelConfig
from tempkg.synth import SynthSpec, generate_synthetic
from tempkg.ted import TedConfig, TedModel
from tempkg.train import train

from fact_oracles import PerQueryTedModel

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    as the per-query scorer finds, and each TED span fires once per snapshot
    and direction."""
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
    assert tracer.segments[-1][1]["ted.tuples"] == want > 0
    calls = [tracer.names[span[0]] for span in tracer.spans]
    for span in ("ted.TedModel.reference_sets", "ted.TedModel.tier_scores",
                 "ted.TedModel.rank_scores", "kernels.decay_accumulate"):
        assert calls.count(span) == 2 * len(snaps), span


def test_negative_counter_counts_every_draw_of_a_train_epoch(tmp_path):
    """A traced training epoch counts 2·k negatives per trained positive, and
    sample_negatives fires once per non-empty target snapshot."""
    tracing = load_tracing()
    ds = generate_synthetic(SynthSpec(10, 2, 5, density=1.0, periodicity=0.5), seed=6)
    ds.splits["train"][2] = Snapshot(2)
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
