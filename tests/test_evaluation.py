import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tempkg import evaluation as ev
from tempkg.data import GroupedCodes, TkgDataset, build_true_index
from tempkg.evaluation import RankingReport, filtered_ranks, rank_query
from tempkg.heterogeneity import PATTERN_KINDS, compute_tpf
from tempkg.model import ModelConfig, TempModel, init_params
from tempkg.synth import SynthSpec, generate_synthetic
from tempkg.ted import TedConfig, TedModel

from fact_oracles import (DictTrueTripleIndex, PerQueryTedModel, frequency_bin,
                          loop_rank_query, per_query_binned_analysis, per_query_rank_snapshots)
from helpers import objects_for, records, subjects_for
from test_fact_index import random_dataset


def brute_force_rank(scores, true_entity, filtered):
    """Score-all, drop-filtered, sort oracle with pessimistic tie order."""
    survivors = [(e, sc) for e, sc in enumerate(scores)
                 if e == true_entity or e not in set(filtered.tolist())]
    # pessimistic: equal-scored rivals come before the true answer
    ordered = sorted(survivors, key=lambda p: (-p[1], p[0] == true_entity))
    return 1 + [e for e, _ in ordered].index(true_entity)


class TestRankQuery:
    def test_top_score_ranks_first(self):
        scores = np.array([0.1, 0.9, 0.3])
        assert rank_query(scores, 1, np.empty(0, dtype=np.int64)) == 1

    def test_filter_removes_better_candidate(self):
        scores = np.array([0.9, 0.5, 0.1])
        assert rank_query(scores, 1, np.array([0])) == 1

    def test_all_equal_is_pessimistic(self):
        scores = np.zeros(5)
        assert rank_query(scores, 2, np.empty(0, dtype=np.int64)) == 5

    def test_true_entity_never_filtered(self):
        scores = np.array([0.9, 0.5, 0.1])
        assert rank_query(scores, 1, np.array([0, 1])) == 1

    def test_all_nan_scores_rank_last(self):
        scores = np.full(5, np.nan)
        assert rank_query(scores, 2, np.empty(0, dtype=np.int64)) == 5
        assert rank_query(scores, 2, np.array([0])) == 4

    def test_non_finite_answer_ranks_behind_finite_rivals(self):
        for bad in (np.nan, np.inf, -np.inf):
            scores = np.array([0.1, bad, -3.0, 0.2])
            assert rank_query(scores, 1, np.array([3])) == 3

    def test_non_finite_rivals_rank_ahead_of_finite_answer(self):
        no_filter = np.empty(0, dtype=np.int64)
        assert rank_query(np.array([np.nan, np.nan, 0.1]), 2, no_filter) == 3
        scores = np.array([np.nan, -np.inf, 0.1, np.inf, 0.5])
        assert rank_query(scores, 2, np.array([4])) == 3

    def test_randomized_against_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            e = int(rng.integers(2, 100))
            scores = np.round(rng.normal(size=e), 1)  # coarse values force ties
            true_entity = int(rng.integers(e))
            filtered = rng.choice(e, size=int(rng.integers(0, e // 2 + 1)), replace=False)
            assert rank_query(scores, true_entity, filtered) == \
                brute_force_rank(scores, true_entity, filtered)


class TestRankQueryIsFilteredRanksOnOneRow:
    """rank_query, filtered_ranks on one row after np.unique of its filter
    ids, against the keep-mask loop it replaced."""

    SPECIAL = (np.nan, np.inf, -np.inf)

    @staticmethod
    def random_row(seed, e=20):
        rng = np.random.default_rng(seed)
        return rng, rng.integers(-2, 3, size=e).astype(np.float64), int(rng.integers(e))

    @pytest.mark.parametrize("seed", range(8))
    def test_repeated_filter_ids(self, seed):
        rng, scores, answer = self.random_row(seed)
        filtered = rng.integers(0, len(scores), size=3 * len(scores))
        filtered = filtered[filtered != answer]
        assert len(np.unique(filtered)) < len(filtered)
        assert rank_query(scores, answer, filtered) == loop_rank_query(scores, answer, filtered)

    @pytest.mark.parametrize("seed", range(8))
    def test_answer_inside_filter(self, seed):
        rng, scores, answer = self.random_row(seed)
        filtered = np.append(rng.choice(len(scores), size=5, replace=False), [answer, answer])
        assert rank_query(scores, answer, filtered) == loop_rank_query(scores, answer, filtered)

    @pytest.mark.parametrize("filtered", [np.empty(0, dtype=np.int64), []])
    def test_empty_filter(self, filtered):
        for seed in range(8):
            _, scores, answer = self.random_row(seed)
            assert rank_query(scores, answer, filtered) == \
                loop_rank_query(scores, answer, filtered)

    @pytest.mark.parametrize("answer_score", [np.nan, np.inf, -np.inf, 0.0])
    def test_non_finite_answers_and_rivals(self, answer_score):
        for seed in range(20):
            rng, scores, answer = self.random_row(seed)
            specials = rng.random(len(scores)) < 0.3
            scores[specials] = rng.choice(self.SPECIAL, size=int(specials.sum()))
            scores[answer] = answer_score
            filtered = rng.integers(0, len(scores), size=int(rng.integers(0, 12)))
            assert rank_query(scores, answer, filtered) == \
                loop_rank_query(scores, answer, filtered)


class TestFilteredRanks:
    """The whole-snapshot ranks against loop_rank_query, one row at a time."""

    SPECIAL = (np.nan, np.inf, -np.inf)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_rows_match_rank_query(self, seed):
        """Coarse scores tie exactly; rivals and answers take NaN and +-inf; a
        row's filter set is empty or not, and holds its answer or not."""
        rng = np.random.default_rng(seed)
        q, e = (1, 9) if seed == 0 else (int(rng.integers(4, 12)), int(rng.integers(2, 40)))
        scores = rng.integers(-2, 3, size=(q, e)).astype(np.float64)
        specials = rng.random((q, e)) < 0.15
        scores[specials] = rng.choice(self.SPECIAL, size=int(specials.sum()))
        answers = rng.integers(0, e, size=q)
        # rows 1, 2 and 3 have a NaN, +inf and -inf answer
        scores[np.arange(1, min(q, 4)), answers[1:4]] = self.SPECIAL[:min(q, 4) - 1]
        rows, ids = [], []
        for i in range(q):
            size = 0 if i % 3 == 0 else int(rng.integers(0, e + 1))
            chosen = rng.choice(e, size=size, replace=False)
            if i % 3 == 1:
                chosen = np.union1d(chosen, answers[i])
            elif i % 3 == 2:
                chosen = chosen[chosen != answers[i]]
            rows += [i] * len(chosen)
            ids += sorted(chosen.tolist())
        rows, ids = np.array(rows, dtype=np.int64), np.array(ids, dtype=np.int64)
        assert filtered_ranks(scores, answers, rows, ids).tolist() == \
            [loop_rank_query(scores[i], answers[i], ids[rows == i]) for i in range(q)]

    @pytest.mark.parametrize("dtype", [np.float64, np.int8, np.int16, np.int32])
    def test_any_dtype_matches_rank_query(self, dtype):
        """Coarse scores tie exactly, and rivals and answers take the dtype's
        extremes: NaN and +-inf for floats, the least and greatest integer."""
        rng = np.random.default_rng(np.dtype(dtype).num)
        q, e = 30, 50
        special = (self.SPECIAL if dtype == np.float64
                   else (np.iinfo(dtype).min, np.iinfo(dtype).max))
        scores = rng.integers(-3, 4, size=(q, e)).astype(dtype)
        specials = rng.random((q, e)) < 0.15
        scores[specials] = rng.choice(special, size=int(specials.sum()))
        answers = rng.integers(0, e, size=q)
        scores[np.arange(len(special)), answers[:len(special)]] = special
        rows, ids = np.nonzero(rng.random((q, e)) < 0.3)
        assert filtered_ranks(scores, answers, rows, ids).tolist() == \
            [loop_rank_query(scores[i], answers[i], ids[rows == i]) for i in range(q)]

    @pytest.mark.parametrize("static", [False, True])
    def test_filter_index_lookup_matches_per_query(self, static):
        """Every test snapshot of a random corpus, and its first fact alone, with
        filter sets from TrueTripleIndex.filter_sets against the dict index."""
        ds = random_dataset(0)
        splits = ("train", "valid", "test")
        index = build_true_index(ds, splits, static)
        oracle = DictTrueTripleIndex(ds, splits, static)
        rng = np.random.default_rng(1)
        for snap in ds.splits["test"]:
            for triples in (snap.triples, snap.triples[:1]):
                if not len(triples):
                    continue
                t = snap.time
                scores = rng.integers(0, 3, size=(len(triples), ds.entity_count)) * 1.0
                for direction, col, lookup in (
                        ("object", 2, lambda s, r, o: oracle.objects_for(s, r, t)),
                        ("subject", 0, lambda s, r, o: oracle.subjects_for(r, o, t))):
                    want = [loop_rank_query(scores[i], query[col], lookup(*query))
                            for i, query in enumerate(triples.tolist())]
                    got = filtered_ranks(scores, triples[:, col],
                                         *index.filter_sets(direction, triples, t))
                    assert got.tolist() == want


def split_snapshots(ds):
    """(t, triples) of every non-empty test snapshot, the per-query oracle's input."""
    return [(snap.time, snap.triples) for snap in ds.splits["test"] if len(snap)]


class TestResultsMatchPerQueryPath:
    """results.jsonl of evaluate against the per-query scorers and ranking loop."""

    def write_both(self, tmp_path, batched, per_query):
        assert batched.results.dtype == per_query.results.dtype
        assert np.array_equal(batched.results, per_query.results)
        paths = tmp_path / "batched.jsonl", tmp_path / "per_query.jsonl"
        ev.write_results_jsonl(batched, paths[0])
        ev.write_results_jsonl(per_query, paths[1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert np.array_equal(ev.read_results_jsonl(paths[0]), batched.results)

    def corpus(self):
        ds = generate_synthetic(SynthSpec(60, 5, 14, density=0.5, periodicity=0.5,
                                          period=3, test_fraction=0.2), seed=2)
        splits = ("train", "valid", "test")
        return ds, build_true_index(ds, splits), DictTrueTripleIndex(ds, splits)

    @pytest.mark.parametrize("blend", ["tiered", "sum"])
    def test_ted(self, tmp_path, blend):
        ds, index, oracle = self.corpus()
        config = TedConfig(0.2, blend)
        batched = ev.evaluate(ds, "test", TedModel(ds).snapshot_scorer(config), index)
        per_query = per_query_rank_snapshots(
            ds.entity_count, split_snapshots(ds),
            PerQueryTedModel(ds).snapshot_scorer(config), oracle)
        self.write_both(tmp_path, batched, per_query)

    def test_gated_temp_sa_with_tpf(self, tmp_path):
        ds, index, oracle = self.corpus()
        config = ModelConfig(variant="temp-sa", decoder="complex", dim=8, window=3,
                             heads=2, imputation=True, gating=True)
        params = init_params(config, ds.entity_count, ds.relation_count, ds.step_count, 3)
        model, tpf = TempModel(config, ds, params), compute_tpf(ds)
        batched = ev.evaluate(ds, "test", model.snapshot_scorer(tpf), index, tpf)
        per_query = per_query_rank_snapshots(ds.entity_count, split_snapshots(ds),
                                             model.snapshot_scorer(tpf), oracle, tpf)
        self.write_both(tmp_path, batched, per_query)
        rows = ev.tpf_binned_analysis(batched.results)
        assert rows and rows == per_query_binned_analysis(per_query.results)


def test_gated_evaluate_counts_each_step_then_the_split_once(monkeypatch):
    # the scorer's gates count one pattern kind per call for each test step,
    # and the report counts the whole split in one more call per kind
    ds = generate_synthetic(SynthSpec(30, 4, 8, density=0.5, periodicity=0.5, period=2,
                                      test_fraction=0.2), seed=3)
    config = ModelConfig(variant="temp-sa", decoder="complex", dim=8, window=2,
                         heads=2, gating=True)
    params = init_params(config, ds.entity_count, ds.relation_count, ds.step_count, 3)
    model, tpf = TempModel(config, ds, params), compute_tpf(ds)
    counted = []
    original = GroupedCodes.count

    def spy(self, *args):
        counted.append(1)
        return original(self, *args)

    monkeypatch.setattr(GroupedCodes, "count", spy)
    report = ev.evaluate(ds, "test", model.snapshot_scorer(tpf),
                         build_true_index(ds, ("train", "valid", "test")), tpf)
    steps = sum(1 for snap in ds.splits["test"] if len(snap))
    assert steps > 1 and "tpf" in report.results.dtype.names
    assert len(counted) == len(PATTERN_KINDS) * (steps + 1)


def toy_dataset_and_scores(rng, e=6, r=2, t=3, per_split=4):
    quads = set()
    while len(quads) < 3 * per_split:
        quads.add((int(rng.integers(e)), int(rng.integers(r)), int(rng.integers(e)),
                   int(rng.integers(t))))
    quads = sorted(quads)
    thirds = [quads[0:per_split], quads[per_split:2 * per_split], quads[2 * per_split:]]
    return TkgDataset(e, r, t, dict(zip(("train", "valid", "test"), thirds)))


class TestRankSnapshots:
    def random_scorer(self, ds, seed, poison=()):
        """Normal scores; ``poison`` maps (t, direction) to a value put on
        the first query's answer score."""
        rng = np.random.default_rng(seed)

        def scorer(t, triples):
            obj, sub = (rng.normal(size=(len(triples), ds.entity_count)) for _ in range(2))
            for direction, scores, col in (("object", obj, 2), ("subject", sub, 0)):
                if (t, direction) in poison:
                    scores[0, triples[0, col]] = poison[(t, direction)]
            return obj, sub
        return scorer

    def test_non_finite_answers_warn_once_with_count(self, caplog):
        ds = toy_dataset_and_scores(np.random.default_rng(6), t=4, per_split=10)
        index = build_true_index(ds, splits=("train", "valid", "test"))
        oracle = DictTrueTripleIndex(ds, ("train", "valid", "test"))
        steps = sorted({t for t, _ in split_snapshots(ds)})
        poison = {(steps[0], "object"): np.nan, (steps[-1], "subject"): -np.inf}
        quads = ds.quads["test"]
        with caplog.at_level("WARNING", logger="tempkg"):
            report = ev.rank_snapshots(ds.entity_count, quads,
                                       self.random_scorer(ds, 0, poison), index)
        want = per_query_rank_snapshots(
            ds.entity_count, split_snapshots(ds),
            self.random_scorer(ds, 0, poison), oracle)
        assert np.array_equal(report.results, want.results)
        warnings = [r.getMessage() for r in caplog.records]
        assert warnings == [f"2 of {2 * len(quads)} queries have a non-finite answer "
                            "score; each ranks behind every kept candidate"]

    def test_finite_scores_do_not_warn(self, caplog):
        ds = toy_dataset_and_scores(np.random.default_rng(6), t=4, per_split=10)
        index = build_true_index(ds, splits=("train", "valid", "test"))
        with caplog.at_level("WARNING", logger="tempkg"):
            ev.rank_snapshots(ds.entity_count, ds.quads["test"],
                              self.random_scorer(ds, 0), index)
        assert caplog.records == []

    def test_rows_follow_fact_order_object_first(self):
        ds = toy_dataset_and_scores(np.random.default_rng(7), t=4, per_split=10)
        index = build_true_index(ds, splits=("train",))
        quads = ds.quads["test"]
        results = ev.rank_snapshots(ds.entity_count, quads, self.random_scorer(ds, 1),
                                    index).results
        assert results.direction.tolist() == ["object", "subject"] * len(quads)
        got = np.stack([results.subject, results.relation, results.object, results.time], 1)
        assert np.array_equal(got, np.repeat(quads, 2, axis=0))
        assert "tpf" not in results.dtype.names

    def test_unsorted_facts_are_rejected(self):
        ds = toy_dataset_and_scores(np.random.default_rng(7), t=4, per_split=10)
        quads = ds.quads["test"]
        assert len(np.unique(quads[:, 3])) > 1
        with pytest.raises(ValueError, match="sorted by time step"):
            ev.rank_snapshots(ds.entity_count, quads[::-1], self.random_scorer(ds, 1),
                              build_true_index(ds, splits=("train",)))


class TestEvaluate:
    def constant_rank_scorer(self, table):
        def scorer(t, triples):
            obj = np.stack([table[("object", s, r, o, t)] for s, r, o in triples.tolist()])
            sub = np.stack([table[("subject", s, r, o, t)] for s, r, o in triples.tolist()])
            return obj, sub
        return scorer

    def test_perfect_scorer_gives_unit_metrics(self):
        rng = np.random.default_rng(1)
        ds = toy_dataset_and_scores(rng)
        index = build_true_index(ds, splits=("train", "valid", "test"))

        def scorer(t, triples):
            obj = np.zeros((len(triples), ds.entity_count))
            sub = np.zeros((len(triples), ds.entity_count))
            for i, (s, r, o) in enumerate(triples.tolist()):
                obj[i, o] = 1.0
                sub[i, s] = 1.0
            return obj, sub

        report = ev.evaluate(ds, "test", scorer, index)
        assert report.mrr == 1.0
        assert report.hits(1) == report.hits(10) == 1.0

    def test_two_rank_formula(self):
        # one fact whose two queries rank 1 and 2: MRR 0.75, Hits@1 0.5
        ds = TkgDataset(3, 1, 1, {"train": [], "valid": [], "test": [(0, 0, 1, 0)]})
        index = build_true_index(ds, splits=("test",))

        def scorer(t, triples):
            obj = np.array([[0.0, 1.0, 0.5]])   # true object 1 ranks 1st
            sub = np.array([[0.5, 1.0, 0.0]])   # true subject 0 ranks 2nd
            return obj, sub

        report = ev.evaluate(ds, "test", scorer, index)
        assert report.mrr == pytest.approx(0.75)
        assert report.hits(1) == pytest.approx(0.5)

    def test_report_equals_brute_force_on_random_scores(self):
        rng = np.random.default_rng(2)
        ds = toy_dataset_and_scores(rng)
        index = build_true_index(ds, splits=("train", "valid", "test"))
        table = {}
        for snap in ds.splits["test"]:
            for s, r, o in snap.triples.tolist():
                table[("object", s, r, o, snap.time)] = rng.normal(size=ds.entity_count)
                table[("subject", s, r, o, snap.time)] = rng.normal(size=ds.entity_count)
        report = ev.evaluate(ds, "test", self.constant_rank_scorer(table), index)

        expected_rr = []
        for snap in ds.splits["test"]:
            for s, r, o in snap.triples.tolist():
                t = snap.time
                ro = brute_force_rank(table[("object", s, r, o, t)], o,
                                      objects_for(index, s, r, t))
                rs = brute_force_rank(table[("subject", s, r, o, t)], s,
                                      subjects_for(index, r, o, t))
                expected_rr += [1.0 / ro, 1.0 / rs]
        assert report.mrr == pytest.approx(float(np.mean(expected_rr)))

    def test_invariants_on_report(self):
        rng = np.random.default_rng(3)
        ds = toy_dataset_and_scores(rng)
        index = build_true_index(ds, splits=("train",))

        def scorer(t, triples):
            return (rng.normal(size=(len(triples), ds.entity_count)),
                    rng.normal(size=(len(triples), ds.entity_count)))

        report = ev.evaluate(ds, "test", scorer, index)
        report.check_invariants()
        assert len(report.results) == 2 * ds.split_sizes()["test"]

    def test_invariants_checked_under_optimize_flag(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = ("from tempkg.evaluation import RankingReport\n"
                "RankingReport(5).check_invariants()")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "AssertionError: empty report" in proc.stderr


class TestBinnedAnalysis:
    def result(self, direction, rank, tpf):
        return (direction, 0, 0, 1, 0, rank, tpf)

    def test_single_bin_matches_global_hits(self):
        results = records(self.result("subject", r, {"s": 3}) for r in (1, 4, 20))
        rows = ev.tpf_binned_analysis(results)
        row = next(r for r in rows if r["pattern_kind"] == "s"
                   and r["direction"] == "subject")
        assert row["count"] == 3
        assert row["hits10"] == pytest.approx(2 / 3)

    def test_log_binning_separates_1_and_100(self):
        results = records([self.result("subject", 1, {"s": 1}),
                           self.result("subject", 1, {"s": 100})])
        rows = [r for r in ev.tpf_binned_analysis(results)
                if r["pattern_kind"] == "s" and r["direction"] == "subject"]
        occupied = [r["bin_lo"] for r in rows if r["count"]]
        assert occupied == [0, 2]
        empty = [r for r in rows if r["count"] == 0]
        assert all(r["hits10"] is None for r in empty)

    def test_counts_partition_queries(self):
        rng = np.random.default_rng(4)
        results = records(self.result("object", int(rng.integers(1, 30)),
                                      {"o": int(rng.integers(0, 500))}) for _ in range(40))
        rows = [r for r in ev.tpf_binned_analysis(results)
                if r["pattern_kind"] == "o" and r["direction"] == "object"]
        assert sum(r["count"] for r in rows) == 40

    def test_per_bin_values_equal_direct_filtering(self):
        rng = np.random.default_rng(5)
        results = records(self.result("object", int(rng.integers(1, 40)),
                                      {"ro": int(rng.integers(0, 200))}) for _ in range(60))
        rows = [r for r in ev.tpf_binned_analysis(results)
                if r["pattern_kind"] == "ro" and r["direction"] == "object"]
        ro = PATTERN_KINDS.index("ro")
        for row in rows:
            members = [r for r in results if frequency_bin(r.tpf[ro]) == row["bin_lo"]]
            assert row["count"] == len(members)
            if members:
                manual = np.mean([m.rank <= 10 for m in members])
                assert row["hits10"] == pytest.approx(float(manual))

    def test_empty_results_give_empty_table(self):
        assert ev.tpf_binned_analysis(records([])) == []
        assert ev.tpf_binned_analysis(RankingReport(5).results) == []

    @pytest.mark.parametrize("k", range(1, 7))
    def test_bins_at_powers_of_ten_match_frequency_bin(self, k):
        """f = 10**k - 2, 10**k - 1 and 10**k sit just below, at and above the
        edge of bin k."""
        freqs = [10 ** k - 2, 10 ** k - 1, 10 ** k]
        results = records(self.result("object", 1, dict.fromkeys(PATTERN_KINDS, f))
                          for f in freqs)
        bins = np.searchsorted(ev.BIN_THRESHOLDS, results.tpf[:, 0], side="right")
        assert bins.tolist() == [frequency_bin(f) for f in freqs] == [k - 1, k, k]
        rows = [r for r in ev.tpf_binned_analysis(results)
                if r["pattern_kind"] == "o" and r["direction"] == "object"]
        assert [r["bin_lo"] for r in rows if r["count"]] == [k - 1, k]
        assert [r["count"] for r in rows if r["count"]] == [1, 2]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_results_match_per_query_oracle(self, seed):
        """Both directions, every kind, frequencies spanning several bins and
        ranks on both sides of 10."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 80))
        results = records(
            (str(rng.choice(["object", "subject"])), 0, 0, 1, 0, int(rng.integers(1, 30)),
             dict(zip(PATTERN_KINDS, (10 ** rng.uniform(0, 4, size=7)).astype(int).tolist())))
            for _ in range(n))
        assert ev.tpf_binned_analysis(results) == per_query_binned_analysis(results)


class TestReportIO:
    def make_report(self):
        tpf = {"s": 2, "o": 0, "r": 1, "sr": 1, "ro": 0, "so": 0, "sro": 0}
        report = RankingReport(10)
        report.results = records([("object", 0, 0, 1, 0, 1, tpf),
                                  ("subject", 0, 0, 1, 0, 4, tpf)])
        return report

    def test_summary_csv(self, tmp_path):
        path = tmp_path / "summary.csv"
        ev.write_summary_csv(self.make_report(), path)
        text = path.read_text().splitlines()
        assert text[0] == "metric,value"
        assert text[1].startswith("MRR,0.625")

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "results.jsonl"
        report = self.make_report()
        ev.write_results_jsonl(report, path)
        loaded = ev.read_results_jsonl(path)
        assert loaded.dtype == report.results.dtype
        assert np.array_equal(loaded, report.results)

    def test_jsonl_bytes(self, tmp_path):
        path = tmp_path / "results.jsonl"
        ev.write_results_jsonl(self.make_report(), path)
        assert path.read_text().splitlines()[1] == (
            '{"direction": "subject", "object": 1, "rank": 4, "relation": 0, "subject": 0, '
            '"time": 0, "tpf": {"o": 0, "r": 1, "ro": 0, "s": 2, "so": 0, "sr": 1, "sro": 0}}')

    def test_jsonl_without_frequencies_roundtrip(self, tmp_path):
        path = tmp_path / "results.jsonl"
        report = RankingReport(10, records([("object", 3, 1, 2, 5, 7)]))
        ev.write_results_jsonl(report, path)
        assert path.read_text() == ('{"direction": "object", "object": 2, "rank": 7, '
                                    '"relation": 1, "subject": 3, "time": 5}\n')
        loaded = ev.read_results_jsonl(path)
        assert "tpf" not in loaded.dtype.names
        assert np.array_equal(loaded, report.results)

    def test_partial_frequencies_are_rejected(self, tmp_path):
        path = tmp_path / "results.jsonl"
        ev.write_results_jsonl(self.make_report(), path)
        first, second = path.read_text().splitlines()
        path.write_text(first + "\n" + second.split(', "tpf"')[0] + "}\n")
        with pytest.raises(ValueError, match="1 of 2 results carry pattern frequencies"):
            ev.read_results_jsonl(path)

    @pytest.mark.parametrize("edit, problem", [
        (lambda rec: "[1, 2]", "not a JSON object"),
        (lambda rec: "{not json", "not a JSON object"),
        (lambda rec: {k: v for k, v in rec.items() if k != "time"}, "missing field(s) time"),
        (lambda rec: dict(rec, direction="subjects"), "direction 'subjects' is neither"),
        (lambda rec: dict(rec, rank=0), "rank at least 1"),
        (lambda rec: dict(rec, rank=2.5), "must be integers"),
        (lambda rec: dict(rec, tpf={k: v for k, v in rec["tpf"].items() if k != "o"}),
         "integer count for each pattern kind"),
    ], ids=["array", "json", "field", "direction", "rank", "float", "tpf"])
    def test_malformed_line_names_path_and_line(self, tmp_path, edit, problem):
        path = tmp_path / "results.jsonl"
        ev.write_results_jsonl(self.make_report(), path)
        first, second = path.read_text().splitlines()
        bad = edit(json.loads(second))
        path.write_text(first + "\n\n" + (bad if isinstance(bad, str) else json.dumps(bad))
                        + "\n")
        with pytest.raises(ValueError) as err:
            ev.read_results_jsonl(path)
        assert str(err.value).startswith(f"{path}:3: ")
        assert problem in str(err.value)

    def test_bins_csv_columns(self, tmp_path):
        rows = ev.tpf_binned_analysis(self.make_report().results)
        path = tmp_path / "bins.csv"
        ev.write_bins_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == "pattern_kind,direction,bin_lo,bin_hi,count,hits10"
