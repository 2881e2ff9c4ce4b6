import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tempkg import evaluation as ev
from tempkg.data import Snapshot, TkgDataset, build_true_index
from tempkg.evaluation import QueryResult, RankingReport, rank_query


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


def toy_dataset_and_scores(rng, e=6, r=2, t=3, per_split=4):
    quads = set()
    while len(quads) < 3 * per_split:
        quads.add((int(rng.integers(e)), int(rng.integers(r)), int(rng.integers(e)),
                   int(rng.integers(t))))
    quads = sorted(quads)
    thirds = [quads[0:per_split], quads[per_split:2 * per_split], quads[2 * per_split:]]
    splits = {}
    for name, part in zip(("train", "valid", "test"), thirds):
        per_step = [[] for _ in range(t)]
        for s, rel, o, tt in part:
            per_step[tt].append((s, rel, o))
        splits[name] = [Snapshot(i, np.array(x, dtype=np.int64) if x else None)
                        for i, x in enumerate(per_step)]
    return TkgDataset(e, r, t, splits)


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
        ds = TkgDataset(3, 1, 1, {
            "train": [Snapshot(0)], "valid": [Snapshot(0)],
            "test": [Snapshot(0, np.array([[0, 0, 1]], dtype=np.int64))]})
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
                                      index.objects_for(s, r, t))
                rs = brute_force_rank(table[("subject", s, r, o, t)], s,
                                      index.subjects_for(r, o, t))
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
        base = {k: 0 for k in ("s", "o", "r", "sr", "ro", "so", "sro")}
        base.update(tpf)
        return QueryResult(direction, 0, 0, 1, 0, rank, base)

    def test_single_bin_matches_global_hits(self):
        results = [self.result("subject", r, {"s": 3}) for r in (1, 4, 20)]
        rows = ev.tpf_binned_analysis(results)
        row = next(r for r in rows if r["pattern_kind"] == "s"
                   and r["direction"] == "subject")
        assert row["count"] == 3
        assert row["hits10"] == pytest.approx(2 / 3)

    def test_log_binning_separates_1_and_100(self):
        results = [self.result("subject", 1, {"s": 1}),
                   self.result("subject", 1, {"s": 100})]
        rows = [r for r in ev.tpf_binned_analysis(results)
                if r["pattern_kind"] == "s" and r["direction"] == "subject"]
        occupied = [r["bin_lo"] for r in rows if r["count"]]
        assert occupied == [0, 2]
        empty = [r for r in rows if r["count"] == 0]
        assert all(r["hits10"] is None for r in empty)

    def test_counts_partition_queries(self):
        rng = np.random.default_rng(4)
        results = [self.result("object", int(rng.integers(1, 30)),
                               {"o": int(rng.integers(0, 500))}) for _ in range(40)]
        rows = [r for r in ev.tpf_binned_analysis(results)
                if r["pattern_kind"] == "o" and r["direction"] == "object"]
        assert sum(r["count"] for r in rows) == 40

    def test_per_bin_values_equal_direct_filtering(self):
        rng = np.random.default_rng(5)
        results = [self.result("object", int(rng.integers(1, 40)),
                               {"ro": int(rng.integers(0, 200))}) for _ in range(60)]
        rows = [r for r in ev.tpf_binned_analysis(results)
                if r["pattern_kind"] == "ro" and r["direction"] == "object"]
        for row in rows:
            members = [r for r in results
                       if ev.frequency_bin(r.tpf["ro"]) == row["bin_lo"]]
            assert row["count"] == len(members)
            if members:
                manual = np.mean([m.rank <= 10 for m in members])
                assert row["hits10"] == pytest.approx(float(manual))

    def test_empty_results_give_empty_table(self):
        assert ev.tpf_binned_analysis([]) == []


class TestReportIO:
    def make_report(self):
        report = RankingReport(10)
        report.results = [
            QueryResult("object", 0, 0, 1, 0, 1, {"s": 2, "o": 0, "r": 1, "sr": 1,
                                                  "ro": 0, "so": 0, "sro": 0}),
            QueryResult("subject", 0, 0, 1, 0, 4, {"s": 2, "o": 0, "r": 1, "sr": 1,
                                                   "ro": 0, "so": 0, "sro": 0}),
        ]
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
        assert loaded == report.results

    def test_bins_csv_columns(self, tmp_path):
        rows = ev.tpf_binned_analysis(self.make_report().results)
        path = tmp_path / "bins.csv"
        ev.write_bins_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == "pattern_kind,direction,bin_lo,bin_hi,count,hits10"
