import numpy as np
import pytest

from tempkg import _kernels
from tempkg.data import TkgDataset, build_true_index
from tempkg.evaluation import evaluate, filtered_ranks
from tempkg.synth import SynthSpec, generate_synthetic
from tempkg.ted import TedConfig, TedModel

from fact_oracles import PerQueryTedModel


def dataset_from_train(quads, e=6, r=3, t=8, test_quads=()):
    return TkgDataset(e, r, t, {"train": quads, "valid": [], "test": test_quads})


def query_tiers(model, direction, s, r, o, t):
    """The whole-snapshot reference sets of one query, as (entity, t') tuples
    decoded from their codes."""
    one = lambda x: np.array([x], dtype=np.int64)
    return [np.stack(np.divmod(codes, model.step_count + 1), axis=1)
            for codes in model.reference_sets(direction, one(s), one(r), one(o), t)]


def query_scores(model, direction, s, r, o, t, config):
    """The whole-snapshot score row of one query."""
    one = lambda x: np.array([x], dtype=np.int64)
    return model.rank_scores(direction, one(s), one(r), one(o), t, config)[0]


def brute_force_reference_sets(train_quads, direction, s, r, o, t):
    """Tier construction straight from the set definitions."""
    if direction == "object":
        tier1 = {(oo, tt) for ss, rr, oo, tt in train_quads
                 if tt != t and (ss, rr) == (s, r)}
        tier2 = {(oo, tt) for ss, rr, oo, tt in train_quads if tt != t and ss == s}
        tier3 = {(oo, tt) for ss, rr, oo, tt in train_quads if tt != t and rr == r}
    else:
        tier1 = {(ss, tt) for ss, rr, oo, tt in train_quads
                 if tt != t and (rr, oo) == (r, o)}
        tier2 = {(ss, tt) for ss, rr, oo, tt in train_quads if tt != t and oo == o}
        tier3 = {(ss, tt) for ss, rr, oo, tt in train_quads if tt != t and rr == r}
    tier2 -= tier1
    tier3 -= tier1 | tier2
    return tier1, tier2, tier3


def brute_force_ranking(train_quads, direction, s, r, o, t, sigma, entity_count,
                        blend="tiered"):
    """Exhaustive ordering, id tiebreak last: tier block first and decay score
    inside it, or under the "sum" blend referenced entities first by their
    summed score. Each tier's score adds its steps in ascending order, and the
    sum adds the tiers best first."""
    tiers = brute_force_reference_sets(train_quads, direction, s, r, o, t)
    key = {}
    for e in range(entity_count):
        scores = [(i, sum(np.exp(-sigma * abs(t - tt)) for tt in occ))
                  for i, occ in enumerate(sorted(tt for ee, tt in tier if ee == e)
                                          for tier in tiers) if occ]
        if not scores:
            key[e] = (3, 0.0, e)
        elif blend == "sum":
            key[e] = (0, -sum(score for _, score in scores), e)
        else:
            key[e] = (scores[0][0], -scores[0][1], e)
    return sorted(range(entity_count), key=lambda e: key[e])


class TestReferenceSets:
    def test_single_train_quad_tier1(self):
        ds = dataset_from_train([(0, 0, 1, 0)], t=2)
        model = TedModel(ds)
        tiers = query_tiers(model, "object", 0, 0, 5, 1)
        assert tiers[0].tolist() == [[1, 0]]
        # the same tuple qualified for tiers 2 and 3 but was deduplicated away
        assert tiers[1].tolist() == []
        assert tiers[2].tolist() == []

    def test_current_step_excluded(self):
        ds = dataset_from_train([(0, 0, 1, 3)], t=5)
        model = TedModel(ds)
        tiers = query_tiers(model, "object", 0, 0, 5, 3)
        assert all(len(x) == 0 for x in tiers)

    def test_matches_brute_force_on_toy_corpus(self):
        rng = np.random.default_rng(0)
        quads = sorted({(int(rng.integers(5)), int(rng.integers(3)),
                         int(rng.integers(5)), int(rng.integers(6)))
                        for _ in range(15)})
        ds = dataset_from_train(quads, e=5, r=3, t=6)
        model = TedModel(ds)
        for direction in ("object", "subject"):
            for s, r, o, t in quads[:6]:
                got = query_tiers(model, direction, s, r, o, t)
                expect = brute_force_reference_sets(quads, direction, s, r, o, t)
                for arr, ref in zip(got, expect):
                    assert set(map(tuple, arr.tolist())) == ref


class TestTedScore:
    """The decay-rule score sum_{t'} exp(-sigma * |t - t'|) of one entity."""

    def score(self, occurrences, t, sigma):
        occurrences = np.asarray(occurrences)
        ents = np.zeros(len(occurrences), dtype=np.int64)
        return _kernels.decay_accumulate(1, ents, occurrences, t, sigma)[0]

    def test_zero_distance_scores_one(self):
        assert self.score([5], 5, 0.1) == pytest.approx(1.0)

    def test_direct_evaluation(self):
        got = self.score([4, 2], 5, 0.1)
        assert got == pytest.approx(np.exp(-0.1) + np.exp(-0.3))

    def test_huge_sigma_vanishes(self):
        assert self.score([4], 5, 1e6) == 0.0

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            TedConfig(sigma=0.0)
        with pytest.raises(ValueError):
            TedConfig(sigma=-1.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_sigma_must_be_finite(self, sigma):
        with pytest.raises(ValueError):
            TedConfig(sigma=sigma)


class TestRanking:
    def test_single_tier1_entity_ranks_first(self):
        ds = dataset_from_train([(0, 0, 1, 0)], t=2)
        model = TedModel(ds)
        scores = query_scores(model, "object", 0, 0, 5, 1, TedConfig(0.1))
        assert int(np.argmax(scores)) == 1

    def test_tier_dominates_score(self):
        # entity 1: tier-1 occurrence far away (tiny score); entity 2: strong
        # tier-2 score from many recent same-subject facts; tier wins
        quads = [(0, 0, 1, 0)] + [(0, 1, 2, t) for t in range(5, 8)]
        ds = dataset_from_train(quads, e=4, r=2, t=9)
        model = TedModel(ds)
        scores = query_scores(model, "object", 0, 0, 3, 8, TedConfig(sigma=1.0))
        order = np.argsort(-scores)
        assert list(order[:2]) == [1, 2]

    def test_entity_in_two_tiers_scores_only_its_best_tier(self):
        # entity 2 is the last tier-1 pair and the first tier-2 pair of the
        # query; its tier-2 occurrence must not add to its tier-1 score
        quads = [(0, 0, 1, 1), (0, 0, 2, 0), (0, 1, 2, 1)]
        ds = dataset_from_train(quads, e=4, r=2, t=3)
        scores = query_scores(TedModel(ds), "object", 0, 0, 3, 2, TedConfig(sigma=1.0))
        expect = brute_force_ranking(quads, "object", 0, 0, 3, 2, 1.0, 4)
        assert np.argsort(-scores).tolist() == expect
        assert expect[:2] == [1, 2]

    def test_blend_sum_orders_by_total_score(self):
        quads = [(0, 0, 1, 0)] + [(0, 1, 2, t) for t in range(5, 8)]
        ds = dataset_from_train(quads, e=4, r=2, t=9)
        model = TedModel(ds)
        scores = query_scores(model, "object", 0, 0, 3, 8, TedConfig(1.0, blend="sum"))
        order = np.argsort(-scores)
        assert list(order[:2]) == [2, 1]

    def test_full_ranking_matches_brute_force_on_random_corpora(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            e = int(rng.integers(4, 8))
            r = int(rng.integers(2, 4))
            t_max = int(rng.integers(3, 7))
            quads = sorted({(int(rng.integers(e)), int(rng.integers(r)),
                             int(rng.integers(e)), int(rng.integers(t_max)))
                            for _ in range(rng.integers(5, 20))})
            ds = dataset_from_train(quads, e=e, r=r, t=t_max)
            model = TedModel(ds)
            sigma = float(rng.choice([0.01, 0.1, 1.0]))
            for direction in ("object", "subject"):
                s, rel, o, t = quads[int(rng.integers(len(quads)))]
                scores = query_scores(model, direction, s, rel, o, t, TedConfig(sigma))
                got = np.argsort(-scores).tolist()
                expect = brute_force_ranking(quads, direction, s, rel, o, t, sigma, e)
                assert got == expect

    @pytest.mark.parametrize("blend", ["tiered", "sum"])
    def test_exact_ties_rank_by_entity_id(self, blend):
        # each subject's facts sit at a pair of steps equally far before and
        # after the query step (2 and 6, or 0 and 8 plus one more), and most
        # entities share their steps, so many scores in a row tie exactly with
        # another; one call ranks all queries
        e, t = 12, 4
        quads = sorted({(s, s % 2, (s + k) % e, step) for s in range(e) for k in (1, 2, 5)
                        for step in ((2, 6) if s % 3 else (0, 8, 3 - s % 2))})
        ds = dataset_from_train(quads, e=e, r=2, t=9)
        model, oracle = TedModel(ds), PerQueryTedModel(ds)
        s, r, o = np.array([(s, r, o) for s in range(e) for r in (0, 1)
                            for o in range(0, e, 3)]).T
        config = TedConfig(0.3, blend)
        for direction in ("object", "subject"):
            rows = model.rank_scores(direction, s, r, o, t, config)
            tied = 0
            for i, row in enumerate(rows):
                want = oracle.rank_scores(direction, s[i], r[i], o[i], t, config)
                np.testing.assert_array_equal(row, want)
                assert np.argsort(-row).tolist() == brute_force_ranking(
                    quads, direction, s[i], r[i], o[i], t, 0.3, e, blend)
                scores = model.tier_scores(model.reference_sets(
                    direction, s[i:i + 1], r[i:i + 1], o[i:i + 1], t), t, 0.3)[2]
                tied += len(scores) - len(np.unique(scores))
            assert tied > len(rows)

    def test_repeated_runs_identical(self):
        quads = [(0, 0, 1, 0), (0, 1, 2, 1), (2, 0, 3, 2), (1, 2, 0, 3)]
        ds = dataset_from_train(quads, e=5, r=3, t=5)

        def run():
            model = TedModel(ds)
            return np.concatenate([
                query_scores(model, d, 0, 0, 1, 4, TedConfig(0.1))
                for d in ("object", "subject")])

        assert run().tobytes() == run().tobytes()

    def test_recency_monotonicity_within_tier(self):
        # adding a strictly more recent occurrence never lowers the entity
        base = [(0, 0, 1, 0), (0, 0, 2, 1)]
        ds1 = dataset_from_train(base, e=4, r=1, t=7)
        score1 = query_scores(TedModel(ds1), "object", 0, 0, 3, 6, TedConfig(0.5))
        rank_of_1 = int(np.where(np.argsort(-score1) == 1)[0][0])
        ds2 = dataset_from_train(base + [(0, 0, 1, 5)], e=4, r=1, t=7)
        score2 = query_scores(TedModel(ds2), "object", 0, 0, 3, 6, TedConfig(0.5))
        rank_of_1_after = int(np.where(np.argsort(-score2) == 1)[0][0])
        assert rank_of_1_after <= rank_of_1

    def test_sigma_sweep_peaks_at_intermediate_value(self):
        # frequency-versus-recency tradeoff: each subject pairs with a stale
        # object many times and a fresh object once; the test answer is the
        # fresh one. Tiny sigma ranks by raw frequency (stale wins), huge
        # sigma underflows to id order (stale wins again); only an
        # intermediate rate prefers the recent object.
        groups = 6
        train_quads, test_quads = [], []
        for i in range(groups):
            s, old, new = 3 * i, 3 * i + 1, 3 * i + 2
            train_quads += [(s, 0, old, t) for t in range(8)]
            train_quads.append((s, 0, new, 9))
            test_quads.append((s, 0, new, 10))
        ds = dataset_from_train(train_quads, e=3 * groups, r=1, t=11,
                                test_quads=test_quads)
        index = build_true_index(ds, splits=("train", "valid", "test"))
        model = TedModel(ds)
        mrr = {}
        for sigma in (1e-5, 0.5, 1e5):
            report = evaluate(ds, "test", model.snapshot_scorer(TedConfig(sigma)), index)
            mrr[sigma] = report.mrr
        assert mrr[0.5] > mrr[1e-5]
        assert mrr[0.5] > mrr[1e5]


def split_test_snapshots(ds):
    return [(snap.time, snap.triples) for snap in ds.splits["test"] if len(snap)]


class TestScoreRows:
    """Whole-snapshot integer -position rows against the per-query float oracle."""

    @staticmethod
    def assert_matches_oracle(ds, snapshots, config, model=None):
        scorer = (model or TedModel(ds)).snapshot_scorer(config)
        oracle = PerQueryTedModel(ds).snapshot_scorer(config)
        for t, triples in snapshots:
            for rows, want in zip(scorer(t, triples), oracle(t, triples)):
                assert rows.dtype == np.min_scalar_type(-2 * ds.entity_count)
                assert np.array_equal(rows, want)

    @pytest.mark.parametrize("blend", ["tiered", "sum"])
    def test_matches_per_query_oracle_on_random_corpora(self, blend):
        rng = np.random.default_rng(4)
        for seed in range(8):
            spec = SynthSpec(int(rng.integers(5, 90)), int(rng.integers(1, 6)),
                             int(rng.integers(3, 12)), density=float(rng.uniform(0.1, 3.0)),
                             periodicity=0.5, period=int(rng.integers(1, 4)),
                             test_fraction=0.3)
            ds = generate_synthetic(spec, seed)
            sigma = float(rng.choice([1e-3, 0.1, 1.0, 1e3]))
            self.assert_matches_oracle(ds, split_test_snapshots(ds), TedConfig(sigma, blend))

    @pytest.mark.parametrize("spec, seed", [
        # 845 queries each referencing all 400 entities: 338k pairs in one step
        (SynthSpec(400, 3, 12, density=20.0, periodicity=0.5, period=3), 1),
        # 205 x 2000 cells with 118k pairs, 29% referenced: long unreferenced runs
        (SynthSpec(2000, 20, 12, density=1.0, periodicity=0.5, period=3), 1)],
        ids=["dense", "mixed"])
    def test_matches_oracle_past_the_int16_pair_count(self, spec, seed):
        ds = generate_synthetic(spec, seed)
        t, triples = max(split_test_snapshots(ds), key=lambda snap: len(snap[1]))
        model = TedModel(ds)
        s, r, o = triples.T
        _, pair, _ = model.tier_scores(model.reference_sets("object", s, r, o, t), t, 0.1)
        assert len(np.unique(pair)) > np.iinfo(np.int16).max
        for blend in ("tiered", "sum"):
            self.assert_matches_oracle(ds, [(t, triples)], TedConfig(0.1, blend), model)

    @pytest.mark.parametrize("e, dtype", [(16384, np.int16), (16385, np.int32)])
    def test_dtype_is_the_narrowest_holding_twice_the_entity_count(self, e, dtype):
        # the last entity is unreferenced, so it scores the row's least value
        ds = dataset_from_train([(0, 0, e - 2, 0), (0, 0, 3, 1), (5, 0, e - 3, 1)],
                                e=e, r=1, t=3)
        model, oracle = TedModel(ds), PerQueryTedModel(ds)
        s, r, o = np.array([0, 7]), np.array([0, 0]), np.array([1, 2])
        for blend in ("tiered", "sum"):
            config = TedConfig(0.5, blend)
            for direction in ("object", "subject"):
                rows = model.rank_scores(direction, s, r, o, 2, config)
                assert rows.dtype == dtype
                assert rows.min() == 1 - 2 * e
                for i, row in enumerate(rows):
                    assert np.array_equal(row, oracle.rank_scores(direction, s[i], r[i], o[i],
                                                                   2, config))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
def test_filtered_ranks_of_integer_scores_match_their_float_copy(dtype):
    rng = np.random.default_rng(5)
    q, e = 40, 30
    scores = rng.integers(-6, 6, size=(q, e)).astype(dtype)    # many ties
    answers = rng.integers(e, size=q)
    rows, ids = np.nonzero(rng.random((q, e)) < 0.2)
    got = filtered_ranks(scores, answers, rows, ids)
    assert np.array_equal(got, filtered_ranks(scores.astype(np.float64), answers, rows, ids))


class TestFixedFillRows:
    """Rows at the edges of the fixed fill: every entity referenced, none, an
    unreferenced answer, and the last int8 entity count; each against the
    per-query oracle and the brute-force ordering."""

    @staticmethod
    def assert_rows(quads, e, direction, queries, t, blend, r=3):
        ds = dataset_from_train(quads, e=e, r=r)
        model, oracle, config = TedModel(ds), PerQueryTedModel(ds), TedConfig(0.3, blend)
        s, rel, o = np.array(queries).T
        rows = model.rank_scores(direction, s, rel, o, t, config)
        assert rows.dtype == np.min_scalar_type(-2 * e)
        for row, (qs, qr, qo) in zip(rows, queries):
            assert np.array_equal(row, oracle.rank_scores(direction, qs, qr, qo, t, config))
            want = brute_force_ranking(quads, direction, qs, qr, qo, t, 0.3, e, blend)
            assert np.argsort(-row.astype(np.int64)).tolist() == want
        return rows

    # object query (0, 0, ?, 3): tier 1 holds 0 and 1, tier 2 holds 2 and 3,
    # tier 3 holds 4 and 5
    EVERY = [(0, 0, 0, 1), (0, 0, 1, 2), (0, 1, 2, 1), (0, 1, 3, 2), (3, 0, 4, 1),
             (5, 0, 5, 2)]

    @pytest.mark.parametrize("blend", ["tiered", "sum"])
    def test_every_entity_referenced(self, blend):
        rows = self.assert_rows(self.EVERY, 6, "object", [(0, 0, 1)], 3, blend)
        assert sorted(rows[0].tolist()) == list(range(-5, 1))

    @pytest.mark.parametrize("blend", ["tiered", "sum"])
    def test_no_entity_referenced(self, blend):
        # every fact is at the query's own step, so no tuple is kept
        quads = [(s, r, o, 3) for s, r, o, _ in self.EVERY]
        rows = self.assert_rows(quads, 6, "object", [(0, 0, 1), (4, 2, 0)], 3, blend)
        assert np.array_equal(rows, np.tile(-np.arange(6, 12), (2, 1)))

    @pytest.mark.parametrize("blend", ["tiered", "sum"])
    def test_unreferenced_answer_behind_lower_unfiltered_ids(self, blend):
        # object query (0, 0, ?, 3) references 5 and 6 only; answer 4 is not
        # referenced, filtered ids 1 and 3 are lower and 6 is referenced
        quads = [(0, 0, 5, 1), (0, 0, 6, 2)]
        rows = self.assert_rows(quads, 8, "object", [(0, 0, 4)], 3, blend)
        order = brute_force_ranking(quads, "object", 0, 0, 4, 3, 0.3, 8, blend)
        kept = [j for j in order if j not in (1, 3, 6)]
        filtered = np.array([1, 3, 6])
        got = filtered_ranks(rows, np.array([4]), np.zeros(3, dtype=np.int64), filtered)
        assert got.tolist() == [kept.index(4) + 1] == [4]

    @pytest.mark.parametrize("e, dtype", [(64, np.int8), (65, np.int16)])
    @pytest.mark.parametrize("blend", ["tiered", "sum"])
    def test_int8_edge(self, e, dtype, blend):
        rng = np.random.default_rng(e)
        # random facts that never name the last entity, over steps 0-5
        quads = rng.integers(0, [e - 1, 3, e - 1, 6], size=(40, 4)).tolist()
        queries = [(0, 0, 1), (3, 1, 2), (e - 2, 2, e - 1)]
        for direction in ("object", "subject"):
            rows = self.assert_rows(quads, e, direction, queries, 4, blend)
            assert rows.dtype == dtype
            assert rows.min() == 1 - 2 * e
