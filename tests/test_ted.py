import numpy as np
import pytest

from tempkg import _kernels
from tempkg.data import Snapshot, TkgDataset, build_true_index
from tempkg.evaluation import evaluate
from tempkg.ted import TedConfig, TedModel


def dataset_from_train(quads, e=6, r=3, t=8, test_quads=()):
    def pack(qs):
        per = [[] for _ in range(t)]
        for s, rel, o, tt in qs:
            per[tt].append((s, rel, o))
        return [Snapshot(i, np.array(x, dtype=np.int64) if x else None)
                for i, x in enumerate(per)]

    return TkgDataset(e, r, t, {"train": pack(quads), "valid": pack(()),
                                "test": pack(test_quads)})


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


def brute_force_ranking(train_quads, direction, s, r, o, t, sigma, entity_count):
    """Exhaustive ordering: tier block first, decay score inside, id tiebreak."""
    tiers = brute_force_reference_sets(train_quads, direction, s, r, o, t)
    key = {}
    for e in range(entity_count):
        key[e] = (3, 0.0, e)
    for tier_idx in (2, 1, 0):
        tier = tiers[tier_idx]
        for e in range(entity_count):
            occ = [tt for (ee, tt) in tier if ee == e]
            if occ:
                score = sum(np.exp(-sigma * abs(t - tt)) for tt in occ)
                key[e] = (tier_idx, -score, e)
    return sorted(range(entity_count), key=lambda e: key[e])


class TestReferenceSets:
    def test_single_train_quad_tier1(self):
        ds = dataset_from_train([(0, 0, 1, 0)], t=2)
        model = TedModel(ds)
        tiers = model.reference_sets("object", 0, 0, 5, 1)
        assert tiers[0].tolist() == [[1, 0]]
        # the same tuple qualified for tiers 2 and 3 but was deduplicated away
        assert tiers[1].tolist() == []
        assert tiers[2].tolist() == []

    def test_current_step_excluded(self):
        ds = dataset_from_train([(0, 0, 1, 3)], t=5)
        model = TedModel(ds)
        tiers = model.reference_sets("object", 0, 0, 5, 3)
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
                got = model.reference_sets(direction, s, r, o, t)
                expect = brute_force_reference_sets(quads, direction, s, r, o, t)
                for arr, ref in zip(got, expect):
                    assert set(map(tuple, arr.tolist())) == ref


class TestTedScore:
    """The decay-rule score sum_{t'} exp(-sigma * |t - t'|) of one entity."""

    def score(self, occurrences, t, sigma):
        occurrences = np.asarray(occurrences)
        ents = np.zeros(len(occurrences), dtype=np.int64)
        return _kernels.decay_accumulate(np.zeros(1), ents, occurrences, t, sigma)[0]

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
        scores = model.rank_scores("object", 0, 0, 5, 1, TedConfig(0.1))
        assert int(np.argmax(scores)) == 1

    def test_tier_dominates_score(self):
        # entity 1: tier-1 occurrence far away (tiny score); entity 2: strong
        # tier-2 score from many recent same-subject facts; tier wins
        quads = [(0, 0, 1, 0)] + [(0, 1, 2, t) for t in range(5, 8)]
        ds = dataset_from_train(quads, e=4, r=2, t=9)
        model = TedModel(ds)
        scores = model.rank_scores("object", 0, 0, 3, 8, TedConfig(sigma=1.0))
        order = np.argsort(-scores)
        assert list(order[:2]) == [1, 2]

    def test_blend_sum_orders_by_total_score(self):
        quads = [(0, 0, 1, 0)] + [(0, 1, 2, t) for t in range(5, 8)]
        ds = dataset_from_train(quads, e=4, r=2, t=9)
        model = TedModel(ds)
        scores = model.rank_scores("object", 0, 0, 3, 8, TedConfig(1.0, blend="sum"))
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
                scores = model.rank_scores(direction, s, rel, o, t, TedConfig(sigma))
                got = np.argsort(-scores).tolist()
                expect = brute_force_ranking(quads, direction, s, rel, o, t, sigma, e)
                assert got == expect

    def test_repeated_runs_identical(self):
        quads = [(0, 0, 1, 0), (0, 1, 2, 1), (2, 0, 3, 2), (1, 2, 0, 3)]
        ds = dataset_from_train(quads, e=5, r=3, t=5)

        def run():
            model = TedModel(ds)
            return np.concatenate([
                model.rank_scores(d, 0, 0, 1, 4, TedConfig(0.1))
                for d in ("object", "subject")])

        assert run().tobytes() == run().tobytes()

    def test_recency_monotonicity_within_tier(self):
        # adding a strictly more recent occurrence never lowers the entity
        base = [(0, 0, 1, 0), (0, 0, 2, 1)]
        ds1 = dataset_from_train(base, e=4, r=1, t=7)
        score1 = TedModel(ds1).rank_scores("object", 0, 0, 3, 6, TedConfig(0.5))
        rank_of_1 = int(np.where(np.argsort(-score1) == 1)[0][0])
        ds2 = dataset_from_train(base + [(0, 0, 1, 5)], e=4, r=1, t=7)
        score2 = TedModel(ds2).rank_scores("object", 0, 0, 3, 6, TedConfig(0.5))
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
