import numpy as np
import pytest

from tempkg import autodiff as ad
from tempkg import decoder
from tempkg.autodiff import Tape, constant
from tempkg.data import Snapshot, TkgDataset, build_true_index

from gradcheck import finite_difference, max_relative_error


def score_one(s, r, o, kind):
    """Scalar score of a single triple of plain vectors."""
    rows = [constant(np.asarray(v, dtype=np.float64).reshape(1, -1)) for v in (s, r, o)]
    return float(decoder.score_rows(*rows, kind).data[0, 0])


class TestScoring:
    def test_transe_perfect_translation_scores_zero(self):
        s = np.array([1.0, -2.0, 0.5])
        r = np.array([0.2, 0.3, -0.1])
        assert score_one(s, r, s + r, "transe") == pytest.approx(0.0)
        assert score_one(s, r, s + r + 0.5, "transe") < 0.0

    def test_distmult_direct_evaluation(self):
        assert score_one([1, 2], [3, 4], [5, 6], "distmult") == pytest.approx(63.0)

    def test_complex_with_real_relation_reduces_to_distmult(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = 6
            s, o = rng.normal(size=d), rng.normal(size=d)
            rho = rng.normal(size=d // 2)
            r_complex = np.concatenate([rho, np.zeros(d // 2)])
            r_distmult = np.concatenate([rho, rho])
            assert score_one(s, r_complex, o, "complex") == pytest.approx(
                score_one(s, r_distmult, o, "distmult"))

    def test_complex_all_ones_real_relation(self):
        rng = np.random.default_rng(1)
        s, o = rng.normal(size=4), rng.normal(size=4)
        r = np.array([1.0, 1.0, 0.0, 0.0])
        assert score_one(s, r, o, "complex") == pytest.approx(float(s @ o))

    def test_complex_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            score_one([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "complex")

    def test_unknown_decoder_rejected(self):
        with pytest.raises(ValueError):
            score_one([1.0], [1.0], [1.0], "rescal")

    @pytest.mark.parametrize("kind", decoder.DECODERS)
    def test_score_gradients_match_finite_differences(self, kind):
        rng = np.random.default_rng(2)
        arrays = [rng.normal(size=(3, 4)) for _ in range(3)]

        def build(s, r, o):
            return ad.reduce_sum(decoder.score_rows(s, r, o, kind))

        tape = Tape()
        leaves = [tape.leaf(a) for a in arrays]
        loss = build(*leaves)
        gmap = tape.backward(loss)
        analytic = [gmap[leaf.node_id] for leaf in leaves]
        numeric = finite_difference(
            lambda *arrs: build(*[constant(a) for a in arrs]).item(), arrays)
        assert max_relative_error(analytic, numeric) < 1e-5

    @pytest.mark.parametrize("kind", decoder.DECODERS)
    def test_one_row_against_many_equals_materialised_copies(self, kind):
        # the evaluation path scores one fixed row and one relation row against
        # every candidate; it must equal the per-row form on tiled copies bit for bit
        rng = np.random.default_rng(6)
        e, d = 9, 8
        fixed, rel = rng.normal(size=(1, d)), rng.normal(size=(1, d))
        cands = rng.normal(size=(e, d))
        tile = lambda row: constant(np.repeat(row, e, axis=0))
        for broadcast, copies in (
                ((constant(fixed), constant(rel), constant(cands)),
                 (tile(fixed), tile(rel), constant(cands))),
                ((constant(cands), constant(rel), constant(fixed)),
                 (constant(cands), tile(rel), tile(fixed)))):
            got = decoder.score_rows(*broadcast, kind).data
            want = decoder.score_rows(*copies, kind).data
            assert got.shape == (e, 1)
            np.testing.assert_array_equal(got, want)


def tiny_dataset():
    train = [Snapshot(0, np.array([[0, 0, 1]], dtype=np.int64))]
    empty = [Snapshot(0)]
    return TkgDataset(3, 1, 1, {"train": train, "valid": list(empty), "test": list(empty)})


class TestNegativeSampling:
    def test_rejects_known_true_completions(self):
        index = build_true_index(tiny_dataset())
        rng = np.random.default_rng(3)
        obj, sub = decoder.sample_negatives(0, 0, 1, 0, index, k=2, rng=rng, entity_count=3)
        assert set(obj.tolist()) <= {0, 2}
        assert set(sub.tolist()) <= {1, 2}

    def test_deterministic_per_seed(self):
        index = build_true_index(tiny_dataset())
        a = decoder.sample_negatives(0, 0, 1, 0, index, 5, np.random.default_rng(9), 3)
        b = decoder.sample_negatives(0, 0, 1, 0, index, 5, np.random.default_rng(9), 3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_small_vocabulary_samples_with_replacement_and_warns(self, caplog):
        index = build_true_index(tiny_dataset())
        with caplog.at_level("WARNING", logger="tempkg"):
            obj, _ = decoder.sample_negatives(0, 0, 1, 0, index, k=10,
                                              rng=np.random.default_rng(4), entity_count=3)
        assert len(obj) == 10
        assert "replacement" in caplog.text

    def test_empirical_uniformity(self):
        # 1e5 draws over a 7128-entity vocabulary: every per-entity count stays
        # within 4 sigma of the uniform expectation (frozen seed)
        e = 7128
        train = [Snapshot(0, np.array([[0, 0, 1]], dtype=np.int64))]
        empty = [Snapshot(0)]
        ds = TkgDataset(e, 1, 1, {"train": train, "valid": list(empty), "test": list(empty)})
        index = build_true_index(ds)
        rng = np.random.default_rng(12345)
        obj, _ = decoder.sample_negatives(0, 0, 1, 0, index, k=100_000, rng=rng,
                                          entity_count=e)
        counts = np.bincount(obj, minlength=e)
        assert counts[1] == 0  # the true object never appears
        valid = e - 1
        p = 1.0 / valid
        mean = 100_000 * p
        sigma = np.sqrt(100_000 * p * (1 - p))
        deviation = np.abs(np.delete(counts, 1) - mean)
        assert deviation.max() <= 4 * sigma

    def test_k_must_be_positive(self):
        index = build_true_index(tiny_dataset())
        with pytest.raises(ValueError):
            decoder.sample_negatives(0, 0, 1, 0, index, 0, np.random.default_rng(0), 3)


class TestLoss:
    def scores(self, rows):
        """(b, 1 + k) score matrix: the positive in column 0, then the negatives."""
        return constant(np.asarray(rows, dtype=np.float64))

    def test_saturated_positive_gives_near_zero_loss(self):
        loss = decoder.query_loss(self.scores([[100.0, 0.0]]))
        assert 0.0 <= loss.item() < 1e-40

    def test_equal_scores_single_negative_is_ln2(self):
        loss = decoder.query_loss(self.scores([[1.5, 1.5]]))
        assert loss.item() == pytest.approx(np.log(2.0))

    def test_duplicated_query_doubles_contribution(self):
        one = decoder.query_loss(self.scores([[0.3, 0.9, -1.0]]))
        two = decoder.query_loss(self.scores([[0.3, 0.9, -1.0], [0.3, 0.9, -1.0]]))
        assert two.item() == pytest.approx(2 * one.item())

    def test_monotone_in_positive_score(self):
        losses = [decoder.query_loss(self.scores([[v, 0.0, 0.5]])).item()
                  for v in (-1.0, 0.0, 1.0, 2.0)]
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert all(v >= 0 for v in losses)

    def test_prob_sum_mode_matches_literal_form(self):
        pos, negs = 0.7, [0.1, -0.4, 1.2]
        loss = decoder.query_loss(self.scores([[pos] + negs]), mode="prob_sum")
        literal = -np.exp(pos) / np.sum(np.exp(negs))
        assert loss.item() == pytest.approx(literal)

    def test_empty_negatives_rejected(self):
        with pytest.raises(ValueError):
            decoder.query_loss(self.scores([[1.0]]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=(3, 5))
        tape = Tape()
        leaf = tape.leaf(scores)
        analytic = [tape.backward(decoder.query_loss(leaf))[leaf.node_id]]
        numeric = finite_difference(lambda a: decoder.query_loss(constant(a)).item(),
                                    [scores])
        assert max_relative_error(analytic, numeric) < 1e-5
