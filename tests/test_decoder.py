from collections import Counter

import numpy as np
import pytest

from tempkg import autodiff as ad
from tempkg import decoder
from tempkg.autodiff import Tape, constant
from tempkg.data import build_true_index

from fact_oracles import DictTrueTripleIndex, per_positive_sample_negatives
from gradcheck import finite_difference, max_relative_error, scaled_error
from helpers import train_dataset


def score_rows_per_row(s, r, o, kind):
    """Oracle: scores for matched rows of subject/relation/object embeddings,
    as (m, 1), built from the formulas row by row. Each operand is (m, d) or a
    single (1, d) row scored against every row of the others."""
    if kind == "transe":
        return ad.mul(ad.reduce_sum(ad.absolute(ad.sub(ad.add(s, r), o)), axis=1), -1.0)
    if kind == "distmult":
        return ad.reduce_sum(ad.mul(ad.mul(s, r), o), axis=1)
    if kind == "complex":
        d = s.shape[-1]
        if d % 2:
            raise ValueError(f"complex decoder needs an even dimension, got {d}")
        half = d // 2
        (s_re, s_im), (r_re, r_im), (o_re, o_im) = (
            (ad.columns(x, 0, half), ad.columns(x, half, d)) for x in (s, r, o))
        out = ad.reduce_sum(ad.mul(ad.mul(r_re, s_re), o_re), axis=1)
        out = ad.add(out, ad.reduce_sum(ad.mul(ad.mul(r_re, s_im), o_im), axis=1))
        out = ad.add(out, ad.reduce_sum(ad.mul(ad.mul(r_im, s_re), o_im), axis=1))
        return ad.sub(out, ad.reduce_sum(ad.mul(ad.mul(r_im, s_im), o_re), axis=1))
    raise ValueError(f"unknown decoder {kind!r}")


def direction_rows_per_row(direction, fixed, r, cand, kind):
    """The oracle with the fixed row in the slot the query direction names."""
    if direction == "object":
        return score_rows_per_row(fixed, r, cand, kind)
    return score_rows_per_row(cand, r, fixed, kind)


def score_rows_per_candidate(fixed, r, table, ids, kind, direction, blend=None):
    """Oracle of ``decoder.score_rows``: the fixed row, relation row and gate
    of each query repeated per candidate, the candidate rows gathered, and
    every row scored by ``score_rows_per_row``."""
    m, k = ids.shape
    per_cand = np.repeat(np.arange(m), k)
    cands = ad.gather_rows(table, ids.ravel())
    if blend is not None:
        alpha = ad.gather_rows(blend[0], per_cand)
        other = ad.gather_rows(blend[1], ids.ravel())
        cands = ad.add(ad.mul(alpha, cands), ad.mul(ad.sub(constant(1.0), alpha), other))
    rows = direction_rows_per_row(direction, ad.gather_rows(fixed, per_cand),
                                  ad.gather_rows(r, per_cand), cands, kind)
    return ad.reshape(rows, (m, k))


def two_formula_complex_query_vectors(fixed, r, direction):
    """ComplEx query vectors with a formula of their own per direction, as
    decoder.query_vectors wrote them before subject queries went through the
    conjugate relation."""
    d = fixed.shape[-1]
    half = d // 2
    (f_re, f_im), (r_re, r_im) = ((ad.columns(x, 0, half), ad.columns(x, half, d))
                                  for x in (fixed, r))
    if direction == "object":   # [r_re s_re - r_im s_im | r_re s_im + r_im s_re]
        re = ad.sub(ad.mul(r_re, f_re), ad.mul(r_im, f_im))
        im = ad.add(ad.mul(r_re, f_im), ad.mul(r_im, f_re))
    else:                       # [r_re o_re + r_im o_im | r_re o_im - r_im o_re]
        re = ad.add(ad.mul(r_re, f_re), ad.mul(r_im, f_im))
        im = ad.sub(ad.mul(r_re, f_im), ad.mul(r_im, f_re))
    return ad.concat([re, im], axis=1)


def score_one(s, r, o, kind):
    """Scalar score of a single triple of plain vectors, through the training
    scorer with the object as the one candidate."""
    s, r, o = (constant(np.asarray(v, dtype=np.float64).reshape(1, -1)) for v in (s, r, o))
    return float(decoder.score_rows(s, r, o, [[0]], kind, "object").data[0, 0])


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
        # both query directions, gating off and on; ids repeat within a row
        rng = np.random.default_rng(2)
        ids = np.array([[1, 1, 4], [0, 2, 0], [3, 1, 1]])
        for direction in ("object", "subject"):
            for gated in (False, True):
                arrays = [rng.normal(size=(3, 4)), rng.normal(size=(3, 4)),
                          rng.normal(size=(5, 4))]
                if gated:
                    arrays += [rng.uniform(size=(3, 1)), rng.normal(size=(5, 4))]

                def build(fixed, r, table, *blend):
                    return ad.reduce_sum(ad.tanh(decoder.score_rows(
                        fixed, r, table, ids, kind, direction, blend or None)))

                tape = Tape()
                leaves = [tape.leaf(a) for a in arrays]
                gmap = tape.backward(build(*leaves))
                analytic = [gmap[leaf.node_id] for leaf in leaves]
                numeric = finite_difference(
                    lambda *arrs: build(*[constant(a) for a in arrs]).item(), arrays)
                assert max_relative_error(analytic, numeric) < 1e-5, (direction, gated)

    @pytest.mark.parametrize("kind", decoder.DECODERS)
    def test_one_row_against_many_equals_materialised_copies(self, kind):
        # the per-query scorer oracle scores one fixed row and one relation row
        # against every candidate; it must equal the per-row form on tiled copies
        # bit for bit
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
            got = score_rows_per_row(*broadcast, kind).data
            want = score_rows_per_row(*copies, kind).data
            assert got.shape == (e, 1)
            np.testing.assert_array_equal(got, want)


class TestScoreRows:
    @pytest.mark.parametrize("kind", decoder.DECODERS)
    @pytest.mark.parametrize("direction", ["object", "subject"])
    @pytest.mark.parametrize("gated", [False, True])
    def test_matches_per_candidate_oracle(self, kind, direction, gated):
        # the answer (column 0) is drawn again as a negative in rows 0 and 2,
        # and row 1 repeats one negative: repeated ids add up in backward
        rng = np.random.default_rng(8)
        m, e, d = 4, 7, 6
        arrays = {"fixed": rng.normal(size=(m, d)), "r": rng.normal(size=(m, d)),
                  "table": rng.normal(size=(e, d))}
        if gated:
            arrays |= {"alpha": rng.uniform(size=(m, 1)), "other": rng.normal(size=(e, d))}
        ids = np.array([[2, 5, 2, 0], [6, 1, 1, 3], [4, 4, 0, 4], [0, 6, 5, 2]])
        weights = rng.normal(size=ids.shape)
        results = []
        for fn in (decoder.score_rows, score_rows_per_candidate):
            tape = Tape()
            leaves = {name: tape.leaf(a) for name, a in arrays.items()}
            blend = (leaves["alpha"], leaves["other"]) if gated else None
            scores = fn(leaves["fixed"], leaves["r"], leaves["table"], ids, kind,
                        direction, blend)
            grads = tape.backward(ad.reduce_sum(ad.mul(ad.tanh(scores),
                                                       constant(weights))))
            results.append((scores.data, {name: grads[leaf.node_id]
                                          for name, leaf in leaves.items()}))
        (got, got_grads), (want, want_grads) = results
        assert got.shape == ids.shape
        assert scaled_error(got, want) <= 1e-12
        for name in arrays:
            assert scaled_error(got_grads[name], want_grads[name]) <= 1e-12, name

    @pytest.mark.parametrize("kind", ["distmult", "complex"])
    def test_query_vectors_on_and_off_tape_agree(self, kind):
        rng = np.random.default_rng(9)
        fixed, r = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        tape = Tape()
        for direction in ("object", "subject"):
            on = decoder.query_vectors(tape.leaf(fixed), tape.leaf(r), kind, direction)
            off = decoder.query_vectors(constant(fixed), constant(r), kind, direction)
            assert on.tape is tape and off.tape is None
            np.testing.assert_array_equal(on.data, off.data)

    @pytest.mark.parametrize("on_tape", [(True, True), (True, False), (False, True),
                                         (False, False)])
    @pytest.mark.parametrize("direction", ["object", "subject"])
    @pytest.mark.parametrize("seed", range(3))
    def test_complex_matches_two_formula_oracle(self, seed, direction, on_tape):
        """Subject queries through conj(r) give the two-formula vectors and
        gradients bit for bit; ``on_tape`` puts (fixed, r) on the tape or not."""
        rng = np.random.default_rng(seed)
        m, e, d = 5, 7, 8
        fixed, r, table = (rng.normal(size=shape) for shape in ((m, d), (m, d), (e, d)))
        ids = rng.integers(0, e, size=(m, 4))
        weights = rng.normal(size=ids.shape)
        results = []
        for fn in (lambda f, rel: decoder.query_vectors(f, rel, "complex", direction),
                   lambda f, rel: two_formula_complex_query_vectors(f, rel, direction)):
            tape = Tape()
            inputs = [tape.leaf(x) if on else constant(x) for x, on in zip((fixed, r), on_tape)]
            qv = fn(*inputs)
            grads = {}
            if any(on_tape):
                scores = ad.gathered_dots(qv, tape.leaf(table), ids)
                found = tape.backward(ad.reduce_sum(ad.mul(ad.tanh(scores), constant(weights))))
                grads = {name: found[x.node_id] for name, x in zip(("fixed", "r"), inputs)
                         if x.tape is tape}
            results.append((qv.data, grads))
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_array_equal(got, want)
        assert got_grads.keys() == want_grads.keys() == {
            name for name, on in zip(("fixed", "r"), on_tape) if on}
        for name in want_grads:
            np.testing.assert_array_equal(got_grads[name], want_grads[name], err_msg=name)

    def test_bad_arguments_rejected(self):
        rows = constant(np.ones((2, 4)))
        ids = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ValueError):
            decoder.score_rows(rows, rows, rows, ids, "complex", "relation")
        with pytest.raises(ValueError):
            decoder.score_rows(rows, rows, rows, ids, "transe", "relation")
        with pytest.raises(ValueError):
            decoder.query_vectors(rows, rows, "transe", "object")


def candidate_rows_per_query(fixed, r, table, kind, direction, blend=None):
    """Oracle: one ``score_rows_per_row`` call per query against its (E, d)
    candidates."""
    out = np.empty((len(fixed), len(table)))
    for i in range(len(fixed)):
        cands = table
        if blend is not None:
            alpha, other = blend
            cands = alpha[i] * table + (1.0 - alpha[i]) * other
        f, rel, c = constant(fixed[i:i + 1]), constant(r[i:i + 1]), constant(cands)
        out[i] = direction_rows_per_row(direction, f, rel, c, kind).data[:, 0]
    return out


def every_entity_scores(fixed, r, table, kind, direction, blend=None):
    """``score_rows`` off the tape with every entity as each query's candidates,
    as the evaluation scorer calls it."""
    ids = np.broadcast_to(np.arange(len(table)), (len(fixed), len(table)))
    if blend is not None:
        blend = (constant(blend[0]), constant(blend[1]))
    return decoder.score_rows(constant(fixed), constant(r), constant(table), ids,
                              kind, direction, blend).data


class TestCandidateScores:
    @pytest.mark.parametrize("kind", decoder.DECODERS)
    @pytest.mark.parametrize("direction", ["object", "subject"])
    @pytest.mark.parametrize("gated", [False, True])
    @pytest.mark.parametrize("chunk", [None, 1, 2 * 11 * 6])
    def test_matches_score_rows(self, monkeypatch, kind, direction, gated, chunk):
        if chunk is not None:   # TransE blocks of 1 query and of 2 queries
            monkeypatch.setattr(decoder, "_CHUNK_ELEMENTS", chunk)
        rng = np.random.default_rng(7)
        q, e, d = 5, 11, 6
        fixed, r = rng.normal(size=(q, d)), rng.normal(size=(q, d))
        table = rng.normal(size=(e, d))
        blend = (rng.uniform(size=(q, 1)), rng.normal(size=(e, d))) if gated else None
        got = every_entity_scores(fixed, r, table, kind, direction, blend)
        want = candidate_rows_per_query(fixed, r, table, kind, direction, blend)
        assert got.shape == (q, e)
        assert scaled_error(got, want) <= 1e-12

    @pytest.mark.parametrize("kind", ["distmult", "complex"])
    @pytest.mark.parametrize("gated", [False, True])
    def test_bilinear_scores_are_one_product_per_table(self, kind, gated):
        # bit for bit the (q, d) @ (d, E) product, and alpha * A + (1 - alpha) * B
        rng = np.random.default_rng(5)
        q, e, d = 4, 9, 6
        fixed, r, table = (rng.normal(size=s) for s in ((q, d), (q, d), (e, d)))
        blend = (rng.uniform(size=(q, 1)), rng.normal(size=(e, d))) if gated else None
        qv = decoder.query_vectors(constant(fixed), constant(r), kind, "object").data
        want = qv @ table.T
        if gated:
            want = blend[0] * want + (1.0 - blend[0]) * (qv @ blend[1].T)
        np.testing.assert_array_equal(
            every_entity_scores(fixed, r, table, kind, "object", blend), want)

    @pytest.mark.parametrize("gated", [False, True])
    def test_transe_blocks_keep_scores_and_gradients(self, monkeypatch, gated):
        rng = np.random.default_rng(6)
        m, e, d = 5, 7, 4
        arrays = {"fixed": rng.normal(size=(m, d)), "r": rng.normal(size=(m, d)),
                  "table": rng.normal(size=(e, d))}
        if gated:
            arrays |= {"alpha": rng.uniform(size=(m, 1)), "other": rng.normal(size=(e, d))}
        ids = rng.integers(0, e, size=(m, 3))
        results = []
        for chunk in (decoder._CHUNK_ELEMENTS, 2 * 3 * d):   # one block, then blocks of 2
            monkeypatch.setattr(decoder, "_CHUNK_ELEMENTS", chunk)
            tape = Tape()
            leaves = {name: tape.leaf(a) for name, a in arrays.items()}
            blend = (leaves["alpha"], leaves["other"]) if gated else None
            scores = decoder.score_rows(leaves["fixed"], leaves["r"], leaves["table"],
                                        ids, "transe", "subject", blend)
            grads = tape.backward(ad.reduce_sum(ad.mul(scores, scores)))
            results.append((scores.data, [grads[leaf.node_id] for leaf in leaves.values()]))
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_array_equal(got, want)
        for g, w in zip(got_grads, want_grads):   # blocks add up in another order
            assert scaled_error(g, w) <= 1e-12

    @pytest.mark.parametrize("kind", decoder.DECODERS)
    def test_empty_query_set(self, kind):
        rows, table = np.ones((0, 4)), np.ones((3, 4))
        assert every_entity_scores(rows, rows, table, kind, "object").shape == (0, 3)

    def test_bad_arguments_rejected(self):
        rows = np.ones((2, 3))
        with pytest.raises(ValueError):
            every_entity_scores(rows, rows, rows, "complex", "object")
        with pytest.raises(ValueError):
            every_entity_scores(rows, rows, rows, "rescal", "object")
        with pytest.raises(ValueError):
            every_entity_scores(rows, rows, rows, "distmult", "relation")


def tiny_dataset():
    return train_dataset(3, 1, 1, [(0, 0, 1, 0)])


def sample_negatives_setdiff(true_sets, answers, k, rng, entity_count):
    """Oracle: draw from the explicit complement of each slot's true set."""
    out = []
    for true_set, answer in zip(true_sets, answers):
        valid = np.setdiff1d(np.arange(entity_count), true_set)
        if valid.size == 0:
            valid = np.setdiff1d(np.arange(entity_count), [answer])
        out.append(valid[rng.integers(0, valid.size, size=k)])
    return out[0], out[1]


class FixedIndex:
    """A true-triple index that gives the same sorted sets to every query."""

    def __init__(self, objects, subjects):
        self.objects = np.array(sorted(objects), dtype=np.int64)
        self.subjects = np.array(sorted(subjects), dtype=np.int64)

    def filter_sets(self, direction, triples, t):
        ids = self.objects if direction == "object" else self.subjects
        return np.repeat(np.arange(len(triples)), ids.size), np.tile(ids, len(triples))


def mixed_dataset():
    """One snapshot over 6 entities whose object queries include every case:
    relation 0 has all 6 objects known-true, relation 1 leaves 1 valid, relation 2
    leaves 2 (fewer than k = 3), relation 3 leaves 5; its subject queries are
    all-true for relation 3 and ordinary otherwise."""
    facts = ([(0, 0, o) for o in range(6)] + [(1, 1, o) for o in range(5)]
             + [(2, 2, o) for o in range(4)] + [(s, 3, 5) for s in range(6)])
    return train_dataset(6, 4, 1, [(*fact, 0) for fact in facts])


ONE_FACT = np.array([[0, 0, 1]], dtype=np.int64)


class TestNegativeSampling:
    def test_rejects_known_true_completions(self):
        index = build_true_index(tiny_dataset())
        rng = np.random.default_rng(3)
        obj, sub = decoder.sample_negatives(ONE_FACT, 0, index, k=2, rng=rng,
                                            entity_count=3)
        assert obj.shape == sub.shape == (1, 2)
        assert set(obj.ravel().tolist()) <= {0, 2}
        assert set(sub.ravel().tolist()) <= {1, 2}

    def test_deterministic_per_seed(self):
        index = build_true_index(tiny_dataset())
        a = decoder.sample_negatives(ONE_FACT, 0, index, 5, np.random.default_rng(9), 3)
        b = decoder.sample_negatives(ONE_FACT, 0, index, 5, np.random.default_rng(9), 3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_small_vocabulary_samples_with_replacement_and_counts(self, caplog):
        index = build_true_index(tiny_dataset())
        tally = Counter(queries=5)
        with caplog.at_level("WARNING", logger="tempkg"):
            obj, _ = decoder.sample_negatives(ONE_FACT, 0, index, k=10,
                                              rng=np.random.default_rng(4), entity_count=3,
                                              tally=tally)
        assert obj.shape == (1, 10)
        # both directions of the one query are short; the tally adds to its counts
        assert tally == Counter(queries=7, full=0, short=2)
        assert caplog.records == []

    def test_one_entity_vocabulary_fails_clearly(self):
        # the only entity is every fact's answer, so no corruption exists
        ds = train_dataset(1, 1, 1, [(0, 0, 0, 0)])
        with pytest.raises(ValueError, match="at least 2 entities.*no corruption"):
            decoder.sample_negatives(ds.splits["train"][0].triples, 0, build_true_index(ds), k=3,
                                     rng=np.random.default_rng(0), entity_count=1)

    def test_empirical_uniformity(self):
        # 1e5 draws over a 7128-entity vocabulary: every per-entity count stays
        # within 4 sigma of the uniform expectation (frozen seed)
        e = 7128
        ds = train_dataset(e, 1, 1, [(0, 0, 1, 0)])
        index = build_true_index(ds)
        rng = np.random.default_rng(12345)
        obj, _ = decoder.sample_negatives(ONE_FACT, 0, index, k=100_000, rng=rng,
                                          entity_count=e)
        counts = np.bincount(obj[0], minlength=e)
        assert counts[1] == 0  # the true object never appears
        valid = e - 1
        p = 1.0 / valid
        mean = 100_000 * p
        sigma = np.sqrt(100_000 * p * (1 - p))
        deviation = np.abs(np.delete(counts, 1) - mean)
        assert deviation.max() <= 4 * sigma

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_complement_oracle_on_random_true_sets(self, seed):
        rng = np.random.default_rng(seed)
        e = int(rng.integers(2, 40))
        objects, subjects = (rng.choice(e, size=int(rng.integers(0, e)), replace=False)
                             for _ in range(2))
        index = FixedIndex(objects, subjects)
        got = decoder.sample_negatives(ONE_FACT, 0, index, 50, np.random.default_rng(seed), e)
        want = sample_negatives_setdiff((index.objects, index.subjects), (1, 0), 50,
                                        np.random.default_rng(seed), e)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g[0], w)

    def test_full_true_set_falls_back_to_all_but_answer(self, caplog):
        e = 6
        index = FixedIndex(range(e), range(e))
        tally = Counter()
        with caplog.at_level("WARNING", logger="tempkg"):
            got = decoder.sample_negatives(np.array([[2, 0, 4]]), 0, index, 30,
                                           np.random.default_rng(1), e, tally)
        want = sample_negatives_setdiff((index.objects, index.subjects), (4, 2), 30,
                                        np.random.default_rng(1), e)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g[0], w)
        assert 4 not in got[0] and 2 not in got[1]
        assert tally == Counter(queries=2, full=2, short=0)
        assert caplog.records == []

    def test_fewer_valid_ids_than_k_matches_oracle_and_counts(self):
        e = 10
        index = FixedIndex([0, 3, 4, 5, 9], [1, 2, 6, 7, 8])
        tally = Counter()
        got = decoder.sample_negatives(np.array([[1, 0, 3]]), 0, index, 12,
                                       np.random.default_rng(2), e, tally)
        want = sample_negatives_setdiff((index.objects, index.subjects), (3, 1), 12,
                                        np.random.default_rng(2), e)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g[0], w)
        assert set(got[0].ravel().tolist()) <= {1, 2, 6, 7, 8}
        assert tally == Counter(queries=2, full=0, short=2)

    @pytest.mark.parametrize("seed", range(3))
    def test_snapshot_matches_per_positive_oracle(self, seed, caplog):
        """Every row of one call equals the per-positive draw of the same
        generator, and the generator ends in the same state; the tally counts
        the full and short queries of both directions (object 6 and 9, subject
        6 and 0), and nothing is logged."""
        ds = mixed_dataset()
        triples, k = ds.splits["train"][0].triples, 3
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        tally = Counter()
        with caplog.at_level("WARNING", logger="tempkg"):
            got = decoder.sample_negatives(triples, 0, build_true_index(ds), k, got_rng,
                                           ds.entity_count, tally)
        oracle = DictTrueTripleIndex(ds)
        for i, (s, r, o) in enumerate(triples.tolist()):
            want = per_positive_sample_negatives(s, r, o, 0, oracle, k, want_rng,
                                                 ds.entity_count)
            np.testing.assert_array_equal(got[0][i], want[0])
            np.testing.assert_array_equal(got[1][i], want[1])
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert tally == Counter(queries=2 * 21, full=6 + 6, short=9 + 0)
        assert caplog.records == []

    def test_array_bound_integers_match_per_bound_calls(self):
        """sample_negatives draws a snapshot's offsets in one rng.integers call
        with per-row bounds; numpy gives the values, and leaves the generator
        state, that one call per bound in row order would."""
        cases = np.random.default_rng(0)
        for _ in range(50):
            shape = (int(cases.integers(1, 30)), 2, 1)
            highs = np.where(cases.random(shape) < 0.2, 1, cases.integers(1, 10_000, shape))
            k = int(cases.integers(1, 20))
            got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
            got = got_rng.integers(0, highs, size=(shape[0], 2, k))
            want = [want_rng.integers(0, high, size=k) for high in highs.ravel().tolist()]
            np.testing.assert_array_equal(got.reshape(-1, k), np.stack(want))
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_k_must_be_positive(self):
        index = build_true_index(tiny_dataset())
        with pytest.raises(ValueError):
            decoder.sample_negatives(ONE_FACT, 0, index, 0, np.random.default_rng(0), 3)


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
