import numpy as np
import pytest

from tempkg import autodiff as ad
from tempkg import decoder as dec
from tempkg import heterogeneity as het
from tempkg import rgcn
from tempkg.autodiff import Tape, constant
from tempkg.data import build_true_index
from tempkg.evaluation import evaluate
from tempkg.heterogeneity import compute_tpf
from tempkg.optim import AdamState
from tempkg.model import (ModelConfig, TempModel, grads_by_name, init_params,
                          leaves_on_tape)
from tempkg.synth import SynthSpec, generate_synthetic

from gradcheck import scaled_error


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_synthetic(SynthSpec(entities=8, relations=2, steps=5,
                                        density=1.0, periodicity=0.5), seed=4)


def scorer_matrix(config, dataset, seed=3):
    params = init_params(config, dataset.entity_count, dataset.relation_count,
                         dataset.step_count, seed)
    model = TempModel(config, dataset, params)
    scorer = model.snapshot_scorer(None)
    t = dataset.step_count - 1
    triples = dataset.splits["train"][t].triples
    if not len(triples):
        triples = np.array([[0, 0, 1]], dtype=np.int64)
    return scorer(t, triples)


def blend_rows(alpha_col, x_rows, z_rows):
    return z_rows if alpha_col is None else het.blend(alpha_col, x_rows, z_rows)


def _row(tensor, i):
    return ad.gather_rows(tensor, np.array([i], dtype=np.int64))


def snapshot_scorer_per_query(model, tpf=None):
    """Oracle: re-encodes the whole window for every target step, then scores
    one query at a time, its fixed row and relation row broadcast by
    ``score_rows`` against the (E, d) candidate blend built for that query."""
    e = model.dataset.entity_count

    def scorer(t, triples):
        ctx = model.eval_context(t)
        leaves = {name: constant(arr) for name, arr in model.params.items()}
        out = []
        for direction in ("object", "subject"):
            if model.config.gating and tpf is not None:
                fixed_alpha, cand_alpha = model._gate_alphas(leaves, tpf, direction,
                                                             triples, t)
            else:
                fixed_alpha = cand_alpha = None
            rows = np.empty((len(triples), e))
            for i, (s, r, o) in enumerate(triples.tolist()):
                fixed_id = s if direction == "object" else o
                fa = None if fixed_alpha is None else _row(fixed_alpha, i)
                ca = None if cand_alpha is None else _row(cand_alpha, i)
                fixed = blend_rows(fa, _row(ctx.x, fixed_id), _row(ctx.z, fixed_id))
                cand = blend_rows(ca, ctx.x, ctx.z)
                scores = model._direction_scores(direction, fixed, _row(ctx.relation, r),
                                                 cand)
                rows[i] = scores.data[:, 0]
            out.append(rows)
        return out[0], out[1]

    return scorer


def snapshot_loss_per_negative(model, leaves, ctx, triples, negatives, tpf):
    """Oracle: one gather, blend and decoder call per negative column; the
    score columns are joined into the (m, 1 + k) matrix ``query_loss`` takes."""
    cfg = model.config
    subjects, rels, objects = triples[:, 0], triples[:, 1], triples[:, 2]
    r_emb = ad.gather_rows(ctx.relation, rels)
    total = None
    for direction, fixed_idx, true_idx, negs in (
            ("object", subjects, objects, negatives[0]),
            ("subject", objects, subjects, negatives[1])):
        if cfg.gating and tpf is not None:
            fixed_alpha, cand_alpha = model._gate_alphas(leaves, tpf, direction,
                                                         triples, ctx.time)
        else:
            fixed_alpha = cand_alpha = None
        fixed = blend_rows(fixed_alpha, ad.gather_rows(ctx.x, fixed_idx),
                           ad.gather_rows(ctx.z, fixed_idx))
        cols = []
        for ids in [true_idx] + [negs[:, j] for j in range(negs.shape[1])]:
            cand = blend_rows(cand_alpha, ad.gather_rows(ctx.x, ids),
                              ad.gather_rows(ctx.z, ids))
            cols.append(model._direction_scores(direction, fixed, r_emb, cand))
        loss = dec.query_loss(ad.concat(cols, axis=1), mode=cfg.loss_mode)
        total = loss if total is None else ad.add(total, loss)
    return total


class TestInit:
    def test_deterministic_and_name_stable(self):
        cfg = ModelConfig(variant="temp-gru", dim=8, layers=1, window=2, heads=2)
        a = init_params(cfg, 5, 2, 4, seed=9)
        b = init_params(cfg, 5, 2, 4, seed=9)
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_shared_params_identical_across_variants(self):
        base = dict(dim=8, layers=2, window=2, heads=2)
        gru = init_params(ModelConfig(variant="temp-gru", **base), 5, 2, 4, seed=9)
        srgcn = init_params(ModelConfig(variant="srgcn", **base), 5, 2, 4, seed=9)
        for name in srgcn:
            assert np.array_equal(gru[name], srgcn[name]), name

    def test_optional_parts_present_only_when_enabled(self):
        cfg = ModelConfig(variant="temp-sa", dim=8, heads=2, gating=True,
                          imputation=True, positional=True, window=3)
        params = init_params(cfg, 5, 2, 4, seed=0)
        assert "gate.os.w1" in params and "pos.embed" in params
        assert "decay.x.lam" in params
        vanilla = init_params(ModelConfig(variant="srgcn", dim=8), 5, 2, 4, seed=0)
        assert not any(k.startswith(("gate.", "sa.", "gru.")) for k in vanilla)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(variant="rgat")
        with pytest.raises(ValueError):
            ModelConfig(variant="temp-sa", dim=10, heads=4)
        with pytest.raises(ValueError):
            ModelConfig(window=-1)


class TestWindows:
    def test_unidirectional_clipped_at_origin(self, tiny_dataset):
        cfg = ModelConfig(variant="temp-gru", dim=4, layers=1, window=3, heads=2)
        model = TempModel(cfg, tiny_dataset, {})
        assert model.window_positions(1) == ([0, 1], 1)
        assert model.window_positions(4) == ([1, 2, 3, 4], 3)

    def test_bidirectional_splits_budget(self, tiny_dataset):
        cfg = ModelConfig(variant="temp-gru", dim=4, layers=1, window=4, heads=2,
                          bidirectional=True)
        model = TempModel(cfg, tiny_dataset, {})
        steps, pos = model.window_positions(2)
        assert steps == [0, 1, 2, 3, 4]
        assert steps[pos] == 2

    def test_srgcn_sees_only_current_step(self, tiny_dataset):
        cfg = ModelConfig(variant="srgcn", dim=4, layers=1, window=15)
        model = TempModel(cfg, tiny_dataset, {})
        assert model.window_positions(3) == ([3], 0)


class TestVariantEquivalence:
    def test_zero_window_gru_equals_srgcn_scores(self, tiny_dataset):
        # no temporal context degenerates onto the structural baseline exactly
        base = dict(decoder="complex", dim=8, layers=2, heads=2)
        gru0 = scorer_matrix(ModelConfig(variant="temp-gru", window=0, **base),
                             tiny_dataset)
        srgcn = scorer_matrix(ModelConfig(variant="srgcn", window=0, **base),
                              tiny_dataset)
        np.testing.assert_array_equal(gru0[0], srgcn[0])
        np.testing.assert_array_equal(gru0[1], srgcn[1])

    def test_window_changes_scores(self, tiny_dataset):
        base = dict(decoder="complex", dim=8, layers=2, heads=2)
        gru0 = scorer_matrix(ModelConfig(variant="temp-gru", window=0, **base),
                             tiny_dataset)
        gru3 = scorer_matrix(ModelConfig(variant="temp-gru", window=3, **base),
                             tiny_dataset)
        assert not np.array_equal(gru0[0], gru3[0])


class TestImputation:
    def test_pure_copy_when_decay_is_unit(self, tiny_dataset):
        # with gamma forced to 1 the inactive entity's target row becomes its
        # stale row exactly
        cfg = ModelConfig(variant="temp-gru", decoder="distmult", dim=4, layers=1,
                          window=2, heads=2, imputation=True)
        ds = tiny_dataset
        params = init_params(cfg, ds.entity_count, ds.relation_count,
                             ds.step_count, seed=5)
        params["decay.x.lam"] = np.array([[0.0]])
        params["decay.x.b"] = np.array([[0.0]])
        model = TempModel(cfg, ds, params)
        t = ds.step_count - 1
        window, target_pos = model.window_triples(t)
        leaves = {k: constant(v) for k, v in params.items()}
        ctx = model.encode_context(leaves, t, window, target_pos)

        active_now = np.zeros(ds.entity_count, dtype=bool)
        if len(window[target_pos]):
            active_now[np.unique(window[target_pos][:, [0, 2]])] = True
        last_active = np.full(ds.entity_count, -1)
        for pos in range(target_pos):
            if len(window[pos]):
                last_active[np.unique(window[pos][:, [0, 2]])] = pos

        cfg_off = ModelConfig(variant="temp-gru", decoder="distmult", dim=4, layers=1,
                              window=2, heads=2, imputation=False)
        model_off = TempModel(cfg_off, ds, params)
        ctx_off = model_off.encode_context(leaves, t, window, target_pos)
        from tempkg import rgcn
        for e in range(ds.entity_count)[:6]:
            if not active_now[e] and last_active[e] >= 0:
                stale = rgcn.encode_snapshot(window[last_active[e]], leaves,
                                             entity_count=ds.entity_count,
                                             relation_count=ds.relation_count,
                                             layers=1).data[e]
                np.testing.assert_allclose(ctx.x.data[e], stale, atol=1e-12)
            elif active_now[e]:
                np.testing.assert_allclose(ctx.x.data[e], ctx_off.x.data[e],
                                           atol=1e-12)


class TestCheckpointRoundTrip:
    def test_scores_bitwise_equal_after_save_load(self, tiny_dataset, tmp_path):
        from tempkg.checkpoint import load_checkpoint, save_checkpoint
        ds = tiny_dataset
        cfg = ModelConfig(variant="temp-gru", decoder="complex", dim=8, layers=2,
                          window=3, heads=2)
        params = init_params(cfg, ds.entity_count, ds.relation_count,
                             ds.step_count, seed=8)
        t = ds.step_count - 1
        triples = ds.splits["train"][t].triples
        before = TempModel(cfg, ds, params).snapshot_scorer(None)(t, triples)
        save_checkpoint(tmp_path / "m.ckpt", params)
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        after = TempModel(cfg, ds, loaded).snapshot_scorer(None)(t, triples)
        assert before[0].tobytes() == after[0].tobytes()
        assert before[1].tobytes() == after[1].tobytes()


class TestTrainingGradients:
    def test_gradients_reach_every_used_parameter(self, tiny_dataset):
        ds = tiny_dataset
        cfg = ModelConfig(variant="temp-gru", decoder="complex", dim=4, layers=1,
                          window=2, heads=2, gating=True, imputation=True)
        params = init_params(cfg, ds.entity_count, ds.relation_count,
                             ds.step_count, seed=6)
        from tempkg.heterogeneity import compute_tpf
        tpf = compute_tpf(ds)
        model = TempModel(cfg, ds, params)
        tape = Tape()
        leaves = leaves_on_tape(tape, params)
        t = ds.step_count - 1
        window, target_pos = model.window_triples(t)
        ctx = model.encode_context(leaves, t, window, target_pos)
        triples = ds.splits["train"][t].triples
        rng = np.random.default_rng(0)
        negs = (rng.integers(0, ds.entity_count, size=(len(triples), 3)),
                rng.integers(0, ds.entity_count, size=(len(triples), 3)))
        loss = model.snapshot_loss(leaves, ctx, triples, negs, tpf)
        grads = grads_by_name(tape, leaves, loss, params)
        assert np.isfinite(loss.item())
        for name in ("entity.base", "relation.embed", "rgcn.l0.self",
                     "gru.f.wz", "decay.z.lam", "gate.os.w1", "gate.ss.w2"):
            assert np.any(grads[name] != 0.0), f"no gradient reached {name}"

    def test_positional_table_receives_gradient(self, tiny_dataset):
        ds = tiny_dataset
        cfg = ModelConfig(variant="temp-sa", decoder="distmult", dim=4, layers=1,
                          window=2, heads=2, positional=True)
        params = init_params(cfg, ds.entity_count, ds.relation_count,
                             ds.step_count, seed=7)
        model = TempModel(cfg, ds, params)
        tape = Tape()
        leaves = leaves_on_tape(tape, params)
        t = ds.step_count - 1
        window, target_pos = model.window_triples(t)
        ctx = model.encode_context(leaves, t, window, target_pos)
        triples = ds.splits["train"][t].triples
        rng = np.random.default_rng(1)
        negs = (rng.integers(0, ds.entity_count, size=(len(triples), 2)),
                rng.integers(0, ds.entity_count, size=(len(triples), 2)))
        loss = model.snapshot_loss(leaves, ctx, triples, negs, None)
        grads = grads_by_name(tape, leaves, loss, params)
        assert np.any(grads["pos.embed"][t] != 0.0)
        other_rows = np.delete(grads["pos.embed"], t, axis=0)
        assert np.all(other_rows == 0.0)

    @pytest.mark.parametrize("decoder", ["transe", "distmult", "complex"])
    @pytest.mark.parametrize("gating", [False, True])
    @pytest.mark.parametrize("loss_mode", ["cross_entropy", "prob_sum"])
    def test_candidate_matrix_matches_per_negative_oracle(self, tiny_dataset, decoder,
                                                          gating, loss_mode):
        ds = tiny_dataset
        cfg = ModelConfig(variant="temp-gru", decoder=decoder, dim=4, layers=1,
                          window=2, heads=2, gating=gating, imputation=True,
                          loss_mode=loss_mode)
        params = init_params(cfg, ds.entity_count, ds.relation_count,
                             ds.step_count, seed=9)
        model = TempModel(cfg, ds, params)
        tpf = compute_tpf(ds)
        t = ds.step_count - 1
        window, target_pos = model.window_triples(t)
        triples = ds.splits["train"][t].triples
        rng = np.random.default_rng(2)
        negs = (rng.integers(0, ds.entity_count, size=(len(triples), 4)),
                rng.integers(0, ds.entity_count, size=(len(triples), 4)))
        results = []
        for loss_fn in (model.snapshot_loss,
                        lambda *a: snapshot_loss_per_negative(model, *a)):
            tape = Tape()
            leaves = leaves_on_tape(tape, params)
            ctx = model.encode_context(leaves, t, window, target_pos)
            loss = loss_fn(leaves, ctx, triples, negs, tpf)
            results.append((loss.item(), grads_by_name(tape, leaves, loss, params)))
        (got_loss, got), (want_loss, want) = results
        assert scaled_error(got_loss, want_loss) <= 1e-12
        for name in params:
            assert scaled_error(got[name], want[name]) <= 1e-12, name
        if gating:
            assert np.any(want["gate.oo.w1"] != 0.0)


@pytest.fixture(scope="module")
def eval_dataset():
    return generate_synthetic(SynthSpec(entities=12, relations=3, steps=9, density=1.0,
                                        periodicity=0.5, period=2,
                                        valid_fraction=0.2, test_fraction=0.2), seed=5)


SCORER_MODELS = {
    "temp-sa": dict(variant="temp-sa", window=3, heads=2),
    "temp-gru-bidirectional-imputation": dict(variant="temp-gru", window=4,
                                              bidirectional=True, imputation=True),
    "srgcn": dict(variant="srgcn"),
}


def scorer_model(dataset, decoder, gating, variant_kwargs, seed=11):
    cfg = ModelConfig(decoder=decoder, dim=8, layers=2, gating=gating, **variant_kwargs)
    params = init_params(cfg, dataset.entity_count, dataset.relation_count,
                         dataset.step_count, seed)
    return TempModel(cfg, dataset, params)


def train_snapshots(dataset):
    return [(snap.time, snap.triples) for snap in dataset.splits["train"] if len(snap)]


class TestSnapshotScorer:
    @pytest.mark.parametrize("model_name", sorted(SCORER_MODELS))
    @pytest.mark.parametrize("decoder", ["transe", "distmult", "complex"])
    @pytest.mark.parametrize("gating", [False, True])
    def test_matches_per_query_oracle(self, eval_dataset, model_name, decoder, gating):
        model = scorer_model(eval_dataset, decoder, gating, SCORER_MODELS[model_name])
        tpf = compute_tpf(eval_dataset)
        scorer = model.snapshot_scorer(tpf)
        oracle = snapshot_scorer_per_query(model, tpf)
        for t, triples in train_snapshots(eval_dataset):
            for got, want in zip(scorer(t, triples), oracle(t, triples)):
                assert got.shape == (len(triples), eval_dataset.entity_count)
                assert scaled_error(got, want) <= 1e-12, (t, got, want)


class TestSnapshotCache:
    @pytest.mark.parametrize("model_name", ["temp-sa", "temp-gru-bidirectional-imputation"])
    def test_evaluate_encodes_each_touched_step_once(self, eval_dataset, monkeypatch,
                                                     model_name):
        model = scorer_model(eval_dataset, "complex", False, SCORER_MODELS[model_name])
        step_of = {id(snap.triples): snap.time for snap in eval_dataset.splits["train"]}
        encoded = []
        original = rgcn.encode_snapshot

        def spy(triples, *args, **kwargs):
            encoded.append(step_of[id(triples)])
            return original(triples, *args, **kwargs)

        monkeypatch.setattr(rgcn, "encode_snapshot", spy)
        evaluate(eval_dataset, "test", model.snapshot_scorer(None),
                 build_true_index(eval_dataset, ("train", "valid", "test")))
        touched = {step for snap in eval_dataset.splits["test"] if len(snap)
                   for step in model.window_positions(snap.time)[0]}
        assert len(touched) > sum(1 for snap in eval_dataset.splits["test"] if len(snap))
        assert sorted(encoded) == sorted(touched)

    def test_cache_holds_one_window_and_raw_target(self, eval_dataset):
        model = scorer_model(eval_dataset, "distmult", False,
                             SCORER_MODELS["temp-gru-bidirectional-imputation"])
        cache = {}
        for t in [0, 1, 2, 5, 8, 3, 3]:
            ctx = model.eval_context(t, cache)
            steps, _ = model.window_positions(t)
            assert sorted(cache) == steps
            fresh = rgcn.encode_snapshot(eval_dataset.splits["train"][t].triples,
                                         {k: constant(v) for k, v in model.params.items()},
                                         entity_count=eval_dataset.entity_count,
                                         relation_count=eval_dataset.relation_count,
                                         layers=model.config.layers)
            # the cache keeps the structural embedding, not the imputed target
            np.testing.assert_array_equal(cache[t].data, fresh.data)
            np.testing.assert_array_equal(ctx.x.data, model.eval_context(t).x.data)

    def test_scorer_built_after_param_change_sees_new_params(self, eval_dataset):
        model = scorer_model(eval_dataset, "complex", True, SCORER_MODELS["temp-sa"])
        tpf = compute_tpf(eval_dataset)
        t, triples = train_snapshots(eval_dataset)[-1]
        before = model.snapshot_scorer(tpf)(t, triples)
        rng = np.random.default_rng(0)
        AdamState(lr=0.05).step(model.params, {name: rng.standard_normal(p.shape)
                                               for name, p in model.params.items()})
        after = model.snapshot_scorer(tpf)(t, triples)
        want = snapshot_scorer_per_query(model, tpf)(t, triples)
        assert not np.allclose(after[0], before[0])
        for got, ref in zip(after, want):
            assert scaled_error(got, ref) <= 1e-12

    def test_out_of_order_steps_score_as_ascending(self, eval_dataset):
        model = scorer_model(eval_dataset, "transe", True,
                             SCORER_MODELS["temp-gru-bidirectional-imputation"])
        tpf = compute_tpf(eval_dataset)
        snapshots = train_snapshots(eval_dataset)
        ascending = model.snapshot_scorer(tpf)
        want = {t: ascending(t, triples) for t, triples in snapshots}
        shuffled = model.snapshot_scorer(tpf)
        order = np.random.default_rng(1).permutation(len(snapshots)).tolist()
        for i in order + order[:3]:
            t, triples = snapshots[i]
            got = shuffled(t, triples)
            np.testing.assert_array_equal(got[0], want[t][0])
            np.testing.assert_array_equal(got[1], want[t][1])


def test_ungated_loss_never_gathers_structural_rows(tiny_dataset, monkeypatch):
    ds = tiny_dataset
    cfg = ModelConfig(variant="temp-gru", decoder="complex", dim=4, layers=1, window=2,
                      heads=2, imputation=True)
    model = TempModel(cfg, ds, init_params(cfg, ds.entity_count, ds.relation_count,
                                           ds.step_count, seed=3))
    tape = Tape()
    leaves = leaves_on_tape(tape, model.params)
    t = ds.step_count - 1
    window, target_pos = model.window_triples(t)
    ctx = model.encode_context(leaves, t, window, target_pos)
    assert ctx.x is not ctx.z
    sources = []
    original = ad.gather_rows

    def spy(tensor, ids):
        sources.append(tensor)
        return original(tensor, ids)

    monkeypatch.setattr(ad, "gather_rows", spy)
    triples = ds.splits["train"][t].triples
    negs = (np.zeros((len(triples), 2), dtype=np.int64),
            np.ones((len(triples), 2), dtype=np.int64))
    model.snapshot_loss(leaves, ctx, triples, negs, compute_tpf(ds))
    assert any(src is ctx.z for src in sources)
    assert not any(src is ctx.x for src in sources)
