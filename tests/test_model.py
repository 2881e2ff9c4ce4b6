import numpy as np
import pytest

from tempkg import autodiff as ad
from tempkg import decoder as dec
from tempkg.autodiff import Tape, constant
from tempkg.heterogeneity import compute_tpf
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
        fixed = model._blend_rows(fixed_alpha, ad.gather_rows(ctx.x, fixed_idx),
                                  ad.gather_rows(ctx.z, fixed_idx))
        cols = []
        for ids in [true_idx] + [negs[:, j] for j in range(negs.shape[1])]:
            cand = model._blend_rows(cand_alpha, ad.gather_rows(ctx.x, ids),
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
