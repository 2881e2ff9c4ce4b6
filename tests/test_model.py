import gc
import weakref

import numpy as np
import pytest

from tempkg import autodiff as ad
from tempkg import decoder as dec
from tempkg import heterogeneity as het
from tempkg import model as model_module
from tempkg import rgcn, temporal
from tempkg.autodiff import Tape, constant
from tempkg.data import build_true_index
from tempkg.evaluation import evaluate
from tempkg.heterogeneity import compute_tpf
from tempkg.optim import AdamState
from tempkg.model import (VARIANTS, ModelConfig, TempModel, grads_by_name, init_params,
                          leaves_on_tape, param_shapes)
from tempkg.synth import SynthSpec, generate_synthetic
from tempkg.temporal import decay_column

from gradcheck import scaled_error
from helpers import train_dataset, window_facts
from test_decoder import direction_rows_per_row
from test_rgcn import edge_dropout_per_snapshot, encode_per_snapshot
from test_temporal import chain_blend, encode_sa_per_step


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_synthetic(SynthSpec(entities=8, relations=2, steps=5,
                                        density=1.0, periodicity=0.5), seed=4)


@pytest.fixture(scope="module")
def sparse_dataset():
    # entities 0-6 appear here and there, step 3 is empty and 7 never appears:
    # inactive entities with a past row, a future row, both or neither
    rng = np.random.default_rng(12)
    quads = [(int(rng.integers(7)), int(rng.integers(2)), int(rng.integers(7)), t)
             for t in range(7) for _ in range(2 if t != 3 else 0)]
    return train_dataset(8, 2, 7, quads)


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
    ``score_rows_per_row`` against the (E, d) candidate blend built for that
    query."""
    e = model.dataset.entity_count

    def scorer(t, triples):
        leaves = {name: constant(arr) for name, arr in model.params.items()}
        ctx = model.eval_context(t, {}, leaves)
        out = []
        for direction in ("object", "subject"):
            if model.config.gating and tpf is not None:
                fixed_alpha, cand_alpha = model._gate_alphas(
                    leaves, tpf.frequencies(triples, t), direction)
            else:
                fixed_alpha = cand_alpha = None
            rows = np.empty((len(triples), e))
            for i, (s, r, o) in enumerate(triples.tolist()):
                fixed_id = s if direction == "object" else o
                fa = None if fixed_alpha is None else _row(fixed_alpha, i)
                ca = None if cand_alpha is None else _row(cand_alpha, i)
                fixed = blend_rows(fa, _row(ctx.x, fixed_id), _row(ctx.z, fixed_id))
                cand = blend_rows(ca, ctx.x, ctx.z)
                scores = direction_rows_per_row(direction, fixed,
                                                _row(leaves["relation.embed"], r), cand,
                                                model.config.decoder)
                rows[i] = scores.data[:, 0]
            out.append(rows)
        return out[0], out[1]

    return scorer


def snapshot_loss_per_negative(model, leaves, ctx, triples, negatives, tpf):
    """Oracle: one gather, blend and decoder call per negative column; the
    score columns are joined into the (m, 1 + k) matrix ``query_loss`` takes."""
    cfg = model.config
    subjects, rels, objects = triples[:, 0], triples[:, 1], triples[:, 2]
    r_emb = ad.gather_rows(leaves["relation.embed"], rels)
    total = None
    for direction, fixed_idx, true_idx, negs in (
            ("object", subjects, objects, negatives[0]),
            ("subject", objects, subjects, negatives[1])):
        if cfg.gating and tpf is not None:
            fixed_alpha, cand_alpha = model._gate_alphas(
                leaves, tpf.frequencies(triples, ctx.time), direction)
        else:
            fixed_alpha = cand_alpha = None
        fixed = blend_rows(fixed_alpha, ad.gather_rows(ctx.x, fixed_idx),
                           ad.gather_rows(ctx.z, fixed_idx))
        cols = []
        for ids in [true_idx] + [negs[:, j] for j in range(negs.shape[1])]:
            cand = blend_rows(cand_alpha, ad.gather_rows(ctx.x, ids),
                              ad.gather_rows(ctx.z, ids))
            cols.append(direction_rows_per_row(direction, fixed, r_emb, cand, cfg.decoder))
        loss = dec.query_loss(ad.concat(cols, axis=1), mode=cfg.loss_mode)
        total = loss if total is None else ad.add(total, loss)
    return total


def impute_target_per_position(model, leaves, x_steps, active, target_pos):
    """Oracle: each entity's nearest active step found by a loop over window
    positions, its rows selected by one masked (E, d) product per position,
    and the one- and two-sided imputation formulas written out separately."""
    e = model.dataset.entity_count
    lam, b = leaves["decay.x.lam"], leaves["decay.x.b"]
    inactive = ~active[target_pos]
    x_t = x_steps[target_pos]

    def nearest(positions):
        seen = np.full(e, -1, dtype=np.int64)
        for pos in positions:
            seen[active[pos]] = pos
        return seen

    def select_rows(position_of):
        out = constant(np.zeros((e, model.config.dim)))
        for pos in np.unique(position_of[position_of >= 0]).tolist():
            mask = (position_of == pos).astype(np.float64)[:, None]
            out = ad.add(out, ad.mul(x_steps[pos], constant(mask)))
        return out

    def gamma(position_of, deltas):
        has = position_of >= 0
        return decay_column(np.where(has, deltas, 1), lam, b), has

    last = nearest(range(target_pos))
    g, has = gamma(last, target_pos - last)
    if not model.config.bidirectional:
        g = ad.mul(g, constant((inactive & has).astype(np.float64)[:, None]))
        return ad.add(ad.mul(g, select_rows(last)), ad.mul(ad.sub(constant(1.0), g), x_t))
    nxt = nearest(range(len(x_steps) - 1, target_pos, -1))
    g_f, has_f = gamma(nxt, nxt - target_pos)
    g_p = ad.mul(ad.mul(g, 0.5), constant((inactive & has).astype(np.float64)[:, None]))
    g_f = ad.mul(ad.mul(g_f, 0.5), constant((inactive & has_f).astype(np.float64)[:, None]))
    rest = ad.sub(ad.sub(constant(1.0), g_p), g_f)
    return ad.add(ad.add(ad.mul(rest, x_t), ad.mul(g_p, select_rows(last))),
                  ad.mul(g_f, select_rows(nxt)))


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

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_param_shapes_match_init_params(self, variant):
        cfg = ModelConfig(variant=variant, dim=8, layers=2, heads=2, window=3,
                          bidirectional=True, gating=True, imputation=True,
                          positional=True)
        shapes = param_shapes(cfg, 5, 2, 4)
        params = init_params(cfg, 5, 2, 4, seed=0)
        assert list(shapes) == list(params)
        assert shapes == {name: arr.shape for name, arr in params.items()}

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(variant="rgat")
        with pytest.raises(ValueError):
            ModelConfig(variant="temp-sa", dim=10, heads=4)
        with pytest.raises(ValueError):
            ModelConfig(window=-1)
        with pytest.raises(ValueError):
            ModelConfig(layers=-2)

    @pytest.mark.parametrize("kwargs", [
        dict(dim=0), dict(variant="srgcn", decoder="distmult", dim=-2),
        dict(variant="temp-sa", heads=0), dict(variant="temp-sa", heads=-4),
        dict(decoder="complex", dim=7), dict(dropout_current=1.5),
        dict(dropout_reference=-0.1), dict(dropout_current=float("nan")),
        dict(dropout_reference=float("nan"))])
    def test_degenerate_configs_rejected_when_built(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)


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

    @pytest.mark.parametrize("rates", [None, (0.5, 0.2), (1.0, 0.0), (0.0, 0.5)])
    @pytest.mark.parametrize("bidirectional, t", [(False, 0), (False, 4), (False, 6),
                                                  (True, 0), (True, 3), (True, 6)])
    def test_window_facts_match_snapshot_list(self, sparse_dataset, bidirectional, t,
                                              rates):
        # the window's snapshots listed, thinned one by one and indexed; step 3
        # is empty, and the bidirectional windows at 0 and 6 are clipped
        ds = sparse_dataset
        cfg = ModelConfig(variant="temp-gru", dim=4, layers=1, bidirectional=bidirectional,
                          window=4 if bidirectional else 3,
                          **({} if rates is None else dict(dropout_current=rates[0],
                                                           dropout_reference=rates[1])))
        model = TempModel(cfg, ds, {})
        steps, target_pos = model.window_positions(t)
        window = [ds.splits["train"][step].triples for step in steps]
        got_rng, want_rng = (None, None) if rates is None else (np.random.default_rng(7),
                                                                np.random.default_rng(7))
        if rates is not None:
            window = edge_dropout_per_snapshot(window, target_pos, *rates, want_rng)
        facts, pos = model.window_facts(t, got_rng)
        assert pos == target_pos
        assert facts.dtype == np.int64
        np.testing.assert_array_equal(facts, window_facts(window))
        if rates is not None:
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


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
        steps, target_pos = model.window_positions(t)
        window = [ds.splits["train"][step].triples for step in steps]
        leaves = {k: constant(v) for k, v in params.items()}
        ctx = model.encode_context(leaves, t)

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
        ctx_off = model_off.encode_context(leaves, t)
        for e in range(ds.entity_count)[:6]:
            if not active_now[e] and last_active[e] >= 0:
                stale = encode_per_snapshot(window[last_active[e]], leaves,
                                            entity_count=ds.entity_count,
                                            relation_count=ds.relation_count,
                                            layers=1).data[e]
                np.testing.assert_allclose(ctx.x.data[e], stale, atol=1e-12)
            elif active_now[e]:
                np.testing.assert_allclose(ctx.x.data[e], ctx_off.x.data[e],
                                           atol=1e-12)

    @pytest.mark.parametrize("bidirectional, t", [(False, 0), (False, 6), (True, 0),
                                                  (True, 3), (True, 6)])
    def test_matches_per_position_oracle(self, sparse_dataset, monkeypatch,
                                         bidirectional, t):
        ds = sparse_dataset
        cfg = ModelConfig(variant="temp-gru", decoder="distmult", dim=4, layers=1,
                          window=4 if bidirectional else 3, imputation=True,
                          bidirectional=bidirectional)
        params = init_params(cfg, ds.entity_count, ds.relation_count, ds.step_count, 2)
        params["decay.x.lam"] = np.array([[0.3]])
        model = TempModel(cfg, ds, params)
        steps, target_pos = model.window_positions(t)
        assert target_pos == {0: 0, 3: 2, 6: len(steps) - 1}[t]
        weights = np.random.default_rng(3).normal(size=(2, ds.entity_count, cfg.dim))
        results = []
        for impute in (TempModel._impute_target, impute_target_per_position):
            monkeypatch.setattr(TempModel, "_impute_target", impute)
            tape = Tape()
            leaves = leaves_on_tape(tape, params)
            ctx = model.encode_context(leaves, t)
            loss = ad.add(ad.reduce_sum(ad.mul(ctx.x, constant(weights[0]))),
                          ad.reduce_sum(ad.mul(ctx.z, constant(weights[1]))))
            results.append((ctx.x.data, ctx.z.data, grads_by_name(tape, leaves, loss,
                                                                  params)))
        (x, z, grads), (want_x, want_z, want_grads) = results
        np.testing.assert_array_equal(x, want_x)
        assert scaled_error(z, want_z) <= 1e-12
        for name in params:
            assert scaled_error(grads[name], want_grads[name]) <= 1e-12, name
        # only a unidirectional window whose target comes first has nothing to impute
        assert np.any(want_grads["decay.x.lam"] != 0.0) == (bidirectional or t > 0)


class TestSelfAttentionContext:
    @pytest.mark.parametrize("positional", [False, True])
    @pytest.mark.parametrize("imputation", [False, True])
    @pytest.mark.parametrize("bidirectional, t", [(False, 0), (False, 6), (True, 3),
                                                  (True, 6)])
    @pytest.mark.parametrize("heads", [1, 2, 8])
    def test_matches_per_step_oracle(self, sparse_dataset, monkeypatch, heads,
                                     bidirectional, t, imputation, positional):
        # entity 7 is inactive at every step, so it takes the fallback row
        ds = sparse_dataset
        assert not any(7 in snap.triples[:, [0, 2]] for snap in ds.splits["train"])
        cfg = ModelConfig(variant="temp-sa", decoder="distmult", dim=8, layers=1,
                          heads=heads, window=4 if bidirectional else 3,
                          bidirectional=bidirectional, imputation=imputation,
                          positional=positional)
        params = init_params(cfg, ds.entity_count, ds.relation_count, ds.step_count, 2)
        params["decay.z.lam"] = np.array([[0.3]])
        model = TempModel(cfg, ds, params)
        weights = np.random.default_rng(4).normal(size=(2, ds.entity_count, cfg.dim))
        results = []
        for encode in (temporal.encode_sa, encode_sa_per_step):
            monkeypatch.setattr(temporal, "encode_sa", encode)
            tape = Tape()
            leaves = leaves_on_tape(tape, params)
            ctx = model.encode_context(leaves, t)
            loss = ad.add(ad.reduce_sum(ad.mul(ctx.x, constant(weights[0]))),
                          ad.reduce_sum(ad.mul(ctx.z, constant(weights[1]))))
            results.append((ctx.z.data, grads_by_name(tape, leaves, loss, params)))
        (z, grads), (want_z, want_grads) = results
        assert scaled_error(z, want_z) <= 1e-12
        for name in params:
            got, want = grads[name], want_grads[name]
            # at an empty target step b shifts every unmasked logit of a row
            # alike, so its gradient is zero up to rounding: compare it plainly
            vanishing = np.max(np.abs(want)) <= 1e-12
            err = np.max(np.abs(got - want)) if vanishing else scaled_error(got, want)
            assert err <= 1e-12, name


class TestGruContext:
    @pytest.mark.parametrize("imputation", [False, True])
    @pytest.mark.parametrize("bidirectional, t", [(False, 0), (False, 6), (True, 3),
                                                  (True, 6)])
    def test_matches_blend_oracle(self, sparse_dataset, monkeypatch, bidirectional, t,
                                  imputation):
        ds = sparse_dataset
        cfg = ModelConfig(variant="temp-gru", decoder="distmult", dim=6, layers=1,
                          window=4 if bidirectional else 3, bidirectional=bidirectional,
                          imputation=imputation)
        params = init_params(cfg, ds.entity_count, ds.relation_count, ds.step_count, 5)
        params["decay.z.lam"] = np.array([[0.3]])
        model = TempModel(cfg, ds, params)
        weights = np.random.default_rng(6).normal(size=(2, ds.entity_count, cfg.dim))
        results = []
        for chain in (temporal._chain, chain_blend):
            monkeypatch.setattr(temporal, "_chain", chain)
            tape = Tape()
            leaves = leaves_on_tape(tape, params)
            ctx = model.encode_context(leaves, t)
            loss = ad.add(ad.reduce_sum(ad.mul(ctx.x, constant(weights[0]))),
                          ad.reduce_sum(ad.mul(ctx.z, constant(weights[1]))))
            results.append((ctx.z.data, grads_by_name(tape, leaves, loss, params)))
        (z, grads), (want_z, want_grads) = results
        assert scaled_error(z, want_z) <= 1e-12
        for name in params:
            assert scaled_error(grads[name], want_grads[name]) <= 1e-12, name


def encode_window_per_snapshot(facts, params, *, snapshots, **kwargs):
    """Oracle: each snapshot of a window's (s, r, o, i) facts encoded on its own."""
    return [encode_per_snapshot(facts[facts[:, 3] == i, :3], params, **kwargs)
            for i in range(snapshots)]


WINDOW_MODELS = {
    "srgcn": dict(variant="srgcn"),
    "temp-gru": dict(variant="temp-gru", window=3),
    "temp-gru-imputation": dict(variant="temp-gru", window=3, imputation=True),
    "temp-gru-bidirectional": dict(variant="temp-gru", window=4, bidirectional=True),
    "temp-gru-bidirectional-imputation": dict(variant="temp-gru", window=4,
                                              bidirectional=True, imputation=True),
    "temp-sa": dict(variant="temp-sa", window=3, heads=2),
    "temp-sa-positional": dict(variant="temp-sa", window=3, heads=2, positional=True),
}


class TestWindowContext:
    @pytest.mark.parametrize("rates", [(0.5, 0.2), (1.0, 1.0)])
    @pytest.mark.parametrize("model_name", sorted(WINDOW_MODELS))
    def test_matches_per_snapshot_oracle(self, sparse_dataset, monkeypatch, model_name,
                                         rates):
        # a training context encodes its thinned window in one call; every
        # output and parameter gradient matches each snapshot encoded alone.
        # Steps 2-6 hold step 3, which is empty, and rate 1 empties them all
        ds = sparse_dataset
        cfg = ModelConfig(decoder="distmult", dim=4, layers=2, dropout_current=rates[0],
                          dropout_reference=rates[1], **WINDOW_MODELS[model_name])
        params = init_params(cfg, ds.entity_count, ds.relation_count, ds.step_count, 8)
        model = TempModel(cfg, ds, params)
        t = 4
        facts, _ = model.window_facts(t, rng=np.random.default_rng(9))
        steps = len(model.window_positions(t)[0])
        assert cfg.variant == "srgcn" or len(np.unique(facts[:, 3])) < steps
        weights = np.random.default_rng(10).normal(size=(2, ds.entity_count, cfg.dim))
        results = []
        for encode in (rgcn.encode_snapshot, encode_window_per_snapshot):
            monkeypatch.setattr(rgcn, "encode_snapshot", encode)
            tape = Tape()
            leaves = leaves_on_tape(tape, params)
            ctx = model.encode_context(leaves, t, rng=np.random.default_rng(9))
            loss = ad.add(ad.reduce_sum(ad.mul(ctx.x, constant(weights[0]))),
                          ad.reduce_sum(ad.mul(ctx.z, constant(weights[1]))))
            results.append((ctx.x.data, ctx.z.data, grads_by_name(tape, leaves, loss, params)))
        (x, z, grads), (want_x, want_z, want_grads) = results
        assert scaled_error(x, want_x) <= 1e-12
        assert scaled_error(z, want_z) <= 1e-12
        for name in params:
            got, want = grads[name], want_grads[name]
            # a gradient that vanishes up to rounding is compared plainly
            vanishing = np.max(np.abs(want)) <= 1e-12
            err = np.max(np.abs(got - want)) if vanishing else scaled_error(got, want)
            assert err <= 1e-12, name

    def test_training_context_encodes_once_and_eval_once_per_step(self, sparse_dataset,
                                                                  monkeypatch):
        ds = sparse_dataset
        cfg = ModelConfig(variant="temp-gru", decoder="distmult", dim=4, layers=2,
                          window=3)
        model = TempModel(cfg, ds, init_params(cfg, ds.entity_count, ds.relation_count,
                                               ds.step_count, 8))
        calls = []
        original = rgcn.encode_snapshot

        def spy(facts, *args, **kwargs):
            calls.append(kwargs["snapshots"])
            return original(facts, *args, **kwargs)

        monkeypatch.setattr(rgcn, "encode_snapshot", spy)
        leaves = {name: constant(arr) for name, arr in model.params.items()}
        model.encode_context(leaves, 5)
        assert calls == [4]
        calls.clear()
        model.encode_context(leaves, 5, cache={})
        assert calls == [1] * 4

    def test_dropout_with_a_cache_rejected(self, sparse_dataset):
        # a cache holds undropped steps only, so a thinned window cannot use one
        ds = sparse_dataset
        cfg = ModelConfig(variant="temp-gru", decoder="distmult", dim=4, layers=1,
                          window=3)
        model = TempModel(cfg, ds, init_params(cfg, ds.entity_count, ds.relation_count,
                                               ds.step_count, 8))
        leaves = {name: constant(arr) for name, arr in model.params.items()}
        cache = {}
        with pytest.raises(ValueError, match="rng or cache"):
            model.encode_context(leaves, 5, rng=np.random.default_rng(0), cache=cache)
        assert cache == {}


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
        ctx = model.encode_context(leaves, t)
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
        ctx = model.encode_context(leaves, t)
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
        triples = ds.splits["train"][t].triples
        rng = np.random.default_rng(2)
        negs = (rng.integers(0, ds.entity_count, size=(len(triples), 4)),
                rng.integers(0, ds.entity_count, size=(len(triples), 4)))
        # the answer drawn again as a negative: its id repeats within the row
        negs[0][:, 1], negs[1][:, 1] = triples[:, 2], triples[:, 0]
        results = []
        for loss_fn in (model.snapshot_loss,
                        lambda *a: snapshot_loss_per_negative(model, *a)):
            tape = Tape()
            leaves = leaves_on_tape(tape, params)
            ctx = model.encode_context(leaves, t)
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


def split_snapshots(dataset, split="train"):
    return [(snap.time, snap.triples) for snap in dataset.splits[split] if len(snap)]


def sa_window(bidirectional, imputation, positional):
    return dict(variant="temp-sa", window=4 if bidirectional else 3, heads=2,
                bidirectional=bidirectional, imputation=imputation, positional=positional)


def uncached_scores(model, t, triples):
    """(q, E) scores of each direction from an uncached, ungated eval context,
    with every entity passed as an explicit (q, E) candidate id matrix."""
    leaves = {name: constant(arr) for name, arr in model.params.items()}
    ctx = model.eval_context(t, {}, leaves)
    ids = np.broadcast_to(np.arange(model.dataset.entity_count),
                          (len(triples), model.dataset.entity_count))
    return [scores.data for scores in model._direction_scores(leaves, ctx, triples, None,
                                                              (ids, ids))]


class TestSnapshotScorer:
    @pytest.mark.parametrize("model_name", sorted(SCORER_MODELS))
    @pytest.mark.parametrize("decoder", ["transe", "distmult", "complex"])
    @pytest.mark.parametrize("gating", [False, True])
    def test_matches_per_query_oracle(self, eval_dataset, model_name, decoder, gating):
        model = scorer_model(eval_dataset, decoder, gating, SCORER_MODELS[model_name])
        tpf = compute_tpf(eval_dataset)
        scorer = model.snapshot_scorer(tpf)
        oracle = snapshot_scorer_per_query(model, tpf)
        for t, triples in split_snapshots(eval_dataset):
            for got, want in zip(scorer(t, triples), oracle(t, triples)):
                assert got.shape == (len(triples), eval_dataset.entity_count)
                assert scaled_error(got, want) <= 1e-12, (t, got, want)

    @pytest.mark.parametrize("decoder", ["transe", "distmult"])
    @pytest.mark.parametrize("gating", [False, True])
    def test_empty_query_set(self, eval_dataset, decoder, gating):
        model = scorer_model(eval_dataset, decoder, gating, SCORER_MODELS["temp-sa"])
        scores = model.snapshot_scorer(compute_tpf(eval_dataset))(3, np.empty((0, 3),
                                                                             np.int64))
        assert [s.shape for s in scores] == [(0, eval_dataset.entity_count)] * 2


class TestSnapshotCache:
    @pytest.mark.parametrize("model_name", ["temp-sa", "temp-gru-bidirectional-imputation"])
    def test_evaluate_encodes_each_touched_step_once(self, eval_dataset, monkeypatch,
                                                     model_name):
        model = scorer_model(eval_dataset, "complex", False, SCORER_MODELS[model_name])
        step_of = {snap.triples.tobytes(): snap.time for snap in eval_dataset.splits["train"]}
        assert len(step_of) == eval_dataset.step_count
        encoded = []
        original = rgcn.encode_snapshot

        def spy(facts, *args, **kwargs):
            assert kwargs["snapshots"] == 1
            encoded.append(step_of[np.ascontiguousarray(facts[:, :3]).tobytes()])
            return original(facts, *args, **kwargs)

        monkeypatch.setattr(rgcn, "encode_snapshot", spy)
        evaluate(eval_dataset, "test", model.snapshot_scorer(None),
                 build_true_index(eval_dataset, ("train", "valid", "test")))
        touched = {step for snap in eval_dataset.splits["test"] if len(snap)
                   for step in model.window_positions(snap.time)[0]}
        assert len(touched) > sum(1 for snap in eval_dataset.splits["test"] if len(snap))
        assert sorted(encoded) == sorted(touched)

    @pytest.mark.parametrize("decoder", ["transe", "complex"])
    def test_evaluate_scores_each_direction_once_with_score_rows(self, eval_dataset,
                                                                 monkeypatch, decoder):
        # evaluation ranks through the training scorer: one call per direction
        # per snapshot, every entity a candidate of every query, with no id matrix
        model = scorer_model(eval_dataset, decoder, True, SCORER_MODELS["temp-sa"])
        calls = []
        original = dec.score_rows

        def spy(fixed, r, table, ids, decoder, direction, blend=None):
            out = original(fixed, r, table, ids, decoder, direction, blend)
            calls.append((direction, ids, out.shape))
            return out

        monkeypatch.setattr(dec, "score_rows", spy)
        evaluate(eval_dataset, "test", model.snapshot_scorer(compute_tpf(eval_dataset)),
                 build_true_index(eval_dataset, ("train", "valid", "test")))
        e = eval_dataset.entity_count
        assert calls == [(direction, None, (len(snap), e))
                         for snap in eval_dataset.splits["test"] if len(snap)
                         for direction in ("object", "subject")]

    def test_cache_holds_one_window_and_raw_target(self, eval_dataset):
        model = scorer_model(eval_dataset, "distmult", False,
                             SCORER_MODELS["temp-gru-bidirectional-imputation"])
        leaves = {k: constant(v) for k, v in model.params.items()}
        cache = {}
        for t in [0, 1, 2, 5, 8, 3, 3]:
            ctx = model.eval_context(t, cache, leaves)
            steps, _ = model.window_positions(t)
            assert sorted(cache) == steps
            fresh = encode_per_snapshot(eval_dataset.splits["train"][t].triples, leaves,
                                        entity_count=eval_dataset.entity_count,
                                        relation_count=eval_dataset.relation_count,
                                        layers=model.config.layers)
            # the cache keeps the structural embedding, not the imputed target
            np.testing.assert_array_equal(cache[t].x.data, fresh.data)
            np.testing.assert_array_equal(ctx.x.data, model.eval_context(t, {}, leaves).x.data)

    @pytest.mark.parametrize("positional", [False, True])
    @pytest.mark.parametrize("imputation", [False, True])
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_cached_temp_sa_scores_equal_uncached(self, eval_dataset, bidirectional,
                                                  imputation, positional):
        model = scorer_model(eval_dataset, "complex", False,
                             sa_window(bidirectional, imputation, positional))
        scorer = model.snapshot_scorer(None)
        for t, triples in split_snapshots(eval_dataset, "test"):
            got = scorer(t, triples)
            for g, want in zip(got, uncached_scores(model, t, triples)):
                np.testing.assert_array_equal(g, want)

    @pytest.mark.parametrize("imputation", [False, True])
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_scorer_projects_each_cached_step_once(self, eval_dataset, monkeypatch,
                                                   bidirectional, imputation):
        # per target: one query projection, one key/value projection of each
        # step read from its raw embedding for the first time since it entered
        # the cache, and with imputation one of the imputed target
        model = scorer_model(eval_dataset, "distmult", False,
                             sa_window(bidirectional, imputation, False))
        heads = model.config.heads
        weights = {nm: np.concatenate([model.params[f"sa.h{k}.{nm}"] for k in range(heads)],
                                      axis=1) for nm in ("wq", "wk", "wv")}
        calls = []
        matmul = ad.matmul

        def spy(a, b):
            calls.extend(nm for nm, w in weights.items() if np.array_equal(b.data, w))
            return matmul(a, b)

        monkeypatch.setattr(ad, "matmul", spy)
        scorer = model.snapshot_scorer(None)
        projected = set()
        for t, triples in split_snapshots(eval_dataset, "test"):
            steps, _ = model.window_positions(t)
            raw = [s for s in steps if s != t or not imputation]
            entered = [s for s in raw if s not in projected]
            projected = (projected & set(steps)) | set(entered)
            calls.clear()
            scorer(t, triples)
            n_kv = len(entered) + imputation
            assert sorted(calls) == ["wk"] * n_kv + ["wq"] + ["wv"] * n_kv, t

    def test_cache_holds_one_window_after_a_full_pass(self, eval_dataset):
        model = scorer_model(eval_dataset, "complex", True, sa_window(False, True, False))
        leaves = {name: constant(arr) for name, arr in model.params.items()}
        cache = {}
        snapshots = split_snapshots(eval_dataset, "test")
        for t, _ in snapshots:
            model.eval_context(t, cache, leaves)
        last = snapshots[-1][0]
        assert sorted(cache) == model.window_positions(last)[0]
        assert len(cache) <= model.config.window + 1
        # the imputed target's raw keys and values are projected when a later
        # target first reads the step
        assert cache[last].kv is None
        assert all(rec.kv is not None for step, rec in cache.items() if step != last)

    def test_scorer_builds_its_constants_once(self, eval_dataset, monkeypatch):
        model = scorer_model(eval_dataset, "complex", True, SCORER_MODELS["temp-sa"])
        made = []
        monkeypatch.setattr(model_module, "constant",
                            lambda value: made.append(1) or constant(value))
        scorer = model.snapshot_scorer(compute_tpf(eval_dataset))
        built = len(made)
        assert built == len(model.params)
        for t, triples in split_snapshots(eval_dataset, "test"):
            scorer(t, triples)
        assert len(made) == built

    def test_scorer_built_after_param_change_sees_new_params(self, eval_dataset):
        model = scorer_model(eval_dataset, "complex", True, SCORER_MODELS["temp-sa"])
        tpf = compute_tpf(eval_dataset)
        t, triples = split_snapshots(eval_dataset)[-1]
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
        snapshots = split_snapshots(eval_dataset)
        ascending = model.snapshot_scorer(tpf)
        want = {t: ascending(t, triples) for t, triples in snapshots}
        shuffled = model.snapshot_scorer(tpf)
        order = np.random.default_rng(1).permutation(len(snapshots)).tolist()
        for i in order + order[:3]:
            t, triples = snapshots[i]
            got = shuffled(t, triples)
            np.testing.assert_array_equal(got[0], want[t][0])
            np.testing.assert_array_equal(got[1], want[t][1])


@pytest.mark.parametrize("decoder", ["distmult", "complex"])
@pytest.mark.parametrize("gating", [False, True])
def test_loss_gathers_no_row_per_candidate(tiny_dataset, monkeypatch, decoder, gating):
    # DistMult and ComplEx score through (m, d) query vectors: no gather of
    # fixed, relation, gate or candidate rows has one row per candidate
    ds = tiny_dataset
    cfg = ModelConfig(variant="srgcn", decoder=decoder, dim=4, layers=1, gating=gating)
    model = TempModel(cfg, ds, init_params(cfg, ds.entity_count, ds.relation_count,
                                           ds.step_count, seed=3))
    tape = Tape()
    leaves = leaves_on_tape(tape, model.params)
    t = ds.step_count - 1
    ctx = model.encode_context(leaves, t)
    triples = ds.splits["train"][t].triples
    negs = (np.zeros((len(triples), 5), dtype=np.int64),
            np.ones((len(triples), 5), dtype=np.int64))
    sizes = []
    original = ad.gather_rows

    def spy(tensor, ids):
        sizes.append(len(ids))
        return original(tensor, ids)

    monkeypatch.setattr(ad, "gather_rows", spy)
    model.snapshot_loss(leaves, ctx, triples, negs, compute_tpf(ds))
    assert sizes and max(sizes) == len(triples)


def test_gated_model_without_frequencies_raises(tiny_dataset):
    # no silent fallback to ungated scores when the pattern table is missing
    ds = tiny_dataset
    cfg = ModelConfig(variant="srgcn", decoder="distmult", dim=4, layers=1, gating=True)
    model = TempModel(cfg, ds, init_params(cfg, ds.entity_count, ds.relation_count,
                                           ds.step_count, seed=3))
    with pytest.raises(ValueError, match="gated model"):
        model.snapshot_scorer(None)
    tape = Tape()
    leaves = leaves_on_tape(tape, model.params)
    t = ds.step_count - 1
    ctx = model.encode_context(leaves, t)
    triples = ds.splits["train"][t].triples
    negs = (np.zeros((len(triples), 2), dtype=np.int64),) * 2
    with pytest.raises(ValueError, match="gated model"):
        model.snapshot_loss(leaves, ctx, triples, negs, None)


def test_training_tape_freed_without_cycle_collector(tiny_dataset, tmp_path, monkeypatch):
    # each target's tape dies with its last tensor, before the next target's
    # tape is built, and not when the cyclic collector happens to run
    from tempkg import train as train_mod
    from tempkg.config import RunConfig, TrainConfig

    config = RunConfig()
    config.model = ModelConfig(variant="temp-gru", decoder="complex", dim=4, layers=2,
                               window=2, heads=2, gating=True, imputation=True)
    config.train = TrainConfig(negatives=3, batch_snapshots=2, seed=1)
    tapes, alive = [], []

    def recording_tape():
        alive.append(sum(ref() is not None for ref in tapes))
        tape = Tape()
        tapes.append(weakref.ref(tape))
        return tape

    monkeypatch.setattr(train_mod, "Tape", recording_tape)
    gc.collect()
    gc.disable()
    try:
        train_mod.train(config, tiny_dataset, tmp_path, max_epochs=1)
        targets = sum(1 for snap in tiny_dataset.splits["train"] if len(snap))
        assert len(tapes) == targets >= 2
        assert alive == [0] * len(tapes)
        assert [ref() for ref in tapes] == [None] * len(tapes)
    finally:
        gc.enable()


def test_ungated_loss_never_gathers_structural_rows(tiny_dataset, monkeypatch):
    ds = tiny_dataset
    cfg = ModelConfig(variant="temp-gru", decoder="complex", dim=4, layers=1, window=2,
                      heads=2, imputation=True)
    model = TempModel(cfg, ds, init_params(cfg, ds.entity_count, ds.relation_count,
                                           ds.step_count, seed=3))
    tape = Tape()
    leaves = leaves_on_tape(tape, model.params)
    t = ds.step_count - 1
    ctx = model.encode_context(leaves, t)
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
