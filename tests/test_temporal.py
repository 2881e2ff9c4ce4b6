import numpy as np
import pytest

from tempkg import autodiff as ad
from tempkg import temporal
from tempkg.autodiff import Tape, constant

from gradcheck import scaled_error


def gru_param_arrays(dim, rng, prefix):
    names = ("wz", "uz", "wr", "ur", "wh", "uh")
    p = {f"{prefix}.{n}": rng.normal(size=(dim, dim)) * 0.5 for n in names}
    for n in ("bz", "br", "bh"):
        p[f"{prefix}.{n}"] = rng.normal(size=dim) * 0.1
    return p


def attention_weights(x_steps, active, target_pos, arrays, head=0):
    """Attention row weights of one head, in plain numpy."""
    wq, wk = arrays[f"sa.h{head}.wq"], arrays[f"sa.h{head}.wk"]
    lam, b = arrays["decay.z.lam"].item(), arrays["decay.z.b"].item()
    mask = np.stack(active, axis=1)
    mask[~mask.any(axis=1), target_pos] = True
    q = x_steps[target_pos] @ wq
    logits = np.stack([(q * (x @ wk)).sum(axis=1) for x in x_steps], axis=1)
    logits /= np.sqrt(wq.shape[1])
    logits -= np.maximum(0.0, lam * np.abs(np.arange(len(x_steps)) - target_pos) + b)
    logits = np.where(mask, logits, -np.inf)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def encode_sa_per_head(x_steps, active, target_pos, params, *, heads):
    """Oracle for encode_sa: one query, key and value product and one softmax
    per head and step, the heads' outputs concatenated."""
    mask = np.stack(active, axis=1)
    mask[~mask.any(axis=1), target_pos] = True
    offsets = np.abs(np.arange(len(x_steps)) - target_pos).astype(np.float64).reshape(1, -1)
    penalty = temporal.decay_exponent(offsets, params["decay.z.lam"], params["decay.z.b"])
    head_outputs = []
    for k in range(heads):
        wq, wk, wv = (params[f"sa.h{k}.{nm}"] for nm in ("wq", "wk", "wv"))
        scale = 1.0 / np.sqrt(wq.shape[1])
        q = ad.matmul(x_steps[target_pos], wq)
        cols = [ad.mul(ad.reduce_sum(ad.mul(q, ad.matmul(x, wk)), axis=1), scale)
                for x in x_steps]
        beta = ad.masked_softmax(ad.sub(ad.concat(cols, axis=1), penalty), mask)
        z_k = None
        for p, x in enumerate(x_steps):
            term = ad.mul(ad.columns(beta, p, p + 1), ad.matmul(x, wv))
            z_k = term if z_k is None else ad.add(z_k, term)
        head_outputs.append(z_k)
    return ad.concat(head_outputs, axis=1)


def decay_param_arrays(lam=0.0, b=0.0):
    return {"decay.z.lam": np.array([[lam]]), "decay.z.b": np.array([[b]])}


def as_tensors(arrays):
    return {k: constant(v) for k, v in arrays.items()}


def gru_ref(x, h, p, prefix):
    """Independent numpy evaluation of the gated recurrent cell."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    z = sig(x @ p[f"{prefix}.wz"] + h @ p[f"{prefix}.uz"] + p[f"{prefix}.bz"])
    r = sig(x @ p[f"{prefix}.wr"] + h @ p[f"{prefix}.ur"] + p[f"{prefix}.br"])
    hbar = np.tanh(x @ p[f"{prefix}.wh"] + (r * h) @ p[f"{prefix}.uh"] + p[f"{prefix}.bh"])
    return z * h + (1.0 - z) * hbar


class TestDecayWeight:
    def test_flat_parameters_give_one(self):
        for dt in (0, 1, 5, 100):
            assert temporal.decay_weight(dt, 0.0, 0.0) == 1.0

    def test_direct_evaluation(self):
        assert temporal.decay_weight(2, 1.0, 0.0) == pytest.approx(np.exp(-2.0))

    def test_clamp_branch(self):
        assert temporal.decay_weight(3, 1.0, -5.0) == 1.0

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            temporal.decay_weight(-1, 1.0, 0.0)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            lam = rng.uniform(0, 3)
            b = rng.uniform(-2, 2)
            gs = [temporal.decay_weight(dt, lam, b) for dt in range(12)]
            assert all(0 < g <= 1 for g in gs)
            assert all(a >= b2 - 1e-15 for a, b2 in zip(gs, gs[1:]))


class TestEncodeGru:
    def setup_method(self):
        self.rng = np.random.default_rng(1)
        self.dim = 2
        self.n = 3
        self.arrays = gru_param_arrays(self.dim, self.rng, "gru.f")
        self.arrays.update(gru_param_arrays(self.dim, self.rng, "gru.b"))

    def run(self, x_steps, active, target, lam=0.0, b=0.0, bidirectional=False):
        arrays = dict(self.arrays)
        arrays.update(decay_param_arrays(lam, b))
        params = as_tensors(arrays)
        xs = [constant(x) for x in x_steps]
        return temporal.encode_gru(xs, active, target, params,
                                   bidirectional=bidirectional).data, arrays

    def test_never_active_entity_gets_zero_hidden(self):
        xs = [self.rng.normal(size=(self.n, self.dim)) for _ in range(3)]
        active = [np.zeros(self.n, dtype=bool) for _ in range(3)]
        out, arrays = self.run(xs, active, target=2)
        expect = gru_ref(xs[2], np.zeros((self.n, self.dim)), arrays, "gru.f")
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_active_only_at_target_is_same_as_never_active(self):
        xs = [self.rng.normal(size=(self.n, self.dim)) for _ in range(3)]
        quiet = [np.zeros(self.n, dtype=bool) for _ in range(3)]
        at_target = [np.zeros(self.n, dtype=bool) for _ in range(2)]
        at_target.append(np.ones(self.n, dtype=bool))
        a, _ = self.run(xs, quiet, target=2)
        b, _ = self.run(xs, at_target, target=2)
        np.testing.assert_array_equal(a, b)

    def test_consecutive_active_steps_chain_with_unit_decay(self):
        # active at t-1 and t with lambda=0, b=0: z_t = GRU(x_t, z_{t-1}),
        # cross-checked against step-by-step evaluation of the cell
        xs = [self.rng.normal(size=(self.n, self.dim)) for _ in range(2)]
        active = [np.ones(self.n, dtype=bool)] * 2
        out, arrays = self.run(xs, active, target=1)
        z_prev = gru_ref(xs[0], np.zeros((self.n, self.dim)), arrays, "gru.f")
        expect = gru_ref(xs[1], z_prev, arrays, "gru.f")
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_idle_gap_changes_only_decay(self):
        # a gap between active steps keeps the chain but scales the hidden by
        # gamma(delta); with the same gamma applied by hand the outputs match
        lam = 0.7
        xs3 = [self.rng.normal(size=(self.n, self.dim)) for _ in range(3)]
        active3 = [np.ones(self.n, dtype=bool),
                   np.zeros(self.n, dtype=bool),
                   np.ones(self.n, dtype=bool)]
        out, arrays = self.run(xs3, active3, target=2, lam=lam)
        z0 = gru_ref(xs3[0], np.zeros((self.n, self.dim)), arrays, "gru.f")
        gamma = np.exp(-max(0.0, lam * 2.0))
        expect = gru_ref(xs3[2], gamma * z0, arrays, "gru.f")
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_bidirectional_sums_independent_cells(self):
        xs = [self.rng.normal(size=(self.n, self.dim)) for _ in range(3)]
        active = [np.ones(self.n, dtype=bool)] * 3
        out, arrays = self.run(xs, active, target=1, bidirectional=True)
        zf_prev = gru_ref(xs[0], np.zeros((self.n, self.dim)), arrays, "gru.f")
        zf = gru_ref(xs[1], zf_prev, arrays, "gru.f")
        zb_next = gru_ref(xs[2], np.zeros((self.n, self.dim)), arrays, "gru.b")
        zb = gru_ref(xs[1], zb_next, arrays, "gru.b")
        np.testing.assert_allclose(out, zf + zb, atol=1e-12)

    def test_per_entity_chains_are_independent(self):
        xs = [self.rng.normal(size=(self.n, self.dim)) for _ in range(2)]
        active = [np.array([True, False, True]), np.ones(self.n, dtype=bool)]
        out, arrays = self.run(xs, active, target=1)
        z0 = gru_ref(xs[0], np.zeros((self.n, self.dim)), arrays, "gru.f")
        h = np.zeros((self.n, self.dim))
        h[[0, 2]] = z0[[0, 2]]
        expect = gru_ref(xs[1], h, arrays, "gru.f")
        np.testing.assert_allclose(out, expect, atol=1e-12)


class TestEncodeSa:
    def setup_method(self):
        self.rng = np.random.default_rng(2)

    def arrays_for(self, dim, heads, lam=0.0, b=0.0):
        arrays = decay_param_arrays(lam, b)
        dh = dim // heads
        for k in range(heads):
            for nm in ("wq", "wk", "wv"):
                arrays[f"sa.h{k}.{nm}"] = self.rng.normal(size=(dim, dh))
        return arrays

    def run(self, xs, active, target, arrays, heads):
        params = as_tensors(arrays)
        return temporal.encode_sa([constant(x) for x in xs], active, target,
                                  params, heads=heads).data

    def test_single_unmasked_step_takes_full_weight(self):
        dim, n = 4, 3
        arrays = self.arrays_for(dim, 1, lam=0.3, b=0.1)
        xs = [self.rng.normal(size=(n, dim)) for _ in range(3)]
        active = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool), np.zeros(n, dtype=bool)]
        out = self.run(xs, active, target=2, arrays=arrays, heads=1)
        np.testing.assert_allclose(out, xs[1] @ arrays["sa.h0.wv"], atol=1e-12)

    def test_two_identical_steps_split_evenly(self):
        dim, n = 4, 2
        arrays = self.arrays_for(dim, 1, lam=0.0, b=0.0)
        x = self.rng.normal(size=(n, dim))
        xs = [x, x.copy()]
        active = [np.ones(n, dtype=bool)] * 2
        weights = attention_weights(xs, active, 1, arrays)
        np.testing.assert_allclose(weights, 0.5, atol=1e-12)
        out = self.run(xs, active, target=1, arrays=arrays, heads=1)
        np.testing.assert_allclose(out, x @ arrays["sa.h0.wv"], atol=1e-12)

    def test_hand_computed_attention(self):
        # 3-step window, d=2, one head, lambda=1, b=0: replicate the logits,
        # weights, and pooled values with plain numpy
        dim, n = 2, 3
        arrays = self.arrays_for(dim, 1, lam=1.0, b=0.0)
        xs = [self.rng.normal(size=(n, dim)) for _ in range(3)]
        active = [np.ones(n, dtype=bool)] * 3
        out = self.run(xs, active, target=2, arrays=arrays, heads=1)

        wq, wk, wv = (arrays[f"sa.h0.{nm}"] for nm in ("wq", "wk", "wv"))
        q = xs[2] @ wq
        logits = np.stack([(q * (xs[p] @ wk)).sum(axis=1) / np.sqrt(dim)
                           for p in range(3)], axis=1)
        logits -= np.maximum(0.0, 1.0 * np.array([2.0, 1.0, 0.0]))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        beta = e / e.sum(axis=1, keepdims=True)
        expect = sum(beta[:, [p]] * (xs[p] @ wv) for p in range(3))
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_rows_sum_to_one_with_exact_zeros_on_masked(self):
        dim, n = 4, 5
        arrays = self.arrays_for(dim, 2, lam=0.2, b=0.0)
        xs = [self.rng.normal(size=(n, dim)) for _ in range(4)]
        active = [self.rng.random(n) < 0.5 for _ in range(4)]
        active[1][:] = True
        weights = attention_weights(xs, active, 3, arrays)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        mask = np.stack(active, axis=1)
        assert (weights[~mask] == 0).all()
        out = self.run(xs, active, target=3, arrays=arrays, heads=2)
        pooled = sum(weights[:, [p]] * (x @ arrays["sa.h0.wv"]) for p, x in enumerate(xs))
        np.testing.assert_allclose(out[:, :2], pooled, atol=1e-12)

    def test_fully_inactive_entity_falls_back_to_value_projection(self):
        dim, n = 4, 2
        arrays = self.arrays_for(dim, 2, lam=0.5, b=0.2)
        xs = [self.rng.normal(size=(n, dim)) for _ in range(3)]
        active = [np.array([False, True]) for _ in range(3)]
        out = self.run(xs, active, target=1, arrays=arrays, heads=2)
        expect_row0 = np.concatenate([xs[1][0] @ arrays["sa.h0.wv"],
                                      xs[1][0] @ arrays["sa.h1.wv"]])
        np.testing.assert_allclose(out[0], expect_row0, atol=1e-12)

    def test_multi_head_concat_layout(self):
        dim, n = 6, 3
        arrays = self.arrays_for(dim, 3, lam=0.0, b=0.0)
        xs = [self.rng.normal(size=(n, dim))]
        active = [np.ones(n, dtype=bool)]
        out = self.run(xs, active, target=0, arrays=arrays, heads=3)
        assert out.shape == (n, dim)
        np.testing.assert_allclose(out[:, :2], xs[0] @ arrays["sa.h0.wv"], atol=1e-12)

    def test_indivisible_heads_rejected(self):
        arrays = self.arrays_for(4, 1)
        xs = [constant(np.zeros((2, 4)))]
        with pytest.raises(ValueError):
            temporal.encode_sa(xs, [np.ones(2, dtype=bool)], 0, as_tensors(arrays), heads=3)


# (width, target position, entities inactive at every step)
WINDOWS = {"width1": (1, 0, ()), "first": (4, 0, (1,)), "middle": (4, 2, ()),
           "last": (4, 3, (0, 4))}
# (lambda, b): every penalty positive, or clamped to zero at the near offsets
PENALTIES = {"active": (0.4, 0.3), "clamped": (0.5, -0.7)}


def sa_case(heads, window, penalty, seed=30):
    """Per-head arrays, window embeddings and activity rows for one case."""
    width, target, idle = WINDOWS[window]
    rng = np.random.default_rng(seed)
    dim, n = 2 * heads, 5
    arrays = decay_param_arrays(*PENALTIES[penalty])
    for k in range(heads):
        for nm in ("wq", "wk", "wv"):
            arrays[f"sa.h{k}.{nm}"] = rng.normal(size=(dim, 2))
    xs = [rng.normal(size=(n, dim)) for _ in range(width)]
    active = [rng.random(n) < 0.6 for _ in range(width)]
    for row in active:
        row[list(idle)] = False
    return arrays, xs, active


def vanishing_gradients(window, penalty, heads):
    """Leaves whose gradient is zero analytically: with one step every weight
    is 1, so nothing reaches the logits; with every penalty positive, b
    shifts all logits of a row alike."""
    if WINDOWS[window][0] == 1:
        return {"decay.z.lam", "decay.z.b"} | {f"sa.h{k}.{nm}" for k in range(heads)
                                               for nm in ("wq", "wk")}
    return {"decay.z.b"} if penalty == "active" else set()


class TestOneAttentionPass:
    @pytest.mark.parametrize("penalty", sorted(PENALTIES))
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    @pytest.mark.parametrize("heads", [1, 2, 3, 8])
    def test_matches_per_head_oracle_with_gradients(self, heads, window, penalty):
        arrays, xs, active = sa_case(heads, window, penalty)
        target = WINDOWS[window][1]
        weights = np.random.default_rng(31).normal(size=xs[0].shape)
        results = []
        for fn in (temporal.encode_sa, encode_sa_per_head):
            tape = Tape()
            params = {name: tape.leaf(a) for name, a in arrays.items()}
            x_leaves = [tape.leaf(x) for x in xs]
            z = fn(x_leaves, active, target, params, heads=heads)
            grads = tape.backward(ad.reduce_sum(ad.mul(ad.tanh(z), constant(weights))))
            named = {name: grads[leaf.node_id] for name, leaf in params.items()}
            named.update({f"x{p}": grads[leaf.node_id] for p, leaf in enumerate(x_leaves)})
            results.append((z.data, named))
        (got_z, got), (want_z, want) = results
        assert scaled_error(got_z, want_z) <= 1e-12
        assert got.keys() == want.keys()
        vanishing = vanishing_gradients(window, penalty, heads)
        for name in want:
            if name in vanishing:
                assert np.max(np.abs(got[name] - want[name])) <= 1e-12, name
            else:
                assert scaled_error(got[name], want[name]) <= 1e-12, name

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("width", [1, 3])
    def test_one_query_key_and_value_product_per_step(self, heads, width, monkeypatch):
        arrays, xs, active = sa_case(heads, "middle", "active")
        xs, active = xs[:width], active[:width]
        calls = []
        matmul = ad.matmul

        def spy(a, b):
            calls.append(b.shape)
            return matmul(a, b)

        monkeypatch.setattr(ad, "matmul", spy)
        temporal.encode_sa([constant(x) for x in xs], active, width - 1,
                           as_tensors(arrays), heads=heads)
        dim = 2 * heads
        assert calls == [(dim, dim)] * (1 + 2 * width)


class TestPositional:
    def test_zero_table_is_identity(self):
        rng = np.random.default_rng(3)
        z = constant(rng.normal(size=(4, 3)))
        p = constant(np.zeros((6, 3)))
        np.testing.assert_array_equal(temporal.add_positional(z, p, 2).data, z.data)

    def test_zero_embeddings_recover_table_row(self):
        rng = np.random.default_rng(4)
        p = constant(rng.normal(size=(6, 3)))
        z = constant(np.zeros((4, 3)))
        out = temporal.add_positional(z, p, 5).data
        np.testing.assert_array_equal(out, np.tile(p.data[5], (4, 1)))

    def test_subtracting_row_recovers_input(self):
        rng = np.random.default_rng(5)
        z = constant(rng.normal(size=(4, 3)))
        p = constant(rng.normal(size=(6, 3)))
        out = temporal.add_positional(z, p, 1).data
        np.testing.assert_allclose(out - p.data[1], z.data, atol=1e-12)

    def test_step_out_of_range(self):
        with pytest.raises(ValueError):
            temporal.add_positional(constant(np.zeros((2, 3))),
                                    constant(np.zeros((4, 3))), 4)
