import numpy as np
import pytest

from tempkg import autodiff as ad
from tempkg import rgcn
from tempkg.autodiff import Tape, constant

from gradcheck import scaled_error
from helpers import window_facts


def make_params(entity_count, relation_count, dim, layers, rng, tape=None):
    """Random weights for every relation direction plus self-loops."""
    wrap = tape.leaf if tape is not None else constant
    params = {"entity.base": wrap(rng.normal(size=(entity_count, dim)))}
    for l in range(layers):
        params[f"rgcn.l{l}.self"] = wrap(rng.normal(size=(dim, dim)))
        params[f"rgcn.l{l}.rel"] = wrap(rng.normal(size=(2 * relation_count, dim, dim)))
    return params


def encode_per_snapshot(triples, params, *, entity_count, relation_count, layers):
    """Oracle: one snapshot encoded on its own. Each layer gathers the source
    rows once, transforms each relation group's contiguous block with
    ``segment_matmul`` and scatters every message with one call."""
    h = params["entity.base"]
    edges = rgcn.with_inverse_edges(np.asarray(triples, dtype=np.int64).reshape(-1, 3),
                                    relation_count)
    edges = edges[np.argsort(edges[:, 1], kind="stable")]
    src, rel, dst = edges.T
    bounds = [np.count_nonzero(rel < r) for r in range(2 * relation_count + 1)]
    # mean over in-neighbors: scale each message by 1/|N_dst^rel|
    _, pair, pair_count = np.unique(rel * entity_count + dst, return_inverse=True,
                                    return_counts=True)
    scale = constant(1.0 / pair_count[pair][:, None])
    for layer in range(layers):
        total = ad.matmul(h, params[f"rgcn.l{layer}.self"])
        if len(edges):
            msgs = ad.segment_matmul(ad.gather_rows(h, src), params[f"rgcn.l{layer}.rel"],
                                     bounds)
            total = ad.add(total, ad.scatter_add_rows(ad.mul(msgs, scale), dst,
                                                      entity_count))
        h = ad.relu(total) if layer < layers - 1 else total
    return h


def encode_one(triples, params, **kwargs):
    """The window encoder on a window of one snapshot."""
    facts = window_facts([np.array(triples, dtype=np.int64)])
    return rgcn.encode_snapshot(facts, params, snapshots=1, **kwargs)[0]


def encode_per_relation(triples, params, *, entity_count, relation_count, layers):
    """Oracle: one gather, transform, scale and scatter per relation group,
    each added to the running sum on its own. A group's transform is a
    ``segment_matmul`` whose only non-empty block is its relation's."""
    h = params["entity.base"]
    edges = rgcn.with_inverse_edges(np.asarray(triples, dtype=np.int64).reshape(-1, 3),
                                    relation_count)
    edges = edges[np.argsort(edges[:, 1], kind="stable")]
    for layer in range(layers):
        total = ad.matmul(h, params[f"rgcn.l{layer}.self"])
        for rel in np.unique(edges[:, 1]).tolist():
            group = edges[edges[:, 1] == rel]
            src, dst = group[:, 0], group[:, 2]
            bounds = [0] * (rel + 1) + [len(group)] * (2 * relation_count - rel)
            msgs = ad.segment_matmul(ad.gather_rows(h, src), params[f"rgcn.l{layer}.rel"],
                                     bounds)
            counts = np.bincount(dst, minlength=entity_count).astype(np.float64)
            msgs = ad.mul(msgs, constant(1.0 / counts[dst][:, None]))
            total = ad.add(total, ad.scatter_add_rows(msgs, dst, entity_count))
        h = ad.relu(total) if layer < layers - 1 else total
    return h


# (entities, relations, triples): an empty snapshot; relation 2 of 3 only, so
# the groups are 2 and its inverse 5, and entity 4 receives only inverse
# messages; repeated (relation, destination) pairs, a repeated triple and a
# self-loop triple; relation 0 with one edge, so its group and its inverse's
# are one row each
ORACLE_CASES = {
    "empty": (5, 2, []),
    "one_edge_groups": (5, 2, [(1, 0, 3), (0, 1, 2), (2, 1, 3), (4, 1, 3)]),
    "inverse_only_destinations": (6, 3, [(4, 2, 0), (4, 2, 1), (3, 2, 0)]),
    "repeated_pairs": (6, 2, [(0, 0, 1), (2, 0, 1), (3, 0, 1), (3, 0, 1), (1, 1, 1),
                              (5, 1, 2), (4, 1, 2), (0, 0, 5), (2, 1, 0)]),
}


def encode(triples, params, e, r, layers):
    return encode_one(triples, params, entity_count=e, relation_count=r, layers=layers).data


class TestEncodeSnapshot:
    def test_no_edges_is_self_loop_only(self):
        rng = np.random.default_rng(0)
        params = make_params(3, 2, 4, 1, rng)
        out = encode([], params, 3, 2, 1)
        expect = params["entity.base"].data @ params["rgcn.l0.self"].data
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_single_edge_hand_computation(self):
        # two entities, one edge (0, r, 1), one layer, d=2: the object mixes the
        # subject's transformed embedding with its own self-loop term, and the
        # subject receives the inverse-direction message
        rng = np.random.default_rng(1)
        params = make_params(2, 1, 2, 1, rng)
        h0 = params["entity.base"].data
        w_r, w_rinv = params["rgcn.l0.rel"].data
        w_s = params["rgcn.l0.self"].data
        out = encode([(0, 0, 1)], params, 2, 1, 1)
        np.testing.assert_allclose(out[1], h0[0] @ w_r + h0[1] @ w_s, atol=1e-12)
        np.testing.assert_allclose(out[0], h0[1] @ w_rinv + h0[0] @ w_s, atol=1e-12)

    def test_mean_normalization_with_equal_neighbors(self):
        # three neighbors with identical embeddings: the relational term is
        # exactly v @ W_r, not 3 v @ W_r
        rng = np.random.default_rng(2)
        params = make_params(5, 1, 3, 1, rng)
        v = rng.normal(size=3)
        base = params["entity.base"].data
        base[1] = base[2] = base[3] = v
        out = encode([(1, 0, 0), (2, 0, 0), (3, 0, 0)], params, 5, 1, 1)
        expect = v @ params["rgcn.l0.rel"].data[0] + base[0] @ params["rgcn.l0.self"].data
        np.testing.assert_allclose(out[0], expect, atol=1e-12)

    def test_two_layer_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        e, r, d, layers = 6, 2, 3, 2
        params = make_params(e, r, d, layers, rng)
        triples = [(0, 0, 1), (1, 1, 2), (3, 0, 1), (4, 1, 4), (2, 0, 5)]
        out = encode(triples, params, e, r, layers)

        # independent dense recomputation straight from the update rule
        edges = [(s, rel, o) for s, rel, o in triples]
        edges += [(o, rel + r, s) for s, rel, o in triples]
        h = params["entity.base"].data.copy()
        for l in range(layers):
            nxt = h @ params[f"rgcn.l{l}.self"].data
            for i in range(e):
                for rel in range(2 * r):
                    nbrs = [s for (s, rl, o) in edges if o == i and rl == rel]
                    if nbrs:
                        msg = sum(h[j] @ params[f"rgcn.l{l}.rel"].data[rel] for j in nbrs)
                        nxt[i] += msg / len(nbrs)
            h = np.maximum(nxt, 0.0) if l < layers - 1 else nxt
        np.testing.assert_allclose(out, h, atol=1e-10)

    def test_deterministic_no_hidden_state(self):
        rng = np.random.default_rng(4)
        params = make_params(4, 2, 3, 2, rng)
        triples = [(0, 0, 1), (2, 1, 3)]
        a = encode(triples, params, 4, 2, 2)
        b = encode(triples, params, 4, 2, 2)
        assert np.array_equal(a, b)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        e, r, d = 5, 2, 3
        params = make_params(e, r, d, 2, rng)
        triples = [(0, 0, 1), (1, 1, 2), (3, 0, 4), (4, 1, 0)]
        out = encode(triples, params, e, r, 2)

        perm = np.array([2, 0, 4, 1, 3])
        params2 = {k: constant(v.data.copy()) for k, v in params.items()}
        base = np.empty_like(params["entity.base"].data)
        base[perm] = params["entity.base"].data
        params2["entity.base"] = constant(base)
        triples2 = [(perm[s], rel, perm[o]) for s, rel, o in triples]
        out2 = encode(triples2, params2, e, r, 2)
        np.testing.assert_allclose(out2[perm], out, atol=1e-10)

    def test_locality_beyond_l_hops(self):
        # path 0-1-2-3; with two layers, perturbing entity 3's base embedding
        # cannot reach entity 0
        rng = np.random.default_rng(6)
        params = make_params(4, 1, 3, 2, rng)
        triples = [(0, 0, 1), (1, 0, 2), (2, 0, 3)]
        out = encode(triples, params, 4, 1, 2)
        base = params["entity.base"].data.copy()
        base[3] += 100.0
        params["entity.base"] = constant(base)
        out2 = encode(triples, params, 4, 1, 2)
        np.testing.assert_array_equal(out2[0], out[0])
        assert not np.allclose(out2[2], out[2])

    def test_gradients_flow_to_weights(self):
        rng = np.random.default_rng(7)
        tape = Tape()
        params = make_params(3, 1, 2, 2, rng, tape=tape)
        h = encode_one([[0, 0, 1]], params, entity_count=3, relation_count=1, layers=2)
        from tempkg import autodiff as ad
        loss = ad.reduce_sum(ad.mul(h, h))
        grads = tape.backward(loss)
        assert params["entity.base"].node_id in grads
        assert params["rgcn.l0.rel"].node_id in grads


class TestOneScatterPerLayer:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_output_matches_per_relation_oracle_off_tape(self, case):
        e, r, triples = ORACLE_CASES[case]
        params = make_params(e, r, 3, 2, np.random.default_rng(20))
        kwargs = dict(entity_count=e, relation_count=r, layers=2)
        got = encode_one(triples, params, **kwargs)
        want = encode_per_relation(triples, params, **kwargs)
        assert scaled_error(got.data, want.data) <= 1e-12

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_gradients_match_per_relation_oracle(self, case):
        e, r, triples = ORACLE_CASES[case]
        weights = np.random.default_rng(21).normal(size=(e, 3))
        results = []
        for fn in (encode_one, encode_per_relation):
            tape = Tape()
            params = make_params(e, r, 3, 2, np.random.default_rng(22), tape=tape)
            h = fn(np.array(triples, dtype=np.int64), params, entity_count=e,
                   relation_count=r, layers=2)
            grads = tape.backward(ad.reduce_sum(ad.mul(ad.tanh(h), constant(weights))))
            results.append((h.data, {name: grads.get(leaf.node_id)
                                     for name, leaf in params.items()}))
        (got_h, got), (want_h, want) = results
        assert scaled_error(got_h, want_h) <= 1e-12
        assert got.keys() == want.keys()
        for name in want:
            if want[name] is None:
                assert got[name] is None, name
            else:
                assert scaled_error(got[name], want[name]) <= 1e-12, name

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_one_gather_and_one_segment_matmul_per_layer(self, case, monkeypatch):
        e, r, triples = ORACLE_CASES[case]
        calls = []
        for name in ("gather_rows", "gather_rows_from", "segment_matmul", "matmul", "concat"):
            original = getattr(ad, name)

            def spy(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(ad, name, spy)
        params = make_params(e, r, 3, 2, np.random.default_rng(23))
        encode_one(triples, params, entity_count=e, relation_count=r, layers=2)
        # per layer: the edges' gather and transform, then the self-loop
        # matmul; an empty snapshot has no edges to gather or transform.
        # Layer 0 gathers from the base embedding, layer 1 from the
        # snapshot's own table
        edges = lambda gather: [gather, "segment_matmul"] if triples else []
        assert calls == (edges("gather_rows") + ["matmul"]
                         + edges("gather_rows_from") + ["matmul"])


# (entities, relations, snapshots): the oracle cases as one window, with an
# empty snapshot, a fact repeated in two snapshots (its (relation,
# destination) pair counts once in each) and a snapshot of one fact; a
# window with no edge at all; a window of one snapshot
WINDOW_CASES = {
    "mixed": (6, 3, [[(1, 0, 3), (0, 1, 2), (2, 1, 3), (4, 1, 3)], [],
                     [(4, 2, 0), (4, 2, 1), (3, 2, 0)],
                     [(0, 0, 1), (2, 0, 1), (3, 0, 1), (3, 0, 1), (1, 1, 1), (5, 1, 2),
                      (4, 1, 2), (0, 0, 5), (2, 1, 0)],
                     [(1, 0, 3)]]),
    "all_empty": (4, 2, [[], [], []]),
    "one_snapshot": (5, 2, [[(1, 0, 3), (0, 1, 2), (2, 1, 3), (4, 1, 3)]]),
}


def window_and_oracle(case, layers, on_tape=False):
    """(window encoding, per-snapshot oracle encoding) of a case, each with
    the parameters it ran on; on a tape, each gets a tape of its own."""
    e, r, window = WINDOW_CASES[case]
    kwargs = dict(entity_count=e, relation_count=r, layers=layers)
    out = []
    for run in ("window", "oracle"):
        tape = Tape() if on_tape else None
        params = make_params(e, r, 3, layers, np.random.default_rng(30), tape=tape)
        if run == "window":
            hs = rgcn.encode_snapshot(window_facts(window), params,
                                      snapshots=len(window), **kwargs)
        else:
            hs = [encode_per_snapshot(triples, params, **kwargs) for triples in window]
        out.append((hs, params, tape))
    return out


class TestWindowEncoding:
    def test_window_facts_index_each_snapshot(self):
        window = [np.array([[0, 1, 2]]), np.empty((0, 3), dtype=np.int64),
                  np.array([[3, 0, 1], [2, 2, 2]])]
        np.testing.assert_array_equal(window_facts(window),
                                      [[0, 1, 2, 0], [3, 0, 1, 2], [2, 2, 2, 2]])
        assert window_facts([[], []]).shape == (0, 4)

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(WINDOW_CASES))
    def test_matches_per_snapshot_oracle(self, case, layers):
        (got, _, _), (want, _, _) = window_and_oracle(case, layers)
        assert len(got) == len(want) == len(WINDOW_CASES[case][2])
        for g, w in zip(got, want):
            assert scaled_error(g.data, w.data) <= 1e-12

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("case", sorted(WINDOW_CASES))
    def test_gradients_match_per_snapshot_oracle(self, case, layers):
        e = WINDOW_CASES[case][0]
        weights = np.random.default_rng(31).normal(size=(len(WINDOW_CASES[case][2]), e, 3))
        results = []
        for hs, params, tape in window_and_oracle(case, layers, on_tape=True):
            loss = None
            for h, w in zip(hs, weights):
                term = ad.reduce_sum(ad.mul(ad.tanh(h), constant(w)))
                loss = term if loss is None else ad.add(loss, term)
            grads = tape.backward(loss)
            results.append({name: grads.get(leaf.node_id) for name, leaf in params.items()})
        got, want = results
        for name in want:
            if want[name] is None:
                assert got[name] is None, name
            else:
                assert scaled_error(got[name], want[name]) <= 1e-12, name

    @pytest.mark.parametrize("case", sorted(WINDOW_CASES))
    def test_one_segment_matmul_per_layer_for_the_window(self, case, monkeypatch):
        e, r, window = WINDOW_CASES[case]
        calls = []
        for name in ("segment_matmul", "matmul"):
            original = getattr(ad, name)

            def spy(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(ad, name, spy)
        params = make_params(e, r, 3, 2, np.random.default_rng(32))
        rgcn.encode_snapshot(window_facts(window), params, snapshots=len(window),
                             entity_count=e, relation_count=r, layers=2)
        # layer 0's self-loop term once for the window, layer 1's once per
        # snapshot; one relation transform per layer when the window has edges
        has_edges = any(len(triples) for triples in window)
        assert calls.count("segment_matmul") == 2 * has_edges
        assert calls.count("matmul") == 1 + len(window)


def edge_dropout_per_snapshot(window, current_index, current_rate, reference_rate, rng):
    """Oracle: the loop over a window's (m, 3) snapshots that the fact-array
    dropout replaced; each thinned snapshot draws its uniforms in a call of
    its own, and one at rate 0 or 1, or empty, draws none."""
    out = []
    for i, triples in enumerate(window):
        rate = current_rate if i == current_index else reference_rate
        if len(triples) == 0 or rate == 0.0:
            out.append(triples)
        elif rate == 1.0:
            out.append(triples[:0])
        else:
            keep = rng.random(len(triples)) >= rate
            out.append(triples[keep])
    return out


class TestEdgeDropout:
    def triples(self, n, rng):
        return rng.integers(0, 5, size=(n, 3)).astype(np.int64)

    def test_rate_zero_is_identity(self):
        rng = np.random.default_rng(8)
        facts = window_facts([self.triples(6, rng), self.triples(4, rng)])
        out = rgcn.temporal_edge_dropout(facts, 1, 0.0, 0.0, np.random.default_rng(0))
        assert np.array_equal(out, facts)

    def test_rate_one_empties_everything(self):
        rng = np.random.default_rng(9)
        facts = window_facts([self.triples(6, rng), self.triples(4, rng)])
        out = rgcn.temporal_edge_dropout(facts, 1, 1.0, 1.0, np.random.default_rng(0))
        assert out.shape == (0, 4)

    def test_half_rate_within_binomial_bound(self):
        rng = np.random.default_rng(10)
        facts = window_facts([self.triples(10_000, rng)])
        out = rgcn.temporal_edge_dropout(facts, 0, 0.5, 0.2, np.random.default_rng(1))
        kept = len(out)
        sigma = np.sqrt(10_000 * 0.25)
        assert abs(kept - 5_000) <= 3 * sigma

    def test_distinct_rates_per_position(self):
        rng = np.random.default_rng(11)
        facts = window_facts([self.triples(10_000, rng), self.triples(10_000, rng)])
        out = rgcn.temporal_edge_dropout(facts, 1, 0.5, 0.2, np.random.default_rng(2))
        kept = np.bincount(out[:, 3], minlength=2)
        assert abs(kept[0] - 8_000) <= 3 * np.sqrt(10_000 * 0.16)
        assert abs(kept[1] - 5_000) <= 3 * np.sqrt(10_000 * 0.25)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(12)
        facts = window_facts([self.triples(50, rng)])
        a = rgcn.temporal_edge_dropout(facts, 0, 0.5, 0.2, np.random.default_rng(3))
        b = rgcn.temporal_edge_dropout(facts, 0, 0.5, 0.2, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            rgcn.temporal_edge_dropout(window_facts([np.zeros((1, 3), dtype=np.int64)]), 0,
                                       1.5, 0.2, np.random.default_rng(0))

    @pytest.mark.parametrize("reference_rate", [0.0, 0.2, 0.5, 1.0])
    @pytest.mark.parametrize("current_rate", [0.0, 0.2, 0.5, 1.0])
    @pytest.mark.parametrize("current_index", [0, 1, 3])
    def test_matches_per_snapshot_loop(self, current_index, current_rate, reference_rate):
        # snapshot 1 is empty; the kept rows and the generator's state after
        # the call are the loop's
        rng = np.random.default_rng(13)
        window = [self.triples(n, rng) for n in (7, 0, 5, 9)]
        got_rng, want_rng = np.random.default_rng(14), np.random.default_rng(14)
        got = rgcn.temporal_edge_dropout(window_facts(window), current_index, current_rate,
                                         reference_rate, got_rng)
        want = edge_dropout_per_snapshot(window, current_index, current_rate,
                                         reference_rate, want_rng)
        np.testing.assert_array_equal(got, window_facts(want))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
