import gc
import weakref

import numpy as np
import pytest

from tempkg import _kernels, autodiff as ad
from tempkg.autodiff import Tape, constant

from gradcheck import finite_difference, max_relative_error


def grads_for(build, arrays, h=1e-5):
    """Analytic and finite-difference gradients of a scalar graph.

    ``build`` maps leaf tensors to a scalar Tensor expression.
    """
    tape = Tape()
    leaves = [tape.leaf(a) for a in arrays]
    loss = build(*leaves)
    gmap = tape.backward(loss)
    analytic = [gmap.get(leaf.node_id, np.zeros_like(a)) for leaf, a in zip(leaves, arrays)]

    def f(*arrs):
        ls = [constant(a) for a in arrs]
        return build(*ls).item()

    numeric = finite_difference(f, arrays, h=h)
    return analytic, numeric


class TestForward:
    def test_matmul_identity(self):
        a = constant([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, constant(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_sigmoid_zero(self):
        assert ad.sigmoid(constant(0.0)).item() == 0.5

    def test_masked_softmax_symmetry_and_mask(self):
        x = constant([[1.0, 1.0, 123.0]])
        mask = np.array([[True, True, False]])
        out = ad.masked_softmax(x, mask)
        np.testing.assert_allclose(out.data, [[0.5, 0.5, 0.0]], atol=1e-15)

    def test_masked_softmax_all_masked_row_errors(self):
        with pytest.raises(ValueError):
            ad.masked_softmax(constant([[1.0, 2.0]]), np.array([[False, False]]))

    def test_masked_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = constant(rng.normal(size=(6, 5)))
        mask = rng.random((6, 5)) < 0.6
        mask[:, 0] = True
        out = ad.masked_softmax(x, mask).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out >= 0).all()
        assert (out[~mask] == 0).all()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ad.ShapeError):
            ad.add(constant(np.zeros((2, 3))), constant(np.zeros((3, 2))))
        with pytest.raises(ad.ShapeError):
            ad.mul(constant(np.zeros((2, 3))), constant(np.zeros((2, 2))))
        with pytest.raises(ad.ShapeError):
            ad.matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 2))))

    def test_row_bias_add(self):
        out = ad.add(constant(np.ones((3, 2))), constant([10.0, 20.0]))
        np.testing.assert_array_equal(out.data, [[11, 21], [11, 21], [11, 21]])

    def test_column_operand_scales_rows(self):
        out = ad.mul(constant([[2.0], [3.0]]), constant(np.ones((2, 3))))
        np.testing.assert_array_equal(out.data, [[2, 2, 2], [3, 3, 3]])

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    def test_outer_column_row_pair_raises(self, op):
        col, row = constant(np.ones((3, 1))), constant(np.ones((1, 4)))
        with pytest.raises(ad.ShapeError):
            op(col, row)
        with pytest.raises(ad.ShapeError):
            op(row, col)
        with pytest.raises(ad.ShapeError):
            op(constant(np.ones((3, 4))), constant(np.ones((4, 1))))

    def test_columns_copies_range(self):
        x = constant(np.arange(6, dtype=float).reshape(2, 3))
        np.testing.assert_array_equal(ad.columns(x, 1, 3).data, [[1, 2], [4, 5]])
        np.testing.assert_array_equal(ad.columns(x, 0, 1).data, [[0], [3]])

    @pytest.mark.parametrize("start,stop", [(1, 1), (2, 1), (-1, 2), (0, 4), (3, 4)])
    def test_columns_empty_or_out_of_range_raises(self, start, stop):
        with pytest.raises(ad.ShapeError):
            ad.columns(constant(np.zeros((2, 3))), start, stop)

    def test_columns_needs_two_dims(self):
        with pytest.raises(ad.ShapeError):
            ad.columns(constant(np.zeros(3)), 0, 1)

    def test_reshape_keeps_row_major_order(self):
        x = constant(np.arange(6, dtype=float).reshape(6, 1))
        np.testing.assert_array_equal(ad.reshape(x, (2, 3)).data, [[0, 1, 2], [3, 4, 5]])

    @pytest.mark.parametrize("shape", [(4, 2), (7,), (2, 2, 2)])
    def test_reshape_size_mismatch_raises(self, shape):
        with pytest.raises(ad.ShapeError):
            ad.reshape(constant(np.zeros((6, 1))), shape)

    def test_gather_and_scatter(self):
        x = constant(np.arange(8, dtype=float).reshape(4, 2))
        got = ad.gather_rows(x, [2, 0, 2])
        np.testing.assert_array_equal(got.data, [[4, 5], [0, 1], [4, 5]])
        back = ad.scatter_add_rows(got, [1, 1, 3], num_rows=4)
        np.testing.assert_array_equal(back.data, [[0, 0], [4, 6], [0, 0], [4, 5]])

    def test_gathered_dots_picks_row_products(self):
        rng = np.random.default_rng(47)
        qv, table = rng.normal(size=(3, 4)), rng.normal(size=(6, 4))
        ids = np.array([[5, 5, 0], [1, 2, 1], [0, 3, 4]])
        got = ad.gathered_dots(constant(qv), constant(table), ids).data
        want = np.einsum("id,ijd->ij", qv, table[ids])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("qv, table, ids", [
        ((3, 4), (6, 5), np.zeros((3, 2))),    # feature widths differ
        ((3, 4), (6, 4), np.zeros((2, 2))),    # one id row per query
        ((3, 4), (6, 4), np.zeros(3)),         # ids are 2-d
        ((3, 4), (6, 4), np.full((3, 2), 6)),  # out of range
        ((3, 4), (6, 4), np.full((3, 2), -1)),
    ])
    def test_gathered_dots_bad_shapes_raise(self, qv, table, ids):
        with pytest.raises(ad.ShapeError):
            ad.gathered_dots(constant(np.ones(qv)), constant(np.ones(table)), ids)

    def test_segment_matmul_transforms_each_block(self):
        rng = np.random.default_rng(53)
        x = rng.normal(size=(6, 3))
        ws = [rng.normal(size=(3, 2)) for _ in range(4)]
        bounds = [0, 1, 1, 4, 6]   # a one-row block and an empty block
        got = ad.segment_matmul(constant(x), [constant(w) for w in ws], bounds).data
        want = np.vstack([x[lo:hi] @ w for w, lo, hi in zip(ws, bounds[:-1], bounds[1:])])
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bounds, widths", [
        ([0, 2], [(3, 2), (3, 2)]),     # one bound too few
        ([1, 2, 4], [(3, 2), (3, 2)]),  # does not start at 0
        ([0, 2, 5], [(3, 2), (3, 2)]),  # does not end at the row count
        ([0, 3, 2, 4], [(3, 2)] * 3),   # decreasing
        ([0, 2, 4], [(3, 2), (3, 3)]),  # weights of different widths
        ([0, 2, 4], [(2, 2), (2, 2)]),  # weights do not take 3 columns
        ([0, 4], []),                   # no weights
    ])
    def test_segment_matmul_bad_bounds_raise(self, bounds, widths):
        with pytest.raises(ad.ShapeError):
            ad.segment_matmul(constant(np.ones((4, 3))),
                              [constant(np.ones(w)) for w in widths], bounds)


class TestBackward:
    def test_square_at_three(self):
        tape = Tape()
        x = tape.leaf(3.0)
        loss = ad.mul(x, x)
        g = tape.backward(loss)[x.node_id]
        assert g == pytest.approx(6.0)

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)))
        with pytest.raises(ad.ShapeError):
            tape.backward(ad.mul(x, 2.0))

    def test_sum_sigmoid_matmul_matches_fd(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(3, 4))
        x = rng.normal(size=(4, 2))
        analytic, numeric = grads_for(
            lambda wl, xl: ad.reduce_sum(ad.sigmoid(ad.matmul(wl, xl))), [w, x])
        assert max_relative_error(analytic, numeric) < 1e-5

    @pytest.mark.parametrize("name,build", [
        ("add_bias", lambda a, b: ad.reduce_sum(ad.tanh(ad.add(a, b)))),
        ("sub", lambda a, b: ad.reduce_sum(ad.exp(ad.sub(a, b)) * 0.1)),
        ("mul", lambda a, b: ad.reduce_sum(ad.mul(a, b))),
        ("matmul", lambda a, b: ad.reduce_sum(ad.matmul(a, ad.tanh(b)))),
    ])
    def test_binary_ops_match_fd(self, name, build):
        rng = np.random.default_rng(hash(name) % 2**32)
        if name == "add_bias":
            arrays = [rng.normal(size=(3, 4)), rng.normal(size=(4,))]
        elif name == "matmul":
            arrays = [rng.normal(size=(3, 4)), rng.normal(size=(4, 3))]
        else:
            arrays = [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]
        analytic, numeric = grads_for(build, arrays)
        assert max_relative_error(analytic, numeric) < 1e-5

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    @pytest.mark.parametrize("shape", [(4,), (1, 4), (3, 1)])
    @pytest.mark.parametrize("small_first", [False, True])
    def test_broadcast_operand_matches_fd(self, op, shape, small_first):
        # a row or column operand against a (3, 4) one, on either side
        rng = np.random.default_rng(31)
        big, small = rng.normal(size=(3, 4)), rng.normal(size=shape)
        arrays = [small, big] if small_first else [big, small]
        analytic, numeric = grads_for(lambda a, b: ad.reduce_sum(ad.tanh(op(a, b))), arrays)
        assert [g.shape for g in analytic] == [a.shape for a in arrays]
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_columns_match_fd(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(3, 5))

        def build(xl):
            left, right = ad.columns(xl, 0, 2), ad.columns(xl, 3, 5)
            return ad.reduce_sum(ad.tanh(ad.mul(left, right)))

        analytic, numeric = grads_for(build, [x])
        assert max_relative_error(analytic, numeric) < 1e-5
        assert np.all(analytic[0][:, 2] == 0.0)

    def test_reshape_matches_fd(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(6, 1))
        w = rng.normal(size=(3, 2))

        def build(xl):
            return ad.reduce_sum(ad.tanh(ad.mul(ad.reshape(xl, (3, 2)), constant(w))))

        analytic, numeric = grads_for(build, [x])
        assert analytic[0].shape == (6, 1)
        assert max_relative_error(analytic, numeric) < 1e-5

    @pytest.mark.parametrize("op, needs_values", [
        (lambda h: ad.add(h, 1.0), False),
        (lambda h: ad.sub(1.0, h), False),
        (lambda h: ad.reduce_sum(h, axis=1), False),
        (lambda h: ad.columns(h, 0, 2), False),
        (lambda h: ad.gather_rows(h, [2, 0, 2]), False),
        (lambda h: ad.mul(h, h), True),
        (lambda h: ad.gathered_dots(h, h, [[2, 0], [1, 1], [0, 2]]), True),
        (lambda h: ad.segment_matmul(h, [h, constant(np.eye(3))], [0, 1, 3]), True),
    ], ids=["add", "sub", "reduce_sum", "columns", "gather_rows", "mul",
            "gathered_dots", "segment_matmul"])
    def test_backward_closure_drops_input_values(self, op, needs_values):
        # a backward closure holds arrays, never a Tensor, which would tie its
        # tape into a reference cycle; with the cyclic collector off the tape
        # must still die with its last tensor. When the gradient needs only the
        # input's shape, the closure must not keep the input array alive either.
        gc.disable()
        try:
            rng = np.random.default_rng(43)
            tape = Tape()
            a, w = tape.leaf(rng.normal(size=(3, 4))), tape.leaf(rng.normal(size=(4, 3)))
            h = ad.matmul(a, w)
            y = op(h)
            r = weakref.ref(h.data)
            del h
            if not needs_values:
                assert r() is None
            grads = tape.backward(ad.reduce_sum(ad.mul(y, y)))
            assert a.node_id in grads and w.node_id in grads
            tape_ref = weakref.ref(tape)
            del tape, a, w, y
            assert tape_ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("unary", [ad.exp, ad.sigmoid, ad.tanh,
                                       lambda t: ad.log(ad.add(ad.mul(t, t), 1.0)),
                                       lambda t: ad.relu(t),
                                       lambda t: ad.maximum(t, 0.3)])
    def test_unary_ops_match_fd(self, unary):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 3)) * 2.0
        # keep clear of the relu/max kinks so central differences are valid
        x[np.abs(x) < 1e-2] += 0.05
        x[np.abs(x - 0.3) < 1e-2] += 0.05
        analytic, numeric = grads_for(lambda t: ad.reduce_sum(unary(t)), [x])
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_scalar_mul_and_scalar_tensor(self):
        rng = np.random.default_rng(11)
        s = np.array(0.7)
        x = rng.normal(size=(3, 3))
        analytic, numeric = grads_for(lambda sl, xl: ad.reduce_sum(ad.mul(sl, xl)), [s, x])
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_concat_and_reductions_match_fd(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 2))

        def build(al, bl):
            c = ad.concat([al, bl], axis=1)
            return ad.reduce_sum(ad.mul(ad.reduce_mean(c, axis=1), ad.reduce_sum(c, axis=1)))

        analytic, numeric = grads_for(build, [a, b])
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_gather_scatter_match_fd(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(5, 3))
        idx = np.array([0, 2, 2, 4])

        def build(xl):
            g = ad.gather_rows(xl, idx)
            s = ad.scatter_add_rows(g, np.array([1, 0, 1, 2]), num_rows=3)
            return ad.reduce_sum(ad.tanh(s))

        analytic, numeric = grads_for(build, [x])
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_gathered_dots_match_fd(self):
        # ids repeat within a row and across rows, so gradients add up
        rng = np.random.default_rng(59)
        qv, table = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        ids = np.array([[2, 2, 0, 4], [1, 3, 1, 1], [4, 0, 2, 2]])
        w = rng.normal(size=ids.shape)

        def build(ql, tl):
            return ad.reduce_sum(ad.mul(ad.tanh(ad.gathered_dots(ql, tl, ids)), constant(w)))

        analytic, numeric = grads_for(build, [qv, table])
        assert max_relative_error(analytic, numeric) < 1e-5
        assert np.all(analytic[1][np.setdiff1d(np.arange(5), ids)] == 0.0)

    def test_segment_matmul_matches_fd(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(6, 3))
        ws = [rng.normal(size=(3, 2)) for _ in range(4)]
        bounds = [0, 1, 1, 4, 6]
        w = rng.normal(size=(6, 2))

        def build(xl, *wl):
            return ad.reduce_sum(ad.mul(ad.tanh(ad.segment_matmul(xl, wl, bounds)),
                                        constant(w)))

        analytic, numeric = grads_for(build, [x] + ws)
        assert max_relative_error(analytic, numeric) < 1e-5
        assert np.all(analytic[2] == 0.0)   # the empty block's weight

    def test_masked_softmax_matches_fd(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(4, 5))
        mask = np.ones((4, 5), dtype=bool)
        mask[:, 3] = False
        w = rng.normal(size=(5, 1))

        def build(xl):
            beta = ad.masked_softmax(xl, mask)
            return ad.reduce_sum(ad.matmul(beta, constant(w)))

        analytic, numeric = grads_for(build, [x])
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_masked_column_gets_zero_gradient(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(3, 4))
        v = rng.normal(size=(4, 2))
        mask = np.ones((3, 4), dtype=bool)
        mask[:, 1] = False

        def weighted_sum(xl, vl):
            beta = ad.masked_softmax(xl, mask)
            return ad.reduce_sum(ad.matmul(beta, vl))

        analytic, numeric = grads_for(weighted_sum, [x, v])
        assert max_relative_error(analytic, numeric) < 1e-5
        assert np.all(analytic[0][:, 1] == 0.0)
        # the masked column contributes nothing, so its value rows get no signal
        assert np.all(np.abs(numeric[0][:, 1]) < 1e-9)

    def test_reused_tensor_accumulates(self):
        tape = Tape()
        x = tape.leaf(np.array([2.0]))
        y = ad.add(ad.mul(x, x), ad.mul(x, 3.0))  # x^2 + 3x
        g = tape.backward(ad.reduce_sum(y))[x.node_id]
        np.testing.assert_allclose(g, [7.0])

    def test_tape_replay_determinism(self):
        rng = np.random.default_rng(29)
        w = rng.normal(size=(4, 4))
        x = rng.normal(size=(4, 4))

        def run():
            tape = Tape()
            wl, xl = tape.leaf(w.copy()), tape.leaf(x.copy())
            loss = ad.reduce_sum(ad.sigmoid(ad.matmul(wl, xl)))
            g = tape.backward(loss)
            return loss.item(), g[wl.node_id].copy(), g[xl.node_id].copy()

        l1, gw1, gx1 = run()
        l2, gw2, gx2 = run()
        assert l1 == l2
        assert np.array_equal(gw1, gw2) and np.array_equal(gx1, gx2)


# The engine's earlier formulations, kept as oracles: the rewritten primitives
# must match them bit for bit, gradients included.

def sigmoid_two_branch(x):
    """1 / (1 + e^-x) where x >= 0 and e^x / (1 + e^x) elsewhere, written
    through boolean-mask reads and writes."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def masked_softmax_neg_inf(x, mask):
    """Masked entries filled with -inf, exponentiated, then zeroed."""
    shifted = np.where(mask, x, -np.inf)
    e = np.exp(shifted - shifted.max(axis=1, keepdims=True))
    e[~mask] = 0.0
    return e / e.sum(axis=1, keepdims=True)


def scatter_add_at(num_rows, index, src):
    """out[index[e]] += src[e] through np.add.at on a zero array."""
    out = np.zeros((num_rows, src.shape[1]))
    np.add.at(out, index, src)
    return out


def forward_and_grad(op, x, w):
    """op(x) and the gradient of sum(op(x) * w) with respect to x."""
    tape = Tape()
    xl = tape.leaf(x)
    out = op(xl)
    return out.data, tape.backward(ad.reduce_sum(ad.mul(out, constant(w))))[xl.node_id]


class TestRewriteOracles:
    def test_sigmoid_matches_two_branch_oracle(self):
        rng = np.random.default_rng(71)
        special = [800.0, -800.0, 0.0, -0.0, np.nan, np.inf, -np.inf, 36.0, -36.0,
                   710.0, -745.0, 1e-300, -1e-300]
        x = np.concatenate([special, rng.normal(scale=3.0, size=51),
                            rng.normal(scale=40.0, size=16)]).reshape(8, 10)
        w = rng.normal(size=x.shape)
        out, grad = forward_and_grad(ad.sigmoid, x, w)
        want = sigmoid_two_branch(x)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(grad, w * want * (1.0 - want))
        assert np.signbit(out).sum() == 0   # -0.0 maps to 0.5, -800 to +0.0

    def test_masked_softmax_matches_neg_inf_oracle(self):
        rng = np.random.default_rng(73)
        x = rng.normal(scale=5.0, size=(7, 6))
        x[0] = [800.0, 710.0, -1000.0, 3.0, 700.0, 0.0]   # large logits
        x[1] = [-800.0, -745.0, -1000.0, -900.0, -710.0, -799.0]
        x[2, 4] = np.inf                                   # masked out below
        x[3, 0] = np.nan                                   # masked out below
        mask = rng.random(x.shape) < 0.6
        mask[0] = [True, True, True, False, True, True]
        mask[1] = True
        mask[2] = [False, False, False, False, False, True]  # one unmasked entry
        mask[3] = [False, True, False, False, False, False]
        mask[4] = [True, False, False, False, False, False]
        mask[5:, 2] = True
        w = rng.normal(size=x.shape)
        out, grad = forward_and_grad(lambda t: ad.masked_softmax(t, mask), x, w)
        want = masked_softmax_neg_inf(x, mask)
        np.testing.assert_array_equal(out, want)
        inner = (w * want).sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(grad, want * (w - inner))
        np.testing.assert_array_equal(out[2:5].sum(axis=1), [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("rows, index", [
        (5, [3, 3, 3, 0, 3, 1, 3, 3]),            # repeats, in a fixed order
        (4, [2] * 40),                           # one row takes every source
        (6, []),                                 # empty index
        (3, [0, 1, 2]),
    ])
    @pytest.mark.parametrize("d", [1, 4])
    def test_scatter_matches_add_at_oracle(self, rows, index, d):
        rng = np.random.default_rng(79)
        index = np.array(index, dtype=np.int64)
        src = rng.normal(scale=1e3, size=(len(index), d)) * rng.random((len(index), 1))
        want = scatter_add_at(rows, index, src)
        got = ad.scatter_add_rows(constant(src), index, num_rows=rows).data
        assert got.shape == (rows, d)
        np.testing.assert_array_equal(got, want)
        # gather_rows sends its gradient back through the same kernel
        x = rng.normal(size=(rows, d))
        out, grad = forward_and_grad(lambda t: ad.gather_rows(t, index), x, src)
        np.testing.assert_array_equal(out, x[index])
        np.testing.assert_array_equal(grad, want)

    def test_scatter_kernel_takes_a_strided_source(self):
        rng = np.random.default_rng(83)
        index = rng.integers(0, 9, size=300)
        src = rng.normal(size=(5, 300)).T           # a non-contiguous view
        np.testing.assert_array_equal(_kernels.scatter_add_rows(9, index, src),
                                      scatter_add_at(9, index, src))

    def test_gather_needs_a_flat_index(self):
        with pytest.raises(ad.ShapeError):
            ad.gather_rows(constant(np.ones((4, 2))), np.array([[0, 1], [2, 3]]))
