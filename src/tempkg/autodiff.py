"""Dense float64 tensors with reverse-mode differentiation.

A ``Tape`` records every primitive applied to tensors that live on it;
``Tape.backward`` replays the records once, in reverse creation order, and
returns gradients for the tape's leaves. Tensors without a tape evaluate
eagerly with no recording, so the same model code serves both training and
inference.

A primitive hands ``_result`` one gradient function per operand, and only
the functions of on-tape operands are recorded: an off-tape operand (a mask,
a decay delta, a constant) costs nothing in backward, and whatever only its
gradient would read is freed with the call. A gradient function keeps only
what it reads: the input's shape, not its array, when the gradient needs no
input values, and never a ``Tensor``, so a tape and its tensors form no
reference cycle and a tape is freed as soon as its last tensor goes.

Broadcasting follows one rule, shared by ``add``, ``sub`` and ``mul``: the two
operands have equal shapes, or one of them is a scalar (any size-1 shape), a
row ``(d,)``/``(1, d)`` against an ``(n, d)`` operand, or a column ``(n, 1)``
against an ``(n, d)`` operand. Everything else, an outer ``(n, 1)`` x
``(1, d)`` pair included, is a shape error. The gradient of a broadcast
operand is summed back to its shape. ``columns`` slices a column range, so
no operation needs a constant selection matrix.

Two primitives keep gathered copies off the tape: ``gathered_dots`` scores
each query vector against its own candidate rows of a table, and
``segment_matmul`` transforms contiguous row blocks, each by one stacked matrix.
Two more read a list of equal-shape blocks row by row, so no stacked copy
of the list is made: ``dots`` and ``mix``, each the other's backward.
``gather_rows_from`` gathers each row from one of a list of tables.

Products are row-stable: each output row of ``matmul``, ``segment_matmul``
and their input gradients is the same, bit for bit, in any product holding
it; weight gradients (``x.T @ g``) and ``gathered_dots``' scores are not.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import _kernels


class ShapeError(ValueError):
    pass


class Tensor:
    """A float64 array, optionally attached to a differentiation tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data: np.ndarray, tape: "Tape | None" = None, node_id: int = -1):
        self.data = data
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        where = "tape" if self.tape is not None else "const"
        return f"Tensor(shape={self.data.shape}, {where})"


def constant(value) -> Tensor:
    """Wrap an array-like as an off-tape tensor."""
    return Tensor(np.asarray(value, dtype=np.float64))


class Tape:
    """Ordered record of primitive applications.

    Each node stores its edges: one (operand node id, gradient function)
    pair per on-tape operand, the function mapping the node's output
    gradient to that operand's. A leaf has no edges. Nodes are replayed
    exactly once during ``backward``, highest id first, which is a valid
    topological order because nodes only ever reference earlier nodes.
    """

    def __init__(self):
        self._edges: list[tuple[tuple[int, Callable], ...]] = []

    def __len__(self) -> int:
        return len(self._edges)

    def _record(self, edges: tuple[tuple[int, Callable], ...]) -> int:
        self._edges.append(edges)
        return len(self._edges) - 1

    def leaf(self, data) -> Tensor:
        """Register a differentiable leaf (a trainable parameter)."""
        arr = np.asarray(data, dtype=np.float64)
        return Tensor(arr, self, self._record(()))

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Gradients of a scalar loss with respect to every reached leaf.

        Returns a map from leaf node id to gradient array; leaves the loss
        does not depend on are absent. Interior gradients are freed as the
        sweep uses them and nodes after the loss are never reached, so the
        gradients left at its end are exactly the reached leaves'.
        """
        if loss.tape is not self:
            raise ValueError("loss does not live on this tape")
        if loss.data.shape != ():
            raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
        grads: list[np.ndarray | None] = [None] * len(self._edges)
        grads[loss.node_id] = np.ones((), dtype=np.float64)
        for nid in range(loss.node_id, -1, -1):
            g, edges = grads[nid], self._edges[nid]
            if g is None or not edges:  # unreached, or a leaf keeping its gradient
                continue
            for pid, grad_fn in edges:
                pg = grad_fn(g)
                if pg is None:
                    continue
                grads[pid] = pg if grads[pid] is None else grads[pid] + pg
            grads[nid] = None  # free interior gradients as we go
        return {nid: g for nid, g in enumerate(grads) if g is not None}


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return constant(x)


def _result(data: np.ndarray, *edges: tuple[Tensor, Callable]) -> Tensor:
    """A primitive's output from one (operand, gradient function) pair per
    operand. It lives on its operands' tape and records the functions of the
    on-tape operands only; with no operand on a tape it is a constant."""
    tape = None
    for t, _ in edges:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ValueError("inputs live on different tapes")
            tape = t.tape
    if tape is None:
        return Tensor(data)
    return Tensor(data, tape, tape._record(tuple((t.node_id, grad_fn) for t, grad_fn in edges
                                                 if t.tape is not None)))


def _is_scalar_shape(shape: tuple[int, ...]) -> bool:
    return math.prod(shape) == 1


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    """The one broadcasting rule of add, sub and mul: equal shapes, or a scalar,
    a (d,)/(1, d) row or an (n, 1) column against an (n, d) operand."""
    for small, big in ((a.shape, b.shape), (b.shape, a.shape)):
        if (small == big or _is_scalar_shape(small)
                or (len(big) == 2 and small in ((big[1],), (1, big[1]), (big[0], 1)))):
            return
    raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape of an operand that passed
    ``_check_broadcast``: a scalar, an (n, 1) column or a row."""
    if grad.shape == shape:
        return grad
    if _is_scalar_shape(shape):
        return np.asarray(grad.sum(), dtype=np.float64).reshape(shape)
    if shape == (grad.shape[0], 1):
        return grad.sum(axis=1, keepdims=True)
    return grad.sum(axis=0).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "add")
    sa, sb = a.shape, b.shape
    return _result(a.data + b.data, (a, lambda g: _reduce_to(g, sa)),
                   (b, lambda g: _reduce_to(g, sb)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "sub")
    sa, sb = a.shape, b.shape
    return _result(a.data - b.data, (a, lambda g: _reduce_to(g, sa)),
                   (b, lambda g: _reduce_to(-g, sb)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "mul")
    ad, bd = a.data, b.data
    sa, sb = a.shape, b.shape
    return _result(ad * bd, (a, lambda g: _reduce_to(g * bd, sa)),
                   (b, lambda g: _reduce_to(g * ad, sb)))


def _row_product(x: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x @ w`` (into ``out``), each row rounded as in any product holding it:
    BLAS does so for a C-contiguous ``w`` and two rows or more, so one is doubled."""
    w = np.ascontiguousarray(w)
    if len(x) != 1:
        return np.matmul(x, w, out=out)
    return np.positive(np.matmul(np.vstack([x, x]), w)[:1], out=out)   # a copy into out


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    return _result(_row_product(ad, bd), (a, lambda g: _row_product(g, bd.T)),
                   (b, lambda g: ad.T @ g))


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    return _result(out, (a, lambda g: g * out))


def log(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    return _result(np.log(ad), (a, lambda g: g / ad))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, without a branch
    out = np.exp(np.minimum(ad, 0.0)) / (1.0 + np.exp(-np.abs(ad)))
    return _result(out, (a, lambda g: g * out * (1.0 - out)))


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)
    return _result(out, (a, lambda g: g * (1.0 - out * out)))


def relu(a) -> Tensor:
    return maximum(a, 0.0)


def maximum(a, c: float) -> Tensor:
    """Elementwise max with a constant; gradient flows where a > c."""
    a = _as_tensor(a)
    mask = a.data > c
    return _result(np.maximum(a.data, c), (a, lambda g: g * mask))


def masked_softmax(a, mask: np.ndarray) -> Tensor:
    """Row-wise softmax over entries where ``mask`` is True.

    Masked entries behave as if the logit were -inf: they get weight exactly 0
    and receive zero gradient. A row with no unmasked entry is an error.

    ``mask`` has to share the memory order of the logits (both C- or both
    column-major): the max, the exp and the row check each pass over the
    mask with ``where``, and against the other order every pass strides
    across it, which made the softmax 1.5 to 5 times slower at temp-sa shapes.
    The output does not depend on the mask's order.
    """
    a = _as_tensor(a)
    ad = a.data
    if ad.ndim != 2:
        raise ShapeError(f"masked_softmax expects a 2-d tensor, got {ad.shape}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != ad.shape:
        raise ShapeError(f"mask shape {mask.shape} != logits shape {ad.shape}")
    if not mask.any(axis=1).all():
        raise ValueError("masked_softmax: a row has every entry masked")
    rowmax = ad.max(axis=1, keepdims=True, where=mask, initial=-np.inf)
    out = np.exp(ad - rowmax, where=mask, out=np.zeros_like(ad))
    out /= out.sum(axis=1, keepdims=True)
    return _result(out, (a, lambda g: out * (g - (g * out).sum(axis=1, keepdims=True))))


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if axis not in (0, 1):
        raise ShapeError("concat supports axis 0 or 1")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    cuts = np.cumsum([0] + [t.data.shape[axis] for t in tensors]).tolist()
    return _result(out, *((t, lambda g, lo=lo, hi=hi: g[lo:hi] if axis == 0 else g[:, lo:hi])
                          for t, lo, hi in zip(tensors, cuts, cuts[1:])))


def columns(a, start: int, stop: int) -> Tensor:
    """Columns ``start:stop`` of a 2-d tensor, as a copy."""
    a = _as_tensor(a)
    if a.data.ndim != 2 or not 0 <= start < stop <= a.shape[1]:
        raise ShapeError(f"columns: range {start}:{stop} is empty or outside {a.shape}")
    shape = a.shape

    def grad(g):
        ga = np.zeros(shape, dtype=np.float64)
        ga[:, start:stop] = g
        return ga

    return _result(a.data[:, start:stop].copy(), (a, grad))


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    """The same entries in row-major order under a new shape of equal size."""
    a = _as_tensor(a)
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {tuple(shape)}")
    in_shape = a.shape
    return _result(a.data.reshape(shape), (a, lambda g: g.reshape(in_shape)))


def gather_rows(a, index) -> Tensor:
    """Select rows of a 2-d tensor: out[i] = a[index[i]]."""
    a = _as_tensor(a)
    index = np.asarray(index, dtype=np.int64)
    if a.data.ndim != 2 or index.ndim != 1:
        raise ShapeError("gather_rows expects a 2-d tensor and a 1-d index")
    n = a.shape[0]
    if index.size and (index.min() < 0 or index.max() >= n):
        raise ShapeError("gather_rows: index out of range")
    return _result(a.data[index], (a, lambda g: _kernels.scatter_add_rows(n, index, g)))


def gather_rows_from(tables: Sequence, which, index) -> Tensor:
    """out[i] = tables[which[i]][index[i]] for 2-d tables of one width: a
    ``gather_rows`` that reads each row from the table ``which`` names. A
    table none of whose rows is read gets no gradient."""
    tables = [_as_tensor(t) for t in tables]
    which, index = (np.asarray(a, dtype=np.int64) for a in (which, index))
    if (not tables or any(t.data.ndim != 2 or t.shape[1] != tables[0].shape[1] for t in tables)
            or which.ndim != 1 or index.shape != which.shape):
        raise ShapeError("gather_rows_from expects 2-d tables of one width and "
                         "1-d table and row indices of one length")
    if which.size and (which.min() < 0 or which.max() >= len(tables)):
        raise ShapeError("gather_rows_from: table index out of range")
    sizes = np.array([t.shape[0] for t in tables])
    if index.size and (index.min() < 0 or np.any(index >= sizes[which])):
        raise ShapeError("gather_rows_from: row index out of range")
    picks = [np.flatnonzero(which == p) for p in range(len(tables))]
    out = np.empty((len(index), tables[0].shape[1]), dtype=np.float64)
    for t, rows in zip(tables, picks):
        out[rows] = t.data[index[rows]]
    return _result(out, *((t, lambda g, n=n, rows=rows: _kernels.scatter_add_rows(
                               n, index[rows], g[rows]) if len(rows) else None)
                          for t, n, rows in zip(tables, sizes.tolist(), picks)))


def gathered_dots(qv, table, ids=None) -> Tensor:
    """out[i, j] = qv[i] . table[ids[i, j]] for (m, d) ``qv``, (E, d) ``table``
    and (m, k) ``ids``; without ``ids``, out = qv @ table.T, every row's
    score against every table row.

    One (m, d) @ (d, E) product scores every row, and the picked entries are
    read from it; no (m * k, d) copy of the gathered rows is made. Backward
    builds the dense (m, E) gradient G with repeated ids added up, then gives
    G @ table to ``qv`` and G.T @ qv to ``table``, building G once for each
    operand on the tape; without ``ids`` G is the output gradient itself.
    A query's scores can move in the last bits with the other queries: through
    ``_row_product`` they would not, but its (d, E) copy of the table takes
    7 ms at E = 7128, d = 128, six times a 25-query product.
    """
    qv, table = _as_tensor(qv), _as_tensor(table)
    if ids is not None:
        ids = np.asarray(ids, dtype=np.int64)
    if (qv.data.ndim != 2 or table.data.ndim != 2 or qv.shape[1] != table.shape[1]
            or ids is not None and (ids.ndim != 2 or ids.shape[0] != qv.shape[0])):
        raise ShapeError(f"gathered_dots: incompatible shapes {qv.shape}, "
                         f"{table.shape} and ids {None if ids is None else ids.shape}")
    m, e = qv.shape[0], table.shape[0]
    if ids is not None and ids.size and (ids.min() < 0 or ids.max() >= e):
        raise ShapeError("gathered_dots: index out of range")
    qd, td = qv.data, table.data
    out = qd @ td.T
    if ids is not None:
        out = np.take_along_axis(out, ids, axis=1)

    def dense(g):
        if ids is None:
            return g
        flat = (np.arange(m, dtype=np.int64)[:, None] * e + ids).ravel()
        return np.bincount(flat, weights=g.ravel(), minlength=m * e).reshape(m, e)

    return _result(out, (qv, lambda g: dense(g) @ td), (table, lambda g: dense(g).T @ qd))


def _row_dots(a: np.ndarray, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """out[n, p] = a[n] . blocks[p][n], one block at a time."""
    out = np.empty((len(blocks), a.shape[0]), dtype=np.float64)
    for p, blk in enumerate(blocks):
        np.einsum("ij,ij->i", a, blk, out=out[p])
    return out.T


def _row_mix(w: np.ndarray, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """out[n] = sum_p w[n, p] * blocks[p][n], summed in block order."""
    out = np.einsum("n,nd->nd", w[:, 0], blocks[0])
    term = np.empty_like(out)
    for p in range(1, len(blocks)):
        out += np.einsum("n,nd->nd", w[:, p], blocks[p], out=term)
    return out


def _check_blocks(op: str, blocks: Sequence[Tensor], shape=None) -> None:
    """Every block is 2-d and of one shape: ``shape`` when given."""
    if shape is None:
        shape = blocks[0].shape if blocks else ()
    if not blocks or len(shape) != 2 or any(b.shape != shape for b in blocks):
        raise ShapeError(f"{op}: blocks {[b.shape for b in blocks]} are not all "
                         f"one 2-d shape {shape}")


def dots(q, blocks: Sequence) -> Tensor:
    """out[n, p] = q[n] . blocks[p][n] for an (n, d) ``q`` and equal-shape
    (n, d) blocks: every row's dot product with its own row of each block.
    Backward gives ``mix`` of the gradient over the blocks to ``q``, and
    g[:, p] * q to block p."""
    q, blocks = _as_tensor(q), [_as_tensor(b) for b in blocks]
    _check_blocks("dots", blocks, q.shape)
    qd, bd = q.data, [b.data for b in blocks]
    return _result(_row_dots(qd, bd), (q, lambda g: _row_mix(g, bd)),
                   *((b, lambda g, p=p: g[:, p:p + 1] * qd) for p, b in enumerate(blocks)))


def mix(w, blocks: Sequence) -> Tensor:
    """out[n] = sum_p w[n, p] * blocks[p][n] for (n, P) weights ``w`` and P
    equal-shape (n, d) blocks: each row's weighted sum of its own rows.
    Backward gives ``dots`` of the gradient with the blocks to ``w``, and
    w[:, p] * g to block p."""
    w, blocks = _as_tensor(w), [_as_tensor(b) for b in blocks]
    _check_blocks("mix", blocks)
    if w.shape != (blocks[0].shape[0], len(blocks)):
        raise ShapeError(f"mix: weights {w.shape} for {len(blocks)} blocks of "
                         f"{blocks[0].shape}")
    wd, bd = w.data, [b.data for b in blocks]
    return _result(_row_mix(wd, bd), (w, lambda g: _row_dots(g, bd)),
                   *((b, lambda g, p=p: wd[:, p:p + 1] * g) for p, b in enumerate(blocks)))


def segment_matmul(x, w, bounds) -> Tensor:
    """Row block ``bounds[k]:bounds[k + 1]`` of an (N, n) ``x`` times ``w[k]``,
    for every matrix of a (K, n, m) stack ``w`` at once: one tape node for any K.

    ``bounds`` has K + 1 entries, starts at 0, never decreases and ends at N,
    so a block may be empty. Each block's product and gradients are written
    in place into its slice of one output array, so no block makes a temporary
    but a one-row block's product and, for the input gradient, the block's
    contiguous transpose; an empty block's weight gradient stays zero.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    bounds = np.asarray(bounds, dtype=np.int64)
    xd, wd = x.data, w.data
    if (xd.ndim != 2 or wd.ndim != 3 or wd.shape[1] != xd.shape[1]
            or bounds.shape != (len(wd) + 1,) or bounds[0] != 0
            or bounds[-1] != xd.shape[0] or np.any(np.diff(bounds) < 0)):
        raise ShapeError(f"segment_matmul: bounds {bounds.tolist()} and weights {wd.shape} "
                         f"do not split {xd.shape} into blocks")
    blocks = [(k, lo, hi) for k, (lo, hi) in enumerate(zip(bounds[:-1].tolist(),
                                                           bounds[1:].tolist())) if hi > lo]
    out = np.empty((xd.shape[0], wd.shape[2]), dtype=np.float64)
    for k, lo, hi in blocks:
        _row_product(xd[lo:hi], wd[k], out=out[lo:hi])
    x_shape, w_shape = xd.shape, wd.shape

    def grad_x(g):
        gx = np.empty(x_shape, dtype=np.float64)
        for k, lo, hi in blocks:
            _row_product(g[lo:hi], wd[k].T, out=gx[lo:hi])
        return gx

    def grad_w(g):
        gw = np.zeros(w_shape, dtype=np.float64)
        for k, lo, hi in blocks:
            np.matmul(xd[lo:hi].T, g[lo:hi], out=gw[k])
        return gw

    return _result(out, (x, grad_x), (w, grad_w))


def scatter_add_rows(src, index, num_rows: int) -> Tensor:
    """Accumulate rows of ``src`` into a (num_rows, d) zero tensor at ``index``."""
    src = _as_tensor(src)
    if src.data.ndim != 2:
        raise ShapeError("scatter_add_rows expects a 2-d tensor")
    index = np.asarray(index, dtype=np.int64)
    if index.shape != (src.shape[0],):
        raise ShapeError("scatter_add_rows: index length must match source rows")
    if index.size and (index.min() < 0 or index.max() >= num_rows):
        raise ShapeError("scatter_add_rows: index out of range")
    return _result(_kernels.scatter_add_rows(num_rows, index, src.data),
                   (src, lambda g: g[index]))


def reduce_sum(a, axis: int | None = None) -> Tensor:
    """Sum reduction. axis=None gives a scalar; axis 0/1 keeps dims."""
    a = _as_tensor(a)
    ad = a.data
    if axis is None:
        out = np.asarray(ad.sum(), dtype=np.float64)
    else:
        if ad.ndim != 2 or axis not in (0, 1):
            raise ShapeError("axis reduction requires a 2-d tensor and axis 0 or 1")
        out = ad.sum(axis=axis, keepdims=True)
    shape = ad.shape
    return _result(out, (a, lambda g: np.broadcast_to(g, shape)))


def absolute(a) -> Tensor:
    """|a| composed from the primitive set: relu(a) + relu(-a)."""
    return add(relu(a), relu(mul(a, -1.0)))
