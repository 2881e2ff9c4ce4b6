"""Dense float64 tensors with reverse-mode differentiation.

A ``Tape`` records every primitive applied to tensors that live on it;
``Tape.backward`` replays the records once, in reverse creation order, and
returns gradients for the tape's leaves. Tensors without a tape evaluate
eagerly with no recording, so the same model code serves both training and
inference. A backward closure keeps only what it reads: the input's shape,
not its array, when the gradient needs no input values, and never a
``Tensor``, so a tape and its tensors form no reference cycle and a batch's
tape is freed as soon as its last tensor goes.

Broadcasting follows one rule, shared by ``add``, ``sub`` and ``mul``: the two
operands have equal shapes, or one of them is a scalar (any size-1 shape), a
row ``(d,)``/``(1, d)`` against an ``(n, d)`` operand, or a column ``(n, 1)``
against an ``(n, d)`` operand. Everything else, an outer ``(n, 1)`` x
``(1, d)`` pair included, is a shape error. The gradient of a broadcast
operand is summed back to its shape. ``columns`` slices a column range, so
no operation needs a constant selection matrix.

Two primitives keep gathered copies off the tape: ``gathered_dots`` scores
each query vector against its own candidate rows of a table, and
``segment_matmul`` transforms contiguous row blocks, each by its own matrix.
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

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(constant(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


def constant(value) -> Tensor:
    """Wrap an array-like as an off-tape tensor."""
    return Tensor(np.asarray(value, dtype=np.float64))


class Tape:
    """Ordered record of primitive applications.

    Each node stores its parents' node ids and a function mapping the output
    gradient to per-parent gradients. Nodes are replayed exactly once during
    ``backward``, highest id first, which is a valid topological order because
    nodes only ever reference earlier nodes.
    """

    def __init__(self):
        self._parents: list[tuple[int, ...]] = []
        self._backs: list[Callable | None] = []
        self._leaf_ids: list[int] = []

    def __len__(self) -> int:
        return len(self._parents)

    def _record(self, parents: tuple[int, ...], back: Callable | None) -> int:
        self._parents.append(parents)
        self._backs.append(back)
        return len(self._parents) - 1

    def leaf(self, data) -> Tensor:
        """Register a differentiable leaf (a trainable parameter)."""
        arr = np.asarray(data, dtype=np.float64)
        nid = self._record((), None)
        self._leaf_ids.append(nid)
        return Tensor(arr, self, nid)

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Gradients of a scalar loss with respect to every reached leaf.

        Returns a map from leaf node id to gradient array; leaves the loss
        does not depend on are absent.
        """
        if loss.tape is not self:
            raise ValueError("loss does not live on this tape")
        if loss.data.shape != ():
            raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
        grads: list[np.ndarray | None] = [None] * len(self._parents)
        grads[loss.node_id] = np.ones((), dtype=np.float64)
        for nid in range(loss.node_id, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            back = self._backs[nid]
            if back is None:
                continue
            parent_grads = back(g)
            for pid, pg in zip(self._parents[nid], parent_grads):
                if pg is None:
                    continue
                if grads[pid] is None:
                    grads[pid] = pg
                else:
                    grads[pid] = grads[pid] + pg
            grads[nid] = None  # free interior gradients as we go
        leaf_set = set(self._leaf_ids)
        return {nid: g for nid, g in enumerate(grads) if g is not None and nid in leaf_set}


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return constant(x)


def _result(data: np.ndarray, inputs: Sequence[Tensor], back: Callable | None) -> Tensor:
    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ValueError("inputs live on different tapes")
            tape = t.tape
    if tape is None:
        return Tensor(data)
    parents = tuple(t.node_id for t in inputs if t.tape is not None)
    live = [t.tape is not None for t in inputs]

    def dispatch(g):
        full = back(g)
        return tuple(pg for pg, keep in zip(full, live) if keep)

    return Tensor(data, tape, tape._record(parents, dispatch))


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
    out = a.data + b.data
    sa, sb = a.shape, b.shape

    def back(g):
        return _reduce_to(g, sa), _reduce_to(g, sb)

    return _result(out, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "sub")
    out = a.data - b.data
    sa, sb = a.shape, b.shape

    def back(g):
        return _reduce_to(g, sa), _reduce_to(-g, sb)

    return _result(out, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "mul")
    ad, bd = a.data, b.data
    out = ad * bd
    sa, sb = a.shape, b.shape

    def back(g):
        return _reduce_to(g * bd, sa), _reduce_to(g * ad, sb)

    return _result(out, (a, b), back)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd

    def back(g):
        return g @ bd.T, ad.T @ g

    return _result(out, (a, b), back)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)

    def back(g):
        return (g * out,)

    return _result(out, (a,), back)


def log(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    out = np.log(ad)

    def back(g):
        return (g / ad,)

    return _result(out, (a,), back)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, without a branch
    out = np.exp(np.minimum(ad, 0.0)) / (1.0 + np.exp(-np.abs(ad)))

    def back(g):
        return (g * out * (1.0 - out),)

    return _result(out, (a,), back)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)

    def back(g):
        return (g * (1.0 - out * out),)

    return _result(out, (a,), back)


def relu(a) -> Tensor:
    return maximum(a, 0.0)


def maximum(a, c: float) -> Tensor:
    """Elementwise max with a constant; gradient flows where a > c."""
    a = _as_tensor(a)
    ad = a.data
    out = np.maximum(ad, c)
    mask = ad > c

    def back(g):
        return (g * mask,)

    return _result(out, (a,), back)


def masked_softmax(a, mask: np.ndarray) -> Tensor:
    """Row-wise softmax over entries where ``mask`` is True.

    Masked entries behave as if the logit were -inf: they get weight exactly 0
    and receive zero gradient. A row with no unmasked entry is an error.
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
    e = np.exp(ad - rowmax, where=mask, out=np.zeros_like(ad))
    out = e / e.sum(axis=1, keepdims=True)

    def back(g):
        inner = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - inner),)

    return _result(out, (a,), back)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if axis not in (0, 1):
        raise ShapeError("concat supports axis 0 or 1")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        if axis == 0:
            return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(sizes)))
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

    return _result(out, tensors, back)


def columns(a, start: int, stop: int) -> Tensor:
    """Columns ``start:stop`` of a 2-d tensor, as a copy."""
    a = _as_tensor(a)
    if a.data.ndim != 2 or not 0 <= start < stop <= a.shape[1]:
        raise ShapeError(f"columns: range {start}:{stop} is empty or outside {a.shape}")
    out = a.data[:, start:stop].copy()
    shape = a.shape

    def back(g):
        ga = np.zeros(shape, dtype=np.float64)
        ga[:, start:stop] = g
        return (ga,)

    return _result(out, (a,), back)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    """The same entries in row-major order under a new shape of equal size."""
    a = _as_tensor(a)
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {tuple(shape)}")
    out, in_shape = a.data.reshape(shape), a.shape

    def back(g):
        return (g.reshape(in_shape),)

    return _result(out, (a,), back)


def gather_rows(a, index) -> Tensor:
    """Select rows of a 2-d tensor: out[i] = a[index[i]]."""
    a = _as_tensor(a)
    index = np.asarray(index, dtype=np.int64)
    if a.data.ndim != 2 or index.ndim != 1:
        raise ShapeError("gather_rows expects a 2-d tensor and a 1-d index")
    n = a.shape[0]
    if index.size and (index.min() < 0 or index.max() >= n):
        raise ShapeError("gather_rows: index out of range")
    out = a.data[index]

    def back(g):
        return (_kernels.scatter_add_rows(n, index, g),)

    return _result(out, (a,), back)


def gathered_dots(qv, table, ids) -> Tensor:
    """out[i, j] = qv[i] . table[ids[i, j]] for (m, d) ``qv``, (E, d) ``table``
    and (m, k) ``ids``.

    One (m, d) @ (d, E) product scores every row, and the picked entries are
    read from it; no (m * k, d) copy of the gathered rows is made. Backward
    builds the dense (m, E) gradient G with repeated ids added up, then gives
    G @ table to ``qv`` and G.T @ qv to ``table``.
    """
    qv, table = _as_tensor(qv), _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if (qv.data.ndim != 2 or table.data.ndim != 2 or qv.shape[1] != table.shape[1]
            or ids.ndim != 2 or ids.shape[0] != qv.shape[0]):
        raise ShapeError(f"gathered_dots: incompatible shapes {qv.shape}, "
                         f"{table.shape} and ids {ids.shape}")
    m, e = qv.shape[0], table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= e):
        raise ShapeError("gathered_dots: index out of range")
    qd, td = qv.data, table.data
    out = np.take_along_axis(qd @ td.T, ids, axis=1)

    def back(g):
        flat = (np.arange(m, dtype=np.int64)[:, None] * e + ids).ravel()
        dense = np.bincount(flat, weights=g.ravel(), minlength=m * e).reshape(m, e)
        return dense @ td, dense.T @ qd

    return _result(out, (qv, table), back)


def segment_matmul(x, weights: Sequence, bounds) -> Tensor:
    """Row block ``bounds[i]:bounds[i + 1]`` of ``x`` times ``weights[i]``, for
    every block at once: one tape node for any number of blocks.

    ``bounds`` starts at 0, never decreases and ends at the row count of
    ``x``; it has one entry more than ``weights``.
    """
    x = _as_tensor(x)
    weights = [_as_tensor(w) for w in weights]
    bounds = np.asarray(bounds, dtype=np.int64)
    xd, wd = x.data, [w.data for w in weights]
    if (xd.ndim != 2 or bounds.shape != (len(wd) + 1,) or bounds[0] != 0
            or bounds[-1] != xd.shape[0] or np.any(np.diff(bounds) < 0)):
        raise ShapeError(f"segment_matmul: bounds {bounds.tolist()} do not split "
                         f"{x.shape} into {len(wd)} blocks")
    if not wd or any(w.shape != wd[0].shape or w.shape[0] != xd.shape[1] for w in wd):
        raise ShapeError(f"segment_matmul: weights {[w.shape for w in wd]} do not "
                         f"all map {xd.shape[1]} columns")
    blocks = list(zip(wd, bounds[:-1].tolist(), bounds[1:].tolist()))
    out = np.empty((xd.shape[0], wd[0].shape[1]), dtype=np.float64)
    for w, lo, hi in blocks:
        out[lo:hi] = xd[lo:hi] @ w

    def back(g):
        gx = np.empty_like(xd)
        for w, lo, hi in blocks:
            gx[lo:hi] = g[lo:hi] @ w.T
        return (gx, *(xd[lo:hi].T @ g[lo:hi] for w, lo, hi in blocks))

    return _result(out, (x, *weights), back)


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
    out = _kernels.scatter_add_rows(num_rows, index, src.data)

    def back(g):
        return (g[index],)

    return _result(out, (src,), back)


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

    def back(g):
        return (np.broadcast_to(g, shape),)

    return _result(out, (a,), back)


def reduce_mean(a, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    if axis is None:
        n = ad.size
    else:
        n = ad.shape[axis]
    return mul(reduce_sum(a, axis), 1.0 / n)


def absolute(a) -> Tensor:
    """|a| composed from the primitive set: relu(a) + relu(-a)."""
    return add(relu(a), relu(mul(a, -1.0)))
