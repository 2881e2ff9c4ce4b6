"""Hot numeric kernels, written as whole-array numpy operations.

``adam_update`` works in place on its first argument; the others return a fresh
array. Their cost on the real call mix:
``python3 perfbench/run.py --workload <w> --trace 1``.
"""

import numpy as np

BACKEND = "numpy"


def scatter_add_rows(num_rows, index, src):
    """A fresh (num_rows, d) array of row sums out[i] = sum of src[e] over index[e] == i;
    bincount adds each bin in input order, so it is bit-identical to np.add.at."""
    d = src.shape[1]
    flat = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, src.ravel(), num_rows * d).reshape(num_rows, d)


def decay_accumulate(num_slots, slots, times, t, sigma):
    """A fresh (num_slots,) array of decay sums out[k] = sum of
    exp(-sigma * |t - times[i]|) over slots[i] == k, the inner loop of the
    decay-rule baseline; bincount adds each bin in input order, so it is
    bit-identical to np.add.at."""
    w = np.exp(-sigma * np.abs(t - times).astype(np.float64))
    return np.bincount(slots, w, num_slots)


def adam_update(param, grad, m, v, lr, beta1, beta2, eps, bc1, bc2):
    """In-place moment update and parameter step. bc1/bc2 are the
    bias-correction denominators 1 - beta^t, computed once per step by the
    caller. The temporaries of m = beta1 * m + (1 - beta1) * grad,
    v = beta2 * v + (1 - beta2) * grad * grad and
    param -= lr * (m / bc1) / (sqrt(v / bc2) + eps) go into two
    parameter-sized scratch arrays, each float operation in that order."""
    s, t = np.empty_like(param), np.empty_like(param)
    m *= beta1
    m += np.multiply(1.0 - beta1, grad, out=s)
    v *= beta2
    np.multiply(1.0 - beta2, grad, out=s)
    v += np.multiply(s, grad, out=s)
    np.multiply(lr, np.divide(m, bc1, out=s), out=s)
    np.sqrt(np.divide(v, bc2, out=t), out=t)
    t += eps
    param -= np.divide(s, t, out=s)
