"""Hot numeric kernels, written as whole-array numpy operations.

Each kernel but ``scatter_add_rows`` works in place on its first argument. Their
cost on the real call mix: ``python3 perfbench/run.py --workload <w> --trace 1``.
"""

import numpy as np

BACKEND = "numpy"


def scatter_add_rows(num_rows, index, src):
    """A fresh (num_rows, d) array of row sums out[i] = sum of src[e] over index[e] == i;
    bincount adds each bin in input order, so it is bit-identical to np.add.at."""
    d = src.shape[1]
    flat = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, src.ravel(), num_rows * d).reshape(num_rows, d)


def decay_accumulate(scores, entities, times, t, sigma):
    """scores[entities[i]] += exp(-sigma * |t - times[i]|), the inner loop of
    the decay-rule baseline."""
    w = np.exp(-sigma * np.abs(t - times).astype(np.float64))
    np.add.at(scores, entities, w)
    return scores


def adam_update(param, grad, m, v, lr, beta1, beta2, eps, bc1, bc2):
    """In-place moment update and parameter step. bc1/bc2 are the
    bias-correction denominators 1 - beta^t, computed once per step by the
    caller."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    param -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
