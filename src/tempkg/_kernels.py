"""Hot numeric kernels, written as whole-array numpy operations.

Each kernel works in place on its first argument. Their cost on the real call
mix is reported per kernel by ``python3 perfbench/run.py --workload <w> --trace 1``.
"""

import numpy as np

BACKEND = "numpy"


def scatter_add_rows(out, index, src):
    """Row-wise accumulate out[index[e]] += src[e]; repeated indices add up."""
    np.add.at(out, index, src)
    return out


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
