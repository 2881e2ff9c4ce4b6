"""Central finite-difference gradient oracle shared across test modules."""

import numpy as np


def finite_difference(f, arrays, h=1e-5):
    """Gradient of scalar-valued f(*arrays) w.r.t. each array, by central differences."""
    grads = []
    base = [np.ascontiguousarray(a, dtype=np.float64) for a in arrays]
    for k, arr in enumerate(base):
        g = np.zeros(arr.shape, dtype=np.float64)
        flat = g.reshape(-1)
        for i in range(arr.size):
            plus = [a.copy() for a in base]
            minus = [a.copy() for a in base]
            plus[k].reshape(-1)[i] += h
            minus[k].reshape(-1)[i] -= h
            flat[i] = (f(*plus) - f(*minus)) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor=1e-3):
    """max |a - n| / max(|a|, |n|, floor) over all elements of all arrays."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        a = np.asarray(a, dtype=np.float64)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def scaled_error(got, want):
    """max |got - want| / max |want|: the error relative to the largest
    entry, for comparing a rewrite with the loop version it replaces (the
    plain max |got - want| when ``want`` is all zero)."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    diff = np.max(np.abs(got - want), initial=0.0)
    scale = np.max(np.abs(want), initial=0.0)
    return diff / scale if scale else diff
