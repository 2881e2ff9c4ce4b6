"""Temporal encoders: decay-weighted recurrence and masked self-attention.

Both integrate a window of per-step structural embeddings into one temporal
embedding per entity at the target step. Historical influence is
down-weighted by gamma = exp(-max(0, lambda * dt + b)) with learnable scalars
lambda and b, so gamma always lies in (0, 1] and never increases with
temporal distance while lambda >= 0.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant


def decay_exponent(deltas, lam: Tensor, b: Tensor) -> Tensor:
    """max(0, lambda * dt + b) elementwise on the tape: the exponent of the
    decay weight, and the self-attention logit penalty."""
    return ad.relu(ad.add(ad.mul(constant(deltas), lam), b))


def decay_column(deltas, lam: Tensor, b: Tensor) -> Tensor:
    """Per-entity decay weights gamma as an (n, 1) tensor on the tape."""
    d = np.asarray(deltas, dtype=np.float64).reshape(-1, 1)
    return ad.exp(ad.mul(decay_exponent(d, lam, b), -1.0))


def decay_weight(delta_t: float, lam: float, b: float) -> float:
    """Scalar decay weight in (0, 1] for a nonnegative step difference."""
    if delta_t < 0:
        raise ValueError("delta_t must be nonnegative")
    return float(decay_column([delta_t], constant(lam), constant(b)).data[0, 0])


def gru_cell(x: Tensor, h: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    """Standard gated recurrent cell: update/reset gates plus candidate state."""
    p = lambda k: params[f"{prefix}.{k}"]
    z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, p("wz")), ad.matmul(h, p("uz"))), p("bz")))
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, p("wr")), ad.matmul(h, p("ur"))), p("br")))
    hbar = ad.tanh(ad.add(ad.add(ad.matmul(x, p("wh")),
                                 ad.matmul(ad.mul(r, h), p("uh"))), p("bh")))
    return ad.add(ad.mul(z, h), ad.mul(ad.sub(constant(1.0), z), hbar))


def _decayed_hidden(h: Tensor, last_seen: np.ndarray, pos: int,
                    lam: Tensor, b: Tensor) -> Tensor:
    """gamma(pos - last_seen) * h, zeroed for entities with no seen step."""
    has_prev = last_seen >= 0
    deltas = np.where(has_prev, pos - last_seen, 1).astype(np.float64)
    mask = constant(has_prev.astype(np.float64)[:, None])
    return ad.mul(ad.mul(h, decay_column(deltas, lam, b)), mask)


def _chain(x_steps, active, positions, target_pos, params, prefix, lam, b, dim, n):
    """Run the recurrence over one direction and return the target-step output.

    ``positions`` are window indices ordered from far to near; the entity
    chain only advances on steps where the entity is active, so an inactive
    gap only grows the decay distance, never breaks the chain.
    """
    h = constant(np.zeros((n, dim)))
    last_seen = np.full(n, -1, dtype=np.int64)
    pos_rank = {p: i for i, p in enumerate(positions)}
    for pos in positions:
        act = active[pos]
        if not act.any():
            continue
        zhat = _decayed_hidden(h, last_seen, pos_rank[pos], lam, b)
        h_new = gru_cell(x_steps[pos], zhat, params, prefix)
        m = constant(act.astype(np.float64)[:, None])
        h = ad.add(ad.mul(h_new, m), ad.mul(h, ad.sub(constant(1.0), m)))
        last_seen[act] = pos_rank[pos]
    zhat = _decayed_hidden(h, last_seen, len(positions), lam, b)
    return gru_cell(x_steps[target_pos], zhat, params, prefix)


def encode_gru(x_steps: list[Tensor], active: list[np.ndarray], target_pos: int,
               params: dict[str, Tensor], *, bidirectional: bool = False) -> Tensor:
    """Temporal embeddings at the target step via decayed recurrence.

    ``x_steps[i]`` is the (n, d) structural embedding at window position i and
    ``active[i]`` the matching boolean activity row. Entities with no active
    step before the target see a zero hidden state, i.e. z = GRU(x_t, 0).
    Bidirectionally, an independently parameterized cell consumes the future
    side and the two outputs are summed.
    """
    n, dim = x_steps[target_pos].shape
    lam, b = params["decay.z.lam"], params["decay.z.b"]
    past = list(range(target_pos))
    z = _chain(x_steps, active, past, target_pos, params, "gru.f", lam, b, dim, n)
    if bidirectional:
        future = list(range(len(x_steps) - 1, target_pos, -1))
        z_b = _chain(x_steps, active, future, target_pos, params, "gru.b", lam, b, dim, n)
        z = ad.add(z, z_b)
    return z


def encode_sa(x_steps: list[Tensor], active: list[np.ndarray], target_pos: int,
              params: dict[str, Tensor], *, heads: int) -> Tensor:
    """Temporal embeddings via decay-penalized, activity-masked attention.

    Attention logits combine the scaled query-key product with a penalty
    max(0, lambda * |dt| + b); steps where the entity is inactive are masked
    out entirely. An entity inactive at every window step falls back to
    attending only to its own target-step representation, which equals the
    value projection of x_t.

    Every head runs in one pass: the per-head ``sa.h{k}.wq/wk/wv`` leaves are
    concatenated into (d, d) projections, and head k of entity e is row
    ``e * heads + k`` of the (n * heads, d / heads) reshape of a projection.
    """
    n, dim = x_steps[target_pos].shape
    if dim % heads:
        raise ValueError(f"embedding dim {dim} not divisible by {heads} heads")
    rows, dh = n * heads, dim // heads
    wq, wk, wv = (ad.concat([params[f"sa.h{k}.{nm}"] for k in range(heads)], axis=1)
                  for nm in ("wq", "wk", "wv"))
    mask = np.stack(active, axis=1)
    mask[~mask.any(axis=1), target_pos] = True
    offsets = np.abs(np.arange(len(x_steps)) - target_pos).astype(np.float64).reshape(1, -1)
    penalty = decay_exponent(offsets, params["decay.z.lam"], params["decay.z.b"])
    q = ad.matmul(x_steps[target_pos], wq)
    dots = [ad.reduce_sum(ad.reshape(ad.mul(q, ad.matmul(x, wk)), (rows, dh)), axis=1)
            for x in x_steps]
    logits = ad.sub(ad.mul(ad.concat(dots, axis=1), 1.0 / np.sqrt(dh)), penalty)
    beta = ad.masked_softmax(logits, np.repeat(mask, heads, axis=0))
    z = None
    for p, x in enumerate(x_steps):
        term = ad.mul(ad.columns(beta, p, p + 1), ad.reshape(ad.matmul(x, wv), (rows, dh)))
        z = term if z is None else ad.add(z, term)
    return ad.reshape(z, (n, dim))


def add_positional(z: Tensor, positional: Tensor, t: int) -> Tensor:
    """Add the step-t positional vector to every entity's embedding."""
    if t >= positional.shape[0]:
        raise ValueError(f"time step {t} outside positional table of {positional.shape[0]}")
    return ad.add(z, ad.gather_rows(positional, np.array([t])))
