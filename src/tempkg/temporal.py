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


def gru_cell(x: Tensor, h: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    """Standard gated recurrent cell: update/reset gates plus candidate state."""
    p = lambda k: params[f"{prefix}.{k}"]
    z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, p("wz")), ad.matmul(h, p("uz"))), p("bz")))
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, p("wr")), ad.matmul(h, p("ur"))), p("br")))
    hbar = ad.tanh(ad.add(ad.add(ad.matmul(x, p("wh")),
                                 ad.matmul(ad.mul(r, h), p("uh"))), p("bh")))
    return ad.add(ad.mul(z, h), ad.mul(ad.sub(constant(1.0), z), hbar))


def last_active(held: np.ndarray, positions: list[int]) -> np.ndarray:
    """(len(positions) + 1, E) table over the (W, E) activity rows ``held``:
    row i holds each entity's latest index into ``positions`` among
    ``positions[:i]`` at which it is active, or -1 where there is none."""
    ranks = np.where(held[positions], np.arange(len(positions))[:, None], -1)
    return np.maximum.accumulate(np.vstack([np.full((1, held.shape[1]), -1), ranks]))


def window_sides(steps: int, target_pos: int, bidirectional: bool) -> list[list[int]]:
    """Window positions before the target and, bidirectionally, after it;
    each side ordered from far to near."""
    sides = [list(range(target_pos))]
    if bidirectional:
        sides.append(list(range(steps - 1, target_pos, -1)))
    return sides


def _decayed_hidden(h: Tensor, last: np.ndarray, pos: int, lam: Tensor, b: Tensor) -> Tensor:
    """gamma(pos - last) * h. An entity with no earlier active step (last = -1)
    still has its all-zero initial row, so any weight leaves it zero."""
    return ad.mul(h, decay_column(pos - last, lam, b))


def _chain(x_steps, held, positions, target_pos, params, prefix):
    """Run the recurrence over one side of the window and return the
    target-step output.

    ``positions`` are window indices ordered from far to near; the entity
    chain only advances on steps where the entity is active, so an inactive
    gap only grows the decay distance, never breaks the chain. The cell runs
    on each such step's active rows only, and on all rows at the target,
    where every entity is a candidate.
    """
    lam, b = params["decay.z.lam"], params["decay.z.b"]
    last = last_active(held, positions)
    h = constant(np.zeros(x_steps[target_pos].shape))
    for i, pos in enumerate(positions):
        rows = np.flatnonzero(held[pos])
        if len(rows):
            zhat = _decayed_hidden(ad.gather_rows(h, rows), last[i, rows], i, lam, b)
            cell = gru_cell(ad.gather_rows(x_steps[pos], rows), zhat, params, prefix)
            index = np.arange(len(held[pos]))   # active row rows[k] reads cell row k
            index[rows] = np.arange(len(rows))
            h = ad.gather_rows_from([h, cell], held[pos], index)
    zhat = _decayed_hidden(h, last[-1], len(positions), lam, b)
    return gru_cell(x_steps[target_pos], zhat, params, prefix)


def encode_gru(x_steps: list[Tensor], active: np.ndarray, target_pos: int,
               params: dict[str, Tensor], *, bidirectional: bool = False) -> Tensor:
    """Temporal embeddings at the target step via decayed recurrence.

    ``x_steps[i]`` is the (n, d) structural embedding at window position i and
    ``active[i]`` the matching row of the (W, n) boolean activity array.
    Entities with no active step before the target see a zero hidden state,
    i.e. z = GRU(x_t, 0). Bidirectionally, an independently parameterized cell
    consumes the future side and the two outputs are summed.
    """
    z = None
    for positions, prefix in zip(window_sides(len(x_steps), target_pos, bidirectional),
                                 ("gru.f", "gru.b")):
        side = _chain(x_steps, active, positions, target_pos, params, prefix)
        z = side if z is None else ad.add(z, side)
    return z


def keys_values(xs: list[Tensor], wk: Tensor, wv: Tensor) -> list[tuple[Tensor, Tensor]]:
    """Each step embedding's keys and values under the (d, heads, d / heads)
    projections ``wk`` and ``wv``, each read as (d, d) once for all of ``xs``:
    the (n * heads, d / heads) reshape of x @ w, head k of entity e in row e * heads + k."""
    dim, heads, dh = wk.shape
    wk, wv = (ad.reshape(w, (dim, dim)) for w in (wk, wv))
    return [tuple(ad.reshape(ad.matmul(x, w), (x.shape[0] * heads, dh)) for w in (wk, wv))
            for x in xs]


def encode_sa(x_target: Tensor, kv: list[tuple[Tensor, Tensor]], active: np.ndarray,
              target_pos: int, params: dict[str, Tensor]) -> Tensor:
    """Temporal embeddings via decay-penalized, activity-masked attention.

    Attention logits combine the scaled query-key product with a penalty
    max(0, lambda * |dt| + b); steps where the entity is inactive, per the
    (W, n) boolean array ``active``, are masked out entirely. An entity
    inactive at every window step falls back to attending only to its own
    target-step representation, which equals the value projection of x_t.

    Every head runs in one pass: the (d, heads, d / heads) leaf ``sa.wq``,
    whose ``[:, k]`` is head k, is read as one (d, d) query projection of
    ``x_target``, and head k of entity e is row ``e * heads + k`` of its
    (n * heads, d / heads) reshape. ``kv[p]`` is window step p's
    ``keys_values`` pair, laid out alike. The logits of all steps are one
    ``dots`` of the queries with the keys, and the output one ``mix`` of the
    values by the attention weights.

    ``dots`` returns its (n * heads, W) logits column-major, so the mask is
    built as the (W, n * heads) step-major array and handed to
    ``masked_softmax`` transposed, in the logits' memory order; a row-major
    mask would make every masked pass of the softmax stride across it.
    """
    n, dim = x_target.shape
    heads, dh = params["sa.wq"].shape[1:]
    steps = active.copy()
    steps[target_pos, ~active.any(axis=0)] = True
    offsets = np.abs(np.arange(len(kv)) - target_pos).astype(np.float64).reshape(1, -1)
    penalty = decay_exponent(offsets, params["decay.z.lam"], params["decay.z.b"])
    q = ad.reshape(ad.matmul(x_target, ad.reshape(params["sa.wq"], (dim, dim))),
                   (n * heads, dh))
    logits = ad.sub(ad.mul(ad.dots(q, [k for k, _ in kv]), 1.0 / np.sqrt(dh)), penalty)
    del q   # off the tape nothing else holds q or the logits: free each once read
    beta = ad.masked_softmax(logits, np.repeat(steps, heads, axis=1).T)
    del logits
    return ad.reshape(ad.mix(beta, [v for _, v in kv]), (n, dim))


def add_positional(z: Tensor, positional: Tensor, t: int) -> Tensor:
    """Add the step-t positional vector to every entity's embedding."""
    if t >= positional.shape[0]:
        raise ValueError(f"time step {t} outside positional table of {positional.shape[0]}")
    return ad.add(z, ad.gather_rows(positional, np.array([t])))
