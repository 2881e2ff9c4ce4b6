"""Multi-relational message passing over each snapshot of a window.

Each layer updates every entity with the mean of its relation-transformed
in-neighbors plus a self-loop transform:

    h_i <- act( sum_r (1/|N_i^r|) sum_{j in N_i^r} h_j W_r  +  h_i W_self )

For every stored triple (s, r, o) the object receives a message under r and
the subject receives one under the paired inverse relation r + R, so context
flows both ways. Weight matrices are shared across all time steps. Hidden
layers use ReLU; the final layer is linear so downstream decoders see
unbounded coordinates.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant


def with_inverse_edges(facts: np.ndarray, relation_count: int) -> np.ndarray:
    """(m, k) facts (s, r, o, ...) -> (2m, k) directed edges (src, rel, dst, ...):
    each fact, then its inverse with subject and object swapped and the
    relation offset by R; any further columns are kept."""
    inv = facts.copy()
    inv[:, [0, 2]] = facts[:, [2, 0]]
    inv[:, 1] += relation_count
    return np.vstack([facts, inv])


def encode_snapshot(facts: np.ndarray, params: dict[str, Tensor], *, snapshots: int,
                    entity_count: int, relation_count: int, layers: int) -> list[Tensor]:
    """Structural embeddings of every entity at each snapshot of a window,
    from its (n, 4) facts (s, r, o, i), ``i`` in [0, snapshots): one (E, d)
    tensor per snapshot.

    Snapshots share no edge, so each is encoded exactly as on its own, and
    one without edges gets the self-loop-only propagation of the base
    embedding. The relation weights are shared across time, so each layer
    transforms every edge of the window with one ``segment_matmul`` of its
    (2R, d, d) relation weights, one block per relation direction, empty
    blocks included; the self-loop term, the activation and the scatter
    stay per snapshot. Layer 0 reads only the base embedding, so its
    self-loop term is computed once and its sources are gathered from it.
    """
    facts = np.asarray(facts, dtype=np.int64).reshape(-1, 4)
    edges = with_inverse_edges(facts, relation_count)
    edges = edges[np.argsort(edges[:, 1], kind="stable")]
    src, rel, dst, snap = edges.T
    bounds = np.searchsorted(rel, np.arange(2 * relation_count + 1))
    # mean over in-neighbors: scale each message by 1/|N_dst^rel| of its snapshot
    _, pair, pair_count = np.unique((rel * snapshots + snap) * entity_count + dst,
                                    return_inverse=True, return_counts=True)
    scale = constant(1.0 / pair_count[pair][:, None])
    # each snapshot's edge rows, in relation order
    by_snap = np.argsort(snap, kind="stable")
    cuts = np.searchsorted(snap[by_snap], np.arange(snapshots + 1)).tolist()
    rows = [by_snap[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    base = params["entity.base"]
    h = [base] * snapshots
    for layer in range(layers):
        w_self = params[f"rgcn.l{layer}.self"]
        if len(edges):
            sources = (ad.gather_rows(h[0], src) if layer == 0
                       else ad.gather_rows_from(h, snap, src))
            msgs = ad.mul(ad.segment_matmul(sources, params[f"rgcn.l{layer}.rel"], bounds),
                          scale)
        loop = ad.matmul(base, w_self) if layer == 0 else None
        for i, own in enumerate(rows):
            # a snapshot's nodes are made together, so backward frees its (E, d)
            # gradients snapshot by snapshot; off the tape, writing h[i] frees its input
            total = loop if layer == 0 else ad.matmul(h[i], w_self)
            if len(own):
                mine = msgs if len(own) == len(edges) else ad.gather_rows(msgs, own)
                total = ad.add(total, ad.scatter_add_rows(mine, dst[own], entity_count))
            h[i] = ad.relu(total) if layer < layers - 1 else total
    return h


def temporal_edge_dropout(facts: np.ndarray, current_index: int, current_rate: float,
                          reference_rate: float, rng: np.random.Generator) -> np.ndarray:
    """Independently drop facts from each snapshot of a window's (n, 4)
    (s, r, o, i) array, keeping the rows in order.

    Facts of the snapshot ``i == current_index`` are dropped at
    ``current_rate``; every other snapshot's at ``reference_rate``. Rates are
    drop probabilities. Only rows whose rate is strictly inside (0, 1) draw a
    uniform, one each in row order, all in one ``rng.random`` call.
    """
    for rate in (current_rate, reference_rate):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"dropout rate {rate} outside [0, 1]")
    rate = np.where(facts[:, 3] == current_index, current_rate, reference_rate)
    keep = rate < 1.0
    drawn = keep & (rate > 0.0)
    keep[drawn] = rng.random(np.count_nonzero(drawn)) >= rate[drawn]
    return facts[keep]
