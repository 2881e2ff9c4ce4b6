"""Per-snapshot multi-relational message passing.

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


def with_inverse_edges(triples: np.ndarray, relation_count: int) -> np.ndarray:
    """(m, 3) triples -> (2m, 3) directed edges (src, rel, dst), inverses offset by R."""
    if len(triples) == 0:
        return np.empty((0, 3), dtype=np.int64)
    fwd = triples[:, [0, 1, 2]].copy()
    inv = triples[:, [2, 1, 0]].copy()
    inv[:, 1] += relation_count
    return np.vstack([fwd, inv])


def encode_snapshot(triples: np.ndarray, params: dict[str, Tensor], *,
                    entity_count: int, relation_count: int, layers: int) -> Tensor:
    """Structural embeddings for every entity given one snapshot's triples.

    Entities without edges receive the self-loop-only propagation of their
    base embedding, so the result is defined everywhere. Each layer gathers
    the source rows once, transforms each relation group's contiguous block
    with ``segment_matmul`` and scatters every message with one call.
    """
    h = params["entity.base"]
    edges = with_inverse_edges(np.asarray(triples, dtype=np.int64).reshape(-1, 3),
                               relation_count)
    edges = edges[np.argsort(edges[:, 1], kind="stable")]
    src, rel, dst = edges.T
    rels, starts = np.unique(rel, return_index=True)
    bounds = np.append(starts, len(edges))
    # mean over in-neighbors: scale each message by 1/|N_dst^rel|
    _, pair, pair_count = np.unique(rel * entity_count + dst, return_inverse=True,
                                    return_counts=True)
    scale = constant(1.0 / pair_count[pair][:, None])
    for layer in range(layers):
        total = ad.matmul(h, params[f"rgcn.l{layer}.self"])
        if len(edges):
            msgs = ad.segment_matmul(ad.gather_rows(h, src),
                                     [params[f"rgcn.l{layer}.rel{r}"] for r in rels.tolist()],
                                     bounds)
            total = ad.add(total, ad.scatter_add_rows(ad.mul(msgs, scale), dst,
                                                      entity_count))
        h = ad.relu(total) if layer < layers - 1 else total
    return h


def temporal_edge_dropout(window: list[np.ndarray], current_index: int,
                          current_rate: float, reference_rate: float,
                          rng: np.random.Generator) -> list[np.ndarray]:
    """Independently drop triples from each snapshot of a window.

    The snapshot at ``current_index`` is thinned at ``current_rate``; every
    other snapshot at ``reference_rate``. Rates are drop probabilities.
    """
    for rate in (current_rate, reference_rate):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"dropout rate {rate} outside [0, 1]")
    out = []
    for i, triples in enumerate(window):
        rate = current_rate if i == current_index else reference_rate
        if len(triples) == 0 or rate == 0.0:
            out.append(triples)
        elif rate == 1.0:
            out.append(triples[:0])
        else:
            keep = rng.random(len(triples)) >= rate
            out.append(triples[keep])
    return out
