"""Quadruple scoring, negative sampling, and the training objective.

``score_rows`` scores each query against its own candidates: its sampled
corruptions in training, every entity in evaluation. DistMult and ComplEx
are linear in the candidate, so both go through one query vector per query
(``query_vectors``). Three decoders:

    transe:   -||s + r - o||_1            (negated distance, higher is better)
    distmult: sum_k s_k r_k o_k
    complex:  Re<s, r, conj(o)> with [real | imaginary] half layout

The objective treats each positive against its sampled corruptions as a
softmax classification; summing object-query and subject-query terms gives
the total loss.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant
from .data import TrueTripleIndex
from .heterogeneity import blend as blend_rows

DECODERS = ("transe", "distmult", "complex")
LOSS_MODES = ("cross_entropy", "prob_sum")


def _check_direction(direction: str) -> None:
    if direction not in ("object", "subject"):
        raise ValueError(f"unknown query direction {direction!r}")


def query_vectors(fixed: Tensor, r: Tensor, decoder: str, direction: str) -> Tensor:
    """(m, d) vectors qv with score(query i, candidate c) = qv[i] . c.

    DistMult and ComplEx are linear in the candidate. ``fixed`` and ``r`` are
    the (m, d) rows of each query's known entity and relation; ``direction``
    'object' scores (fixed, r, candidate), 'subject' (candidate, r, fixed),
    which ComplEx scores exactly as (fixed, conj(r), candidate). On-tape
    inputs give an on-tape result; constants give a constant.
    """
    _check_direction(direction)
    if decoder == "distmult":
        return ad.mul(fixed, r)
    if decoder != "complex":
        raise ValueError(f"unknown decoder {decoder!r}")
    d = fixed.shape[-1]
    if d % 2:
        raise ValueError(f"complex decoder needs an even dimension, got {d}")
    half = d // 2
    (f_re, f_im), (r_re, r_im) = ((ad.columns(x, 0, half), ad.columns(x, half, d))
                                  for x in (fixed, r))
    if direction == "subject":   # (?, r, o) scores as (o, conj(r), ?)
        r_im = ad.mul(r_im, -1.0)
    # [r_re f_re - r_im f_im | r_re f_im + r_im f_re]
    re = ad.sub(ad.mul(r_re, f_re), ad.mul(r_im, f_im))
    im = ad.add(ad.mul(r_re, f_im), ad.mul(r_im, f_re))
    return ad.concat([re, im], axis=1)


def score_rows(fixed: Tensor, r: Tensor, table: Tensor, ids: np.ndarray | None,
               decoder: str, direction: str, blend=None) -> Tensor:
    """Scores of m queries against their own candidates, as (m, k).

    Query i scores the candidates ``table[ids[i]]``, or every row of
    ``table`` when ``ids`` is None; ``fixed``, ``r`` and ``direction`` are as
    in ``query_vectors``. With ``blend = (alpha, other)`` query i scores the
    candidates alpha[i] * table + (1 - alpha[i]) * other, alpha being
    (m, 1). On-tape inputs give training scores; constants and no ``ids``
    rank every entity. DistMult and ComplEx score through one query vector
    per query and ``gathered_dots``, so no per-candidate row is built;
    TransE builds its per-candidate L1 rows in blocks of queries.
    """
    if decoder == "transe":
        if ids is None:
            ids = np.broadcast_to(np.arange(table.shape[0]), (fixed.shape[0], table.shape[0]))
        return _transe_rows(fixed, r, table, np.asarray(ids, dtype=np.int64), direction,
                            blend)
    qv = query_vectors(fixed, r, decoder, direction)
    if blend is None:
        return ad.gathered_dots(qv, table, ids)
    alpha, other = blend
    return blend_rows(alpha, ad.gathered_dots(qv, table, ids), ad.gathered_dots(qv, other, ids))


# Largest (queries, candidates, dim) block of per-candidate rows TransE builds at once.
_CHUNK_ELEMENTS = 1 << 21


def _transe_rows(fixed, r, table, ids, direction, blend) -> Tensor:
    """-||anchor - candidate||_1 with one row per candidate; the anchor is
    fixed + r for the object direction and fixed - r for the subject one."""
    _check_direction(direction)
    m, k = ids.shape
    anchor = ad.add(fixed, r) if direction == "object" else ad.sub(fixed, r)
    step = max(1, _CHUNK_ELEMENTS // max(1, k * fixed.shape[1]))
    blocks = []
    for lo in range(0, max(m, 1), step):
        block = ids[lo:lo + step]
        per_cand = np.repeat(np.arange(lo, lo + len(block)), k)
        cands = ad.gather_rows(table, block.ravel())
        if blend is not None:
            cands = blend_rows(ad.gather_rows(blend[0], per_cand), cands,
                               ad.gather_rows(blend[1], block.ravel()))
        dist = ad.reduce_sum(ad.absolute(ad.sub(ad.gather_rows(anchor, per_cand), cands)),
                             axis=1)
        blocks.append(ad.reshape(ad.mul(dist, -1.0), (len(block), k)))
    return ad.concat(blocks)


def sample_negatives(triples: np.ndarray, t: int, index: TrueTripleIndex, k: int,
                     rng: np.random.Generator, entity_count: int,
                     tally: Counter | None = None) -> tuple[np.ndarray, np.ndarray]:
    """k uniform corruptions per slot of each (s, r, o) row of ``triples``,
    rejecting known-true completions at t: the (m, k) object and subject
    negatives. Draws run row by row, objects before subjects. A query with
    fewer than k valid corruptions draws with replacement, one with none draws
    among every entity but its answer. ``tally`` counts, over both
    directions, the ``queries``, the ``full`` ones with no valid corruption
    and the ``short`` ones with fewer than k, for the caller to summarise.
    """
    if k < 1:
        raise ValueError("negative count must be at least 1")
    if entity_count < 2:
        raise ValueError(f"negative sampling needs at least 2 entities, got {entity_count}:"
                         " with one entity no corruption of a fact exists")
    m = len(triples)
    rows, known = [], []
    for d, (direction, answers) in enumerate((("object", triples[:, 2]),
                                              ("subject", triples[:, 0]))):
        row, ids = index.filter_sets(direction, triples, t)
        counts = np.bincount(row, minlength=m)
        full = counts == entity_count
        short = ~full & (entity_count - counts < k)
        if tally is not None:
            tally.update(queries=m, full=np.count_nonzero(full),
                         short=np.count_nonzero(short))
        # a full true set holds the answer, so keeping that one id leaves [answer]
        keep = ~full[row] | (ids == answers[row])
        rows.append(row[keep] + d * m)
        known.append(ids[keep])
    rows, known = np.concatenate(rows), np.concatenate(known)
    counts = np.bincount(rows, minlength=2 * m)
    starts = np.cumsum(counts) - counts
    slot_rows = np.arange(2 * m).reshape(2, m).T[:, :, None]   # (m, 2, 1): d * m + i
    j = rng.integers(0, entity_count - counts[slot_rows], size=(m, 2, k))
    # the j-th id outside a row's sorted set is j plus the count of its ids less
    # their rank that are <= j; row * (E + 1) offsets keep each row's keys apart
    span = entity_count + 1
    keys = rows * span + known - (np.arange(len(rows)) - starts[rows])
    out = j + np.searchsorted(keys, slot_rows * span + j, side="right") - starts[slot_rows]
    return out[:, 0], out[:, 1]


def query_loss(scores: Tensor, mode: str = "cross_entropy") -> Tensor:
    """Summed per-query loss of positives against their negative sets.

    ``scores`` is (b, 1 + k): column 0 holds each query's positive, the other
    k columns its corruptions. 'cross_entropy' is -log softmax of the
    positive within its row. 'prob_sum' keeps the softmax-free historical
    form: -exp(pos) / sum_neg exp(neg), summed over queries.
    """
    if scores.data.ndim != 2 or scores.shape[1] < 2:
        raise ValueError("loss needs at least one negative per query")
    beta = ad.masked_softmax(scores, np.ones(scores.shape, dtype=bool))
    p = ad.columns(beta, 0, 1)
    if mode == "cross_entropy":
        return ad.mul(ad.reduce_sum(ad.log(p)), -1.0)
    if mode == "prob_sum":
        # p/(1-p) = exp(pos) / sum_neg exp(neg)
        ratio = ad.mul(p, ad.exp(ad.mul(ad.log(ad.sub(constant(1.0), p)), -1.0)))
        return ad.mul(ad.reduce_sum(ratio), -1.0)
    raise ValueError(f"unknown loss mode {mode!r}")
