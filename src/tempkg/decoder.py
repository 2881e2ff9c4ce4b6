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

import logging

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant
from .data import TrueTripleIndex
from .heterogeneity import blend as blend_rows

log = logging.getLogger("tempkg")

DECODERS = ("transe", "distmult", "complex")


def _check_direction(direction: str) -> None:
    if direction not in ("object", "subject"):
        raise ValueError(f"unknown query direction {direction!r}")


def query_vectors(fixed: Tensor, r: Tensor, decoder: str, direction: str) -> Tensor:
    """(m, d) vectors qv with score(query i, candidate c) = qv[i] . c.

    DistMult and ComplEx are linear in the candidate. ``fixed`` and ``r`` are
    the (m, d) rows of each query's known entity and relation; ``direction``
    'object' scores (fixed, r, candidate), 'subject' (candidate, r, fixed).
    On-tape inputs give an on-tape result; constants give a constant.
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
    if direction == "object":   # [r_re s_re - r_im s_im | r_re s_im + r_im s_re]
        re = ad.sub(ad.mul(r_re, f_re), ad.mul(r_im, f_im))
        im = ad.add(ad.mul(r_re, f_im), ad.mul(r_im, f_re))
    else:                       # [r_re o_re + r_im o_im | r_re o_im - r_im o_re]
        re = ad.add(ad.mul(r_re, f_re), ad.mul(r_im, f_im))
        im = ad.sub(ad.mul(r_re, f_im), ad.mul(r_im, f_re))
    return ad.concat([re, im], axis=1)


def score_rows(fixed: Tensor, r: Tensor, table: Tensor, ids: np.ndarray,
               decoder: str, direction: str, blend=None) -> Tensor:
    """Scores of m queries against their own candidates, as (m, k).

    Query i scores the candidates ``table[ids[i]]``; ``fixed``, ``r`` and
    ``direction`` are as in ``query_vectors``. With ``blend = (alpha, other)``
    query i scores the candidates alpha[i] * table + (1 - alpha[i]) * other,
    alpha being (m, 1). On-tape inputs give training scores; constants and
    ``ids = np.broadcast_to(np.arange(E), (m, E))`` rank every entity.
    DistMult and ComplEx score through one query vector per query and
    ``gathered_dots``, so no per-candidate row is built; TransE builds its
    per-candidate L1 rows in blocks of queries.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if decoder == "transe":
        return _transe_rows(fixed, r, table, ids, direction, blend)
    qv = query_vectors(fixed, r, decoder, direction)
    if blend is None:
        return ad.gathered_dots(qv, table, ids)
    alpha, other = blend
    return blend_rows(alpha, ad.gathered_dots(qv, table, ids),
                      ad.gathered_dots(qv, other, ids))


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


def sample_negatives(s: int, r: int, o: int, t: int, index: TrueTripleIndex,
                     k: int, rng: np.random.Generator, entity_count: int,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """k uniform corruptions per slot, rejecting known-true completions at t.

    Returns (object_negatives, subject_negatives). When fewer than k distinct
    valid corruptions exist the draw still proceeds with replacement, with a
    warning; an empty valid set falls back to everything but the answer.
    """
    if k < 1:
        raise ValueError("negative count must be at least 1")
    out = []
    for true_set, answer in ((index.objects_for(s, r, t), o),
                             (index.subjects_for(r, o, t), s)):
        valid = entity_count - true_set.size
        if valid == 0:
            log.warning("no valid corruption exists for (%d,%d,%d,%d); "
                        "sampling among known-true entities", s, r, o, t)
            true_set = np.array([answer], dtype=np.int64)
            valid = entity_count - 1
        elif valid < k:
            log.warning("only %d valid corruptions for %d requested; sampling "
                        "with replacement", valid, k)
        # the j-th id outside the sorted true set is j plus the count of true ids below it
        j = rng.integers(0, valid, size=k)
        out.append(j + np.searchsorted(true_set - np.arange(true_set.size), j, side="right"))
    return out[0], out[1]


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
