"""Quadruple scoring, negative sampling, and the training objective.

Scoring works row-wise over batches of subject, relation, and object
embeddings; a single row broadcasts against a batch. ``candidate_scores``
ranks every entity for a batch of queries off the tape. Three decoders:

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

log = logging.getLogger("tempkg")

DECODERS = ("transe", "distmult", "complex")


def score_rows(s: Tensor, r: Tensor, o: Tensor, decoder: str) -> Tensor:
    """Scores for matched rows of subject/relation/object embeddings, as (m, 1).

    Each operand is (m, d) or a single (1, d) row scored against every row of
    the others.
    """
    if decoder == "transe":
        return ad.mul(ad.reduce_sum(ad.absolute(ad.sub(ad.add(s, r), o)), axis=1), -1.0)
    if decoder == "distmult":
        return ad.reduce_sum(ad.mul(ad.mul(s, r), o), axis=1)
    if decoder == "complex":
        d = s.shape[-1]
        if d % 2:
            raise ValueError(f"complex decoder needs an even dimension, got {d}")
        half = d // 2
        (s_re, s_im), (r_re, r_im), (o_re, o_im) = (
            (ad.columns(x, 0, half), ad.columns(x, half, d)) for x in (s, r, o))
        out = ad.reduce_sum(ad.mul(ad.mul(r_re, s_re), o_re), axis=1)
        out = ad.add(out, ad.reduce_sum(ad.mul(ad.mul(r_re, s_im), o_im), axis=1))
        out = ad.add(out, ad.reduce_sum(ad.mul(ad.mul(r_im, s_re), o_im), axis=1))
        return ad.sub(out, ad.reduce_sum(ad.mul(ad.mul(r_im, s_im), o_re), axis=1))
    raise ValueError(f"unknown decoder {decoder!r}")


# Largest (queries, entities, dim) block the TransE scorer builds at once.
_CHUNK_ELEMENTS = 1 << 21


def candidate_scores(fixed: np.ndarray, r: np.ndarray, table: np.ndarray,
                     decoder: str, direction: str, blend=None) -> np.ndarray:
    """Scores of every entity as the missing slot of q queries, as (q, E).

    Works on plain arrays off the tape. ``fixed`` and ``r`` are the (q, d)
    rows of each query's known entity and relation; ``table`` holds the (E, d)
    candidate embeddings. ``direction`` 'object' scores (fixed, r, candidate),
    'subject' scores (candidate, r, fixed). With ``blend = (alpha, other)``
    query i scores the candidates alpha[i] * table + (1 - alpha[i]) * other,
    alpha being (q, 1). DistMult and ComplEx are linear in the candidate, so
    each becomes one (q, d) @ (d, E) product per table; TransE takes the L1
    distance in blocks of queries.
    """
    if direction not in ("object", "subject"):
        raise ValueError(f"unknown query direction {direction!r}")
    if decoder == "transe":
        return _transe_candidates(fixed, r, table, direction, blend)
    if decoder == "distmult":
        qv = fixed * r
    elif decoder == "complex":
        d = fixed.shape[-1]
        if d % 2:
            raise ValueError(f"complex decoder needs an even dimension, got {d}")
        half = d // 2
        f_re, f_im, r_re, r_im = fixed[:, :half], fixed[:, half:], r[:, :half], r[:, half:]
        if direction == "object":
            qv = np.hstack([r_re * f_re - r_im * f_im, r_re * f_im + r_im * f_re])
        else:
            qv = np.hstack([r_re * f_re + r_im * f_im, r_re * f_im - r_im * f_re])
    else:
        raise ValueError(f"unknown decoder {decoder!r}")
    if blend is None:
        return qv @ table.T
    alpha, other = blend
    return alpha * (qv @ table.T) + (1.0 - alpha) * (qv @ other.T)


def _transe_candidates(fixed, r, table, direction, blend) -> np.ndarray:
    """-||s + r - o||_1 against every candidate: the object direction measures
    candidates from fixed + r, the subject direction from fixed - r."""
    anchor = fixed + r if direction == "object" else fixed - r
    e, d = table.shape
    out = np.empty((len(anchor), e))
    step = max(1, _CHUNK_ELEMENTS // max(1, e * d))
    for lo in range(0, len(anchor), step):
        hi = lo + step
        cands = table[None]
        if blend is not None:
            alpha = blend[0][lo:hi, :, None]
            cands = alpha * table + (1.0 - alpha) * blend[1]
        out[lo:hi] = -np.abs(anchor[lo:hi, None, :] - cands).sum(axis=2)
    return out


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
        valid = np.setdiff1d(np.arange(entity_count, dtype=np.int64), true_set,
                             assume_unique=True)
        if valid.size == 0:
            log.warning("no valid corruption exists for (%d,%d,%d,%d); "
                        "sampling among known-true entities", s, r, o, t)
            valid = np.setdiff1d(np.arange(entity_count, dtype=np.int64),
                                 np.array([answer], dtype=np.int64))
        elif valid.size < k:
            log.warning("only %d valid corruptions for %d requested; sampling "
                        "with replacement", valid.size, k)
        out.append(valid[rng.integers(0, valid.size, size=k)])
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
