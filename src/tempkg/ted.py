"""Deterministic decay-rule baseline over tiered reference sets.

For a query, candidate answers are drawn from training facts at other time
steps that share elements with the query, in three tiers:

  object query (s, r, ?, t):   1. objects seen with the same (s, r)
                               2. objects seen with the same subject s
                               3. objects seen with the same relation r
  subject query (?, r, o, t):  mirrored on (r, o), o, and r.

Tier tuples are (entity, t') pairs with t' != t, de-duplicated downward by
tier priority so each pair counts once in its best tier. Within a tier an
entity scores sum_{t'} exp(-sigma * |t - t'|) over its remaining tuples, and
ranking is lexicographic: better tier first, higher score inside a tier,
ascending entity id on exact ties. Entities outside every tier follow in
ascending id order. No randomness anywhere.

Scoring works on a whole snapshot: all queries of one step and direction read
each tier's key ranges in one lookup, are de-duplicated down the tiers with
one np.unique over query * span + code, and sum their decay scores into
sparse (tier, query, entity) slots, which start where the pair code changes
or a tier begins. Only the referenced (query, entity) pairs are sorted, by two
argsorts: on the score's rank among the distinct scores with the pair's index
as the tie-break, then stably on a narrow integer group key that numpy
radix-sorts. The (q, E) output holds integers in the narrowest signed dtype
that holds -2E (np.min_scalar_type(-2 * E): int8 up to 64 entities, int16 up
to 16384, int32 above): each row starts as a copy of one fixed row built with
the model, where unreferenced entity j scores -(E + j), and each referenced
pair is written at its -position 0 ... -(c - 1) for the query's c referenced
entities. So no row has ties, the unreferenced entities follow in ascending id
order, and no value is below -(2E - 1). No per-query or dense per-tier array
is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import GroupedCodes, TkgDataset

@dataclass(frozen=True)
class TedConfig:
    sigma: float
    blend: str = "tiered"  # 'tiered' lexicographic ordering or 'sum' of tier scores

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"decay rate sigma must be positive and finite, got {self.sigma}")
        if self.blend not in ("tiered", "sum"):
            raise ValueError(f"unknown blend {self.blend!r}")


class TedModel:
    """Occurrence indexes over the training split: each tier groups the codes
    entity * (T + 1) + t' of its facts by the tier's key."""

    def __init__(self, dataset: TkgDataset):
        self.entity_count = e = dataset.entity_count
        self.step_count = dataset.step_count
        nr, span = dataset.relation_count, e * (self.step_count + 1)
        s, r, o, t = dataset.quads["train"].T

        def tiers(fixed, answer):
            """Answer codes keyed by (fixed entity, relation), fixed entity, relation."""
            codes = answer * (self.step_count + 1) + t
            return (GroupedCodes((fixed, r, codes), (e, nr, span)),
                    GroupedCodes((fixed, codes), (e, span)), GroupedCodes((r, codes), (nr, span)))

        self._tiers = {"object": tiers(s, o), "subject": tiers(o, s)}
        # every score row starts as this row: entity j unreferenced scores -(E + j)
        self._unreferenced = (-np.arange(e, 2 * e)).astype(np.min_scalar_type(-2 * e))

    def reference_sets(self, direction: str, s, r, o, t: int) -> list[np.ndarray]:
        """Three sorted 1-d int64 arrays of deduplicated (query, entity, t')
        tuples, t' != t, for the queries (s[i], r[i], o[i]) at step t, each
        tuple as its code (query * entity_count + entity) * (T + 1) + t'.

        A tuple present in a better tier is removed from every worse one.
        """
        if direction not in self._tiers:
            raise ValueError(f"unknown query direction {direction!r}")
        fixed = s if direction == "object" else o
        found = [tier.ranges(key) for tier, key
                 in zip(self._tiers[direction], ((fixed, r), (fixed,), (r,)))]
        rows = np.concatenate([rows for rows, _ in found])
        codes = np.concatenate([codes for _, codes in found])
        tier = np.repeat(np.arange(3), [len(codes) for _, codes in found])
        other_step = codes % (self.step_count + 1) != t
        span = self.entity_count * (self.step_count + 1)
        tuples, tier = rows[other_step] * span + codes[other_step], tier[other_step]
        # the list is tier-major, so each tuple's first occurrence is in its best tier
        first = np.zeros(len(tuples), dtype=bool)
        first[np.unique(tuples, return_index=True)[1]] = True
        return np.split(tuples[first], np.searchsorted(tier[first], (1, 2)))

    def tier_scores(self, tiers: list[np.ndarray], t: int, sigma: float,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decay scores of the distinct (tier, query, entity) slots of the
        ``reference_sets`` codes ``tiers``: each slot's tier, its pair code
        query * entity_count + entity, and its score, with slots sorted by
        tier and pair."""
        pair, times = np.divmod(np.concatenate(tiers), self.step_count + 1)
        ends = np.cumsum([len(codes) for codes in tiers])
        # a slot starts where the pair changes or a tier starts
        new = np.ones(len(pair), dtype=bool)
        np.not_equal(pair[1:], pair[:-1], out=new[1:])
        new[ends[ends < len(pair)]] = True
        starts = np.flatnonzero(new)
        scores = _kernels.decay_accumulate(len(starts), np.cumsum(new) - 1, times, t, sigma)
        return np.searchsorted(ends, starts, side="right"), pair[starts], scores

    def rank_scores(self, direction: str, s, r, o, t: int, config: TedConfig,
                    ) -> np.ndarray:
        """(q, entity_count) scores of the queries (s[i], r[i], o[i]) at step t;
        each row's descending order is that query's ranking.

        No row has ties, so downstream filtered ranking sees none: a query's
        referenced entity at position k scores -k, and an unreferenced entity
        j scores -(entity_count + j), below every referenced one and in
        ascending id order. The integers are of dtype
        np.min_scalar_type(-2 * entity_count): int16 up to 16384 entities,
        int32 above (int8 up to 64). Each row is a copy of one fixed row of
        the unreferenced scores with the referenced pairs written over it.
        """
        q, e = len(s), self.entity_count
        tiers = self.reference_sets(direction, s, r, o, t)
        tier, pair, scores = self.tier_scores(tiers, t, config.sigma)
        if config.blend == "sum":
            pairs, slot_pair = np.unique(pair, return_inverse=True)
            queries = pairs // e
            key, group = -np.bincount(slot_pair, scores, len(pairs)), queries
        else:   # slots are tier-major, so a pair's first slot is its best tier
            pairs, first = np.unique(pair, return_index=True)
            queries = pairs // e
            key, group = -scores[first], queries * 3 + tier[first]
        # pairs are in entity order within a query, so exact ties keep ascending
        # entity ids: the first sort is on distinct int64 keys, each key's rank
        # among the distinct keys times n plus the pair's index (exact while
        # n * n < 2**63, so n < 3e9; n is at most q * entity_count), the second
        # stable on a narrow group key, which numpy radix-sorts
        n = len(key)
        _, rank = np.unique(key, return_inverse=True)
        order = np.argsort(rank * n + np.arange(n))
        order = order[np.argsort(group[order].astype(np.min_scalar_type(3 * q)),
                                 kind="stable")]
        # the sorted pairs are query-major, so a pair's position in its row is
        # its index in order less the number of pairs of earlier queries
        counts = np.bincount(queries, minlength=q)
        starts = np.cumsum(counts) - counts
        out = np.empty((q, e), dtype=self._unreferenced.dtype)
        out[:] = self._unreferenced
        out.reshape(-1)[pairs[order]] = starts[queries[order]] - np.arange(n)
        return out

    def snapshot_scorer(self, config: TedConfig):
        """Adapter for evaluation.evaluate."""

        def scorer(t: int, triples: np.ndarray):
            s, r, o = triples.T
            return (self.rank_scores("object", s, r, o, t, config),
                    self.rank_scores("subject", s, r, o, t, config))

        return scorer
