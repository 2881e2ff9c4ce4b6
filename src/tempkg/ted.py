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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import GroupedCodes, TkgDataset

UNREFERENCED_TIER = 3  # tiers 0..2 hold referenced entities


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
        s, r, o, t = dataset.quadruples("train").T

        def tiers(fixed, answer):
            """Answer codes keyed by (fixed entity, relation), fixed entity, relation."""
            codes = answer * (self.step_count + 1) + t
            return (GroupedCodes((fixed, r, codes), (e, nr, span)),
                    GroupedCodes((fixed, codes), (e, span)), GroupedCodes((r, codes), (nr, span)))

        self._tiers = {"object": tiers(s, o), "subject": tiers(o, s)}

    def reference_sets(self, direction: str, s: int, r: int, o: int, t: int,
                       ) -> list[np.ndarray]:
        """Three (m_i, 2) arrays of deduplicated (entity, t') tuples, t' != t.

        A tuple present in a better tier is removed from every worse one.
        """
        if direction not in self._tiers:
            raise ValueError(f"unknown query direction {direction!r}")
        fixed = s if direction == "object" else o
        out = []
        seen = np.empty(0, dtype=np.int64)
        for tier, key in zip(self._tiers[direction], ((fixed, r), (fixed,), (r,))):
            codes = tier.get(*key)
            ents, times = np.divmod(codes, self.step_count + 1)
            keep = (times != t) & ~np.isin(codes, seen, assume_unique=True)
            seen = np.concatenate([seen, codes[keep]])
            out.append(np.stack([ents[keep], times[keep]], axis=1))
        return out

    def tier_scores(self, tiers: list[np.ndarray], t: int, sigma: float) -> np.ndarray:
        """(3, entity_count) decay-score matrix, one row per tier."""
        scores = np.zeros((3, self.entity_count), dtype=np.float64)
        for i, tuples in enumerate(tiers):
            if len(tuples):
                _kernels.decay_accumulate(scores[i], tuples[:, 0], tuples[:, 1],
                                          t, sigma)
        return scores

    def rank_scores(self, direction: str, s: int, r: int, o: int, t: int,
                    config: TedConfig) -> np.ndarray:
        """Score vector over all entities whose descending order is the ranking.

        Scores are -position so downstream filtered ranking sees no ties.
        """
        tiers = self.reference_sets(direction, s, r, o, t)
        scores = self.tier_scores(tiers, t, config.sigma)
        present = np.zeros((3, self.entity_count), dtype=bool)
        for i, tuples in enumerate(tiers):
            present[i, tuples[:, 0]] = True
        if config.blend == "sum":
            total = scores.sum(axis=0)
            in_any = present.any(axis=0)
            order = np.lexsort((np.arange(self.entity_count), -total, ~in_any))
        else:
            tier_of = np.full(self.entity_count, UNREFERENCED_TIER, dtype=np.int64)
            best_score = np.zeros(self.entity_count, dtype=np.float64)
            for tier in range(2, -1, -1):
                hit = present[tier]
                tier_of[hit] = tier
                best_score[hit] = scores[tier][hit]
            order = np.lexsort((np.arange(self.entity_count), -best_score, tier_of))
        ranks = np.empty(self.entity_count, dtype=np.float64)
        ranks[order] = np.arange(self.entity_count, dtype=np.float64)
        return -ranks

    def snapshot_scorer(self, config: TedConfig):
        """Adapter for evaluation.evaluate."""

        def scorer(t: int, triples: np.ndarray):
            obj = np.stack([self.rank_scores("object", s, r, o, t, config)
                            for s, r, o in triples.tolist()])
            sub = np.stack([self.rank_scores("subject", s, r, o, t, config)
                            for s, r, o in triples.tolist()])
            return obj, sub

        return scorer
