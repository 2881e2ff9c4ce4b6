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
from .data import TkgDataset

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
    """Precomputed occurrence indexes over the training split."""

    def __init__(self, dataset: TkgDataset):
        self.entity_count = dataset.entity_count
        self.step_count = dataset.step_count
        by_sr: dict[tuple, list] = {}
        by_s: dict[int, list] = {}
        by_ro: dict[tuple, list] = {}
        by_o: dict[int, list] = {}
        by_r_obj: dict[int, list] = {}
        by_r_sub: dict[int, list] = {}
        for snap in dataset.splits["train"]:
            t = snap.time
            for s, r, o in snap.triples.tolist():
                by_sr.setdefault((s, r), []).append((o, t))
                by_s.setdefault(s, []).append((o, t))
                by_r_obj.setdefault(r, []).append((o, t))
                by_ro.setdefault((r, o), []).append((s, t))
                by_o.setdefault(o, []).append((s, t))
                by_r_sub.setdefault(r, []).append((s, t))
        pack = lambda table: {k: np.array(v, dtype=np.int64) for k, v in table.items()}
        self._object_tiers = (pack(by_sr), pack(by_s), pack(by_r_obj))
        self._subject_tiers = (pack(by_ro), pack(by_o), pack(by_r_sub))
        self._empty = np.empty((0, 2), dtype=np.int64)

    def _raw_tier_tuples(self, direction: str, s: int, r: int, o: int):
        if direction == "object":
            tiers = self._object_tiers
            keys = ((s, r), s, r)
        elif direction == "subject":
            tiers = self._subject_tiers
            keys = ((r, o), o, r)
        else:
            raise ValueError(f"unknown query direction {direction!r}")
        return [table.get(key, self._empty) for table, key in zip(tiers, keys)]

    def reference_sets(self, direction: str, s: int, r: int, o: int, t: int,
                       ) -> list[np.ndarray]:
        """Three (m_i, 2) arrays of deduplicated (entity, t') tuples, t' != t.

        A tuple present in a better tier is removed from every worse one.
        """
        out = []
        seen_keys = np.empty(0, dtype=np.int64)
        for tuples in self._raw_tier_tuples(direction, s, r, o):
            tuples = tuples[tuples[:, 1] != t]
            keys = tuples[:, 0] * (self.step_count + 1) + tuples[:, 1]
            keys = np.unique(keys)
            keys = keys[~np.isin(keys, seen_keys, assume_unique=True)]
            seen_keys = np.union1d(seen_keys, keys)
            ents = keys // (self.step_count + 1)
            times = keys % (self.step_count + 1)
            out.append(np.stack([ents, times], axis=1))
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
            if len(tuples):
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
