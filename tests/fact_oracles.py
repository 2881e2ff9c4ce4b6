"""Per-fact and per-query forms, kept as oracles for the package's indexes and
whole-snapshot scorers.

The dict classes build their index by looping over facts in Python, the way
the package did before every index became one ``data.GroupedCodes``.
``PerQueryTedModel`` and ``per_query_rank_snapshots`` score and rank one query
at a time, ``per_positive_sample_negatives`` draws one positive's negatives,
and ``frequency_bin`` with ``per_query_binned_analysis`` bins one query at a
time, the way the package did before it worked a snapshot or a record array
at a time. ``loop_rank_query`` ranks one score row with a keep-mask and a
count, the way the package did before ``rank_query`` became
``filtered_ranks`` on one row. ``loop_generate_synthetic`` builds a corpus one fact at a time from
tuple sets, the way the package did before it kept each step as an array of
fact codes. ``snapshots_from_quads`` splits a split's facts into steps and
deduplicates each step on its own, the way the package stored a split before
it became one sorted fact array. ``isin_generate_synthetic`` tests each
step's fresh draws and copies with ``np.isin``, and ``lexsort_sorted_facts``
orders a split with a four-key ``np.lexsort``, the way the package did before
both worked on sorted int64 codes.
"""

import math
from collections import Counter

import numpy as np

from tempkg.data import SPLIT_NAMES, DatasetError, TkgDataset
from tempkg.evaluation import (REFERENCE_PAIRINGS, REPLICATION_PAIRINGS, RankingReport,
                               query_records)
from tempkg.heterogeneity import PATTERN_KINDS
from tempkg.ted import TedModel

EXTRACTORS = {
    "s": lambda s, r, o: (s,),
    "o": lambda s, r, o: (o,),
    "r": lambda s, r, o: (r,),
    "sr": lambda s, r, o: (s, r),
    "ro": lambda s, r, o: (r, o),
    "so": lambda s, r, o: (s, o),
    "sro": lambda s, r, o: (s, r, o),
}


def snapshots_from_quads(quads, step_count: int) -> list[np.ndarray]:
    """Each step's sorted, distinct (m, 3) triples of the (s, r, o, t) facts
    in ``quads``, one np.unique per step."""
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    quads = quads[np.argsort(quads[:, 3], kind="stable")]
    bounds = np.searchsorted(quads[:, 3], np.arange(step_count + 1))
    return [np.unique(quads[bounds[t]:bounds[t + 1], :3], axis=0) for t in range(step_count)]


class DictTrueTripleIndex:
    def __init__(self, dataset, splits=("train",), static=False):
        self.static = static
        objects, subjects = {}, {}
        for split in splits:
            for snap in dataset.splits[split]:
                t = 0 if static else snap.time
                for s, r, o in snap.triples.tolist():
                    objects.setdefault((s, r, t), set()).add(o)
                    subjects.setdefault((r, o, t), set()).add(s)
        self._objects = {k: np.array(sorted(v), dtype=np.int64) for k, v in objects.items()}
        self._subjects = {k: np.array(sorted(v), dtype=np.int64) for k, v in subjects.items()}
        self._empty = np.empty(0, dtype=np.int64)

    def objects_for(self, s, r, t):
        return self._objects.get((s, r, 0 if self.static else t), self._empty)

    def subjects_for(self, r, o, t):
        return self._subjects.get((r, o, 0 if self.static else t), self._empty)


class DictTpfTable:
    """Sorted occurrence times per pattern key; a count is a binary search."""

    def __init__(self, dataset, policy):
        self.policy = policy
        occurrences = {kind: {} for kind in EXTRACTORS}
        for snap in dataset.splits["train"]:
            for s, r, o in snap.triples.tolist():
                for kind, extract in EXTRACTORS.items():
                    occurrences[kind].setdefault(extract(s, r, o), []).append(snap.time)
        self._tables = {kind: {key: np.sort(np.asarray(times, dtype=np.int64))
                               for key, times in table.items()}
                        for kind, table in occurrences.items()}

    def freq(self, kind, key, t):
        times = self._tables[kind].get(tuple(key))
        if times is None:
            return 0
        until = lambda bound, side: int(np.searchsorted(times, bound, side=side))
        if self.policy.kind == "full_history":
            return until(t, "right")
        if self.policy.kind == "strict_past":
            return until(t, "left")
        return until(t, "right") - until(t - self.policy.width, "right")


class PerQueryTedModel(TedModel):
    """The decay-rule scorer one query at a time, over TedModel's tiers."""

    def reference_sets(self, direction, s, r, o, t):
        """Three (m_i, 2) arrays of deduplicated (entity, t') tuples, t' != t."""
        fixed = s if direction == "object" else o
        out = []
        seen = np.empty(0, dtype=np.int64)
        for tier, key in zip(self._tiers[direction], ((fixed, r), (fixed,), (r,))):
            codes = tier.ranges(key)[1]
            ents, times = np.divmod(codes, self.step_count + 1)
            keep = (times != t) & ~np.isin(codes, seen, assume_unique=True)
            seen = np.concatenate([seen, codes[keep]])
            out.append(np.stack([ents[keep], times[keep]], axis=1))
        return out

    def tier_scores(self, tiers, t, sigma):
        """(3, entity_count) decay-score matrix, one row per tier."""
        scores = np.zeros((3, self.entity_count), dtype=np.float64)
        for i, tuples in enumerate(tiers):
            w = np.exp(-sigma * np.abs(t - tuples[:, 1]).astype(np.float64))
            np.add.at(scores[i], tuples[:, 0], w)
        return scores

    def rank_scores(self, direction, s, r, o, t, config):
        """Score vector over all entities whose descending order is the ranking."""
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
            tier_of = np.full(self.entity_count, 3, dtype=np.int64)  # unreferenced
            best_score = np.zeros(self.entity_count, dtype=np.float64)
            for tier in range(2, -1, -1):
                hit = present[tier]
                tier_of[hit] = tier
                best_score[hit] = scores[tier][hit]
            order = np.lexsort((np.arange(self.entity_count), -best_score, tier_of))
        # -position for referenced entities, -(entity_count + j) for the others
        ranks = np.empty(self.entity_count, dtype=np.float64)
        ranks[order] = np.arange(self.entity_count, dtype=np.float64)
        unreferenced = ~present.any(axis=0)
        ranks[unreferenced] = self.entity_count + np.flatnonzero(unreferenced)
        return -ranks

    def snapshot_scorer(self, config):
        def scorer(t, triples):
            return tuple(np.stack([self.rank_scores(direction, s, r, o, t, config)
                                   for s, r, o in triples.tolist()])
                         for direction in ("object", "subject"))

        return scorer


class DictTedModel(PerQueryTedModel):
    """Tier lists of (entity, t') pairs per key; scoring is PerQueryTedModel's."""

    def __init__(self, dataset):
        self.entity_count = dataset.entity_count
        self.step_count = dataset.step_count
        tables = [{} for _ in range(6)]
        for snap in dataset.splits["train"]:
            t = snap.time
            for s, r, o in snap.triples.tolist():
                for table, key, ent in zip(tables, ((s, r), s, r, (r, o), o, r),
                                           (o, o, o, s, s, s)):
                    table.setdefault(key, []).append((ent, t))
        pack = lambda table: {k: np.array(v, dtype=np.int64) for k, v in table.items()}
        self._tiers = {"object": tuple(pack(table) for table in tables[:3]),
                       "subject": tuple(pack(table) for table in tables[3:])}

    def reference_sets(self, direction, s, r, o, t):
        tiers = self._tiers[direction]
        keys = ((s, r), s, r) if direction == "object" else ((r, o), o, r)
        out = []
        seen = np.empty(0, dtype=np.int64)
        for table, key in zip(tiers, keys):
            tuples = table.get(key, np.empty((0, 2), dtype=np.int64))
            tuples = tuples[tuples[:, 1] != t]
            codes = np.unique(tuples[:, 0] * (self.step_count + 1) + tuples[:, 1])
            codes = codes[~np.isin(codes, seen, assume_unique=True)]
            seen = np.union1d(seen, codes)
            out.append(np.stack([codes // (self.step_count + 1),
                                 codes % (self.step_count + 1)], axis=1))
        return out


def per_positive_sample_negatives(s, r, o, t, index, k, rng, entity_count):
    """decoder.sample_negatives for one positive, over a DictTrueTripleIndex."""
    out = []
    for true_set, answer in ((index.objects_for(s, r, t), o),
                             (index.subjects_for(r, o, t), s)):
        valid = entity_count - true_set.size
        if valid == 0:
            true_set = np.array([answer], dtype=np.int64)
            valid = entity_count - 1
        j = rng.integers(0, valid, size=k)
        out.append(j + np.searchsorted(true_set - np.arange(true_set.size), j, side="right"))
    return out[0], out[1]


def loop_rank_query(scores: np.ndarray, true_entity: int, filtered: np.ndarray) -> int:
    """Pessimistic filtered rank of the true entity within a score vector.

    ``filtered`` holds candidate ids to drop; the true answer itself is never
    dropped. Every kept candidate whose score is not below the answer's counts
    against it, so ties and non-finite rivals rank ahead; a non-finite answer
    score ranks behind every kept candidate.
    """
    keep = np.ones(len(scores), dtype=bool)
    if len(filtered):
        keep[filtered] = False
    keep[true_entity] = False
    answer = scores[true_entity]
    if not np.isfinite(answer):
        return 1 + int(np.count_nonzero(keep))
    return 1 + int(np.count_nonzero(~(scores[keep] < answer)))


def per_query_rank_snapshots(entity_count, snapshots, snapshot_scorer, filter_index,
                             tpf=None):
    """evaluation.rank_snapshots over (t, triples) pairs, with one filter
    lookup and loop_rank_query per query, over a DictTrueTripleIndex."""
    directions, quads, ranks, freqs = [], [], [], []
    for t, triples in snapshots:
        obj_scores, sub_scores = snapshot_scorer(t, triples)
        counts = tpf.frequencies(triples, t).tolist() if tpf is not None else None
        for i, (s, r, o) in enumerate(triples.tolist()):
            directions += ["object", "subject"]
            quads += [(s, r, o, t)] * 2
            ranks += [loop_rank_query(obj_scores[i], o, filter_index.objects_for(s, r, t)),
                      loop_rank_query(sub_scores[i], s, filter_index.subjects_for(r, o, t))]
            if counts is not None:
                freqs += [counts[i]] * 2
    return RankingReport(entity_count, query_records(
        directions, quads, ranks, freqs if tpf is not None else None))


def frequency_bin(freq: int) -> int:
    """Unit-width bin index in log10(1 + f)."""
    return int(math.floor(math.log10(1.0 + freq)))


def per_query_binned_analysis(results, hits_k: int = 10) -> list[dict]:
    """evaluation.tpf_binned_analysis with frequency_bin over one query record
    at a time."""
    rows = []
    if "tpf" not in results.dtype.names:
        return rows
    for group, pairings in (("replication", REPLICATION_PAIRINGS),
                            ("reference", REFERENCE_PAIRINGS)):
        for kind, direction in pairings:
            selected = [r for r in results if r.direction == direction]
            if not selected:
                continue
            bins: dict[int, list[int]] = {}
            for r in selected:
                freq = int(r.tpf[PATTERN_KINDS.index(kind)])
                bins.setdefault(frequency_bin(freq), []).append(int(r.rank))
            for b in range(0, max(bins) + 1):
                ranks = bins.get(b, [])
                rows.append({
                    "pattern_kind": kind,
                    "direction": direction,
                    "group": group,
                    "bin_lo": b,
                    "bin_hi": b + 1,
                    "count": len(ranks),
                    f"hits{hits_k}": (float(np.mean([rk <= hits_k for rk in ranks]))
                                      if ranks else None),
                })
    return rows


def counter_cross_split_repeats(dataset):
    count = Counter(quad for quads in dataset.quads.values()
                    for quad in map(tuple, quads.tolist()))
    return sum(1 for n in count.values() if n > 1)


def loop_generate_synthetic(spec, seed):
    rng = np.random.default_rng(seed)
    n = min(spec.facts_per_step(), spec.entities * spec.entities * spec.relations)

    def fresh(used):
        while True:
            tri = (int(rng.integers(spec.entities)), int(rng.integers(spec.relations)),
                   int(rng.integers(spec.entities)))
            if tri not in used:
                return tri

    facts, copied_from_past = [], []
    for t in range(spec.steps):
        step_facts, step_copied, used = [], [], set()
        source = facts[t - spec.period] if t >= spec.period else []
        # decide copy slots first so a full-copy step samples without replacement
        if source:
            n_copy = int((rng.random(n) < spec.periodicity).sum())
            n_copy = min(n_copy, len(source))
            picks = rng.choice(len(source), size=n_copy, replace=False)
            for i in picks:
                tri = source[i]
                if tri in used:
                    continue
                used.add(tri)
                step_facts.append(tri)
                step_copied.append(True)
        while len(step_facts) < n:
            tri = fresh(used)
            used.add(tri)
            step_facts.append(tri)
            step_copied.append(False)
        facts.append(step_facts)
        copied_from_past.append(step_copied)

    train_at = [set() for _ in range(spec.steps)]
    split_of = {"train": [], "valid": [], "test": []}
    p_valid, p_test = spec.valid_fraction, spec.test_fraction
    for t in range(spec.steps):
        for tri, copied in zip(facts[t], copied_from_past[t]):
            u = rng.random()
            if u < p_valid:
                split = "valid"
            elif u < p_valid + p_test:
                split = "test"
            else:
                split = "train"
            if t < spec.period:
                split = "train"
            elif split != "train" and copied and tri not in train_at[t - spec.period]:
                split = "train"
            if split == "train":
                train_at[t].add(tri)
            split_of[split].append((*tri, t))

    return TkgDataset(spec.entities, spec.relations, spec.steps, split_of)


def lexsort_sorted_facts(split, quads, limits):
    """data._sorted_facts with np.lexsort and a row-equality repeat mask."""
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    bad = (quads < 0) | (quads >= limits)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        field = ("entity", "relation", "entity", "step")[col]
        raise DatasetError(f"split '{split}': {field} {quads[row, col]} "
                           f"out of range [0, {limits[col]})")
    quads = quads[np.lexsort((quads[:, 2], quads[:, 1], quads[:, 0], quads[:, 3]))]
    repeat = np.zeros(len(quads), dtype=bool)
    repeat[1:] = (quads[1:] == quads[:-1]).all(axis=1)
    quads = quads[~repeat]
    quads.flags.writeable = False
    return quads


def isin_generate_synthetic(spec, seed) -> dict[str, np.ndarray]:
    """synth.generate_synthetic's splits, with np.unique and np.isin over each
    step's fresh draws and one np.isin per step for the split rule, each
    normalized by lexsort_sorted_facts."""
    e, r, steps, period = spec.entities, spec.relations, spec.steps, spec.period
    rng = np.random.default_rng(seed)
    n = min(spec.facts_per_step(), e * r * e)
    codes = np.empty((steps, n), dtype=np.int64)
    copies = np.zeros(steps, dtype=np.int64)
    for t in range(steps):
        step = np.empty(0, dtype=np.int64)
        if t >= period:
            copies[t] = np.count_nonzero(rng.random(n) < spec.periodicity)
            step = codes[t - period, rng.choice(n, size=int(copies[t]), replace=False)]
        while len(step) < n:
            s, rel, o = rng.integers(0, np.tile([e, r, e], n - len(step))).reshape(-1, 3).T
            drawn = (s * r + rel) * e + o
            first = np.sort(np.unique(drawn, return_index=True)[1])
            step = np.concatenate((step, drawn[first[~np.isin(drawn[first], step)]]))
        codes[t] = step

    u = rng.random(steps * n).reshape(steps, n)
    p_valid, p_test = spec.valid_fraction, spec.test_fraction
    split = np.select([u < p_valid, u < p_valid + p_test], [1, 2], 0)
    split[:period] = 0
    copied = np.arange(n) < copies[:, None]
    for t in range(period, steps):
        source_train = codes[t - period, split[t - period] == 0]
        split[t, copied[t] & ~np.isin(codes[t], source_train)] = 0

    quads = np.stack([codes // (r * e), codes // e % r, codes % e,
                      np.broadcast_to(np.arange(steps)[:, None], codes.shape)], axis=-1)
    limits = np.array([e, r, e, steps])
    return {name: lexsort_sorted_facts(name, quads[split == i], limits)
            for i, name in enumerate(SPLIT_NAMES)}
