"""Dict-of-tuples fact indexes, kept as oracles for the sorted-code indexes.

Each class builds its index by looping over facts in Python, the way the
package did before every index became one ``data.GroupedCodes``.
"""

from collections import Counter

import numpy as np

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


class DictTedModel(TedModel):
    """Tier lists of (entity, t') pairs per key; scoring is TedModel's own."""

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


def counter_cross_split_repeats(dataset):
    count = Counter(quad for split in dataset.splits
                    for quad in map(tuple, dataset.quadruples(split).tolist()))
    return sum(1 for n in count.values() if n > 1)
