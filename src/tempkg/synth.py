"""Synthetic temporal-graph corpora for desk-scale experiments.

The generator emits per-step fact sets where each fact is, with probability
``periodicity``, a verbatim copy of a fact from ``period`` steps earlier and
otherwise a fresh uniform triple. At periodicity 1 every valid/test fact is
guaranteed a training occurrence of the same triple at an earlier step, which
is the regime where copying answers from recent history pays off.

Each step's facts are one int64 array of codes ``(s·R + r)·E + o``: copies
are picks of rows from the source step's array, fresh triples come in
batches of the shortfall, and the split rule reads each copy's source row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SPLIT_NAMES, TkgDataset


@dataclass
class SynthSpec:
    entities: int
    relations: int
    steps: int
    density: float = 1.0          # facts per step = max(1, round(density * entities))
    periodicity: float = 0.0      # probability a fact copies the snapshot `period` back
    period: int = 1
    valid_fraction: float = 0.1
    test_fraction: float = 0.1

    def __post_init__(self):
        if min(self.entities, self.relations, self.steps) <= 0:
            raise ValueError("generator needs at least one entity, relation and step")
        if not 0.0 <= self.periodicity <= 1.0:
            raise ValueError("periodicity must lie in [0, 1]")
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= self.density < float("inf"):
            raise ValueError(f"density must be nonnegative and finite, got {self.density}")
        if not (min(self.valid_fraction, self.test_fraction) >= 0.0
                and self.valid_fraction + self.test_fraction <= 1.0):
            raise ValueError("valid_fraction and test_fraction must be nonnegative "
                             "and sum to at most 1")

    def facts_per_step(self) -> int:
        return max(1, int(round(self.density * self.entities)))


def generate_synthetic(spec: SynthSpec, seed: int) -> TkgDataset:
    e, r, steps, period = spec.entities, spec.relations, spec.steps, spec.period
    if e * r * e >= 2 ** 63:
        raise ValueError(f"code space {e} x {r} x {e} does not fit in int64")
    rng = np.random.default_rng(seed)
    n = min(spec.facts_per_step(), e * r * e)
    codes = np.empty((steps, n), dtype=np.int64)
    # sources[t][j]: the row of step t - period that copy j of step t repeats
    sources = [np.empty(0, dtype=np.int64)] * steps
    for t in range(steps):
        step = np.empty(0, dtype=np.int64)
        if t >= period:
            # decide copy slots first so a full-copy step samples without replacement
            copies = np.count_nonzero(rng.random(n) < spec.periodicity)
            sources[t] = rng.choice(n, size=copies, replace=False)
            step = codes[t - period, sources[t]]
        while len(step) < n:
            # one draw of exactly the shortfall, in the order the loop drew triples
            # one at a time: the first unseen candidates are the ones it accepted
            s, rel, o = rng.integers(0, np.tile([e, r, e], n - len(step))).reshape(-1, 3).T
            drawn = (s * r + rel) * e + o
            first = np.unique(np.concatenate((step, drawn)), return_index=True)[1]
            step = np.concatenate((step, drawn[np.sort(first[first >= len(step)]) - len(step)]))
        codes[t] = step

    # Split assignment. Early steps (before one period has elapsed) are train
    # only; afterwards each fact draws a split, but a copied fact may leave train
    # only if its source row is in train `period` steps back, so at full
    # periodicity every held-out fact recurs verbatim in training history.
    u = rng.random(steps * n).reshape(steps, n)
    p_valid, p_test = spec.valid_fraction, spec.test_fraction
    split = np.select([u < p_valid, u < p_valid + p_test], [1, 2], 0)  # SPLIT_NAMES order
    split[:period] = 0
    for t in range(period, steps):
        split[t, np.flatnonzero(split[t - period, sources[t]])] = 0

    def split_quads(i: int) -> np.ndarray:
        t, j = np.nonzero(split == i)
        kept = codes[t, j]
        return np.stack([kept // (r * e), kept // e % r, kept % e, t], axis=1)

    return TkgDataset(e, r, steps, {name: split_quads(i)
                                    for i, name in enumerate(SPLIT_NAMES)})
