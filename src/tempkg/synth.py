"""Synthetic temporal-graph corpora for desk-scale experiments.

The generator emits per-step fact sets where each fact is, with probability
``periodicity``, a verbatim copy of a fact from ``period`` steps earlier and
otherwise a fresh uniform triple. At periodicity 1 every valid/test fact is
guaranteed a training occurrence of the same triple at an earlier step, which
is the regime where copying answers from recent history pays off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TkgDataset, snapshots_from_quads


@dataclass
class SynthSpec:
    entities: int
    relations: int
    steps: int
    density: float = 1.0          # facts per step = round(density * entities)
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
    rng = np.random.default_rng(seed)
    n = min(spec.facts_per_step(), spec.entities * spec.entities * spec.relations)

    def fresh(used: set) -> tuple[int, int, int]:
        while True:
            tri = (int(rng.integers(spec.entities)), int(rng.integers(spec.relations)),
                   int(rng.integers(spec.entities)))
            if tri not in used:
                return tri

    facts: list[list[tuple[int, int, int]]] = []
    copied_from_past: list[list[bool]] = []
    for t in range(spec.steps):
        step_facts: list[tuple[int, int, int]] = []
        step_copied: list[bool] = []
        used: set = set()
        source = facts[t - spec.period] if t >= spec.period else []
        # decide copy slots first so a full-copy step samples without replacement
        n_copy = 0
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

    # Split assignment. Early steps (before one period has elapsed) are train
    # only; afterwards each fact draws a split, but a fact may leave train only
    # if its source triple `period` steps back is itself in train, so at full
    # periodicity every held-out fact recurs verbatim in training history.
    train_at: list[set] = [set() for _ in range(spec.steps)]
    split_of: dict[str, list[tuple[int, int, int, int]]] = {"train": [], "valid": [], "test": []}
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

    splits = {name: snapshots_from_quads(quads, spec.steps) for name, quads in split_of.items()}
    ds = TkgDataset(spec.entities, spec.relations, spec.steps, splits)
    ds.validate()
    return ds
