"""Temporal pattern frequencies, inactive-entity imputation, frequency gating.

A pattern is a non-empty subset of (s, r, o); its temporal frequency at step t
counts training facts matching the pattern inside a window policy. The seven
kinds are keyed 's', 'o', 'r', 'sr', 'ro', 'so', 'sro'. By construction a more
specific pattern never counts more than a less specific one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant
from .data import GroupedCodes, TkgDataset
from .temporal import decay_column

# columns of an (s, r, o) triple that key each pattern kind
PATTERN_COLUMNS = {"s": (0,), "o": (2,), "r": (1,), "sr": (0, 1), "ro": (1, 2),
                   "so": (0, 2), "sro": (0, 1, 2)}
PATTERN_KINDS = tuple(PATTERN_COLUMNS)


@dataclass(frozen=True)
class WindowPolicy:
    """'full_history' counts t' <= t; 'strict_past' counts t' < t;
    'trailing' counts max(0, t - width + 1) <= t' <= t."""

    kind: str = "full_history"
    width: int | None = None

    def __post_init__(self):
        if self.kind not in ("full_history", "strict_past", "trailing"):
            raise ValueError(f"unknown window policy {self.kind!r}")
        if self.kind == "trailing" and (self.width is None or self.width <= 0):
            raise ValueError("trailing policy needs a positive width")


class TpfTable:
    """Pattern frequencies over the training split, queryable at any step.
    Each pattern kind keeps one sorted code key * (T + 1) + time per training
    fact, so a frequency is two binary searches."""

    def __init__(self, dataset: TkgDataset, policy: WindowPolicy = WindowPolicy()):
        quads = dataset.quads["train"]
        if len(quads) == 0:
            raise ValueError("pattern frequencies need a nonempty training split")
        self.policy = policy
        self.step_count = dataset.step_count
        sizes = (dataset.entity_count, dataset.relation_count, dataset.entity_count)
        self._groups = {kind: GroupedCodes([quads[:, c] for c in cols] + [quads[:, 3]],
                                           [sizes[c] for c in cols] + [self.step_count + 1],
                                           unique=False)
                        for kind, cols in PATTERN_COLUMNS.items()}

    def _bounds(self, t):
        """The window (lo, hi] of counted steps at t, one step or an array of
        them, clipped to [-1, T] so both bounds stay inside a key's run of codes."""
        hi = t - 1 if self.policy.kind == "strict_past" else t
        lo = t - self.policy.width if self.policy.kind == "trailing" else -1
        return np.clip(lo, -1, self.step_count), np.clip(hi, -1, self.step_count)

    def frequencies(self, triples: np.ndarray, t) -> np.ndarray:
        """(m, 7) counts of each (s, r, o) row at step t, one column per
        entry of PATTERN_KINDS; ``t`` is one step or one step per row."""
        lo, hi = self._bounds(t)
        return np.stack([self._groups[kind].count(tuple(triples[:, c] for c in cols), lo, hi)
                         for kind, cols in PATTERN_COLUMNS.items()], axis=1)


def compute_tpf(dataset: TkgDataset, policy: WindowPolicy = WindowPolicy()) -> TpfTable:
    return TpfTable(dataset, policy)


# --- imputation ---------------------------------------------------------------

def impute_window(x_t: Tensor, sides, inactive: np.ndarray, lam: Tensor, b: Tensor,
                  ) -> Tensor:
    """Batched imputation across all entities from one or two window sides.

    ``sides`` lists ``(x_stale, deltas, has)`` per side: each entity's row at
    its nearest active step on that side, the step distance, and whether such
    a step exists. A side's weight is g = gamma(delta) / len(sides) on rows
    where ``inactive & has`` and 0 elsewhere, and the result is
    (1 - sum g) * x_t + sum g * x_stale, so the coefficients are nonnegative
    and sum to one; active rows pass through unchanged.
    """
    rest, terms = constant(1.0), []
    for x_stale, deltas, has in sides:
        weight = (inactive & has).astype(np.float64)[:, None] / len(sides)
        g = ad.mul(decay_column(np.where(has, deltas, 1), lam, b), constant(weight))
        rest = ad.sub(rest, g)
        terms.append(ad.mul(g, x_stale))
    out = ad.mul(rest, x_t)
    for term in terms:
        out = ad.add(out, term)
    return out


# --- frequency-based gating ----------------------------------------------------

GATE_NAMES = ("os", "oo", "ss", "so")
FREQ_TRANSFORMS = ("log1p", "raw")


def transform_frequencies(freqs: np.ndarray, transform: str = "log1p") -> np.ndarray:
    """Compress heavy-tailed counts before the gate network (or pass raw)."""
    freqs = np.asarray(freqs, dtype=np.float64)
    if transform == "log1p":
        return np.log1p(freqs)
    if transform == "raw":
        return freqs
    raise ValueError(f"unknown frequency transform {transform!r}")


def gate_alpha(freq_rows: np.ndarray, params: dict[str, Tensor], gate: str) -> Tensor:
    """Gate coefficient in [0, 1] per query row from a (b, 3) frequency matrix."""
    if gate not in GATE_NAMES:
        raise ValueError(f"unknown gate {gate!r}")
    hidden = ad.relu(ad.add(ad.matmul(constant(freq_rows), params[f"gate.{gate}.w1"]),
                            params[f"gate.{gate}.b1"]))
    return ad.sigmoid(ad.add(ad.matmul(hidden, params[f"gate.{gate}.w2"]),
                             params[f"gate.{gate}.b2"]))


def blend(alpha: Tensor, x: Tensor, z: Tensor) -> Tensor:
    """alpha * x + (1 - alpha) * z with alpha either scalar or (n, 1)."""
    return ad.add(ad.mul(alpha, x), ad.mul(ad.sub(constant(1.0), alpha), z))
