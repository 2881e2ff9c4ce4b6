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
from .data import TkgDataset
from .temporal import decay_column

PATTERN_KINDS = ("s", "o", "r", "sr", "ro", "so", "sro")

_EXTRACTORS = {
    "s": lambda s, r, o: (s,),
    "o": lambda s, r, o: (o,),
    "r": lambda s, r, o: (r,),
    "sr": lambda s, r, o: (s, r),
    "ro": lambda s, r, o: (r, o),
    "so": lambda s, r, o: (s, o),
    "sro": lambda s, r, o: (s, r, o),
}


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

    Internally stores, per pattern key, the sorted occurrence times with
    cumulative counts, so a lookup is a binary search.
    """

    def __init__(self, dataset: TkgDataset, policy: WindowPolicy = WindowPolicy()):
        if dataset.split_sizes()["train"] == 0:
            raise ValueError("pattern frequencies need a nonempty training split")
        self.policy = policy
        self._tables: dict[str, dict[tuple, tuple[np.ndarray, np.ndarray]]] = {}
        occurrences: dict[str, dict[tuple, list[int]]] = {k: {} for k in PATTERN_KINDS}
        for snap in dataset.splits["train"]:
            for s, r, o in snap.triples.tolist():
                for kind, extract in _EXTRACTORS.items():
                    occurrences[kind].setdefault(extract(s, r, o), []).append(snap.time)
        for kind, table in occurrences.items():
            packed = {}
            for key, times in table.items():
                times_arr = np.sort(np.asarray(times, dtype=np.int64))
                packed[key] = (times_arr, np.arange(1, len(times_arr) + 1, dtype=np.int64))
            self._tables[kind] = packed

    def _count_until(self, times: np.ndarray, cum: np.ndarray, t: int, side: str) -> int:
        pos = np.searchsorted(times, t, side=side)
        return int(cum[pos - 1]) if pos else 0

    def freq(self, kind: str, key: tuple, t: int) -> int:
        entry = self._tables[kind].get(tuple(key))
        if entry is None:
            return 0
        times, cum = entry
        if self.policy.kind == "full_history":
            return self._count_until(times, cum, t, "right")
        if self.policy.kind == "strict_past":
            return self._count_until(times, cum, t, "left")
        upper = self._count_until(times, cum, t, "right")
        lower = self._count_until(times, cum, t - self.policy.width, "right")
        return upper - lower

    def query_frequencies(self, s: int, r: int, o: int, t: int) -> dict[str, int]:
        """All seven frequencies for one quadruple."""
        return {kind: self.freq(kind, _EXTRACTORS[kind](s, r, o), t)
                for kind in PATTERN_KINDS}

    def subject_side(self, s: int, r: int, t: int) -> np.ndarray:
        """F observable for an object query (s, r, ?, t): [f_s, f_r, f_sr]."""
        return np.array([self.freq("s", (s,), t), self.freq("r", (r,), t),
                         self.freq("sr", (s, r), t)], dtype=np.float64)

    def object_side(self, o: int, r: int, t: int) -> np.ndarray:
        """F observable for a subject query (?, r, o, t): [f_o, f_r, f_ro]."""
        return np.array([self.freq("o", (o,), t), self.freq("r", (r,), t),
                         self.freq("ro", (r, o), t)], dtype=np.float64)


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
