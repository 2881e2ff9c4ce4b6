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

def impute_window(x_t: Tensor, x_stale: Tensor, deltas: np.ndarray,
                  has_stale: np.ndarray, inactive: np.ndarray,
                  lam: Tensor, b: Tensor) -> Tensor:
    """Batched one-sided imputation across all entities.

    Rows where ``inactive & has_stale`` become the decayed blend of their
    stale representation (x_stale, the entity's row at its nearest active
    step) and x_t; every other row passes through unchanged.
    """
    apply_mask = (inactive & has_stale).astype(np.float64)[:, None]
    gamma = ad.mul(decay_column(np.where(has_stale, deltas, 1), lam, b),
                   constant(apply_mask))
    return ad.add(ad.mul(gamma, x_stale), ad.mul(ad.sub(constant(1.0), gamma), x_t))


def impute_window_bidirectional(x_t: Tensor, x_past: Tensor, x_future: Tensor,
                                deltas_past: np.ndarray, deltas_future: np.ndarray,
                                has_past: np.ndarray, has_future: np.ndarray,
                                inactive: np.ndarray, lam: Tensor, b: Tensor) -> Tensor:
    """Batched two-sided imputation with halved, renormalized decay weights.

    An inactive row blends x_past, x_future and x_t with coefficients
    (g-/2, g+/2, 1 - g-/2 - g+/2), which are nonnegative and sum to one; a
    side without a stale row gets weight zero. Active rows pass through.
    """
    use_p = (inactive & has_past).astype(np.float64)[:, None]
    use_f = (inactive & has_future).astype(np.float64)[:, None]
    g_p = ad.mul(decay_column(np.where(has_past, deltas_past, 1), lam, b), 0.5)
    g_f = ad.mul(decay_column(np.where(has_future, deltas_future, 1), lam, b), 0.5)
    g_p = ad.mul(g_p, constant(use_p))
    g_f = ad.mul(g_f, constant(use_f))
    rest = ad.sub(ad.sub(constant(1.0), g_p), g_f)
    return ad.add(ad.add(ad.mul(rest, x_t), ad.mul(g_p, x_past)), ad.mul(g_f, x_future))


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
