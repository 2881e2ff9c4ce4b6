"""Small helpers that only tests call, built on the package's public functions."""

import numpy as np

from tempkg import autodiff as ad
from tempkg.autodiff import constant
from tempkg.data import TkgDataset
from tempkg.evaluation import query_records
from tempkg.heterogeneity import PATTERN_COLUMNS, PATTERN_KINDS
from tempkg.temporal import decay_column


def active_entities(snapshot) -> set[int]:
    """Entities appearing as subject or object of any triple in the snapshot."""
    if len(snapshot) == 0:
        return set()
    return set(np.unique(snapshot.triples[:, [0, 2]]).tolist())


def train_dataset(entity_count: int, relation_count: int, step_count: int, quads):
    """A dataset whose (s, r, o, t) ``quads`` are all training facts, with
    empty validation and test splits."""
    return TkgDataset(entity_count, relation_count, step_count,
                      {"train": quads, "valid": [], "test": []})


def window_facts(window) -> np.ndarray:
    """A window's (m, 3) snapshots as one (n, 4) array of (s, r, o, i) facts,
    ``i`` the snapshot's index in the window."""
    window = [np.asarray(triples, dtype=np.int64).reshape(-1, 3) for triples in window]
    index = np.repeat(np.arange(len(window)), [len(triples) for triples in window])
    return np.column_stack([np.concatenate(window), index])


def cached_encodes(model, times) -> list[list[int]]:
    """The steps each ``encode_snapshot`` call of an eval cache encodes, one
    list per call, when ``model`` scores the target steps ``times`` in order:
    the cache keeps the last window, so a window encodes its steps outside
    the last one in one call, and a window with none makes no call."""
    calls, last = [], set()
    for t in times:
        steps = model.window_positions(t)[0]
        if missing := [step for step in steps if step not in last]:
            calls.append(missing)
        last = set(steps)
    return calls


def decay_weight(delta_t: float, lam: float, b: float) -> float:
    """Scalar decay weight in (0, 1] for a nonnegative step difference."""
    if delta_t < 0:
        raise ValueError("delta_t must be nonnegative")
    return float(decay_column([delta_t], constant(lam), constant(b)).data[0, 0])


def reduce_mean(a, axis: int | None = None):
    """Mean over all entries or one axis, as a scaled reduce_sum on the tape."""
    a = a if isinstance(a, ad.Tensor) else constant(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return ad.mul(ad.reduce_sum(a, axis), 1.0 / n)


def query_frequencies(table, s: int, r: int, o: int, t: int) -> dict[str, int]:
    """All seven pattern frequencies of one quadruple in a TpfTable."""
    row = table.frequencies(np.array([[s, r, o]], dtype=np.int64), t)[0]
    return dict(zip(PATTERN_KINDS, row.tolist()))


def pattern_frequency(table, kind: str, key, t: int) -> int:
    """One pattern kind's frequency of one key in a TpfTable."""
    triple = np.zeros((1, 3), dtype=np.int64)
    triple[0, list(PATTERN_COLUMNS[kind])] = key
    return int(table.frequencies(triple, t)[0, PATTERN_KINDS.index(kind)])


def objects_for(index, s: int, r: int, t: int) -> np.ndarray:
    """Known objects of (s, r, ?, t) in a TrueTripleIndex, sorted."""
    return index.filter_sets("object", np.array([[s, r, 0]], dtype=np.int64), t)[1]


def subjects_for(index, r: int, o: int, t: int) -> np.ndarray:
    """Known subjects of (?, r, o, t) in a TrueTripleIndex, sorted."""
    return index.filter_sets("subject", np.array([[0, r, o]], dtype=np.int64), t)[1]


def records(rows):
    """A query record array from (direction, s, r, o, t, rank) rows, each
    with a trailing {pattern kind: count} dict when frequencies are attached."""
    rows = list(rows)
    tpf = ([[row[6].get(k, 0) for k in PATTERN_KINDS] for row in rows]
           if rows and len(rows[0]) > 6 else None)
    return query_records([row[0] for row in rows], [row[1:5] for row in rows],
                         [row[5] for row in rows], tpf)
