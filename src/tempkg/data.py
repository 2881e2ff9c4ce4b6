"""Discrete-time multigraph data model and dataset ingestion.

A dataset is three ordered sequences of snapshots (train/valid/test) over one
shared time axis, with shared entity and relation vocabularies. Snapshots
hold de-duplicated (subject, relation, object) triples as a sorted int array.

On-disk layout: a directory with ``train.txt`` / ``valid.txt`` / ``test.txt``,
one fact per line, four whitespace-separated fields
``subject relation object time``. Fields may be names if ``entity2id.txt`` /
``relation2id.txt`` (``name<TAB>id``) are present, else names are indexed by
first appearance. An optional ``stat.txt`` declares vocabulary sizes.
"""

from __future__ import annotations

import datetime
import logging
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

log = logging.getLogger("tempkg")

SPLIT_NAMES = ("train", "valid", "test")
SPLIT_FILES = {"train": "train.txt", "valid": "valid.txt", "test": "test.txt"}


class DatasetError(ValueError):
    pass


class Snapshot:
    """All facts at one time step; triples are a set stored sorted."""

    __slots__ = ("time", "triples")

    def __init__(self, time: int, triples: np.ndarray | None = None):
        self.time = time
        arr = np.asarray([] if triples is None else triples, dtype=np.int64).reshape(-1, 3)
        self.triples = np.unique(arr, axis=0)

    def __len__(self) -> int:
        return len(self.triples)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Snapshot) and self.time == other.time
                and np.array_equal(self.triples, other.triples))


def snapshots_from_quads(quads, step_count: int) -> list[Snapshot]:
    """One snapshot per step of the (s, r, o, t) facts in ``quads``."""
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    quads = quads[np.argsort(quads[:, 3], kind="stable")]
    bounds = np.searchsorted(quads[:, 3], np.arange(step_count + 1))
    return [Snapshot(t, quads[bounds[t]:bounds[t + 1], :3]) for t in range(step_count)]


def active_entities(snapshot: Snapshot) -> set[int]:
    """Entities appearing as subject or object of any triple in the snapshot."""
    if len(snapshot) == 0:
        return set()
    return set(np.unique(snapshot.triples[:, [0, 2]]).tolist())


class GroupedCodes:
    """Facts grouped by a partial key: the sorted int64 codes key * span + value,
    one per fact, or one per distinct code when ``unique``. ``columns`` are the
    key columns and then the value column, ``sizes`` their ranges, so each
    key's values are one contiguous run. A code space that does not fit in
    int64 raises ValueError instead of wrapping."""

    def __init__(self, columns, sizes, unique: bool = True):
        sizes = [int(n) for n in sizes]
        if math.prod(sizes) >= 2 ** 63:
            raise ValueError(f"code space {' x '.join(map(str, sizes))} does not fit in int64")
        self.strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]
        self.span = sizes[-1]
        codes = np.asarray(self.encode(columns), dtype=np.int64)
        self.codes = np.unique(codes) if unique else np.sort(codes)
        self.values = self.codes % self.span
        self.values.flags.writeable = False

    def encode(self, parts):
        """Code of the leading columns: a key's first code, or a fact's code."""
        return sum(map(operator.mul, parts, self.strides))

    def get(self, *key) -> np.ndarray:
        """Sorted values of one key, as a read-only view."""
        base = self.encode(key)
        lo, hi = self.codes.searchsorted(np.array((base, base + self.span)))
        return self.values[lo:hi]

    def count(self, key, lo, hi) -> np.ndarray:
        """Codes of each key with a value in (lo, hi], where -1 <= lo, hi < span;
        ``key`` holds one array or int per key column."""
        base = self.encode(key)
        return (np.searchsorted(self.codes, base + hi, side="right")
                - np.searchsorted(self.codes, base + lo, side="right"))


def cross_split_repeats(dataset: "TkgDataset") -> int:
    """Distinct quadruples present in more than one split at the same step;
    each leaks into filtered ranking."""
    quads = np.vstack([dataset.quadruples(split) for split in dataset.splits])
    sizes = (dataset.entity_count, dataset.relation_count, dataset.entity_count,
             dataset.step_count)
    _, counts = np.unique(GroupedCodes(quads.T, sizes, unique=False).codes,
                          return_counts=True)   # snapshots hold sets
    return int(np.count_nonzero(counts > 1))


@dataclass
class TkgDataset:
    entity_count: int
    relation_count: int
    step_count: int
    splits: dict[str, list[Snapshot]]
    entity_names: list[str] | None = None
    relation_names: list[str] | None = None

    def quadruples(self, split: str) -> np.ndarray:
        """All facts of a split as an (n, 4) array of (s, r, o, t)."""
        snaps = self.splits[split]
        triples = np.vstack([np.empty((0, 3), dtype=np.int64)] + [sn.triples for sn in snaps])
        times = np.repeat(np.array([sn.time for sn in snaps], dtype=np.int64),
                          [len(sn) for sn in snaps])
        return np.column_stack([triples, times])

    def split_sizes(self) -> dict[str, int]:
        return {name: sum(len(s) for s in snaps) for name, snaps in self.splits.items()}

    def validate(self) -> None:
        for name, snaps in self.splits.items():
            if len(snaps) != self.step_count:
                raise DatasetError(f"split '{name}' has {len(snaps)} snapshots, "
                                   f"expected {self.step_count}")
            for t, snap in enumerate(snaps):
                if snap.time != t:
                    raise DatasetError(f"split '{name}' snapshot at index {t} "
                                       f"carries time {snap.time}")
                if len(snap):
                    tr = snap.triples
                    if tr[:, [0, 2]].max() >= self.entity_count or tr.min() < 0:
                        raise DatasetError(f"entity index out of range in '{name}' at t={t}")
                    if tr[:, 1].max() >= self.relation_count:
                        raise DatasetError(f"relation index out of range in '{name}' at t={t}")


class TrueTripleIndex:
    """Membership lookup for (s, r, ?, t) and (?, r, o, t) over chosen splits.
    A ``static`` index files every fact under one time key: the time-ignoring filter."""

    def __init__(self, dataset: TkgDataset, splits=("train",), static: bool = False):
        self.static = static
        s, r, o, t = np.vstack([dataset.quadruples(split) for split in splits]).T
        t, steps = (0, 1) if static else (t, dataset.step_count)
        e, nr = dataset.entity_count, dataset.relation_count
        self._objects = GroupedCodes((t, s, r, o), (steps, e, nr, e))
        self._subjects = GroupedCodes((t, r, o, s), (steps, nr, e, e))

    def objects_for(self, s: int, r: int, t: int) -> np.ndarray:
        return self._objects.get(0 if self.static else t, s, r)

    def subjects_for(self, r: int, o: int, t: int) -> np.ndarray:
        return self._subjects.get(0 if self.static else t, r, o)


def build_true_index(dataset: TkgDataset, splits=("train",), static=False) -> TrueTripleIndex:
    return TrueTripleIndex(dataset, splits, static)


# --- loading -----------------------------------------------------------------

def _read_id_map(path) -> dict[str, int]:
    mapping: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DatasetError(f"{path}:{lineno}: expected 'name<TAB>id'")
            try:
                mapping[parts[0]] = int(parts[1])
            except ValueError as err:
                raise DatasetError(f"{path}:{lineno}: non-integer id {parts[1]!r}") from err
    return mapping


def _read_stat(path) -> tuple[int, int, int | None, int | None]:
    with open(path, encoding="utf-8") as fh:
        fields = fh.read().split()
    if len(fields) < 2:
        raise DatasetError(f"{path}: expected at least 'num_entities num_relations'")
    nums = []
    for f in fields[:4]:
        try:
            nums.append(int(f))
        except ValueError as err:
            raise DatasetError(f"{path}: non-integer field {f!r}") from err
    nums += [None] * (4 - len(nums))
    return nums[0], nums[1], nums[2], nums[3]


class _Vocab:
    """Name-to-index map built from files when present, else by first appearance."""

    def __init__(self, fixed: dict[str, int] | None):
        self.fixed = fixed
        self.auto: dict[str, int] = {}

    def resolve(self, token: str, where: str) -> int:
        if self.fixed is not None:
            if token not in self.fixed:
                raise DatasetError(f"{where}: name {token!r} missing from id map")
            return self.fixed[token]
        if token not in self.auto:
            self.auto[token] = len(self.auto)
        return self.auto[token]

    def names(self) -> list[str] | None:
        source = self.fixed if self.fixed is not None else self.auto
        if not source:
            return None
        out = [""] * (max(source.values()) + 1)
        for name, idx in source.items():
            out[idx] = name
        return out


def _parse_time(token: str, where: str):
    """A time field is either an integer step or an ISO date."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return datetime.date.fromisoformat(token)
    except ValueError as err:
        raise DatasetError(f"{where}: unparsable time field {token!r}") from err


def load_dataset(directory, fmt: str = "auto", time_granularity: str = "daily") -> TkgDataset:
    """Load train/valid/test quadruple files from a directory.

    ``fmt``: 'int' (indices only), 'named' (resolve via id maps / first
    appearance), or 'auto' (per-field detection). Date-valued time fields are
    mapped to 0-based steps at the chosen granularity over the split union.
    """
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        raise DatasetError(f"{directory}: not a directory")
    if fmt not in ("auto", "int", "named"):
        raise DatasetError(f"unknown dataset format tag {fmt!r}")

    ent_map_path = os.path.join(directory, "entity2id.txt")
    rel_map_path = os.path.join(directory, "relation2id.txt")
    entities = _Vocab(_read_id_map(ent_map_path) if os.path.exists(ent_map_path) else None)
    relations = _Vocab(_read_id_map(rel_map_path) if os.path.exists(rel_map_path) else None)

    def field_index(token: str, vocab: _Vocab, where: str) -> int:
        if fmt != "named":
            try:
                return int(token)
            except ValueError:
                if fmt == "int":
                    raise DatasetError(f"{where}: non-integer field {token!r}") from None
        return vocab.resolve(token, where)

    raw: dict[str, list[tuple[int, int, int, object]]] = {}
    seen_dups = 0
    for split in SPLIT_NAMES:
        path = os.path.join(directory, SPLIT_FILES[split])
        if not os.path.exists(path):
            raise DatasetError(f"missing dataset file: {path}")
        quads = []
        seen: set[tuple] = set()
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                parts = line.split()
                where = f"{path}:{lineno}"
                if len(parts) != 4:
                    raise DatasetError(f"{where}: expected 4 fields, got {len(parts)}")
                s = field_index(parts[0], entities, where)
                r = field_index(parts[1], relations, where)
                o = field_index(parts[2], entities, where)
                t = _parse_time(parts[3], where)
                key = (s, r, o, t)
                if key in seen:
                    seen_dups += 1
                    continue
                seen.add(key)
                quads.append(key)
        raw[split] = quads
    if seen_dups:
        log.warning("dropped %d duplicated quadruple(s) during load", seen_dups)

    # map date-typed times to 0-based steps over the union of all splits
    all_times = {q[3] for quads in raw.values() for q in quads}
    if any(isinstance(t, datetime.date) for t in all_times):
        if not all(isinstance(t, datetime.date) for t in all_times):
            raise DatasetError("mixed integer and date time fields")
        origin = min(all_times)
        divisor = {"daily": 1, "weekly": 7, "monthly": 30, "yearly": 365}.get(time_granularity)
        if divisor is None:
            raise DatasetError(f"unknown time granularity {time_granularity!r}")

        def step_of(d):
            return (d - origin).days // divisor

    else:
        def step_of(t):
            return int(t)

    converted = {split: [(s, r, o, step_of(t)) for s, r, o, t in quads]
                 for split, quads in raw.items()}
    stat_path = os.path.join(directory, "stat.txt")
    declared = _read_stat(stat_path) if os.path.exists(stat_path) else None

    max_ent = max((max(q[0], q[2]) for quads in converted.values() for q in quads), default=-1)
    max_rel = max((q[1] for quads in converted.values() for q in quads), default=-1)
    max_t = max((q[3] for quads in converted.values() for q in quads), default=-1)
    min_t = min((q[3] for quads in converted.values() for q in quads), default=0)
    if min_t < 0:
        raise DatasetError("negative time step after conversion")

    entity_count = max_ent + 1
    relation_count = max_rel + 1
    step_count = max_t + 1
    if declared is not None:
        decl_e, decl_r, decl_t, decl_total = declared
        if max_ent >= decl_e:
            raise DatasetError(f"entity index {max_ent} out of declared range {decl_e}")
        if max_rel >= decl_r:
            raise DatasetError(f"relation index {max_rel} out of declared range {decl_r}")
        entity_count, relation_count = decl_e, decl_r
        if decl_t is not None:
            if max_t >= decl_t:
                raise DatasetError(f"time step {max_t} out of declared range {decl_t}")
            step_count = decl_t
        if decl_total is not None:
            total = sum(len(q) for q in converted.values())
            if total != decl_total:
                raise DatasetError(f"split sizes sum to {total}, stat file declares {decl_total}")

    splits = {split: snapshots_from_quads(quads, step_count)
              for split, quads in converted.items()}

    ds = TkgDataset(entity_count, relation_count, step_count, splits,
                    entities.names(), relations.names())
    ds.validate()
    leaked = cross_split_repeats(ds)
    if leaked:
        log.warning("%d quadruple(s) appear in more than one split at the same step; "
                    "they leak into filtered ranking", leaked)
    sizes = ds.split_sizes()
    log.info("loaded %s: %d entities, %d relations, %d steps, splits %s",
             directory, entity_count, relation_count, step_count, sizes)
    return ds


def write_dataset(dataset: TkgDataset, directory, write_stat: bool = True) -> None:
    """Write a dataset in the four-file layout load_dataset reads."""
    os.makedirs(directory, exist_ok=True)
    for split in SPLIT_NAMES:
        path = os.path.join(directory, SPLIT_FILES[split])
        with open(path, "w", encoding="utf-8") as fh:
            for snap in dataset.splits[split]:
                for s, r, o in snap.triples.tolist():
                    fh.write(f"{s}\t{r}\t{o}\t{snap.time}\n")
    if write_stat:
        with open(os.path.join(directory, "stat.txt"), "w", encoding="utf-8") as fh:
            total = sum(dataset.split_sizes().values())
            fh.write(f"{dataset.entity_count}\t{dataset.relation_count}"
                     f"\t{dataset.step_count}\t{total}\n")
