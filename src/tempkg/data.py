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
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

log = logging.getLogger("tempkg")

SPLIT_NAMES = ("train", "valid", "test")
SPLIT_FILES = {"train": "train.txt", "valid": "valid.txt", "test": "test.txt"}


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class Quadruple:
    subject: int
    relation: int
    object: int
    time: int


class Snapshot:
    """All facts at one time step; triples are a set stored sorted."""

    __slots__ = ("time", "triples")

    def __init__(self, time: int, triples: np.ndarray | None = None):
        self.time = time
        if triples is None or len(triples) == 0:
            self.triples = np.empty((0, 3), dtype=np.int64)
        else:
            arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
            self.triples = np.unique(arr, axis=0)

    def __len__(self) -> int:
        return len(self.triples)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Snapshot) and self.time == other.time
                and np.array_equal(self.triples, other.triples))


def active_entities(snapshot: Snapshot) -> set[int]:
    """Entities appearing as subject or object of any triple in the snapshot."""
    if len(snapshot) == 0:
        return set()
    return set(np.unique(snapshot.triples[:, [0, 2]]).tolist())


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
        rows = []
        for snap in self.splits[split]:
            if len(snap):
                t = np.full((len(snap), 1), snap.time, dtype=np.int64)
                rows.append(np.hstack([snap.triples, t]))
        if not rows:
            return np.empty((0, 4), dtype=np.int64)
        return np.vstack(rows)

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
        self.splits = tuple(splits)
        self.static = static
        objects: dict[tuple[int, int, int], set[int]] = {}
        subjects: dict[tuple[int, int, int], set[int]] = {}
        for split in self.splits:
            for snap in dataset.splits[split]:
                t = 0 if static else snap.time
                for s, r, o in snap.triples.tolist():
                    objects.setdefault((s, r, t), set()).add(o)
                    subjects.setdefault((r, o, t), set()).add(s)
        self._objects = {k: np.array(sorted(v), dtype=np.int64) for k, v in objects.items()}
        self._subjects = {k: np.array(sorted(v), dtype=np.int64) for k, v in subjects.items()}
        self._empty = np.empty(0, dtype=np.int64)

    def objects_for(self, s: int, r: int, t: int) -> np.ndarray:
        return self._objects.get((s, r, 0 if self.static else t), self._empty)

    def subjects_for(self, r: int, o: int, t: int) -> np.ndarray:
        return self._subjects.get((r, o, 0 if self.static else t), self._empty)


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
    split_count = Counter(key for quads in converted.values() for key in set(quads))
    leaked = sum(1 for n in split_count.values() if n > 1)
    if leaked:
        log.warning("%d quadruple(s) appear in more than one split at the same step; "
                    "they leak into filtered ranking", leaked)

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

    splits: dict[str, list[Snapshot]] = {}
    for split, quads in converted.items():
        per_step: list[list] = [[] for _ in range(step_count)]
        for s, r, o, t in quads:
            per_step[t].append((s, r, o))
        splits[split] = [Snapshot(t, np.array(tr, dtype=np.int64) if tr else None)
                         for t, tr in enumerate(per_step)]

    ds = TkgDataset(entity_count, relation_count, step_count, splits,
                    entities.names(), relations.names())
    ds.validate()
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
