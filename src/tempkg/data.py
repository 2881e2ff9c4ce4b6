"""Discrete-time multigraph data model and dataset ingestion.

A dataset is three splits (train/valid/test) over one shared time axis, with
shared entity and relation vocabularies. Each split is one read-only (n, 4)
array of distinct (subject, relation, object, time) facts sorted by (time,
subject, relation, object), normalized through one sorted int64 code per
fact, so a dataset needs E²·R·T < 2⁶³; its snapshots are views of one
step's rows.

On-disk layout: a directory with ``train.txt`` / ``valid.txt`` / ``test.txt``,
one fact per line, four whitespace-separated fields
``subject relation object time``. Fields may be names if ``entity2id.txt`` /
``relation2id.txt`` (``name<TAB>id``) are present, else names are indexed by
first appearance and may not share a vocabulary with integer ids. An optional
``stat.txt`` declares vocabulary sizes.
"""

from __future__ import annotations

import datetime
import functools
import logging
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

log = logging.getLogger("tempkg")

SPLIT_NAMES = ("train", "valid", "test")
SPLIT_FILES = {"train": "train.txt", "valid": "valid.txt", "test": "test.txt"}
DATASET_FORMATS = ("auto", "int", "named")
# days per step of each granularity that date-valued times are read at
TIME_GRANULARITIES = {"daily": 1, "weekly": 7, "monthly": 30, "yearly": 365}


class DatasetError(ValueError):
    pass


@dataclass(frozen=True, eq=False, slots=True)
class Snapshot:
    """All facts at one time step: a read-only (m, 3) view of its split's rows."""
    time: int
    triples: np.ndarray

    def __len__(self) -> int:
        return len(self.triples)


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
        codes = np.sort(np.asarray(self.encode(columns), dtype=np.int64))
        if unique:   # a neighbour test on the sorted codes; np.unique hashes int64, far slower
            first = np.ones(len(codes), dtype=bool)
            first[1:] = codes[1:] != codes[:-1]
            codes = codes[first]
        self.codes = codes

    def encode(self, parts):
        """Code of the leading columns: a key's first code, or a fact's code."""
        return sum(map(operator.mul, parts, self.strides))

    def ranges(self, key) -> tuple[np.ndarray, np.ndarray]:
        """Values of many keys at once as (row, value) pairs, where ``row`` indexes
        the keys; pairs follow key order, and each key's values are sorted.
        ``key`` holds one array or int per key column."""
        base = np.atleast_1d(self.encode(key))
        lo, hi = self.codes.searchsorted(np.stack((base, base + self.span)))
        counts = hi - lo
        rows = np.repeat(np.arange(len(base)), counts)
        # a value's position is its key's lo plus its offset inside the key's run
        starts = np.cumsum(counts) - counts
        return rows, self.codes[np.arange(len(rows)) + np.repeat(lo - starts, counts)] % self.span

    def count(self, key, lo, hi) -> np.ndarray:
        """Codes of each key with a value in (lo, hi], where -1 <= lo, hi < span;
        ``key`` holds one array or int per key column."""
        base = self.encode(key)
        return (np.searchsorted(self.codes, base + hi, side="right")
                - np.searchsorted(self.codes, base + lo, side="right"))


def cross_split_repeats(dataset: "TkgDataset") -> int:
    """Distinct quadruples present in more than one split at the same step;
    each leaks into filtered ranking."""
    quads = np.vstack(list(dataset.quads.values()))
    sizes = (dataset.entity_count, dataset.relation_count, dataset.entity_count,
             dataset.step_count)
    _, counts = np.unique(GroupedCodes(quads.T, sizes, unique=False).codes,
                          return_counts=True)   # a split holds each fact once
    return int(np.count_nonzero(counts > 1))


def _sorted_facts(split: str, quads, limits) -> np.ndarray:
    """The distinct rows of ``quads`` sorted by (t, s, r, o), read-only; a
    field outside [0, limit) raises DatasetError naming the split, and so
    does a (t, s, r, o) code space that does not fit in int64."""
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    bad = (quads < 0) | (quads >= limits)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        field = ("entity", "relation", "entity", "step")[col]
        raise DatasetError(f"split '{split}': {field} {quads[row, col]} "
                           f"out of range [0, {limits[col]})")
    e, nr, _, steps = limits.tolist()
    try:   # one sorted, distinct code per fact
        facts = GroupedCodes((quads[:, 3], *quads[:, :3].T), (steps, e, nr, e))
    except ValueError as err:
        raise DatasetError(f"split '{split}': {err}") from None
    # read the code's digits t, s, r back into their columns, in place; o is what remains
    codes = facts.codes
    quads = np.empty((len(codes), 4), dtype=np.int64)
    for col, stride in zip((3, 0, 1), facts.strides):
        np.divmod(codes, stride, out=(quads[:, col], codes))
    quads[:, 2] = codes
    quads.flags.writeable = False
    return quads


class TkgDataset:
    """Facts of each split as ``quads[split]``: distinct (s, r, o, t) rows
    sorted by (t, s, r, o), read-only. The constructor takes them in any
    order, with repeats, and raises DatasetError for an entity, relation or
    step out of range, or for a (t, s, r, o) code space of 2^63 or more.
    ``splits[split]`` holds one Snapshot view per step, built on first read."""

    def __init__(self, entity_count: int, relation_count: int, step_count: int,
                 quads: dict, entity_names: list[str] | None = None,
                 relation_names: list[str] | None = None):
        self.entity_count = entity_count
        self.relation_count = relation_count
        self.step_count = step_count
        self.entity_names = entity_names
        self.relation_names = relation_names
        limits = np.array([entity_count, relation_count, entity_count, step_count])
        self.quads = {split: _sorted_facts(split, q, limits) for split, q in quads.items()}

    @functools.cached_property
    def splits(self) -> dict[str, tuple[Snapshot, ...]]:
        return {split: self._snapshots(q) for split, q in self.quads.items()}

    def _snapshots(self, quads: np.ndarray) -> tuple[Snapshot, ...]:
        bounds = np.searchsorted(quads[:, 3], np.arange(self.step_count + 1)).tolist()
        return tuple(Snapshot(t, quads[bounds[t]:bounds[t + 1], :3])
                     for t in range(self.step_count))

    def split_sizes(self) -> dict[str, int]:
        return {split: len(q) for split, q in self.quads.items()}


class TrueTripleIndex:
    """Membership lookup for (s, r, ?, t) and (?, r, o, t) over chosen splits.
    A ``static`` index files every fact under one time key: the time-ignoring filter."""

    def __init__(self, dataset: TkgDataset, splits=("train",), static: bool = False):
        self.static = static
        s, r, o, t = np.vstack([dataset.quads[split] for split in splits]).T
        t, steps = (0, 1) if static else (t, dataset.step_count)
        e, nr = dataset.entity_count, dataset.relation_count
        self._objects = GroupedCodes((t, s, r, o), (steps, e, nr, e))
        self._subjects = GroupedCodes((t, r, o, s), (steps, nr, e, e))

    def filter_sets(self, direction: str, triples: np.ndarray, t: int,
                    ) -> tuple[np.ndarray, np.ndarray]:
        """The known answers of every (s, r, o) row's query at step t, in one
        lookup: (row, entity) pairs as GroupedCodes.ranges gives them."""
        s, r, o = triples.T
        t = 0 if self.static else t
        if direction == "object":
            return self._objects.ranges((t, s, r))
        if direction == "subject":
            return self._subjects.ranges((t, r, o))
        raise ValueError(f"unknown query direction {direction!r}")


def build_true_index(dataset: TkgDataset, splits=("train",), static=False) -> TrueTripleIndex:
    return TrueTripleIndex(dataset, splits, static)


# --- loading -----------------------------------------------------------------

def _read_id_map(path) -> dict[str, int]:
    """name -> id from 'name<TAB>id' lines; a name or an id listed twice is an error."""
    mapping: dict[str, int] = {}
    names_of: dict[int, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DatasetError(f"{path}:{lineno}: expected 'name<TAB>id'")
            name = parts[0]
            try:
                idx = int(parts[1])
            except ValueError as err:
                raise DatasetError(f"{path}:{lineno}: non-integer id {parts[1]!r}") from err
            if name in mapping:
                raise DatasetError(f"{path}:{lineno}: name {name!r} listed twice")
            if idx in names_of:
                raise DatasetError(f"{path}:{lineno}: id {idx} already names "
                                   f"{names_of[idx]!r}")
            mapping[name], names_of[idx] = idx, name
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
    """Name-to-index map built from files when present, else by first appearance.
    A name in the map is looked up there before any integer reading, so a
    map may name entities with numerals. Otherwise integer tokens are ids and
    names are indexed, so a vocabulary without a map may hold one kind of
    token but not both."""

    def __init__(self, fixed: dict[str, int] | None, fmt: str):
        self.fixed = fixed
        self.fmt = fmt
        self.auto: dict[str, int] = {}
        self.integers = False

    def index(self, token: str, where: str) -> int:
        if self.fmt != "int" and self.fixed is not None and token in self.fixed:
            return self.fixed[token]
        if self.fmt != "named":
            try:
                value = int(token)
            except ValueError:
                if self.fmt == "int":
                    raise DatasetError(f"{where}: non-integer field {token!r}") from None
            else:
                self.integers = True
                self._check_unmixed(token, where)
                return value
        if self.fixed is not None:
            raise DatasetError(f"{where}: name {token!r} missing from id map")
        value = self.auto.setdefault(token, len(self.auto))
        self._check_unmixed(token, where)
        return value

    def _check_unmixed(self, token: str, where: str) -> None:
        if self.integers and self.auto:
            raise DatasetError(f"{where}: {token!r} mixes integer ids and names in one "
                               "vocabulary; an id map is needed to tell them apart")

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
    if fmt not in DATASET_FORMATS:
        raise DatasetError(f"unknown dataset format tag {fmt!r}")
    if time_granularity not in TIME_GRANULARITIES:
        raise DatasetError(f"unknown time granularity {time_granularity!r}")

    ent_map_path = os.path.join(directory, "entity2id.txt")
    rel_map_path = os.path.join(directory, "relation2id.txt")
    entities = _Vocab(_read_id_map(ent_map_path) if os.path.exists(ent_map_path) else None, fmt)
    relations = _Vocab(_read_id_map(rel_map_path) if os.path.exists(rel_map_path) else None, fmt)

    # one (n, 4) array per split; a date is held as its ordinal until all are read
    quads: dict[str, np.ndarray] = {}
    dates = 0
    for split in SPLIT_NAMES:
        path = os.path.join(directory, SPLIT_FILES[split])
        if not os.path.exists(path):
            raise DatasetError(f"missing dataset file: {path}")
        rows = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                parts = line.split()
                where = f"{path}:{lineno}"
                if len(parts) != 4:
                    raise DatasetError(f"{where}: expected 4 fields, got {len(parts)}")
                s = entities.index(parts[0], where)
                r = relations.index(parts[1], where)
                o = entities.index(parts[2], where)
                t = _parse_time(parts[3], where)
                if isinstance(t, datetime.date):
                    dates += 1
                    t = t.toordinal()
                rows.append((s, r, o, t))
        try:
            quads[split] = np.array(rows, dtype=np.int64).reshape(-1, 4)
        except OverflowError as err:
            raise DatasetError(f"{path}: a field does not fit in int64") from err
    facts = np.vstack(list(quads.values()))

    # map date-typed times to 0-based steps over the union of all splits
    if dates:
        if dates != len(facts):
            raise DatasetError("mixed integer and date time fields")
        divisor = TIME_GRANULARITIES[time_granularity]
        origin = facts[:, 3].min()
        for q in (facts, *quads.values()):
            q[:, 3] = (q[:, 3] - origin) // divisor
    stat_path = os.path.join(directory, "stat.txt")
    declared = _read_stat(stat_path) if os.path.exists(stat_path) else None

    # the sizes the facts need, or those a stat file declares; the dataset
    # rejects a fact outside them
    entity_count = int(facts[:, [0, 2]].max(initial=-1)) + 1
    relation_count = int(facts[:, 1].max(initial=-1)) + 1
    step_count = int(facts[:, 3].max(initial=-1)) + 1
    if declared is not None:
        entity_count, relation_count = declared[:2]
        step_count = step_count if declared[2] is None else declared[2]
    ds = TkgDataset(entity_count, relation_count, step_count, quads,
                    entities.names(), relations.names())
    sizes = ds.split_sizes()
    # the dataset drops repeats; a repeat is counted within a split, at its step
    distinct = sum(sizes.values())
    if distinct < len(facts):
        log.warning("dropped %d duplicated quadruple(s) during load", len(facts) - distinct)
    if declared is not None and declared[3] is not None and distinct != declared[3]:
        raise DatasetError(f"split sizes sum to {distinct}, stat file declares {declared[3]}")
    leaked = cross_split_repeats(ds)
    if leaked:
        log.warning("%d quadruple(s) appear in more than one split at the same step; "
                    "they leak into filtered ranking", leaked)
    log.info("loaded %s: %d entities, %d relations, %d steps, splits %s",
             directory, entity_count, relation_count, step_count, sizes)
    return ds


def write_dataset(dataset: TkgDataset, directory) -> None:
    """Write a dataset in the four-file layout load_dataset reads."""
    os.makedirs(directory, exist_ok=True)
    for split in SPLIT_NAMES:
        np.savetxt(os.path.join(directory, SPLIT_FILES[split]), dataset.quads[split],
                   fmt="%d", delimiter="\t")
    with open(os.path.join(directory, "stat.txt"), "w", encoding="utf-8") as fh:
        total = sum(dataset.split_sizes().values())
        fh.write(f"{dataset.entity_count}\t{dataset.relation_count}"
                 f"\t{dataset.step_count}\t{total}\n")
