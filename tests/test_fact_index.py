"""The sorted-code fact indexes against the dict-based oracles they replaced."""

import itertools

import numpy as np
import pytest

from fact_oracles import (DictTedModel, DictTpfTable, DictTrueTripleIndex,
                          PerQueryTedModel, counter_cross_split_repeats)
from helpers import (objects_for, pattern_frequency, query_frequencies, subjects_for,
                     train_dataset)
from tempkg import heterogeneity as het
from tempkg.data import (DatasetError, GroupedCodes, TkgDataset, build_true_index,
                         cross_split_repeats)
from tempkg.ted import TedConfig, TedModel

E, R, T = 7, 3, 6
SEEDS = (0, 1, 2)


def random_dataset(seed):
    """Dense random splits; some valid/test facts repeat train or valid facts
    at the same step, and one step is empty in every split."""
    rng = np.random.default_rng(seed)

    def facts(n):
        return [(int(rng.integers(E)), int(rng.integers(R)), int(rng.integers(E)),
                 int(rng.integers(T))) for _ in range(n)]

    empty_step = int(rng.integers(T))
    train = facts(45)
    valid = facts(10) + train[:4]
    test = facts(10) + train[4:7] + valid[:3]

    splits = {"train": train, "valid": valid, "test": test}
    return TkgDataset(E, R, T, {name: [q for q in quads if q[3] != empty_step]
                                for name, quads in splits.items()})


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("static", [False, True])
@pytest.mark.parametrize("splits", [("train",), ("train", "valid", "test"), ("valid", "test")])
def test_filter_index_matches_dict_oracle(seed, static, splits):
    ds = random_dataset(seed)
    index = build_true_index(ds, splits, static)
    oracle = DictTrueTripleIndex(ds, splits, static)
    grid = np.array(list(itertools.product(range(E), range(R), range(E))))
    for t in range(T):
        for direction, want in (("object", oracle.objects_for), ("subject", oracle.subjects_for)):
            rows, ids = index.filter_sets(direction, grid, t)
            assert rows.dtype == ids.dtype == np.int64
            expect = [want(a, r, t) if direction == "object" else want(r, b, t)
                      for a, r, b in grid.tolist()]
            np.testing.assert_array_equal(rows, np.repeat(np.arange(len(grid)),
                                                          [len(x) for x in expect]))
            np.testing.assert_array_equal(ids, np.concatenate(expect))


@pytest.mark.parametrize("direction", ["objects", "subjects", "head", ""])
def test_filter_sets_rejects_an_unknown_direction(direction):
    # a near-miss such as "objects" must not fall through to the subject index
    index = build_true_index(random_dataset(0))
    with pytest.raises(ValueError, match=f"unknown query direction {direction!r}"):
        index.filter_sets(direction, np.array([[0, 0, 1]]), 0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", [het.WindowPolicy("full_history"),
                                    het.WindowPolicy("strict_past"),
                                    het.WindowPolicy("trailing", 2),
                                    het.WindowPolicy("trailing", T + 3)])
def test_tpf_matches_dict_oracle(seed, policy):
    ds = random_dataset(seed)
    table = het.compute_tpf(ds, policy)
    oracle = DictTpfTable(ds, policy)
    sizes = (E, R, E)
    triples = np.array([(s, r, o) for s in range(E) for r in range(R) for o in range(E)])
    per_step = []
    for t in range(-2, T + 3):
        for kind, cols in het.PATTERN_COLUMNS.items():
            for key in itertools.product(*(range(sizes[c]) for c in cols)):
                got = pattern_frequency(table, kind, key, t)
                assert type(got) is int
                assert got == oracle.freq(kind, key, t), (kind, key, t)
        counts = table.frequencies(triples, t)
        assert counts.shape == (len(triples), len(het.PATTERN_KINDS))
        for row, (s, r, o) in zip(counts.tolist(), triples.tolist()):
            want = query_frequencies(table, s, r, o, t)
            assert dict(zip(het.PATTERN_KINDS, row)) == want
            assert all(type(v) is int for v in want.values())
        per_step.append(counts)
    # one call with a step per row, the rows of every step shuffled together:
    # steps 0 and T - 1, steps outside [0, T) and, under trailing(T + 3), a
    # width larger than any step
    steps = np.repeat(np.arange(-2, T + 3), len(triples))
    order = np.random.default_rng(seed).permutation(len(steps))
    got = table.frequencies(np.tile(triples, (T + 5, 1))[order], steps[order])
    np.testing.assert_array_equal(got, np.vstack(per_step)[order])


@pytest.mark.parametrize("seed", SEEDS)
def test_ted_matches_dict_oracle(seed):
    """Whole-snapshot tiers and (q, E) scores against the per-query scorer, on
    TedModel's own tiers and on the dict tiers."""
    ds = random_dataset(seed)
    model = TedModel(ds)
    oracles = (PerQueryTedModel(ds), DictTedModel(ds))
    snaps = [snap for snap in ds.splits["test"] if len(snap)]
    assert snaps
    for snap, direction in itertools.product(snaps, ("object", "subject")):
        t, queries = snap.time, snap.triples.tolist()
        s, r, o = snap.triples.T
        got = model.reference_sets(direction, s, r, o, t)
        assert len(got) == 3
        for oracle in oracles:
            want = [oracle.reference_sets(direction, *query, t) for query in queries]
            for i, tier in enumerate(got):
                assert tier.dtype == np.int64 and tier.ndim == 1
                # query j's (entity, t') tuples as (j * E + entity) * (T + 1) + t'
                expect = np.concatenate([(j * ds.entity_count + w[i][:, 0])
                                         * (ds.step_count + 1) + w[i][:, 1]
                                         for j, w in enumerate(want)])
                np.testing.assert_array_equal(tier, expect)
            for blend in ("tiered", "sum"):
                config = TedConfig(0.3, blend)
                np.testing.assert_array_equal(
                    model.rank_scores(direction, s, r, o, t, config),
                    np.stack([oracle.rank_scores(direction, *query, t, config)
                              for query in queries]))


@pytest.mark.parametrize("seed", SEEDS)
def test_cross_split_repeats_matches_counter(seed):
    ds = random_dataset(seed)
    assert cross_split_repeats(ds) == counter_cross_split_repeats(ds) > 0


def test_grouped_codes_ranges_and_count():
    keys = np.array([2, 0, 2, 2, 1])
    values = np.array([3, 1, 0, 3, 4])
    unique = GroupedCodes((keys, values), (3, 5))
    rows, got = unique.ranges((np.array([2, 1, 2, 0]),))
    assert rows.tolist() == [0, 0, 1, 2, 2, 3]
    assert got.tolist() == [0, 3, 4, 0, 3, 1]
    repeated = GroupedCodes((keys, values), (3, 5), unique=False)
    assert repeated.count((np.array([2, 0, 1]),), -1, 4).tolist() == [3, 1, 1]
    assert repeated.count((2,), 0, 3) == 2


@pytest.mark.parametrize("codes", [[4, 1, 4, 0, 1, 1, 3], [2, 2, 2], [3], []],
                         ids=["repeats", "all-equal", "single", "empty"])
def test_grouped_codes_unique_matches_np_unique(codes):
    codes = np.array(codes, dtype=np.int64)
    got = GroupedCodes((codes,), (5,)).codes
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.unique(codes))


def test_code_space_overflow_raises():
    """E^2 * R * T >= 2^63: the dataset refuses instead of wrapping. Below
    that, E^2 * R * (T + 1) >= 2^63: every index keyed by a step in [0, T]
    refuses, and the filter index, keyed by a step in [0, T), builds."""
    e, r, t = 2 ** 22, 2 ** 10, 2 ** 10
    with pytest.raises(DatasetError, match="code space"):
        train_dataset(e, r, t, [(0, 0, 1, 0), (e - 1, r - 1, 0, 5), (3, 2, e - 2, 5)])
    e, r, t = 2 ** 21, 2 ** 10, 2 ** 11 - 1
    ds = train_dataset(e, r, t, [(0, 0, 1, 0), (e - 1, r - 1, 0, t - 1), (3, 2, e - 2, 5)])
    for build in (het.compute_tpf, TedModel):
        with pytest.raises(ValueError, match="code space"):
            build(ds)
    index = build_true_index(ds)
    assert objects_for(index, e - 1, r - 1, t - 1).tolist() == [0]
    assert subjects_for(index, 2, e - 2, 5).tolist() == [3]
