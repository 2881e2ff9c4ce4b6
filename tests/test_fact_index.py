"""The sorted-code fact indexes against the dict-based oracles they replaced."""

import itertools

import numpy as np
import pytest

from fact_oracles import (DictTedModel, DictTpfTable, DictTrueTripleIndex,
                          counter_cross_split_repeats)
from tempkg import heterogeneity as het
from tempkg.data import (GroupedCodes, Snapshot, TkgDataset, build_true_index,
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

    def snaps(quads):
        return [Snapshot(t, [q[:3] for q in quads if q[3] == t and t != empty_step] or None)
                for t in range(T)]

    return TkgDataset(E, R, T, {"train": snaps(train), "valid": snaps(valid),
                                "test": snaps(test)})


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("static", [False, True])
@pytest.mark.parametrize("splits", [("train",), ("train", "valid", "test"), ("valid", "test")])
def test_filter_index_matches_dict_oracle(seed, static, splits):
    ds = random_dataset(seed)
    index = build_true_index(ds, splits, static)
    oracle = DictTrueTripleIndex(ds, splits, static)
    for a, r, b, t in itertools.product(range(E), range(R), range(E), range(T)):
        for got, want in ((index.objects_for(a, r, t), oracle.objects_for(a, r, t)),
                          (index.subjects_for(r, b, t), oracle.subjects_for(r, b, t))):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)


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
    for t in range(-2, T + 3):
        for kind, cols in het.PATTERN_COLUMNS.items():
            for key in itertools.product(*(range(sizes[c]) for c in cols)):
                got = table.freq(kind, key, t)
                assert type(got) is int
                assert got == oracle.freq(kind, key, t), (kind, key, t)
        triples = np.array([(s, r, o) for s in range(E) for r in range(R) for o in range(E)])
        counts = table.frequencies(triples, t)
        assert counts.shape == (len(triples), len(het.PATTERN_KINDS))
        for row, (s, r, o) in zip(counts.tolist(), triples.tolist()):
            want = table.query_frequencies(s, r, o, t)
            assert dict(zip(het.PATTERN_KINDS, row)) == want
            assert all(type(v) is int for v in want.values())


@pytest.mark.parametrize("seed", SEEDS)
def test_ted_matches_dict_oracle(seed):
    ds = random_dataset(seed)
    model, oracle = TedModel(ds), DictTedModel(ds)
    queries = ds.quadruples("test").tolist()
    assert queries
    for (s, r, o, t), direction in itertools.product(queries, ("object", "subject")):
        got = model.reference_sets(direction, s, r, o, t)
        want = oracle.reference_sets(direction, s, r, o, t)
        assert len(got) == 3
        for tier, expect in zip(got, want):
            assert tier.dtype == np.int64 and tier.shape[1:] == (2,)
            np.testing.assert_array_equal(tier, expect)
        for blend in ("tiered", "sum"):
            config = TedConfig(0.3, blend)
            np.testing.assert_array_equal(model.rank_scores(direction, s, r, o, t, config),
                                          oracle.rank_scores(direction, s, r, o, t, config))


@pytest.mark.parametrize("seed", SEEDS)
def test_cross_split_repeats_matches_counter(seed):
    ds = random_dataset(seed)
    assert cross_split_repeats(ds) == counter_cross_split_repeats(ds) > 0


def test_grouped_codes_get_and_count():
    keys = np.array([2, 0, 2, 2, 1])
    values = np.array([3, 1, 0, 3, 4])
    unique = GroupedCodes((keys, values), (3, 5))
    assert unique.get(2).tolist() == [0, 3]
    assert unique.get(0).tolist() == [1]
    assert unique.get(1).tolist() == [4]
    repeated = GroupedCodes((keys, values), (3, 5), unique=False)
    assert repeated.count((np.array([2, 0, 1]),), -1, 4).tolist() == [3, 1, 1]
    assert repeated.count((2,), 0, 3) == 2


def test_code_space_overflow_raises():
    """E^2 * R * (T + 1) >= 2^63: every index refuses instead of wrapping."""
    e, r, t = 2 ** 22, 2 ** 10, 2 ** 10
    quads = {0: [(0, 0, 1)], 5: [(e - 1, r - 1, 0), (3, 2, e - 2)]}
    train = [Snapshot(i, quads.get(i)) for i in range(t)]
    empty = [Snapshot(i) for i in range(t)]
    ds = TkgDataset(e, r, t, {"train": train, "valid": list(empty), "test": list(empty)})
    for build in (build_true_index, het.compute_tpf, TedModel):
        with pytest.raises(ValueError, match="code space"):
            build(ds)
