import numpy as np
import pytest

from tempkg import data
from tempkg.data import (DatasetError, TkgDataset, build_true_index, cross_split_repeats,
                         load_dataset, write_dataset)
from tempkg.synth import SynthSpec, generate_synthetic

from fact_oracles import lexsort_sorted_facts, snapshots_from_quads
from helpers import active_entities, objects_for, subjects_for, train_dataset


def write_split(directory, name, lines):
    (directory / f"{name}.txt").write_text("".join(f"{ln}\n" for ln in lines))


def make_dir(tmp_path, train, valid=(), test=()):
    write_split(tmp_path, "train", train)
    write_split(tmp_path, "valid", valid)
    write_split(tmp_path, "test", test)
    return tmp_path


def snapshot(triples):
    """The one step's Snapshot view of a one-step dataset of ``triples``."""
    return train_dataset(4, 3, 1, [(*triple, 0) for triple in triples]).splits["train"][0]


class TestActiveEntities:
    def test_empty(self):
        assert active_entities(snapshot([])) == set()

    def test_single_edge(self):
        assert active_entities(snapshot([(0, 0, 1)])) == {0, 1}

    def test_multi(self):
        snap = snapshot([(0, 0, 1), (1, 2, 3), (3, 1, 3)])
        # oracle: subjects union objects by hand
        assert active_entities(snap) == {0, 1, 3}


class TestFactArrays:
    """Each split is one sorted, distinct, read-only fact array, checked at
    construction; its snapshots are views of it."""

    def random_quads(self, rng, n, e=6, r=3, t=7, empty_steps=(2, 5)):
        """Shuffled facts with repeats and no fact at ``empty_steps``."""
        quads = np.column_stack([rng.integers(0, e, n), rng.integers(0, r, n),
                                 rng.integers(0, e, n), rng.integers(0, t, n)])
        quads = quads[~np.isin(quads[:, 3], empty_steps)]
        repeats = rng.integers(1, 4, len(quads))
        return quads[rng.permutation(np.repeat(np.arange(len(quads)), repeats))]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_step_oracle(self, seed):
        rng = np.random.default_rng(seed)
        quads = {"train": self.random_quads(rng, 60), "valid": self.random_quads(rng, 8),
                 "test": np.empty((0, 4), dtype=np.int64)}
        assert len(np.unique(quads["train"], axis=0)) < len(quads["train"])
        ds = TkgDataset(6, 3, 7, quads)
        for name, given in quads.items():
            oracle = snapshots_from_quads(given, 7)
            want = np.vstack([np.column_stack([triples, np.full(len(triples), t)])
                              for t, triples in enumerate(oracle)])
            assert ds.quads[name].dtype == np.int64
            np.testing.assert_array_equal(ds.quads[name], want)
            assert len(ds.splits[name]) == 7
            for t, (snap, triples) in enumerate(zip(ds.splits[name], oracle)):
                assert snap.time == t and len(snap) == len(triples)
                np.testing.assert_array_equal(snap.triples, triples)
        assert ds.split_sizes() == {name: len(np.unique(q, axis=0)) for name, q in quads.items()}
        assert not len(ds.splits["train"][2]) and not len(ds.quads["test"])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_lexsort_oracle(self, seed):
        # shuffled facts with repeats as an array, a list, a Fortran-ordered
        # int32 copy, a split that holds every possible fact and empty splits
        rng = np.random.default_rng(seed)
        shuffled = self.random_quads(rng, 80)
        full = np.array(np.meshgrid(range(6), range(3), range(6), range(7),
                                    indexing="ij")).reshape(4, -1).T
        quads = {"shuffled": shuffled, "list": shuffled[:30].tolist(),
                 "fortran": np.asfortranarray(shuffled[::-1], dtype=np.int32),
                 "full": np.vstack([full, full[:50]])[rng.permutation(len(full) + 50)],
                 "empty": np.empty((0, 4), dtype=np.int64), "empty-list": []}
        ds = TkgDataset(6, 3, 7, quads)
        limits = np.array([6, 3, 6, 7])
        for name, given in quads.items():
            want = lexsort_sorted_facts(name, given, limits)
            got = ds.quads[name]
            assert got.dtype == np.int64 and got.shape == want.shape
            assert got.flags.c_contiguous and not got.flags.writeable
            np.testing.assert_array_equal(got, want)
        assert len(ds.quads["full"]) == 6 * 3 * 6 * 7

    @pytest.mark.parametrize("entities, relations, steps, fits", [
        (2 ** 21, 2 ** 10, 2 ** 11 - 1, True),     # E^2 R T = 2^63 - 2^52
        (2 ** 21, 2 ** 10, 2 ** 11, False),        # E^2 R T = 2^63
        (2 ** 22, 2 ** 10, 2 ** 10, False),
        (2 ** 32, 1, 1, False),
    ])
    def test_code_space_beyond_int64_rejected(self, entities, relations, steps, fits):
        e, r, t = entities, relations, steps
        last = (e - 1, r - 1, e - 1, t - 1)
        quads = {"train": [last, (0, 0, 1, 0), last], "valid": [], "test": []}
        if fits:
            ds = TkgDataset(e, r, t, quads)
            assert ds.quads["train"].tolist() == [[0, 0, 1, 0], list(last)]
            return
        with pytest.raises(DatasetError,
                           match=r"^split 'train': code space .* does not fit in int64"):
            TkgDataset(e, r, t, quads)
        # an empty split needs no code, but the dataset's space is refused all the same
        with pytest.raises(DatasetError, match="code space"):
            TkgDataset(e, r, t, {"train": []})

    def test_fact_arrays_and_views_are_read_only(self):
        ds = train_dataset(3, 1, 2, [(0, 0, 1, 0), (1, 0, 2, 1)])
        with pytest.raises(ValueError):
            ds.quads["train"][0, 0] = 2
        with pytest.raises(ValueError):
            ds.splits["train"][1].triples[0, 0] = 2
        with pytest.raises(TypeError):
            ds.splits["train"][0] = ds.splits["train"][1]
        assert ds.quads["train"].tolist() == [[0, 0, 1, 0], [1, 0, 2, 1]]

    def test_snapshot_views_are_built_on_first_read_only(self, tmp_path, monkeypatch):
        # constructing, loading and generating build no view: at 200000 steps
        # the views alone cost seconds
        built = []
        snapshot_class = data.Snapshot
        monkeypatch.setattr(data, "Snapshot", lambda *a: built.append(a[0]) or snapshot_class(*a))
        ds = train_dataset(3, 1, 200000, [(0, 0, 1, 0), (1, 0, 2, 199999)])
        write_dataset(ds, tmp_path)
        load_dataset(tmp_path)
        generate_synthetic(SynthSpec(10, 2, 6, density=1.0), seed=0)
        assert built == []
        small = train_dataset(3, 1, 2, [(0, 0, 1, 0), (1, 0, 2, 1)])
        assert [snap.time for snap in small.splits["train"]] == [0, 1]
        assert small.splits is small.splits and built == [0, 1] * 3

    @pytest.mark.parametrize("fact, problem", [
        ((5, 0, 1, 0), "entity 5 out of range [0, 5)"),
        ((0, 0, 5, 0), "entity 5 out of range [0, 5)"),
        ((-1, 0, 1, 0), "entity -1 out of range [0, 5)"),
        ((0, 0, -2, 0), "entity -2 out of range [0, 5)"),
        ((0, 2, 1, 0), "relation 2 out of range [0, 2)"),
        ((0, -1, 1, 0), "relation -1 out of range [0, 2)"),
        ((1, 0, 0, 3), "step 3 out of range [0, 3)"),
        ((0, 0, 1, -1), "step -1 out of range [0, 3)"),
    ])
    def test_field_out_of_range_rejected(self, fact, problem):
        # a step outside [0, T) was once dropped without a word
        quads = {"train": [(0, 0, 1, 0), (1, 0, 0, 2)], "valid": [fact], "test": []}
        with pytest.raises(DatasetError) as err:
            TkgDataset(5, 2, 3, quads)
        assert str(err.value) == f"split 'valid': {problem}"

    def test_loader_rejects_a_step_outside_the_declared_count(self, tmp_path):
        make_dir(tmp_path, ["0 0 1 0", "1 0 0 4"])
        (tmp_path / "stat.txt").write_text("2 1 3\n")
        with pytest.raises(DatasetError, match=r"split 'train': step 4 out of range \[0, 3\)"):
            load_dataset(tmp_path)
        make_dir(tmp_path, ["0 0 1 -1", "1 0 0 0"])
        with pytest.raises(DatasetError, match="split 'train': step -1"):
            load_dataset(tmp_path)


class TestLoader:
    def test_minimal_two_line_dataset(self, tmp_path):
        ds = load_dataset(make_dir(tmp_path, ["0 0 1 0", "1 0 0 1"]))
        assert ds.entity_count == 2
        assert ds.relation_count == 1
        assert ds.step_count == 2
        assert ds.split_sizes() == {"train": 2, "valid": 0, "test": 0}

    def test_three_column_line_is_malformed(self, tmp_path):
        make_dir(tmp_path, ["0 0 1 0", "0 0 1"])
        with pytest.raises(DatasetError) as err:
            load_dataset(tmp_path)
        assert "train.txt:2" in str(err.value)

    def test_non_integer_field_in_int_mode(self, tmp_path):
        make_dir(tmp_path, ["0 zero 1 0"])
        with pytest.raises(DatasetError):
            load_dataset(tmp_path, fmt="int")

    @pytest.mark.parametrize("kwargs", [dict(fmt="ints"), dict(time_granularity="wekly")])
    def test_unknown_tag_rejected_with_integer_steps(self, tmp_path, kwargs):
        # the tags are checked before any line is read, so a typo is reported
        # even when the corpus never needs it
        make_dir(tmp_path, ["0 0 1 0", "1 0 2 1"])
        with pytest.raises(DatasetError):
            load_dataset(tmp_path, **kwargs)

    def test_missing_file(self, tmp_path):
        write_split(tmp_path, "train", ["0 0 1 0"])
        with pytest.raises(DatasetError) as err:
            load_dataset(tmp_path)
        assert "valid.txt" in str(err.value)

    def test_named_entities_first_appearance(self, tmp_path):
        ds = load_dataset(make_dir(tmp_path, ["alice likes bob 0", "bob likes alice 1"]))
        assert ds.entity_count == 2
        assert ds.entity_names == ["alice", "bob"]
        assert ds.relation_names == ["likes"]

    def test_mixed_integer_and_name_entities_rejected(self, tmp_path):
        make_dir(tmp_path, ["a 0 1 0", "0 0 b 1"])
        with pytest.raises(DatasetError) as err:
            load_dataset(tmp_path)
        assert "train.txt:1" in str(err.value)

    def test_mixed_integer_and_name_relations_rejected(self, tmp_path):
        make_dir(tmp_path, ["0 0 1 0"], valid=["1 likes 0 1"])
        with pytest.raises(DatasetError) as err:
            load_dataset(tmp_path)
        assert "valid.txt:1" in str(err.value)

    def test_named_entities_with_id_maps(self, tmp_path):
        make_dir(tmp_path, ["alice likes bob 0"])
        (tmp_path / "entity2id.txt").write_text("alice\t5\nbob\t2\n")
        (tmp_path / "relation2id.txt").write_text("likes\t1\n")
        ds = load_dataset(tmp_path)
        np.testing.assert_array_equal(ds.quads["train"], [[5, 1, 2, 0]])

    def test_numeral_names_in_id_map_are_looked_up(self, tmp_path):
        # the map names an entity "5": it maps to 2, not to id 5
        make_dir(tmp_path, ["5 0 bob 0"])
        (tmp_path / "entity2id.txt").write_text("5\t2\nbob\t0\n")
        ds = load_dataset(tmp_path)
        np.testing.assert_array_equal(ds.quads["train"], [[2, 0, 0, 0]])
        assert ds.entity_count == 3
        assert ds.entity_names == ["bob", "", "5"]

    @pytest.mark.parametrize("map_file", ["entity2id.txt", "relation2id.txt"])
    @pytest.mark.parametrize("lines, where, problem", [
        ("alice\t0\nbob\t1\nalice\t2\n", 3, "name 'alice' listed twice"),
        ("alice\t0\nbob\t0\n", 2, "id 0 already names 'alice'")], ids=["name", "id"])
    def test_id_map_repeating_a_name_or_an_id_rejected(self, tmp_path, map_file, lines,
                                                       where, problem):
        # two names on one id would load as one entity under the later name
        make_dir(tmp_path, ["alice likes bob 0"])
        (tmp_path / "entity2id.txt").write_text("alice\t0\nbob\t1\n")
        (tmp_path / "relation2id.txt").write_text("likes\t0\n")
        (tmp_path / map_file).write_text(lines)
        with pytest.raises(DatasetError) as err:
            load_dataset(tmp_path)
        assert f"{map_file}:{where}: {problem}" in str(err.value)

    def test_date_times_become_daily_steps(self, tmp_path):
        ds = load_dataset(make_dir(tmp_path, ["0 0 1 2014-01-01", "1 0 0 2014-01-03"]))
        assert ds.step_count == 3
        assert len(ds.splits["train"][1]) == 0

    def test_stat_file_declares_vocab_and_total(self, tmp_path):
        make_dir(tmp_path, ["0 0 1 0"])
        (tmp_path / "stat.txt").write_text("10 4\n")
        ds = load_dataset(tmp_path)
        assert (ds.entity_count, ds.relation_count) == (10, 4)

    def test_index_out_of_declared_range(self, tmp_path):
        make_dir(tmp_path, ["11 0 1 0"])
        (tmp_path / "stat.txt").write_text("10 4\n")
        with pytest.raises(DatasetError):
            load_dataset(tmp_path)

    def test_stat_total_mismatch(self, tmp_path):
        make_dir(tmp_path, ["0 0 1 0", "0 1 1 0"])
        (tmp_path / "stat.txt").write_text("10 4 1 99\n")
        with pytest.raises(DatasetError):
            load_dataset(tmp_path)

    def test_duplicates_dropped(self, tmp_path):
        ds = load_dataset(make_dir(tmp_path, ["0 0 1 0", "0 0 1 0"]))
        assert ds.split_sizes()["train"] == 1

    def test_stat_total_and_warning_count_distinct_facts(self, tmp_path, caplog):
        # a repeat within a split is dropped; one across splits is kept
        make_dir(tmp_path, ["0 0 1 0", "0 0 1 0", "1 0 0 0"], valid=["0 0 1 0"])
        (tmp_path / "stat.txt").write_text("2 1 1 3\n")
        with caplog.at_level("WARNING", logger="tempkg"):
            ds = load_dataset(tmp_path)
        assert ds.split_sizes() == {"train": 2, "valid": 1, "test": 0}
        dropped = [rec.getMessage() for rec in caplog.records if "duplicated" in rec.getMessage()]
        assert dropped == ["dropped 1 duplicated quadruple(s) during load"]
        (tmp_path / "stat.txt").write_text("2 1 1 4\n")
        with pytest.raises(DatasetError, match="sum to 3"):
            load_dataset(tmp_path)

    def test_cross_split_repeats_warn_once_with_count(self, tmp_path, caplog):
        # (0,0,1,0) sits in all three splits and (1,0,0,1) in two: two leaked
        # quadruples; (2,0,1,0) vs (2,0,1,1) differ in step and do not leak
        directory = make_dir(tmp_path, ["0 0 1 0", "1 0 0 1", "2 0 1 0"],
                             valid=["0 0 1 0", "1 0 0 1"], test=["0 0 1 0", "2 0 1 1"])
        with caplog.at_level("WARNING", logger="tempkg"):
            load_dataset(directory)
        leaks = [rec for rec in caplog.records if "more than one split" in rec.getMessage()]
        assert len(leaks) == 1
        assert leaks[0].getMessage().startswith("2 quadruple(s)")

    def test_cross_split_repeats_counts_each_leaked_quadruple_once(self):
        # (0,0,1) at step 0 sits in all three splits and twice in train,
        # (1,0,0) at step 1 in two; (2,0,1) differs in step between splits
        # and (1,0,2) repeats within train only
        train = [(0, 0, 1, 0), (0, 0, 1, 0), (2, 0, 1, 0), (1, 0, 2, 0), (1, 0, 2, 0),
                 (1, 0, 0, 1)]
        ds = TkgDataset(3, 1, 2, {"train": train, "valid": [(0, 0, 1, 0), (1, 0, 0, 1)],
                                  "test": [(0, 0, 1, 0), (2, 0, 1, 1)]})
        assert cross_split_repeats(ds) == 2
        assert cross_split_repeats(train_dataset(3, 1, 2, train)) == 0

    def test_disjoint_splits_do_not_warn(self, tmp_path, caplog):
        directory = make_dir(tmp_path, ["0 0 1 0", "1 0 0 1"], valid=["0 0 1 1"],
                             test=["1 0 0 0"])
        with caplog.at_level("WARNING", logger="tempkg"):
            load_dataset(directory)
        assert not [rec for rec in caplog.records if "more than one split" in rec.getMessage()]

    def test_roundtrip_preserves_quadruple_multiset(self, tmp_path):
        (tmp_path / "src").mkdir()
        src = make_dir(tmp_path / "src", ["0 0 1 0", "1 1 0 2", "2 0 2 1"],
                       valid=["0 1 2 2"], test=["2 1 0 0"])
        ds = load_dataset(src)
        out = tmp_path / "out"
        write_dataset(ds, out)
        ds2 = load_dataset(out)
        for split in ("train", "valid", "test"):
            a = ds.quads[split]
            b = ds2.quads[split]
            assert sorted(map(tuple, a.tolist())) == sorted(map(tuple, b.tolist()))


class TestTrueIndex:
    def make_dataset(self, quads, e=5, r=3, t=4):
        return train_dataset(e, r, t, quads)

    def test_single_quad_object_lookup(self):
        idx = build_true_index(self.make_dataset([(0, 0, 1, 0)]))
        assert objects_for(idx, 0, 0, 0).tolist() == [1]

    def test_single_quad_subject_lookup(self):
        idx = build_true_index(self.make_dataset([(0, 0, 1, 0)]))
        assert subjects_for(idx, 0, 1, 0).tolist() == [0]

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(21)
        quads = [(int(rng.integers(5)), int(rng.integers(3)), int(rng.integers(5)),
                  int(rng.integers(4))) for _ in range(10)]
        ds = self.make_dataset(quads)
        idx = build_true_index(ds)
        uniq = set(quads)
        for s in range(5):
            for r in range(3):
                for t in range(4):
                    expect = sorted({o for (s2, r2, o, t2) in uniq
                                     if (s2, r2, t2) == (s, r, t)})
                    assert objects_for(idx, s, r, t).tolist() == expect
                    expect_s = sorted({s2 for (s2, r2, o2, t2) in uniq
                                       if (r2, o2, t2) == (r, s, t)})
                    assert subjects_for(idx, r, s, t).tolist() == expect_s
