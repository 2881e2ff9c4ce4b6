import numpy as np
import pytest

from tempkg.data import (DatasetError, Snapshot, TkgDataset, active_entities,
                         build_true_index, load_dataset, write_dataset)


def write_split(directory, name, lines):
    (directory / f"{name}.txt").write_text("".join(f"{ln}\n" for ln in lines))


def make_dir(tmp_path, train, valid=(), test=()):
    write_split(tmp_path, "train", train)
    write_split(tmp_path, "valid", valid)
    write_split(tmp_path, "test", test)
    return tmp_path


class TestActiveEntities:
    def test_empty(self):
        assert active_entities(Snapshot(0)) == set()

    def test_single_edge(self):
        assert active_entities(Snapshot(0, [[0, 0, 1]])) == {0, 1}

    def test_multi(self):
        snap = Snapshot(0, [[0, 0, 1], [1, 2, 3], [3, 1, 3]])
        # oracle: subjects union objects by hand
        assert active_entities(snap) == {0, 1, 3}


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

    def test_named_entities_with_id_maps(self, tmp_path):
        make_dir(tmp_path, ["alice likes bob 0"])
        (tmp_path / "entity2id.txt").write_text("alice\t5\nbob\t2\n")
        (tmp_path / "relation2id.txt").write_text("likes\t1\n")
        ds = load_dataset(tmp_path)
        quads = ds.quadruples("train")
        np.testing.assert_array_equal(quads, [[5, 1, 2, 0]])

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
            a = ds.quadruples(split)
            b = ds2.quadruples(split)
            assert sorted(map(tuple, a.tolist())) == sorted(map(tuple, b.tolist()))


class TestTrueIndex:
    def make_dataset(self, quads, e=5, r=3, t=4):
        per = {name: [[] for _ in range(t)] for name in ("train", "valid", "test")}
        for s, rel, o, tt in quads:
            per["train"][tt].append((s, rel, o))
        splits = {name: [Snapshot(i, np.array(tr, dtype=np.int64) if tr else None)
                         for i, tr in enumerate(steps)]
                  for name, steps in per.items()}
        return TkgDataset(e, r, t, splits)

    def test_single_quad_object_lookup(self):
        idx = build_true_index(self.make_dataset([(0, 0, 1, 0)]))
        assert idx.objects_for(0, 0, 0).tolist() == [1]

    def test_single_quad_subject_lookup(self):
        idx = build_true_index(self.make_dataset([(0, 0, 1, 0)]))
        assert idx.subjects_for(0, 1, 0).tolist() == [0]

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
                    assert idx.objects_for(s, r, t).tolist() == expect
                    expect_s = sorted({s2 for (s2, r2, o2, t2) in uniq
                                       if (r2, o2, t2) == (r, s, t)})
                    assert idx.subjects_for(r, s, t).tolist() == expect_s
