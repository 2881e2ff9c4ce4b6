import numpy as np
import pytest

from tempkg.cli import main
from tempkg.data import TkgDataset, write_dataset
from tempkg.synth import SynthSpec, generate_synthetic

from fact_oracles import isin_generate_synthetic, loop_generate_synthetic

DATASET_FILES = ("train.txt", "valid.txt", "test.txt", "stat.txt")
ORACLE_SPECS = {
    # the corpora of the train-gru, eval-sa and ted-icews benchmark workloads
    "train-gru": SynthSpec(200, 20, 24, density=1.0, periodicity=0.5, period=3),
    "eval-sa": SynthSpec(1000, 50, 30, density=0.5, periodicity=0.5, period=3),
    "ted-icews": SynthSpec(7128, 230, 365, density=0.035, periodicity=0.5, period=7),
    "periodicity-1": SynthSpec(20, 4, 10, periodicity=1.0, period=2),
    "period-1": SynthSpec(12, 3, 9, density=0.8, periodicity=0.4, period=1),
    "steps-below-period": SynthSpec(12, 3, 4, density=0.8, periodicity=0.6, period=6),
    "all-held-out": SynthSpec(15, 2, 8, periodicity=0.5, period=2,
                              valid_fraction=0.6, test_fraction=0.4),
    # 9 of the 3·1·3 possible triples per step: fresh draws collide often
    "near-full-vocabulary": SynthSpec(3, 1, 6, density=3.0, periodicity=0.5, period=1),
}


def quads_set(ds, split):
    return set(map(tuple, ds.quads[split].tolist()))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", list(ORACLE_SPECS))
def test_matches_loop_oracle(name, seed):
    want = loop_generate_synthetic(ORACLE_SPECS[name], seed)
    got = generate_synthetic(ORACLE_SPECS[name], seed)
    assert list(got.quads) == list(want.quads)
    for split, quads in want.quads.items():
        np.testing.assert_array_equal(got.quads[split], quads)


# (entities, relations, density, valid_fraction, test_fraction); the first
# fills the whole code space at every step, 5 * 2 * 5 = 50 facts
ISIN_SHAPES = [(5, 2, 10.0, 0.2, 0.3), (12, 3, 0.8, 0.1, 0.1), (40, 5, 1.5, 0.5, 0.5)]


@pytest.mark.parametrize("shape", ISIN_SHAPES, ids=["full-space", "sparse", "all-held-out"])
@pytest.mark.parametrize("periodicity", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("period", [1, 2, 3])
def test_matches_isin_oracle(period, periodicity, shape):
    e, r, density, p_valid, p_test = shape
    spec = SynthSpec(e, r, 9, density=density, periodicity=periodicity, period=period,
                     valid_fraction=p_valid, test_fraction=p_test)
    for seed in (0, 1):
        got = generate_synthetic(spec, seed)
        want = isin_generate_synthetic(spec, seed)
        assert list(got.quads) == list(want)
        for split, quads in want.items():
            assert got.quads[split].dtype == np.int64
            assert np.array_equal(got.quads[split], quads), split
        assert sum(got.split_sizes().values()) == spec.steps * min(e * r * e, spec.facts_per_step())


def test_builds_with_no_isin_or_lexsort(monkeypatch):
    """Corpora and datasets are built from sorted int64 codes: no per-step
    membership test, no row lexsort."""
    calls = []
    for name in ("isin", "lexsort"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _name=name, _real=real, **k:
                            calls.append(_name) or _real(*a, **k))
    spec = SynthSpec(30, 4, 12, density=2.0, periodicity=0.5, period=2,
                     valid_fraction=0.2, test_fraction=0.2)
    ds = generate_synthetic(spec, 0)
    TkgDataset(30, 4, 12, {split: quads[::-1] for split, quads in ds.quads.items()})
    assert calls == []


def test_cli_writes_the_loop_oracle_files(tmp_path):
    (tmp_path / "synth.cfg").write_text(
        "[synth]\nentities = 30\nrelations = 4\nsteps = 12\ndensity = 0.7\n"
        "periodicity = 0.5\nperiod = 2\n[train]\nseed = 5\n")
    assert main(["synth", "--config", str(tmp_path / "synth.cfg"),
                 "--out", str(tmp_path / "cli")]) == 0
    spec = SynthSpec(30, 4, 12, density=0.7, periodicity=0.5, period=2)
    write_dataset(loop_generate_synthetic(spec, 5), tmp_path / "oracle")
    for name in DATASET_FILES:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes()


@pytest.mark.parametrize("entities,relations", [(2 ** 32, 1), (2 ** 31, 2)])
def test_overflowing_code_space_raises(entities, relations):
    with pytest.raises(ValueError, match="does not fit in int64"):
        generate_synthetic(SynthSpec(entities, relations, steps=1, density=0.0), seed=0)


class TestGenerator:
    def test_deterministic_given_seed(self, tmp_path):
        spec = SynthSpec(entities=12, relations=3, steps=6, density=0.8, periodicity=0.4)
        a = generate_synthetic(spec, seed=7)
        b = generate_synthetic(spec, seed=7)
        for split in ("train", "valid", "test"):
            assert quads_set(a, split) == quads_set(b, split)
        write_dataset(a, tmp_path / "a")
        write_dataset(b, tmp_path / "b")
        for name in DATASET_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_zero_entities_or_steps_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(SynthSpec(entities=0, relations=1, steps=3), seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(SynthSpec(entities=3, relations=1, steps=0), seed=0)

    def test_full_periodicity_replicates_every_held_out_fact(self):
        spec = SynthSpec(entities=20, relations=4, steps=10, density=1.0,
                         periodicity=1.0, period=2)
        ds = generate_synthetic(spec, seed=11)
        train = quads_set(ds, "train")
        held_out = quads_set(ds, "valid") | quads_set(ds, "test")
        assert held_out, "expected some held-out facts"
        for s, r, o, t in held_out:
            assert (s, r, o, t - spec.period) in train

    def test_zero_periodicity_collision_rate_below_bound(self):
        spec = SynthSpec(entities=30, relations=5, steps=12, density=1.0, periodicity=0.0)
        ds = generate_synthetic(spec, seed=13)
        train_triples = {tuple(q[:3]) for q in ds.quads["train"].tolist()}
        test = ds.quads["test"].tolist()
        assert test
        hits = sum(tuple(q[:3]) in train_triples for q in test)
        frac = hits / len(test)
        # density-implied bound: uniform triples collide with train's distinct
        # triples at rate |train triples| / (E^2 R), plus 4 sigma of slack
        p = len(train_triples) / (30 * 30 * 5)
        bound = p + 4 * np.sqrt(p * (1 - p) / len(test))
        assert frac <= bound

    def test_satisfies_dataset_invariants(self):
        ds = generate_synthetic(SynthSpec(entities=9, relations=2, steps=5,
                                          density=0.5, periodicity=0.7), seed=3)
        limits = [ds.entity_count, ds.relation_count, ds.entity_count, ds.step_count]
        for quads in ds.quads.values():
            assert np.all((0 <= quads) & (quads < limits))
        sizes = ds.split_sizes()
        assert sizes["train"] > 0
