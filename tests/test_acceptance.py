"""End-to-end acceptance suite.

Each test enforces one exit criterion at its pinned tolerance and prints a
single PASS line (run with ``pytest -s`` to see them). Budgets are wall-clock
upper bounds measured inside the test.
"""

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempkg import autodiff as ad
from tempkg import evaluation as ev
from tempkg import heterogeneity as het
from tempkg.autodiff import Tape, constant
from tempkg.config import RunConfig
from tempkg.data import build_true_index, load_dataset
from tempkg.evaluation import RankingReport, rank_query
from tempkg.model import (ModelConfig, TempModel, grads_by_name, init_params,
                          leaves_on_tape)
from tempkg.synth import SynthSpec, generate_synthetic
from tempkg.ted import TedConfig, TedModel
from tempkg.train import filter_index_for, train

from gradcheck import finite_difference, max_relative_error
from helpers import decay_weight, query_frequencies, records, reduce_mean, train_dataset
from test_ted import (brute_force_ranking, brute_force_reference_sets, query_scores,
                      query_tiers)


def report(line):
    print(f"\n{line}")


# --- 1. gradient correctness ---------------------------------------------------

def _fd_check(build, arrays, h=1e-5):
    tape = Tape()
    leaves = [tape.leaf(a) for a in arrays]
    gmap = tape.backward(build(*leaves))
    analytic = [gmap.get(l.node_id, np.zeros_like(a)) for l, a in zip(leaves, arrays)]

    def f(*arrs):
        return build(*[constant(a) for a in arrs]).item()

    return max_relative_error(analytic, finite_difference(f, arrays, h=h))


def _primitive_cases(rng):
    m23 = rng.normal(size=(2, 3))
    m32 = rng.normal(size=(3, 2))
    m23b = rng.normal(size=(2, 3)) + 3.0  # positive, clear of log's pole
    bias = rng.normal(size=3)
    mask = np.array([[True, False, True], [True, True, False]])
    softmax_weights = rng.normal(size=(2, 3))
    idx = np.array([0, 2, 2])
    off_kink = rng.normal(size=(2, 3)) * 2
    off_kink[np.abs(off_kink) < 0.05] += 0.1
    off_kink[np.abs(off_kink - 0.3) < 0.05] += 0.1
    return [
        ("matmul", lambda a, b: ad.reduce_sum(ad.matmul(a, b)), [m23, m32]),
        ("add", lambda a, b: ad.reduce_sum(ad.tanh(ad.add(a, b))), [m23, m23 * 0.5]),
        ("add-bias", lambda a, b: ad.reduce_sum(ad.tanh(ad.add(a, b))), [m23, bias]),
        ("sub", lambda a, b: ad.reduce_sum(ad.sigmoid(ad.sub(a, b))), [m23, m23 * 0.3]),
        ("mul", lambda a, b: ad.reduce_sum(ad.mul(a, b)), [m23, m23 * -1.2]),
        ("scalar-mul", lambda s, a: ad.reduce_sum(ad.mul(s, ad.tanh(a))),
         [np.array(0.7), m23]),
        ("exp", lambda a: ad.reduce_sum(ad.exp(a)), [m23]),
        ("log", lambda a: ad.reduce_sum(ad.log(a)), [m23b]),
        ("sigmoid", lambda a: ad.reduce_sum(ad.sigmoid(a)), [m23]),
        ("tanh", lambda a: ad.reduce_sum(ad.tanh(a)), [m23]),
        ("relu", lambda a: ad.reduce_sum(ad.relu(a)), [off_kink]),
        ("max-const", lambda a: ad.reduce_sum(ad.maximum(a, 0.3)), [off_kink]),
        ("masked-softmax", lambda a: ad.reduce_sum(
            ad.mul(ad.masked_softmax(a, mask), constant(softmax_weights))),
         [m23]),
        ("concat", lambda a, b: ad.reduce_sum(ad.exp(ad.concat([a, b], axis=1))),
         [m23 * 0.2, m32.T * 0.2]),
        ("gather", lambda a: ad.reduce_sum(ad.tanh(ad.gather_rows(a, idx))), [m32]),
        ("scatter-add", lambda a: ad.reduce_sum(
            ad.tanh(ad.scatter_add_rows(a, np.array([1, 3, 1]), num_rows=4))), [m32]),
        ("sum-axis", lambda a: ad.reduce_sum(ad.tanh(ad.reduce_sum(a, axis=1))), [m23]),
        ("mean", lambda a: ad.reduce_sum(ad.tanh(reduce_mean(a, axis=0))), [m23]),
    ]


def _model_loss(config, dataset, params, t):
    model = TempModel(config, dataset, params)
    tape = Tape()
    leaves = leaves_on_tape(tape, params)
    ctx = model.encode_context(leaves, t)
    triples = dataset.splits["train"][t].triples
    rng = np.random.default_rng(0)
    negs = (rng.integers(0, dataset.entity_count, size=(len(triples), 2)),
            rng.integers(0, dataset.entity_count, size=(len(triples), 2)))
    loss = model.snapshot_loss(leaves, ctx, triples, negs, None)
    return tape, leaves, loss


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_primitive = 0.0
    for name, build, arrays in _primitive_cases(rng):
        err = _fd_check(build, arrays)
        assert err < 1e-5, f"primitive {name}: rel err {err:.2e}"
        worst_primitive = max(worst_primitive, err)

    dataset = generate_synthetic(SynthSpec(entities=4, relations=2, steps=3,
                                           density=1.5, periodicity=0.5), seed=2)
    worst_model = {}
    for variant in ("temp-gru", "temp-sa"):
        config = ModelConfig(variant=variant, decoder="complex", dim=4, layers=2,
                             window=2, heads=2, imputation=True)
        params = init_params(config, 4, 2, 3, seed=1)
        # hold the decay arguments off the hinge of max(0, .) so central
        # differences see a differentiable neighborhood
        params["decay.z.b"] = np.array([[0.07]])
        params["decay.x.b"] = np.array([[0.03]])
        tape, leaves, loss = _model_loss(config, dataset, params, t=2)
        grads = grads_by_name(tape, leaves, loss, params)
        h = 1e-5
        worst = 0.0
        for name, arr in params.items():
            flat = arr.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = _model_loss(config, dataset, params, 2)[2].item()
                flat[i] = orig - h
                lm = _model_loss(config, dataset, params, 2)[2].item()
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                a = grads[name].reshape(-1)[i]
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-3))
        assert worst < 1e-5, f"{variant} loss: rel err {worst:.2e}"
        worst_model[variant] = worst

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"ACCEPTANCE 1 gradient-correctness: PASS "
           f"(primitives {worst_primitive:.1e}, gru {worst_model['temp-gru']:.1e}, "
           f"sa {worst_model['temp-sa']:.1e}, {elapsed:.1f}s < 30s)")


# --- 2. ranking oracle equivalence ---------------------------------------------

def brute_force_rank(scores, true_entity, filtered):
    survivors = [(e, sc) for e, sc in enumerate(scores)
                 if e == true_entity or e not in set(filtered.tolist())]
    ordered = sorted(survivors, key=lambda p: (-p[1], p[0] == true_entity))
    return 1 + [e for e, _ in ordered].index(true_entity)


def test_criterion_2_ranking_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(1000):
        e = int(rng.integers(2, 101))
        # mix coarse and fine scores so exact ties occur regularly
        scores = np.round(rng.normal(size=e), int(rng.integers(0, 3)))
        true_entity = int(rng.integers(e))
        filtered = rng.choice(e, size=int(rng.integers(0, e // 2 + 1)), replace=False)
        got = rank_query(scores, true_entity, filtered)
        expect = brute_force_rank(scores, true_entity, filtered)
        assert got == expect
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(f"ACCEPTANCE 2 ranking-oracle: PASS (1000 queries exact, "
           f"{elapsed:.1f}s < 10s)")


# --- 3. decay-rule baseline oracle equivalence + determinism --------------------

def _random_corpus(rng):
    e = int(rng.integers(4, 9))
    r = int(rng.integers(1, 4))
    steps = int(rng.integers(3, 8))
    quads = sorted({(int(rng.integers(e)), int(rng.integers(r)),
                     int(rng.integers(e)), int(rng.integers(steps)))
                    for _ in range(rng.integers(5, 25))})
    return train_dataset(e, r, steps, quads), quads, e


def test_criterion_3_ted_oracle_equivalence_and_determinism():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(50):
        ds, quads, e = _random_corpus(rng)
        model = TedModel(ds)
        sigma = float(rng.choice([1e-3, 0.1, 1.0, 10.0]))
        s, rel, o, t = quads[int(rng.integers(len(quads)))]
        for direction in ("object", "subject"):
            tiers = query_tiers(model, direction, s, rel, o, t)
            expect_tiers = brute_force_reference_sets(quads, direction, s, rel, o, t)
            for arr, ref in zip(tiers, expect_tiers):
                assert set(map(tuple, arr.tolist())) == ref
            scores = query_scores(model, direction, s, rel, o, t, TedConfig(sigma))
            got = np.argsort(-scores).tolist()
            assert got == brute_force_ranking(quads, direction, s, rel, o, t, sigma, e)
            repeat = query_scores(TedModel(ds), direction, s, rel, o, t,
                                  TedConfig(sigma))
            assert scores.tobytes() == repeat.tobytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(f"ACCEPTANCE 3 ted-oracle: PASS (50 corpora exact + byte-identical, "
           f"{elapsed:.1f}s < 10s)")


# --- 4. invariant property suite -------------------------------------------------

CASES = {"count": 0}
_t0_properties = time.perf_counter()


@settings(max_examples=250, deadline=None)
@given(lam=st.floats(0, 5), b=st.floats(-3, 3), dt=st.integers(0, 60))
def test_criterion_4a_decay_weight_bounds_and_monotone(lam, b, dt):
    CASES["count"] += 1
    g = decay_weight(dt, lam, b)
    assert 0.0 < g <= 1.0
    assert decay_weight(dt + 1, lam, b) <= g + 1e-15


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 8), w=st.integers(1, 6))
def test_criterion_4b_attention_rows(seed, n, w):
    CASES["count"] += 1
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, w)) * 5
    mask = rng.random((n, w)) < 0.5
    mask[:, int(rng.integers(w))] = True
    beta = ad.masked_softmax(constant(logits), mask).data
    np.testing.assert_allclose(beta.sum(axis=1), 1.0, atol=1e-12)
    assert (beta >= 0).all()
    assert (beta[~mask] == 0.0).all()


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(0, 4), b=st.floats(-2, 2), dp=st.integers(1, 20),
       df=st.integers(1, 20))
def test_criterion_4c_imputation_convexity(lam, b, dp, df):
    CASES["count"] += 1
    g_p = decay_weight(dp, lam, b)
    g_f = decay_weight(df, lam, b)
    one_sided = (g_p, 1.0 - g_p)
    two_sided = (g_p / 2, g_f / 2, 1.0 - g_p / 2 - g_f / 2)
    for coeffs in (one_sided, two_sided):
        assert all(-1e-12 <= c <= 1.0 + 1e-12 for c in coeffs)
        assert abs(sum(coeffs) - 1.0) < 1e-12


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31),
       f=st.tuples(st.floats(0, 1e8), st.floats(0, 1e8), st.floats(0, 1e8)))
def test_criterion_4d_gate_alpha_unit_interval(seed, f):
    CASES["count"] += 1
    rng = np.random.default_rng(seed)
    params = {}
    for g in het.GATE_NAMES:
        params[f"gate.{g}.w1"] = constant(rng.normal(size=(3, 64)))
        params[f"gate.{g}.b1"] = constant(rng.normal(size=64))
        params[f"gate.{g}.w2"] = constant(rng.normal(size=(64, 1)))
        params[f"gate.{g}.b2"] = constant(rng.normal(size=1))
    rows = het.transform_frequencies(np.array(f).reshape(1, 3))
    for g in het.GATE_NAMES:
        alpha = het.gate_alpha(rows, params, g).data[0, 0]
        assert 0.0 <= alpha <= 1.0


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_criterion_4e_tpf_subset_monotonicity(seed):
    CASES["count"] += 1
    rng = np.random.default_rng(seed)
    steps = int(rng.integers(2, 7))
    quads = sorted({(int(rng.integers(4)), int(rng.integers(3)),
                     int(rng.integers(4)), int(rng.integers(steps)))
                    for _ in range(rng.integers(1, 25))})
    ds = train_dataset(4, 3, steps, quads)
    table = het.compute_tpf(ds)
    s, r, o, _ = quads[int(rng.integers(len(quads)))]
    t = int(rng.integers(steps))
    freq = query_frequencies(table, s, r, o, t)
    assert freq["sro"] <= freq["sr"] <= freq["s"]
    assert freq["sro"] <= freq["ro"] <= freq["o"]
    assert freq["sro"] <= freq["so"] <= min(freq["s"], freq["o"])
    assert freq["sr"] <= freq["r"] and freq["ro"] <= freq["r"]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31), e=st.integers(2, 50), n=st.integers(1, 60))
def test_criterion_4f_report_bounds(seed, e, n):
    CASES["count"] += 1
    rng = np.random.default_rng(seed)
    report_obj = RankingReport(e)
    report_obj.results = records(("object", 0, 0, 1, 0, int(rng.integers(1, e + 1)))
                                 for _ in range(n))
    report_obj.check_invariants()
    assert 1.0 / e <= report_obj.mrr <= 1.0
    assert report_obj.hits(1) <= report_obj.hits(3) <= report_obj.hits(10) <= 1.0


def test_criterion_4_summary():
    elapsed = time.perf_counter() - _t0_properties
    assert CASES["count"] >= 1000, f"only {CASES['count']} property cases ran"
    assert elapsed < 60.0
    report(f"ACCEPTANCE 4 invariant-suite: PASS ({CASES['count']} cases, "
           f"{elapsed:.1f}s < 60s)")


# --- 5. overfit check -------------------------------------------------------------

def test_criterion_5_overfit(tmp_path):
    start = time.perf_counter()
    dataset = generate_synthetic(SynthSpec(entities=20, relations=4, steps=10,
                                           density=1.0, periodicity=0.5), seed=7)
    cfg = RunConfig()
    cfg.model = ModelConfig(variant="temp-gru", decoder="complex", dim=32, layers=2,
                            window=3, heads=2)
    cfg.train.lr = 0.01
    cfg.train.negatives = 10
    cfg.train.batch_snapshots = 2
    cfg.train.val_cap = 100
    cfg.train.patience = 1000
    cfg.train.seed = 0
    params, _ = train(cfg, dataset, tmp_path / "overfit", max_epochs=60)
    model = TempModel(cfg.model, dataset, params)
    report_obj = ev.evaluate(dataset, "train", model.snapshot_scorer(None),
                             filter_index_for(cfg, dataset))
    elapsed = time.perf_counter() - start
    assert report_obj.mrr >= 0.95, f"train MRR {report_obj.mrr:.3f} < 0.95"
    assert elapsed < 300.0
    report(f"ACCEPTANCE 5 overfit: PASS (train MRR {report_obj.mrr:.3f} >= 0.95 "
           f"in 60 epochs, {elapsed:.0f}s < 300s)")


# --- 6. replication-effect check ---------------------------------------------------

def test_criterion_6_replication_effect(tmp_path):
    start = time.perf_counter()
    spec = SynthSpec(entities=60, relations=1, steps=24, density=2.0,
                     periodicity=1.0, period=6, valid_fraction=0.05,
                     test_fraction=0.25)
    dataset = generate_synthetic(spec, seed=11)
    train_set = set(map(tuple, dataset.quads["train"].tolist()))
    for s, r, o, t in dataset.quads["test"].tolist():
        assert (s, r, o, t - spec.period) in train_set

    hits = {}
    for variant, window in (("temp-gru", 6), ("srgcn", 0)):
        cfg = RunConfig()
        cfg.model = ModelConfig(variant=variant, decoder="complex", dim=32,
                                layers=2, window=window, heads=2)
        cfg.train.lr = 0.01
        cfg.train.negatives = 20
        cfg.train.batch_snapshots = 4
        cfg.train.val_cap = 150
        cfg.train.patience = 1000
        cfg.train.seed = 3
        params, _ = train(cfg, dataset, tmp_path / variant, max_epochs=40)
        model = TempModel(cfg.model, dataset, params)
        rep = ev.evaluate(dataset, "test", model.snapshot_scorer(None),
                          filter_index_for(cfg, dataset))
        hits[variant] = rep.hits(10)
    elapsed = time.perf_counter() - start
    assert hits["temp-gru"] > hits["srgcn"], (
        f"temporal {hits['temp-gru']:.3f} not above static {hits['srgcn']:.3f}")
    assert elapsed < 600.0
    report(f"ACCEPTANCE 6 replication-effect: PASS (temp-gru Hits@10 "
           f"{hits['temp-gru']:.3f} > srgcn {hits['srgcn']:.3f}, "
           f"{elapsed:.0f}s < 600s)")


# --- 7. reference-dataset checks (skipped without the files) ------------------------

def _icews14_dir():
    for candidate in (os.environ.get("TEMPKG_ICEWS14_DIR"),
                      os.path.join(os.path.dirname(__file__), "..", "data", "ICEWS14"),
                      "/root/data/ICEWS14"):
        if candidate and os.path.isdir(candidate):
            return candidate
    return None


@pytest.mark.skipif(_icews14_dir() is None,
                    reason="ICEWS14 files not present (set TEMPKG_ICEWS14_DIR)")
def test_criterion_7_icews14_stats_and_ted():
    directory = _icews14_dir()
    dataset = load_dataset(directory)
    sizes = dataset.split_sizes()
    assert dataset.entity_count == 7128
    assert dataset.relation_count == 230
    assert dataset.step_count == 365
    assert (sizes["train"], sizes["valid"], sizes["test"]) == (72826, 8941, 8963)

    model = TedModel(dataset)
    index = build_true_index(dataset, splits=("train", "valid", "test"))
    config = TedConfig(sigma=0.1)
    valid = ev.evaluate(dataset, "valid", model.snapshot_scorer(config), index)
    assert abs(valid.mrr - 0.455) <= 0.01, f"valid MRR {valid.mrr:.4f}"
    assert abs(valid.hits(10) - 0.616) <= 0.010, f"valid Hits@10 {valid.hits(10):.4f}"
    test = ev.evaluate(dataset, "test", model.snapshot_scorer(config), index)
    assert abs(test.mrr - 0.441) <= 0.01, f"test MRR {test.mrr:.4f}"
    report(f"ACCEPTANCE 7 reference-dataset: PASS (valid MRR {valid.mrr:.3f}, "
           f"valid Hits@10 {valid.hits(10):.3f}, test MRR {test.mrr:.3f})")


# --- 8. explicit non-reproduction boundary ------------------------------------------

def test_criterion_8_full_scale_results_not_claimed():
    # Full-scale benchmark figures require multi-day accelerator training and
    # are out of desk-scale scope by design; criteria 1-6 are the substitute.
    # The README must state this boundary, and no test in this suite asserts a
    # full-scale neural benchmark number.
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read().lower()
    assert "desk-scale" in text or "desk scale" in text
    assert "not" in text and "reproduc" in text
    report("ACCEPTANCE 8 non-reproduction: PASS (desk-scale substitution "
           "documented; no full-scale benchmark figure asserted)")
