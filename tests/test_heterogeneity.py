import csv

import numpy as np
import pytest

from tempkg import heterogeneity as het
from tempkg.autodiff import constant

from helpers import pattern_frequency, query_frequencies, train_dataset


def dataset_from_quads(quads, e=8, r=4, t=10):
    return train_dataset(e, r, t, quads)


def pattern_key(kind, s, r, o):
    return tuple((s, r, o)[c] for c in het.PATTERN_COLUMNS[kind])


def export_csv(table, dataset, path):
    """Rows of pattern_kind,key,els,time,count at each occurrence time of a
    key in the training split."""
    quads = dataset.quads["train"].tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pattern_kind", "key", "els", "time", "count"])
        for kind in het.PATTERN_KINDS:
            for key, t in sorted({(pattern_key(kind, s, r, o), t) for s, r, o, t in quads}):
                writer.writerow([kind, "|".join(map(str, key)), len(key),
                                 t, pattern_frequency(table, kind, key, t)])


def brute_force_freq(quads, kind, key, t, policy):
    if policy.kind == "full_history":
        ok = lambda tt: tt <= t
    elif policy.kind == "strict_past":
        ok = lambda tt: tt < t
    else:
        ok = lambda tt: t - policy.width + 1 <= tt <= t
    return sum(1 for s, r, o, tt in quads
               if pattern_key(kind, s, r, o) == tuple(key) and ok(tt))


class TestTpfTable:
    def test_single_quad_full_history(self):
        ds = dataset_from_quads([(0, 1, 2, 5)])
        table = het.compute_tpf(ds)
        assert pattern_frequency(table, "s", (0,), 6) == 1
        assert pattern_frequency(table, "sr", (0, 1), 6) == 1
        assert pattern_frequency(table, "sro", (0, 1, 2), 6) == 1

    def test_strict_past_excludes_current_step(self):
        ds = dataset_from_quads([(0, 1, 2, 5)])
        table = het.compute_tpf(ds, het.WindowPolicy("strict_past"))
        assert all(pattern_frequency(table, k, pattern_key(k, 0, 1, 2), 5) == 0
                   for k in het.PATTERN_KINDS)

    def test_full_history_includes_current_step(self):
        ds = dataset_from_quads([(0, 1, 2, 5)])
        table = het.compute_tpf(ds)
        assert pattern_frequency(table, "s", (0,), 5) == 1

    @pytest.mark.parametrize("policy", [het.WindowPolicy("full_history"),
                                        het.WindowPolicy("strict_past"),
                                        het.WindowPolicy("trailing", 3)])
    def test_matches_brute_force_oracle(self, policy):
        rng = np.random.default_rng(7)
        quads = [(int(rng.integers(4)), int(rng.integers(3)), int(rng.integers(4)),
                  int(rng.integers(8))) for _ in range(20)]
        quads = sorted(set(quads))
        ds = dataset_from_quads(quads)
        table = het.compute_tpf(ds, policy)
        for s, r, o, _ in quads:
            for t in range(10):
                for kind in het.PATTERN_KINDS:
                    key = pattern_key(kind, s, r, o)
                    assert pattern_frequency(table, kind, key, t) == \
                        brute_force_freq(quads, kind, key, t, policy)

    def test_subset_monotonicity(self):
        rng = np.random.default_rng(8)
        quads = sorted({(int(rng.integers(4)), int(rng.integers(3)),
                         int(rng.integers(4)), int(rng.integers(8)))
                        for _ in range(40)})
        table = het.compute_tpf(dataset_from_quads(quads))
        for s, r, o, _ in quads:
            for t in range(10):
                f = query_frequencies(table, s, r, o, t)
                assert f["sro"] <= f["sr"] <= f["s"]
                assert f["sro"] <= f["ro"] <= f["o"]
                assert f["sro"] <= f["so"] <= f["s"]
                assert f["sr"] <= f["r"]

    def test_repeated_and_changed_reads_match_per_row(self):
        rng = np.random.default_rng(9)
        quads = sorted({(int(rng.integers(4)), int(rng.integers(3)),
                         int(rng.integers(4)), int(rng.integers(8))) for _ in range(30)})
        table = het.compute_tpf(dataset_from_quads(quads))
        triples = np.array([q[:3] for q in quads[:5]], dtype=np.int64)

        def per_row(rows, t):
            return [[query_frequencies(table, s, r, o, t)[k] for k in het.PATTERN_KINDS]
                    for s, r, o in rows.tolist()]

        want = per_row(triples, 6)
        np.testing.assert_array_equal(table.frequencies(triples, 6), want)
        np.testing.assert_array_equal(table.frequencies(triples.copy(), 6), want)
        np.testing.assert_array_equal(table.frequencies(triples, 3), per_row(triples, 3))
        changed = triples.copy()
        changed[0] = triples[1]
        np.testing.assert_array_equal(table.frequencies(changed, 6), per_row(changed, 6))

    def test_empty_train_rejected(self):
        ds = dataset_from_quads([])
        with pytest.raises(ValueError):
            het.compute_tpf(ds)

    def test_export_csv(self, tmp_path):
        ds = dataset_from_quads([(0, 1, 2, 5), (0, 1, 3, 6)])
        table = het.compute_tpf(ds)
        out = tmp_path / "tpf.csv"
        export_csv(table, ds, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "pattern_kind,key,els,time,count"
        assert "sr,0|1,2,6,2" in lines


class TestImputation:
    """One-row inputs to the batched imputation the model runs."""

    def lam_b(self, lam, b):
        return constant(np.array([[lam]])), constant(np.array([[b]]))

    def one_sided(self, x_t, x_past, delta, lam, b, has_past=True):
        sides = [(constant(x_past), np.array([delta]), np.array([has_past]))]
        return het.impute_window(constant(x_t), sides, np.array([True]), lam, b).data

    def two_sided(self, x_t, x_p, x_f, d_p, d_f, lam, b, has_p=True, has_f=True):
        sides = [(constant(x_p), np.array([d_p]), np.array([has_p])),
                 (constant(x_f), np.array([d_f]), np.array([has_f]))]
        return het.impute_window(constant(x_t), sides, np.array([True]), lam, b).data

    def test_unit_decay_returns_past(self):
        lam, b = self.lam_b(0.0, 0.0)
        out = self.one_sided(np.array([[5.0, 7.0]]), np.array([[1.0, 2.0]]), 3, lam, b)
        np.testing.assert_allclose(out, [[1.0, 2.0]], atol=1e-15)

    def test_absent_past_returns_current(self):
        lam, b = self.lam_b(1.0, 0.0)
        x_t = np.array([[5.0, 7.0]])
        out = self.one_sided(x_t, np.zeros((1, 2)), 1, lam, b, has_past=False)
        np.testing.assert_array_equal(out, x_t)

    def test_direct_evaluation(self):
        lam, b = self.lam_b(1.0, 0.0)
        out = self.one_sided(np.zeros((1, 2)), np.ones((1, 2)), 1, lam, b)
        np.testing.assert_allclose(out, np.full((1, 2), np.exp(-1.0)), atol=1e-12)

    def test_bidirectional_even_split(self):
        lam, b = self.lam_b(0.0, 0.0)
        out = self.two_sided(np.array([[9.0, 9.0]]), np.array([[1.0, 1.0]]),
                             np.array([[3.0, 3.0]]), 1, 1, lam, b)
        np.testing.assert_allclose(out, [[2.0, 2.0]], atol=1e-15)

    def test_bidirectional_both_absent(self):
        lam, b = self.lam_b(1.0, 0.0)
        x_t = np.array([[4.0]])
        out = self.two_sided(x_t, np.ones((1, 1)), np.ones((1, 1)), 1, 1, lam, b,
                             has_p=False, has_f=False)
        np.testing.assert_array_equal(out, x_t)

    def test_bidirectional_coefficients_sum_to_one(self):
        lam, b = self.lam_b(1.0, 0.0)
        x_t = np.array([[2.0, -1.0]])
        x_p = np.array([[0.5, 3.0]])
        x_f = np.array([[-2.0, 1.0]])
        out = self.two_sided(x_t, x_p, x_f, 1, 2, lam, b)
        g_p, g_f = np.exp(-1.0) / 2, np.exp(-2.0) / 2
        expect = g_p * x_p + g_f * x_f + (1 - g_p - g_f) * x_t
        np.testing.assert_allclose(out, expect, atol=1e-14)
        assert g_p + g_f + (1 - g_p - g_f) == pytest.approx(1.0)

    def test_bidirectional_one_side_absent(self):
        lam, b = self.lam_b(1.0, 0.0)
        x_t = np.array([[2.0, -1.0]])
        x_p = np.array([[0.5, 3.0]])
        out = self.two_sided(x_t, x_p, np.full((1, 2), 99.0), 1, 1, lam, b, has_f=False)
        g_p = np.exp(-1.0) / 2
        np.testing.assert_allclose(out, g_p * x_p + (1 - g_p) * x_t, atol=1e-14)

    def test_window_variant_touches_only_inactive_with_stale(self):
        rng = np.random.default_rng(9)
        lam, b = self.lam_b(0.5, 0.0)
        x_t = constant(rng.normal(size=(4, 3)))
        x_stale = constant(rng.normal(size=(4, 3)))
        deltas = np.array([1, 2, 3, 1])
        has = np.array([True, True, False, True])
        inactive = np.array([True, False, True, True])
        out = het.impute_window(x_t, [(x_stale, deltas, has)], inactive, lam, b).data
        np.testing.assert_array_equal(out[1], x_t.data[1])  # active: untouched
        np.testing.assert_array_equal(out[2], x_t.data[2])  # no stale row: untouched
        for i in (0, 3):
            g = np.exp(-0.5 * deltas[i])
            np.testing.assert_allclose(out[i], g * x_stale.data[i] + (1 - g) * x_t.data[i],
                                       atol=1e-14)


class TestGating:
    def gate_arrays(self, rng, zero=False, huge_bias=None):
        arrays = {}
        for g in het.GATE_NAMES:
            if zero:
                arrays[f"gate.{g}.w1"] = np.zeros((3, 64))
                arrays[f"gate.{g}.b1"] = np.zeros(64)
                arrays[f"gate.{g}.w2"] = np.zeros((64, 1))
                arrays[f"gate.{g}.b2"] = np.zeros(1)
            else:
                arrays[f"gate.{g}.w1"] = rng.normal(size=(3, 64)) * 0.3
                arrays[f"gate.{g}.b1"] = rng.normal(size=64) * 0.1
                arrays[f"gate.{g}.w2"] = rng.normal(size=(64, 1)) * 0.3
                arrays[f"gate.{g}.b2"] = rng.normal(size=1) * 0.1
            if huge_bias is not None:
                arrays[f"gate.{g}.b2"] = np.array([huge_bias])
                arrays[f"gate.{g}.w2"] = np.zeros((64, 1))
        return {k: constant(v) for k, v in arrays.items()}

    @staticmethod
    def gate(direction, fixed, cand, freqs, params):
        """Gated (fixed, candidate) embeddings of one query from (x, z) pairs,
        with the gates TempModel uses: os/oo for an object query (s, r, ?, t),
        so/ss for a subject query (?, r, o, t)."""
        f = het.transform_frequencies(freqs, "log1p").reshape(1, 3)
        fixed_gate, cand_gate = ("os", "oo") if direction == "object" else ("so", "ss")
        return (het.blend(het.gate_alpha(f, params, fixed_gate), *fixed),
                het.blend(het.gate_alpha(f, params, cand_gate), *cand))

    def test_alpha_zero_keeps_temporal(self):
        rng = np.random.default_rng(10)
        params = self.gate_arrays(rng, huge_bias=-1e9)
        x, z = constant(rng.normal(size=(1, 4))), constant(rng.normal(size=(1, 4)))
        xa, za = constant(rng.normal(size=(5, 4))), constant(rng.normal(size=(5, 4)))
        zs, zo = self.gate("object", (x, z), (xa, za), np.array([1.0, 2.0, 3.0]), params)
        np.testing.assert_array_equal(zs.data, z.data)
        np.testing.assert_array_equal(zo.data, za.data)

    def test_alpha_one_keeps_structural(self):
        rng = np.random.default_rng(11)
        params = self.gate_arrays(rng, huge_bias=1e9)
        x, z = constant(rng.normal(size=(1, 4))), constant(rng.normal(size=(1, 4)))
        xa, za = constant(rng.normal(size=(5, 4))), constant(rng.normal(size=(5, 4)))
        zs, zo = self.gate("object", (x, z), (xa, za), np.array([1.0, 2.0, 3.0]), params)
        np.testing.assert_array_equal(zs.data, x.data)
        np.testing.assert_array_equal(zo.data, xa.data)

    def test_zero_network_gives_half_half(self):
        rng = np.random.default_rng(12)
        params = self.gate_arrays(rng, zero=True)
        x, z = constant(np.full((1, 2), 4.0)), constant(np.full((1, 2), 2.0))
        xa, za = constant(np.full((3, 2), 4.0)), constant(np.full((3, 2), 2.0))
        zo, zs = self.gate("subject", (x, z), (xa, za), np.zeros(3), params)
        np.testing.assert_allclose(zs.data, 3.0, atol=1e-15)
        np.testing.assert_allclose(zo.data, 3.0, atol=1e-15)

    def test_hand_evaluated_mlp(self):
        rng = np.random.default_rng(13)
        params = self.gate_arrays(rng)
        freqs = np.array([2.0, 3.0, 1.0])
        f = np.log1p(freqs).reshape(1, 3)
        w1 = params["gate.os.w1"].data
        b1 = params["gate.os.b1"].data
        w2 = params["gate.os.w2"].data
        b2 = params["gate.os.b2"].data
        alpha = 1.0 / (1.0 + np.exp(-(np.maximum(f @ w1 + b1, 0.0) @ w2 + b2)))
        x, z = constant(rng.normal(size=(1, 4))), constant(rng.normal(size=(1, 4)))
        xa, za = constant(rng.normal(size=(6, 4))), constant(rng.normal(size=(6, 4)))
        zs, zo = self.gate("object", (x, z), (xa, za), freqs, params)
        np.testing.assert_allclose(zs.data, alpha * x.data + (1 - alpha) * z.data,
                                   atol=1e-12)
        # convexity: every coordinate of the blend lies between x and z
        lo = np.minimum(xa.data, za.data)
        hi = np.maximum(xa.data, za.data)
        assert (zo.data >= lo - 1e-12).all() and (zo.data <= hi + 1e-12).all()

    def test_alpha_always_in_unit_interval(self):
        rng = np.random.default_rng(14)
        params = self.gate_arrays(rng)
        for _ in range(50):
            f = rng.uniform(0, 1e6, size=(1, 3))
            for gate in het.GATE_NAMES:
                a = het.gate_alpha(np.log1p(f), params, gate).data
                assert 0.0 <= a[0, 0] <= 1.0

    def test_mirrored_queries_mirror_outputs(self):
        # with subject-query weights copied from the object-query ones, the
        # subject-direction gating is the exact mirror image
        rng = np.random.default_rng(15)
        params = self.gate_arrays(rng)
        for part in ("w1", "b1", "w2", "b2"):
            params[f"gate.ss.{part}"] = params[f"gate.oo.{part}"]
            params[f"gate.so.{part}"] = params[f"gate.os.{part}"]
        freqs = np.array([4.0, 1.0, 2.0])
        x_f, z_f = constant(rng.normal(size=(1, 3))), constant(rng.normal(size=(1, 3)))
        xc, zc = constant(rng.normal(size=(4, 3))), constant(rng.normal(size=(4, 3)))
        zs_obj, zo_obj = self.gate("object", (x_f, z_f), (xc, zc), freqs, params)
        zo_sub, zs_sub = self.gate("subject", (x_f, z_f), (xc, zc), freqs, params)
        np.testing.assert_allclose(zo_sub.data, zs_obj.data, atol=1e-14)
        np.testing.assert_allclose(zs_sub.data, zo_obj.data, atol=1e-14)

    def test_raw_transform_option(self):
        f = het.transform_frequencies(np.array([1.0, 2.0, 3.0]), "raw")
        np.testing.assert_array_equal(f, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            het.transform_frequencies(np.zeros(3), "sqrt")
