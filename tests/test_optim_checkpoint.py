import math
import struct

import numpy as np
import pytest

from tempkg import _kernels
from tempkg.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from tempkg.optim import AdamState


class TestAdam:
    def test_zero_gradient_leaves_params_but_decays_moments(self):
        p = {"w": np.array([1.0, -2.0, 3.0])}
        adam = AdamState(lr=0.01)
        adam.step(p, {"w": np.ones(3)})
        m_before = adam.m["w"].copy()
        w_before = p["w"].copy()
        adam.step(p, {"w": np.zeros(3)})
        np.testing.assert_allclose(adam.m["w"], 0.9 * m_before)
        # zero grad still moves params through the decayed moment, but the
        # moment shrinks; with m == 0 from the start params stay put
        q = {"w": np.array([1.0, 2.0])}
        a2 = AdamState(lr=0.01)
        a2.step(q, {"w": np.zeros(2)})
        np.testing.assert_array_equal(q["w"], [1.0, 2.0])
        assert not np.array_equal(p["w"], w_before)

    def test_constant_gradient_update_approaches_lr_sign(self):
        # Adam fixed point under constant gradient g: step -> lr * g/(|g| + eps)
        lr = 0.003
        g = np.array([0.5, -2.0, 7.0])
        p = {"w": np.zeros(3)}
        adam = AdamState(lr=lr)
        prev = p["w"].copy()
        for _ in range(400):
            prev = p["w"].copy()
            adam.step(p, {"w": g})
        delta = p["w"] - prev
        expected = -lr * g / (np.abs(g) + adam.eps)
        np.testing.assert_allclose(delta, expected, rtol=1e-3)
        np.testing.assert_allclose(np.abs(delta), lr, rtol=1e-3)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        w0 = rng.normal(size=(4, 4))
        gs = [rng.normal(size=(4, 4)) for _ in range(10)]

        def run():
            p = {"w": w0.copy()}
            adam = AdamState(lr=0.01)
            for g in gs:
                adam.step(p, {"w": g})
            return p["w"]

        assert np.array_equal(run(), run())

    def test_missing_gradient_is_an_error(self):
        adam = AdamState()
        with pytest.raises(KeyError):
            adam.step({"w": np.zeros(2), "b": np.zeros(1)}, {"w": np.zeros(2)})

    def test_bias_correction_first_step(self):
        # after one step with gradient g, update is exactly -lr * g/(|g| + eps')
        p = {"w": np.array([10.0])}
        adam = AdamState(lr=0.1)
        adam.step(p, {"w": np.array([4.0])})
        mhat = 4.0  # (0.1*4)/(1-0.9)
        vhat = 16.0
        np.testing.assert_allclose(p["w"], 10.0 - 0.1 * mhat / (np.sqrt(vhat) + adam.eps))


class TestKernels:
    """Each numpy kernel against a plain-loop oracle."""

    def test_scatter_add_matches_loop(self):
        rng = np.random.default_rng(5)
        idx = rng.integers(0, 7, size=40)
        idx[:5] = 3  # repeated indices must accumulate, not overwrite
        src = rng.normal(size=(40, 3))
        got = _kernels.scatter_add_rows(7, idx, src)
        expect = np.zeros((7, 3))
        for e, i in enumerate(idx):
            expect[i] += src[e]
        np.testing.assert_allclose(got, expect, rtol=1e-14, atol=1e-14)

    def test_decay_accumulate_matches_loop(self):
        rng = np.random.default_rng(6)
        ents = rng.integers(0, 9, size=50)
        times = rng.integers(0, 30, size=50)
        got = _kernels.decay_accumulate(np.zeros(9), ents, times, 17, 0.3)
        expect = np.zeros(9)
        for e, t_prime in zip(ents.tolist(), times.tolist()):
            expect[e] += np.exp(-0.3 * abs(17 - t_prime))
        np.testing.assert_allclose(got, expect, rtol=1e-14)

    def test_adam_update_matches_closed_form(self):
        rng = np.random.default_rng(7)
        p = rng.normal(size=(6, 2))
        g = rng.normal(size=(6, 2))
        m, v = rng.normal(size=(6, 2)), rng.random((6, 2))
        lr, b1, b2, eps, bc1, bc2 = 0.01, 0.9, 0.999, 1e-8, 0.1, 0.001
        m_new = b1 * m + (1 - b1) * g
        v_new = b2 * v + (1 - b2) * g * g
        p_new = p - lr * (m_new / bc1) / (np.sqrt(v_new / bc2) + eps)
        _kernels.adam_update(p, g, m, v, lr, b1, b2, eps, bc1, bc2)
        np.testing.assert_allclose(m, m_new, rtol=1e-14)
        np.testing.assert_allclose(v, v_new, rtol=1e-14)
        np.testing.assert_allclose(p, p_new, rtol=1e-14)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        tensors = {
            "entity.base": rng.normal(size=(5, 3)),
            "w": rng.normal(size=(2, 2, 2)),
            "bias": rng.normal(size=(4,)),
            "scalar": np.array(3.14159),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tensors)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(tensors)
        for name, arr in tensors.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        tensors = {"b": np.arange(3.0), "a": np.ones((2, 2))}
        save_checkpoint(tmp_path / "x1.ckpt", tensors)
        save_checkpoint(tmp_path / "x2.ckpt", tensors)
        assert (tmp_path / "x1.ckpt").read_bytes() == (tmp_path / "x2.ckpt").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones((4, 4))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones((4, 4))})
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"TMPKGCKP" + b"\x01\x00")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", [(2**62, 4), (2**32, 2**32), (2**63, 2),
                                      (0, 2**63), (0, 2**62)])
    def test_header_size_that_overflows_int64_rejected(self, tmp_path, dims):
        path = tmp_path / "model.ckpt"
        header = struct.pack("<QQQ", 1, 1, 1) + b"w" + struct.pack("<3Q", 2, *dims)
        path.write_bytes(b"TMPKGCKP" + header + b"\x00" * 64)
        # a zero-size tensor reads no data, so its dims are what is rejected
        match = "truncated tensor data" if math.prod(dims) else "bad dims"
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)
