"""A recorded memory budget for one training target at a mid shape.

Each case builds the corpus, model and trainer, then runs one
``_Trainer.target_gradients`` under ``tracemalloc`` and asserts its peak
against the recorded figure plus 1%. The peaks were recorded with numpy 2.4.6
and repeat within a few hundred bytes across processes there; another numpy
version may need them re-recorded. A change that lowers memory lowers its
budget.
"""

import tracemalloc

import numpy as np
import pytest

from tempkg.config import TrainConfig
from tempkg.data import build_true_index
from tempkg.model import ModelConfig, TempModel, init_params
from tempkg.synth import SynthSpec, generate_synthetic
from tempkg.train import _Trainer

MID_SPEC = SynthSpec(2000, 50, 60, density=0.035, periodicity=0.5, period=7)
TARGET = 40
# tracemalloc peak in bytes of target_gradients(TARGET, 0), seed 0, dim 64
RECORDED_PEAK = {
    ("temp-gru", False): 59_725_897,
    ("temp-gru", True): 61_757_423,
    ("temp-sa", False): 110_458_946,
    ("temp-sa", True): 112_633_546,
}


@pytest.fixture(scope="module")
def mid_dataset():
    return generate_synthetic(MID_SPEC, 0)


@pytest.mark.parametrize("variant, imputation", sorted(RECORDED_PEAK))
def test_target_gradients_peak_within_budget(mid_dataset, variant, imputation):
    ds = mid_dataset
    cfg = ModelConfig(variant=variant, dim=64, imputation=imputation)
    params = init_params(cfg, ds.entity_count, ds.relation_count, ds.step_count, 0)
    trainer = _Trainer(TempModel(cfg, ds, params), TrainConfig(), build_true_index(ds), None)
    tracemalloc.start()
    try:
        loss, _ = trainer.target_gradients(TARGET, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss)
    budget = int(RECORDED_PEAK[variant, imputation] * 1.01)
    assert peak <= budget, f"peak {peak:,} B over the {budget:,} B budget"
