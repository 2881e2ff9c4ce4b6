"""Recorded memory budgets for one training target and one eval window at a
mid shape.

Each training case builds the corpus, model and trainer, then runs one
``_Trainer.target_gradients`` under ``tracemalloc``; each eval case builds
the model and its constant leaves, then runs one uncached
``TempModel.eval_context`` (a window of 16 steps encoded in one call) under
``tracemalloc``. Both assert the peak against the recorded figure plus 1%.
The peaks were recorded with numpy 2.4.6 and repeat within a few hundred
bytes across processes there; another numpy version may need them
re-recorded. A change that lowers memory lowers its budget.
"""

import tracemalloc

import numpy as np
import pytest

from tempkg.autodiff import constant
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
# tracemalloc peak in bytes of eval_context(TARGET, {}, leaves), seed 0, dim 64
RECORDED_EVAL_PEAK = {
    ("temp-gru", False): 25_022_699,
    ("temp-gru", True): 26_035_467,
    ("temp-sa", False): 55_824_856,
    ("temp-sa", True): 56_847_499,
}


@pytest.fixture(scope="module")
def mid_dataset():
    return generate_synthetic(MID_SPEC, 0)


def mid_model(ds, variant, imputation):
    cfg = ModelConfig(variant=variant, dim=64, imputation=imputation)
    return TempModel(cfg, ds, init_params(cfg, ds.entity_count, ds.relation_count,
                                          ds.step_count, 0))


def run_within_budget(call, recorded):
    """``call()`` under ``tracemalloc``, its peak asserted within 1% of ``recorded``."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = int(recorded * 1.01)
    assert peak <= budget, f"peak {peak:,} B over the {budget:,} B budget"
    return result


@pytest.mark.parametrize("variant, imputation", sorted(RECORDED_PEAK))
def test_target_gradients_peak_within_budget(mid_dataset, variant, imputation):
    trainer = _Trainer(mid_model(mid_dataset, variant, imputation), TrainConfig(),
                       build_true_index(mid_dataset), None)
    loss, _ = run_within_budget(lambda: trainer.target_gradients(TARGET, 0),
                                RECORDED_PEAK[variant, imputation])
    assert np.isfinite(loss)


@pytest.mark.parametrize("variant, imputation", sorted(RECORDED_EVAL_PEAK))
def test_eval_context_peak_within_budget(mid_dataset, variant, imputation):
    model = mid_model(mid_dataset, variant, imputation)
    leaves = {name: constant(arr) for name, arr in model.params.items()}
    ctx = run_within_budget(lambda: model.eval_context(TARGET, {}, leaves),
                            RECORDED_EVAL_PEAK[variant, imputation])
    assert np.isfinite(ctx.z.data).all()
