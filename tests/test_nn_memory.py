"""Memory regression tests of the network: no buffer outlives its call.

Every convolution buffer is a plain numpy allocation freed when its last
reference goes, so once a call returns, ``tracemalloc``'s current traced
memory is back at its pre-call level plus what the caller holds.  Each
test warms the code path once first (with other shapes, so nothing the
warm-up leaves behind can be reused by the measured call), then measures
one call.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core.config import ModelConfig, TrainingConfig
from repro.core.subnets import CurrentFusionNet
from repro.core.training import NoiseModelTrainer
from repro.nn import Tensor, no_grad

#: Bytes a call may leave traced beyond its outputs: Python objects and
#: numpy bookkeeping, far below one block's buffers.
SLACK = 64 << 10


def retained_bytes(fn):
    """``(bytes, result)``: current traced memory after ``fn()`` above before it."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = fn()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained, result


def test_fusion_forward_frees_its_blocks():
    network = CurrentFusionNet(seed=0)
    rng = np.random.default_rng(0)
    with no_grad():
        network(Tensor(rng.standard_normal((3, 1, 9, 9))))
    step = network.block_size(32, 32, np.float64)
    maps = Tensor(rng.standard_normal((3 * step + 1, 1, 32, 32)))
    with no_grad():
        retained, output = retained_bytes(lambda: network(maps))
    assert retained - output.data.nbytes <= SLACK, (retained, output.data.nbytes)


class _RetentionTrainer(NoiseModelTrainer):
    """Measures the traced memory each optimizer step leaves behind."""

    retained: list[int]

    def _train_step(self, *args):
        before, _ = tracemalloc.get_traced_memory()
        loss = super()._train_step(*args)
        self.retained.append(tracemalloc.get_traced_memory()[0] - before)
        return loss


def _train(dataset, design, split, model_config: ModelConfig) -> _RetentionTrainer:
    """One traced epoch in minibatches of two; the trainer holds each step's retention."""
    trainer = _RetentionTrainer(
        dataset,
        design=design,
        split=split,
        model_config=model_config,
        training_config=TrainingConfig(
            epochs=1, batch_size=2, early_stopping_patience=None, seed=0
        ),
    )
    trainer.retained = []
    retained_bytes(trainer.train)
    return trainer


def test_train_step_frees_its_graph(tiny_dataset, tiny_design, tiny_split):
    warm_up = ModelConfig(distance_kernels=2, fusion_kernels=2, prediction_kernels=2, seed=0)
    _train(tiny_dataset, tiny_design, tiny_split, warm_up)
    measured = ModelConfig(distance_kernels=3, fusion_kernels=5, prediction_kernels=7, seed=0)
    trainer = _train(tiny_dataset, tiny_design, tiny_split, measured)
    first, *later = trainer.retained
    assert later, trainer.retained
    # The first step replaces every parameter array and leaves the
    # gradients and Adam's flat copy of them; later steps replace all three.
    held = 3 * sum(parameter.data.nbytes for parameter in trainer.model.parameters())
    assert first <= held + SLACK, (first, held)
    assert max(later) <= SLACK, trainer.retained
