"""Configuration objects for the worst-case noise prediction framework."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.utils import check_positive, check_probability


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters of the three-subnet CNN (Sec. 3.4, Fig. 3).

    Attributes
    ----------
    distance_kernels:
        ``C1`` — kernels per layer in the distance-dimension-reduction subnet.
    fusion_kernels:
        ``C2`` — kernels per layer in the current-map-fusion subnet.
    prediction_kernels:
        ``C3`` — kernels per layer in the noise-prediction subnet.
    kernel_size:
        Square convolution kernel size used throughout.
    distance_depth / prediction_depth:
        Number of downsample/upsample levels in the two U-Net-like subnets.
    seed:
        Seed for weight initialisation.
    """

    distance_kernels: int = 8
    fusion_kernels: int = 8
    prediction_kernels: int = 16
    kernel_size: int = 3
    distance_depth: int = 2
    prediction_depth: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("distance_kernels", "fusion_kernels", "prediction_kernels"):
            check_positive(getattr(self, name), name)
        if self.kernel_size % 2 != 1:
            raise ValueError(f"kernel_size must be odd, got {self.kernel_size}")
        if self.distance_depth < 1 or self.prediction_depth < 1:
            raise ValueError("subnet depths must be >= 1")


@dataclass(frozen=True)
class TrainingConfig:
    """Training-loop parameters (Sec. 3.4.4).

    The paper uses Adam with learning rate 1e-4 and an L1 loss; both are
    fixed, not settable.  With the scaled-down datasets used in this
    reproduction a slightly larger default learning rate converges in far
    fewer epochs while remaining faithful to the optimiser/loss choice.
    Every epoch shuffles the training rows; early stopping needs a drop of
    :data:`repro.core.training.EARLY_STOPPING_MIN_DELTA` to count one.
    """

    learning_rate: float = 1e-3
    epochs: int = 60
    batch_size: int = 4
    seed: int = 0
    early_stopping_patience: Optional[int] = 15

    def __post_init__(self) -> None:
        check_positive(self.learning_rate, "learning_rate")
        check_positive(self.epochs, "epochs")
        check_positive(self.batch_size, "batch_size")
        if self.early_stopping_patience is not None:
            check_positive(self.early_stopping_patience, "early_stopping_patience")


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end framework parameters (data generation + features + training).

    Attributes
    ----------
    num_vectors:
        Number of random test vectors to generate and simulate (the paper
        uses 500; the quick presets here use fewer).
    num_steps / dt:
        Test-vector length and time step.
    compression_rate:
        Algorithm-1 retention rate applied to the current features (the
        sweep step is :data:`repro.features.temporal.RATE_STEP`).
    train_fraction / validation_ratio:
        Training-set expansion share and validation:test split of the rest.
    model / training:
        Sub-configurations.
    seed:
        Master seed for vector generation and splitting.
    sim_batch_size:
        Vectors per lockstep block of the ground-truth simulations
        (``None`` means 1).  Larger blocks are several times faster, with
        noise maps that agree with blocks of one to solver rounding.  A
        block holds ``O(num_nodes x sim_batch_size)`` solver state plus a
        bounded chunk, never a copy of all its vectors' currents (see
        :meth:`~repro.sim.transient.TransientEngine.run_many`).  A sample's simulator time is its share of its block; at 1 it
        is that vector's own measurement.
    """

    num_vectors: int = 60
    num_steps: int = 300
    dt: float = 1e-11
    compression_rate: float = 0.3
    train_fraction: float = 0.6
    validation_ratio: float = 0.3
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    seed: int = 0
    sim_batch_size: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive(self.num_vectors, "num_vectors")
        check_positive(self.num_steps, "num_steps")
        check_positive(self.dt, "dt")
        if self.sim_batch_size is not None:
            check_positive(self.sim_batch_size, "sim_batch_size")
        check_probability(self.train_fraction, "train_fraction")
        check_probability(self.validation_ratio, "validation_ratio")
        if not 0.0 < self.compression_rate <= 1.0:
            raise ValueError(
                f"compression_rate must be in (0, 1], got {self.compression_rate}"
            )
