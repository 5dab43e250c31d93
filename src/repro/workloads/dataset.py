"""Ground-truth dataset construction and the training-set expansion split.

The training procedure of the paper (Fig. 2, Sec. 3.4.4) feeds randomly
produced test vectors into a commercial sign-off tool to obtain ground-truth
worst-case noise maps, and then selects ~60% of the samples for training with
a distance-based *training-set expansion strategy*; the remaining samples are
split 3:7 into validation and test sets.

:func:`build_dataset` reproduces the data-generation part with our simulator
(:mod:`repro.sim`), and :func:`expansion_split` reproduces the selection
strategy: a candidate joins the training set only if it is farther than a
threshold from every sample already selected, with the threshold tuned so the
training share hits the requested fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.features.extraction import (
    VectorFeatures,
    distance_feature,
    extract_vector_features_batch,
)
from repro.pdn.designs import Design
from repro.sim.dynamic_noise import DynamicNoiseAnalysis
from repro.sim.transient import TransientOptions
from repro.sim.waveform import CurrentTrace
from repro.utils import check_probability, get_logger
from repro.utils.random import RandomState, ensure_rng

_LOG = get_logger("workloads.dataset")


@dataclass
class NoiseSample:
    """One (test vector, ground-truth noise map) pair.

    Attributes
    ----------
    features:
        Tiled (and optionally temporally compressed) current maps.
    target:
        Ground-truth worst-case noise map (V), shape ``(m, n)``.
    hotspot_map:
        Ground-truth hotspot mask at the design's threshold.
    sim_runtime:
        Wall-clock seconds the simulator spent on this vector (the
        "commercial tool" column of Table 2).
    name:
        Vector identifier.
    """

    features: VectorFeatures
    target: np.ndarray
    hotspot_map: np.ndarray
    sim_runtime: float
    name: str = ""

    @property
    def tile_shape(self) -> tuple[int, int]:
        """Tile-map shape ``(m, n)``."""
        return self.target.shape


@dataclass
class NoiseDataset:
    """A labelled dataset for one design.

    Attributes
    ----------
    design_name:
        Name of the design the vectors excite.
    tile_shape:
        ``(m, n)`` of all maps in the dataset.
    distance:
        Shared distance-to-bump tensor ``(B, m, n)`` in um.
    samples:
        The labelled samples.
    dt:
        Simulation time step used for the ground truth.
    vdd / hotspot_threshold:
        Electrical context needed for metrics.
    """

    design_name: str
    tile_shape: tuple[int, int]
    distance: np.ndarray
    samples: list[NoiseSample] = field(default_factory=list)
    dt: float = 1e-11
    vdd: float = 1.0
    hotspot_threshold: float = 0.1

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def num_bumps(self) -> int:
        """Number of power bumps (channels of the distance tensor)."""
        return int(self.distance.shape[0])

    @property
    def total_sim_runtime(self) -> float:
        """Total simulator wall-clock time spent building the ground truth."""
        return float(sum(sample.sim_runtime for sample in self.samples))

    def targets(self) -> np.ndarray:
        """All ground-truth maps stacked, shape ``(num_samples, m, n)``."""
        return np.stack([sample.target for sample in self.samples])

    def summary_features(self) -> np.ndarray:
        """Per-sample closed-form current statistics, shape ``(num_samples, 3, m, n)``."""
        return np.stack([sample.features.summary_maps() for sample in self.samples])

    def subset(self, indices: Sequence[int]) -> "NoiseDataset":
        """A new dataset view containing only the selected samples."""
        return NoiseDataset(
            design_name=self.design_name,
            tile_shape=self.tile_shape,
            distance=self.distance,
            samples=[self.samples[i] for i in indices],
            dt=self.dt,
            vdd=self.vdd,
            hotspot_threshold=self.hotspot_threshold,
        )

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def save(self, path: Union[str, Path], compress: bool = True) -> None:
        """Save the dataset to a ``.npz`` archive.

        Parameters
        ----------
        path:
            Destination file (conventionally ``*.npz``).
        compress:
            Use ``np.savez_compressed`` (default).  The dataset factory's
            shard writer passes ``False``: shards are written and re-read on
            the hot path, and the maps compress poorly enough that the zlib
            pass costs more than the bytes it saves.
        """
        current_maps = [sample.features.current_maps for sample in self.samples]
        lengths = np.array([maps.shape[0] for maps in current_maps], dtype=int)
        payload = {
            "design_name": np.array(self.design_name),
            "tile_shape": np.array(self.tile_shape, dtype=int),
            "distance": self.distance,
            "dt": np.array(self.dt),
            "vdd": np.array(self.vdd),
            "hotspot_threshold": np.array(self.hotspot_threshold),
            "lengths": lengths,
            "current_maps": np.concatenate(current_maps, axis=0)
            if current_maps
            else np.zeros((0,) + self.tile_shape),
            "targets": self.targets() if self.samples else np.zeros((0,) + self.tile_shape),
            "hotspots": np.stack([sample.hotspot_map for sample in self.samples])
            if self.samples
            else np.zeros((0,) + self.tile_shape, dtype=bool),
            "runtimes": np.array([sample.sim_runtime for sample in self.samples]),
            "names": np.array([sample.name for sample in self.samples]),
        }
        if compress:
            np.savez_compressed(path, **payload)
        else:
            np.savez(path, **payload)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "NoiseDataset":
        """Load a dataset previously written by :meth:`save`."""
        with np.load(path, allow_pickle=False) as data:
            tile_shape = tuple(int(v) for v in data["tile_shape"])
            lengths = data["lengths"]
            offsets = np.concatenate([[0], np.cumsum(lengths)])
            all_maps = data["current_maps"]
            samples = []
            for index, length in enumerate(lengths):
                maps = all_maps[offsets[index]:offsets[index + 1]]
                samples.append(
                    NoiseSample(
                        features=VectorFeatures(current_maps=maps, name=str(data["names"][index])),
                        target=data["targets"][index],
                        hotspot_map=data["hotspots"][index],
                        sim_runtime=float(data["runtimes"][index]),
                        name=str(data["names"][index]),
                    )
                )
            return cls(
                design_name=str(data["design_name"]),
                tile_shape=tile_shape,
                distance=data["distance"],
                samples=samples,
                dt=float(data["dt"]),
                vdd=float(data["vdd"]),
                hotspot_threshold=float(data["hotspot_threshold"]),
            )


def build_dataset(
    design: Design,
    traces: Sequence[CurrentTrace],
    compression_rate: Optional[float] = 0.3,
    rate_step: float = 0.05,
    transient_options: TransientOptions = TransientOptions(),
    analysis: Optional[DynamicNoiseAnalysis] = None,
    sim_batch_size: Optional[int] = None,
) -> NoiseDataset:
    """Simulate every trace and build the labelled dataset.

    Parameters
    ----------
    design:
        The design under study.
    traces:
        Test vectors (all with the same ``dt``).
    compression_rate:
        Algorithm-1 retention rate applied to the *features* (the simulation
        always uses the full trace, exactly as the paper's flow does).
    rate_step:
        Algorithm-1 sweep step.
    transient_options:
        Options of the ground-truth transient engine.
    analysis:
        An existing :class:`DynamicNoiseAnalysis` to reuse (must match the
        trace ``dt``); built on demand otherwise.
    sim_batch_size:
        Vectors per lockstep block of the ground-truth simulation
        (:meth:`DynamicNoiseAnalysis.run_many`); ``None`` means 1.  Larger
        blocks are several times faster, with noise maps that agree with
        blocks of one to solver rounding (a few ULPs).  Each sample's
        ``sim_runtime`` is its share of the block that integrated it plus its
        own tile reduction; at a block size of 1 every vector is integrated
        on its own, so each value is a true per-vector measurement (the
        Table 2 "commercial tool" column).

    Returns
    -------
    The labelled :class:`NoiseDataset`, one sample per trace in order.
    """
    if not traces:
        raise ValueError("at least one trace is required")
    dt = traces[0].dt
    for trace in traces:
        if not np.isclose(trace.dt, dt):
            raise ValueError("all traces must share the same dt")
    if analysis is None:
        analysis = DynamicNoiseAnalysis(design, dt, transient_options)

    dataset = NoiseDataset(
        design_name=design.name,
        tile_shape=design.tile_grid.shape,
        distance=distance_feature(design),
        dt=dt,
        vdd=design.spec.vdd,
        hotspot_threshold=design.spec.hotspot_threshold,
    )
    results = analysis.run_many(traces, batch_size=sim_batch_size or 1)
    features_list = extract_vector_features_batch(
        traces, design, compression_rate=compression_rate, rate_step=rate_step
    )
    for index, (trace, result, features) in enumerate(zip(traces, results, features_list)):
        dataset.samples.append(
            NoiseSample(
                features=features,
                target=result.tile_noise,
                hotspot_map=result.hotspot_map,
                sim_runtime=result.runtime_seconds,
                name=trace.name or f"{design.name}-v{index:04d}",
            )
        )
    _LOG.info(
        "built dataset for %s: %d samples, %.1f s simulator time",
        design.name,
        len(dataset),
        dataset.total_sim_runtime,
    )
    return dataset


def merge_datasets(datasets: Sequence[NoiseDataset]) -> NoiseDataset:
    """Concatenate per-shard datasets of one design into a single dataset.

    Used by the dataset factory (:mod:`repro.datagen`) to reassemble a
    design's corpus from its on-disk shards.  All inputs must describe the
    same design: name, tile shape, distance tensor, dt, Vdd and hotspot
    threshold have to match exactly.

    Parameters
    ----------
    datasets:
        Shard datasets in the order their samples should appear.

    Returns
    -------
    A new :class:`NoiseDataset` holding every sample (the distance tensor is
    shared with the first input, samples are shared with their shards).
    """
    datasets = list(datasets)
    if not datasets:
        raise ValueError("at least one dataset is required")
    first = datasets[0]
    merged = NoiseDataset(
        design_name=first.design_name,
        tile_shape=first.tile_shape,
        distance=first.distance,
        dt=first.dt,
        vdd=first.vdd,
        hotspot_threshold=first.hotspot_threshold,
    )
    for dataset in datasets:
        if dataset.design_name != first.design_name:
            raise ValueError(
                f"cannot merge datasets of different designs: "
                f"{dataset.design_name!r} vs {first.design_name!r}"
            )
        if dataset.tile_shape != first.tile_shape:
            raise ValueError("cannot merge datasets with different tile shapes")
        if not np.array_equal(dataset.distance, first.distance):
            raise ValueError("cannot merge datasets with different distance tensors")
        if not np.isclose(dataset.dt, first.dt) or dataset.vdd != first.vdd:
            raise ValueError("cannot merge datasets with different dt/Vdd")
        if dataset.hotspot_threshold != first.hotspot_threshold:
            raise ValueError("cannot merge datasets with different hotspot thresholds")
        merged.samples.extend(dataset.samples)
    return merged


@dataclass(frozen=True)
class DatasetSplit:
    """Index sets of the train / validation / test partitions."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    @property
    def sizes(self) -> tuple[int, int, int]:
        """Sizes of the three partitions."""
        return (len(self.train), len(self.validation), len(self.test))

    def assert_disjoint(self, total: int) -> None:
        """Raise ``ValueError`` if the partitions overlap or miss samples."""
        union = np.concatenate([self.train, self.validation, self.test])
        if len(np.unique(union)) != len(union):
            raise ValueError("split partitions overlap")
        if sorted(union.tolist()) != list(range(total)):
            raise ValueError("split partitions do not cover the dataset")


def _sample_signatures(dataset: NoiseDataset) -> np.ndarray:
    """Flat feature signatures used to measure distance between samples."""
    summaries = dataset.summary_features()
    flat = summaries.reshape(len(dataset), -1)
    scale = np.max(np.abs(flat))
    return flat / scale if scale > 0 else flat


def _greedy_selection(signatures: np.ndarray, threshold: float, order: np.ndarray) -> list[int]:
    """Greedy expansion: keep a candidate if it is far from everything kept."""
    selected: list[int] = []
    for candidate in order:
        if not selected:
            selected.append(int(candidate))
            continue
        distances = np.linalg.norm(
            signatures[selected] - signatures[candidate][np.newaxis, :], axis=1
        )
        if np.min(distances) > threshold:
            selected.append(int(candidate))
    return selected


def expansion_split(
    dataset: NoiseDataset,
    train_fraction: float = 0.6,
    validation_ratio: float = 0.3,
    seed: RandomState = 0,
    threshold_iterations: int = 20,
) -> DatasetSplit:
    """Training-set expansion split (Sec. 3.4.4).

    A candidate sample is added to the training set only when its distance to
    every already-selected sample exceeds a threshold; the threshold is tuned
    by bisection so the training share is close to ``train_fraction`` (the
    paper targets ~60%).  The remaining samples are split into validation and
    test sets at ``validation_ratio : (1 - validation_ratio)`` (3:7 in the
    paper).
    """
    check_probability(train_fraction, "train_fraction")
    check_probability(validation_ratio, "validation_ratio")
    total = len(dataset)
    if total < 3:
        raise ValueError("need at least 3 samples to split")

    rng = ensure_rng(seed)
    signatures = _sample_signatures(dataset)
    order = rng.permutation(total)
    target_train = max(1, int(round(train_fraction * total)))

    # Bisection on the distance threshold: larger threshold -> fewer samples.
    low, high = 0.0, float(np.max(np.linalg.norm(signatures - signatures.mean(0), axis=1)) * 2 + 1e-9)
    best = _greedy_selection(signatures, 0.0, order)
    for _ in range(threshold_iterations):
        middle = 0.5 * (low + high)
        selected = _greedy_selection(signatures, middle, order)
        if abs(len(selected) - target_train) < abs(len(best) - target_train):
            best = selected
        if len(selected) > target_train:
            low = middle
        else:
            high = middle
    train_indices = np.array(sorted(best), dtype=int)

    remaining = np.array([i for i in range(total) if i not in set(best)], dtype=int)
    remaining = rng.permutation(remaining)
    num_validation = int(round(validation_ratio * len(remaining)))
    validation_indices = np.array(sorted(remaining[:num_validation]), dtype=int)
    test_indices = np.array(sorted(remaining[num_validation:]), dtype=int)

    split = DatasetSplit(train=train_indices, validation=validation_indices, test=test_indices)
    split.assert_disjoint(total)
    _LOG.info("expansion split: train=%d val=%d test=%d", *split.sizes)
    return split
