"""End-to-end worst-case noise prediction framework (Fig. 2 of the paper).

:class:`WorstCaseNoiseFramework` strings the whole flow together for one
design:

1. randomly generate test vectors (:mod:`repro.workloads`),
2. run the ground-truth dynamic noise simulation for every vector
   (:mod:`repro.sim` — the commercial-tool stand-in),
3. spatially tile and temporally compress the current features
   (:mod:`repro.features`),
4. split the samples with the training-set expansion strategy, fit the
   normaliser, and train the three-subnet CNN (:mod:`repro.core.training`),
5. evaluate accuracy, hotspot coverage and runtime/speedup on the held-out
   test vectors — the quantities reported in Tables 2 and 3.

Benchmarks and examples build on this class rather than re-implementing the
flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.inference import NoisePredictor
from repro.core.metrics import AccuracyReport, evaluate_predictions
from repro.core.training import NoiseModelTrainer, TrainingResult
from repro.pdn.designs import Design
from repro.sim.dynamic_noise import DynamicNoiseAnalysis
from repro.sim.transient import TransientOptions
from repro.utils import get_logger
from repro.workloads.dataset import DatasetSplit, NoiseDataset, build_dataset, expansion_split
from repro.workloads.vectors import TestVectorGenerator, VectorConfig

_LOG = get_logger("core.pipeline")


@dataclass
class RuntimeComparison:
    """Wall-clock comparison between the simulator and the predictor.

    Both totals cover the same set of (test) vectors, mirroring how the paper
    compares its framework against the commercial tool in Table 2.
    """

    simulator_seconds: float
    predictor_seconds: float
    num_vectors: int
    #: Per-vector predictor latencies (seconds), when the evaluation kept
    #: them; lets reports derive percentile columns without re-predicting.
    per_vector_seconds: Optional[np.ndarray] = None

    @property
    def speedup(self) -> float:
        """Simulator time divided by predictor time."""
        if self.predictor_seconds <= 0:
            return float("inf")
        return self.simulator_seconds / self.predictor_seconds

    def as_dict(self) -> dict:
        """Flat dictionary for reporting."""
        return {
            "simulator_s": self.simulator_seconds,
            "predictor_s": self.predictor_seconds,
            "speedup": self.speedup,
            "num_vectors": self.num_vectors,
        }


@dataclass
class FrameworkResult:
    """Everything produced by one end-to-end framework run."""

    design_name: str
    dataset: NoiseDataset
    split: DatasetSplit
    training: TrainingResult
    predictor: NoisePredictor
    report: AccuracyReport
    runtime: RuntimeComparison
    predicted_test_maps: np.ndarray
    truth_test_maps: np.ndarray

    def summary(self) -> dict:
        """Flat summary combining accuracy and runtime (one Table-2 row)."""
        summary = {"design": self.design_name, "tile_shape": self.dataset.tile_shape}
        summary.update(self.report.as_dict())
        summary.update(self.runtime.as_dict())
        return summary


class WorstCaseNoiseFramework:
    """The proposed framework, end to end, for a single design."""

    def __init__(
        self,
        design: Design,
        config: PipelineConfig = PipelineConfig(),
        transient_options: TransientOptions = TransientOptions(),
    ):
        self.design = design
        self.config = config
        self.transient_options = transient_options

    # ------------------------------------------------------------------ #
    # individual stages (also usable on their own)
    # ------------------------------------------------------------------ #

    def generate_vectors(self):
        """Stage 1: random test vectors for this design."""
        vector_config = VectorConfig(num_steps=self.config.num_steps, dt=self.config.dt)
        generator = TestVectorGenerator(self.design, vector_config)
        return generator.generate_suite(self.config.num_vectors, seed=self.config.seed)

    def build_dataset(
        self,
        traces=None,
        analysis: Optional[DynamicNoiseAnalysis] = None,
        corpus_dir: Optional[Union[str, Path]] = None,
    ) -> NoiseDataset:
        """Stage 2+3: simulate ground truth and extract features.

        Parameters
        ----------
        traces:
            Test vectors to label; generated from the config when omitted.
        analysis:
            An existing simulator to reuse (must match the trace ``dt``).
        corpus_dir:
            When given, skip simulation entirely and load this design's
            dataset from a sharded corpus produced by
            :func:`repro.datagen.generate_corpus` (looked up under the
            design's name).  Training then consumes factory shards
            transparently.

        Returns
        -------
        The labelled :class:`NoiseDataset`.
        """
        if corpus_dir is not None:
            if traces is not None:
                raise ValueError("pass either traces or corpus_dir, not both")
            # Imported lazily: repro.datagen depends on repro.workloads and
            # repro.sim, and importing it here at module scope would cycle.
            from repro.datagen import load_design_dataset

            dataset = load_design_dataset(corpus_dir, self.design.name)
            # Design names do not encode scale ("D1" at any scale is "D1"),
            # so guard against silently training on a corpus generated for a
            # different-sized variant of this design.
            if dataset.tile_shape != self.design.tile_grid.shape:
                raise ValueError(
                    f"corpus at {corpus_dir} holds {dataset.tile_shape} tile maps "
                    f"for design {self.design.name!r}, but this framework's design "
                    f"has a {self.design.tile_grid.shape} tile grid — the corpus "
                    "was generated for a different variant of the design"
                )
            if not np.isclose(dataset.dt, self.config.dt, rtol=1e-9, atol=0.0):
                raise ValueError(
                    f"corpus dt {dataset.dt} does not match the configured dt "
                    f"{self.config.dt}"
                )
            return dataset
        if traces is None:
            traces = self.generate_vectors()
        return build_dataset(
            self.design,
            traces,
            compression_rate=self.config.compression_rate,
            transient_options=self.transient_options,
            analysis=analysis,
            sim_batch_size=self.config.sim_batch_size,
        )

    def corpus_design_spec(
        self,
        design_reference: str,
        label: Optional[str] = None,
        shard_size: Optional[int] = None,
    ):
        """This framework's data requirements as a corpus slice.

        Translates the pipeline configuration (vector count, trace length,
        dt, compression, seed) into a
        :class:`repro.datagen.CorpusDesignSpec`.  The slice carries only
        the data-shape fields; the simulation options (solver mode and ROM
        options) live on the enclosing
        :class:`repro.datagen.CorpusSpec` — use :meth:`corpus_spec` to get
        a complete spec that matches this framework's transient options
        too.

        Parameters
        ----------
        design_reference:
            Factory reference that rebuilds this design in a datagen worker
            (e.g. ``"D1@0.2"``; see
            :func:`repro.pdn.designs.design_from_name`).
        label:
            Corpus label; defaults to the design name.
        shard_size:
            Vectors per shard; defaults to one quarter of the vector count.

        Returns
        -------
        A :class:`repro.datagen.CorpusDesignSpec`.
        """
        from repro.datagen import CorpusDesignSpec

        config = self.config
        if shard_size is None:
            shard_size = max(1, config.num_vectors // 4)
        return CorpusDesignSpec(
            label=label or self.design.name,
            design=design_reference,
            num_vectors=config.num_vectors,
            num_steps=config.num_steps,
            dt=config.dt,
            seed=config.seed,
            shard_size=shard_size,
            compression_rate=config.compression_rate,
        )

    def corpus_spec(
        self,
        design_reference: str,
        label: Optional[str] = None,
        shard_size: Optional[int] = None,
    ):
        """A complete single-design corpus spec reproducing this framework.

        Unlike :meth:`corpus_design_spec` alone, the returned
        :class:`repro.datagen.CorpusSpec` also maps ``config.sim_batch_size``
        onto the corpus batch size (``None`` becomes 1, i.e. true per-vector
        simulation) and carries the framework's ``solver_mode`` and ``rom``
        options — so ``generate_corpus(framework.corpus_spec(ref), root)``
        labels what :meth:`build_dataset` would simulate in-process.

        Parameters
        ----------
        design_reference / label / shard_size:
            As in :meth:`corpus_design_spec`.

        Returns
        -------
        A single-design :class:`repro.datagen.CorpusSpec`.
        """
        from repro.datagen import CorpusSpec

        return CorpusSpec(
            designs=(self.corpus_design_spec(design_reference, label, shard_size),),
            sim_batch_size=self.config.sim_batch_size or 1,
            solver_mode=self.transient_options.solver_mode,
            rom=self.transient_options.rom,
        )

    def train(self, dataset: NoiseDataset, split: Optional[DatasetSplit] = None) -> TrainingResult:
        """Stage 4: expansion split plus CNN training."""
        if split is None:
            split = expansion_split(
                dataset,
                train_fraction=self.config.train_fraction,
                validation_ratio=self.config.validation_ratio,
                seed=self.config.seed,
            )
        trainer = NoiseModelTrainer(
            dataset,
            design=self.design,
            split=split,
            model_config=self.config.model,
            training_config=self.config.training,
        )
        return trainer.train()

    def evaluate(
        self,
        dataset: NoiseDataset,
        training: TrainingResult,
        indices: Optional[Sequence[int]] = None,
    ) -> tuple[AccuracyReport, RuntimeComparison, np.ndarray, np.ndarray]:
        """Stage 5: accuracy and runtime on the held-out test vectors."""
        if indices is None:
            indices = training.split.test
        indices = np.asarray(list(indices), dtype=int)
        predictor = NoisePredictor(
            model=training.model,
            normalizer=training.normalizer,
            distance=dataset.distance,
            compression_rate=self.config.compression_rate,
        )
        # Time each vector through the full forward (predict_features
        # reduces the distance map inside every call), exactly as the paper
        # measures one vector at a time against the commercial tool — the
        # memoised reduced map of predict_batch would amortise that cost
        # across vectors and flatter the speedup.  The batched serving
        # throughput is benchmarked separately in bench_serving.py.
        per_vector = [
            predictor.predict_features(dataset.samples[int(i)].features) for i in indices
        ]
        predicted = np.stack([result.noise_map for result in per_vector])
        runtimes = np.array([result.runtime_seconds for result in per_vector])
        truth = np.stack([dataset.samples[i].target for i in indices])
        report = evaluate_predictions(
            predicted, truth, hotspot_threshold=dataset.hotspot_threshold
        )
        simulator_seconds = float(
            np.sum([dataset.samples[i].sim_runtime for i in indices])
        )
        runtime = RuntimeComparison(
            simulator_seconds=simulator_seconds,
            predictor_seconds=float(np.sum(runtimes)),
            num_vectors=len(indices),
            per_vector_seconds=runtimes,
        )
        return report, runtime, predicted, truth

    # ------------------------------------------------------------------ #
    # end to end
    # ------------------------------------------------------------------ #

    def run(self, dataset: Optional[NoiseDataset] = None) -> FrameworkResult:
        """Run the complete flow and return the bundled results."""
        if dataset is None:
            dataset = self.build_dataset()
        training = self.train(dataset)
        report, runtime, predicted, truth = self.evaluate(dataset, training)
        predictor = NoisePredictor(
            model=training.model,
            normalizer=training.normalizer,
            distance=dataset.distance,
            compression_rate=self.config.compression_rate,
        )
        result = FrameworkResult(
            design_name=self.design.name,
            dataset=dataset,
            split=training.split,
            training=training,
            predictor=predictor,
            report=report,
            runtime=runtime,
            predicted_test_maps=predicted,
            truth_test_maps=truth,
        )
        _LOG.info("framework run on %s: %s", self.design.name, report.table_row())
        return result
