"""Worst-case dynamic PDN noise prediction — DAC 2022 reproduction.

The public API re-exports the pieces a typical user needs: reference designs,
the simulator ("commercial tool" stand-in), the workload generator, and the
prediction framework.  See ``examples/quickstart.py`` for a guided tour and
``DESIGN.md`` for the full system inventory.
"""

from repro.pdn import (
    Design,
    DesignSpec,
    make_design,
    reference_design,
    reference_design_names,
    small_test_design,
)
from repro.sim import CurrentTrace, DynamicNoiseAnalysis, DynamicNoiseResult
from repro.workloads import (
    NoiseDataset,
    TestVectorGenerator,
    VectorConfig,
    build_dataset,
    expansion_split,
    generate_test_vectors,
)
from repro.core import (
    AccuracyReport,
    ModelConfig,
    NoiseModelTrainer,
    NoisePredictor,
    PipelineConfig,
    TrainingConfig,
    WorstCaseNoiseFramework,
    WorstCaseNoiseNet,
)
from repro.serving import PredictorRegistry
from repro.gateway import ScreeningGateway
from repro.datagen import (
    CorpusDesignSpec,
    CorpusSpec,
    generate_corpus,
    load_corpus,
    load_design_dataset,
    paper_corpus_spec,
)
from repro.eval import (
    BaselineStore,
    CrossDesignEvaluator,
    EvalConfig,
    MultiDesignTrainer,
    ScenarioSweep,
)

__version__ = "0.1.0"

__all__ = [
    "Design",
    "DesignSpec",
    "make_design",
    "reference_design",
    "reference_design_names",
    "small_test_design",
    "CurrentTrace",
    "DynamicNoiseAnalysis",
    "DynamicNoiseResult",
    "NoiseDataset",
    "TestVectorGenerator",
    "VectorConfig",
    "build_dataset",
    "expansion_split",
    "generate_test_vectors",
    "AccuracyReport",
    "ModelConfig",
    "NoiseModelTrainer",
    "NoisePredictor",
    "PipelineConfig",
    "TrainingConfig",
    "WorstCaseNoiseFramework",
    "WorstCaseNoiseNet",
    "PredictorRegistry",
    "ScreeningGateway",
    "CorpusDesignSpec",
    "CorpusSpec",
    "generate_corpus",
    "load_corpus",
    "load_design_dataset",
    "paper_corpus_spec",
    "BaselineStore",
    "CrossDesignEvaluator",
    "EvalConfig",
    "MultiDesignTrainer",
    "ScenarioSweep",
    "__version__",
]
