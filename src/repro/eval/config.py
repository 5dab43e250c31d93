"""Evaluation configurations and the named evaluation budgets.

An :class:`EvalConfig` is the single source of truth for one cross-design
evaluation campaign: which designs participate, which of them are held out,
how much data the corpus contains, the model/training hyper-parameters of the
pooled trainer, and the scenario-sweep grid.  Like the datagen corpus spec it
is frozen, picklable and canonically hashable — every resumable artefact
(evaluation report, sweep manifest, golden baseline) records the hash, so a
resumed or compared run can prove it talks about the same campaign.

Three budgets are registered:

* ``tiny``  — seconds; used by the unit tests.
* ``smoke`` — a couple of minutes; the tier-2 CI gate (leave-one-design-out
  on two held-out designs at reduced scale).
* ``paper`` — the full-scale campaign mirroring the paper's D1–D4 sweep.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.core.config import ModelConfig, TrainingConfig
from repro.core.training import EARLY_STOPPING_MIN_DELTA
from repro.datagen.spec import CorpusDesignSpec, CorpusSpec
from repro.features.temporal import RATE_STEP
from repro.sim.rom import ROMOptions
from repro.sim.transient import SOLVER_MODES
from repro.utils import FixedKeys, check_positive, check_probability
from repro.workloads.scenarios import validate_scenario
from repro.workloads.specs import ScenarioSpec

#: Training settings that are no longer fields of :class:`TrainingConfig` —
#: the per-sample engine flag, the loss, the weight decay, the epoch
#: shuffle, the early-stopping threshold and the log cadence each have one
#: value.  They stay in the serialised payload at that value so config hashes
#: (and the baselines pinned against them) are unchanged.
_FIXED_TRAINING_FIELDS = FixedKeys(
    sequential=False, loss="l1", weight_decay=0.0, shuffle=True,
    early_stopping_min_delta=EARLY_STOPPING_MIN_DELTA, log_every=10,
)

#: The campaign payload records the Algorithm-1 sweep step, for the same
#: reason.
_FIXED_FIELDS = FixedKeys(rate_step=RATE_STEP)


@dataclass(frozen=True)
class EvalConfig:
    """One cross-design evaluation campaign.

    Attributes
    ----------
    name:
        Budget name (stamped into artefacts and baselines).
    designs:
        ``(label, design reference)`` pairs — the full design pool, in
        evaluation order.  References use the shared factory grammar of
        :func:`repro.pdn.designs.design_from_name` (e.g. ``"D2@0.12"``).
    heldout:
        Labels evaluated leave-one-design-out: for each, one model is
        trained on *all other* designs of the pool and evaluated on the
        held-out design's corpus, which the model never saw.
    num_vectors / num_steps / dt:
        Per-design corpus size: test-vector count, trace length, time step.
    shard_size:
        Vectors per corpus shard (the datagen resume/parallelism unit).
    compression_rate:
        Algorithm-1 retention rate of the features.
    sim_batch_size:
        Lockstep block size of the ground-truth transient solver.
    seed:
        Seed of the per-design test-vector suites (the corpus contents).
        The expansion splits and the trainer's shuffle stream derive from
        ``training.seed`` instead, mirroring the single-design pipeline.
    train_fraction / validation_ratio:
        Expansion-split shares applied per training design.
    model / training:
        Hyper-parameters of the pooled cross-design trainer.
    max_batch:
        Micro-batch bound of the one-shard
        :class:`~repro.gateway.ScreeningGateway` the held-out vectors are
        screened through.
    scenarios:
        Workloads swept against every held-out design's trained model: each
        entry is a family name (defaults) or a full
        :class:`~repro.workloads.specs.ScenarioSpec` (parameter variants,
        compositions), so one sweep grid can fan over arbitrarily many
        members of a family.
    scenario_steps:
        Trace-length variants of the scenario sweep.
    scenario_seeds:
        Seed variants of the scenario sweep (exercise the scenarios'
        random choices).
    solver_mode / rom:
        Which transient strategy produces the campaign's ground-truth labels
        (see :class:`~repro.datagen.spec.CorpusSpec`).  Folded into the
        config hash — so golden baselines pin the label solver mode along
        with everything else — but omitted at the ``"full"`` default, so
        pre-seam campaign hashes (and their baselines) are unchanged.
    """

    name: str
    designs: tuple[tuple[str, str], ...]
    heldout: tuple[str, ...]
    num_vectors: int = 8
    num_steps: int = 60
    dt: float = 1e-11
    shard_size: int = 4
    compression_rate: Optional[float] = 0.3
    sim_batch_size: int = 16
    seed: int = 0
    train_fraction: float = 0.7
    validation_ratio: float = 0.3
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    max_batch: int = 16
    scenarios: tuple = ()
    scenario_steps: tuple[int, ...] = (60,)
    scenario_seeds: tuple[int, ...] = (0,)
    solver_mode: str = "full"
    rom: Optional[ROMOptions] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("evaluation config needs a name")
        if len(self.designs) < 2:
            raise ValueError("cross-design evaluation needs at least 2 designs")
        labels = [label for label, _ in self.designs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"design labels must be unique, got {labels}")
        if not self.heldout:
            raise ValueError("at least one design must be held out")
        unknown = [label for label in self.heldout if label not in labels]
        if unknown:
            raise ValueError(f"held-out labels {unknown} are not in the design pool")
        check_positive(self.num_vectors, "num_vectors")
        check_positive(self.shard_size, "shard_size")
        check_positive(self.sim_batch_size, "sim_batch_size")
        check_positive(self.max_batch, "max_batch")
        check_probability(self.train_fraction, "train_fraction")
        check_probability(self.validation_ratio, "validation_ratio")
        if self.num_steps < 2:
            raise ValueError(f"num_steps must be >= 2, got {self.num_steps}")
        for steps in self.scenario_steps:
            if steps < 2:
                raise ValueError(f"scenario_steps entries must be >= 2, got {steps}")
        for scenario in self.scenarios:
            if not isinstance(scenario, (str, ScenarioSpec)):
                raise ValueError(
                    f"scenarios entries must be names or ScenarioSpec, got {scenario!r}"
                )
            # Fail at config construction, not inside a sweep worker.  The
            # entries themselves stay as written (names stay plain strings,
            # keeping name-only config hashes stable).
            validate_scenario(scenario)
        if self.scenarios and not (self.scenario_steps and self.scenario_seeds):
            raise ValueError("a scenario sweep needs at least one steps and seed variant")
        if self.solver_mode not in SOLVER_MODES:
            raise ValueError(
                f"unknown solver mode {self.solver_mode!r}; "
                f"expected one of {SOLVER_MODES}"
            )
        if self.solver_mode == "rom" and self.rom is None:
            # Pin the exact ROM configuration into the campaign hash.
            object.__setattr__(self, "rom", ROMOptions())

    @property
    def labels(self) -> tuple[str, ...]:
        """All design labels of the pool, in evaluation order."""
        return tuple(label for label, _ in self.designs)

    def design_reference(self, label: str) -> str:
        """The factory reference of one design label."""
        for candidate, reference in self.designs:
            if candidate == label:
                return reference
        raise KeyError(f"no design labelled {label!r} in this evaluation")

    def training_labels(self, heldout: str) -> tuple[str, ...]:
        """The labels a model is trained on when ``heldout`` is held out."""
        if heldout not in self.labels:
            raise KeyError(f"no design labelled {heldout!r} in this evaluation")
        return tuple(label for label in self.labels if label != heldout)

    def corpus_spec(self) -> CorpusSpec:
        """The datagen corpus this evaluation trains and evaluates on.

        One corpus covers the whole campaign: every held-out model trains on
        a subset of its designs and is evaluated on another, so the corpus is
        generated (and resumed) once, up front.
        """
        return CorpusSpec(
            designs=tuple(
                CorpusDesignSpec(
                    label=label,
                    design=reference,
                    num_vectors=self.num_vectors,
                    num_steps=self.num_steps,
                    dt=self.dt,
                    seed=self.seed,
                    shard_size=self.shard_size,
                    compression_rate=self.compression_rate,
                )
                for label, reference in self.designs
            ),
            sim_batch_size=self.sim_batch_size,
            solver_mode=self.solver_mode,
            rom=self.rom,
        )

    def to_dict(self) -> dict:
        """JSON-serialisable representation (stored in artefacts).

        Named scenarios stay plain strings (so name-only configs keep the
        config hashes their golden baselines were pinned against);
        :class:`~repro.workloads.specs.ScenarioSpec` entries serialise via
        their canonical ``to_dict`` form.
        """
        payload = asdict(self)
        payload["scenarios"] = [
            scenario if isinstance(scenario, str) else scenario.to_dict()
            for scenario in self.scenarios
        ]
        if self.solver_mode == "full":
            del payload["solver_mode"]
            del payload["rom"]
        else:
            payload["rom"] = self.rom.to_dict()
        _FIXED_TRAINING_FIELDS.write(payload["training"])
        return _FIXED_FIELDS.write(payload)

    @classmethod
    def from_dict(cls, payload: dict) -> "EvalConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Raises ``ValueError`` when the payload records another value for a
        fixed setting: the sweep step or a retired training field.
        """
        source = f"evaluation config {payload.get('name')!r}"
        payload = _FIXED_FIELDS.pop(dict(payload), source)
        payload["designs"] = tuple(
            (str(label), str(reference)) for label, reference in payload["designs"]
        )
        payload["scenarios"] = tuple(
            scenario if isinstance(scenario, str) else ScenarioSpec.from_dict(scenario)
            for scenario in payload["scenarios"]
        )
        for key in ("heldout", "scenario_steps", "scenario_seeds"):
            payload[key] = tuple(payload[key])
        payload["model"] = ModelConfig(**payload["model"])
        training = _FIXED_TRAINING_FIELDS.pop(
            dict(payload["training"]), f"{source} training"
        )
        payload["training"] = TrainingConfig(**training)
        if "rom" in payload and payload["rom"] is not None:
            payload["rom"] = ROMOptions.from_dict(payload["rom"])
        return cls(**payload)

    def config_hash(self) -> str:
        """Canonical SHA-256 of the campaign configuration.

        Stamped into the report artefact, the sweep manifest and the golden
        baseline; two artefacts are comparable iff their hashes match.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _tiny_budget() -> EvalConfig:
    """Unit-test budget: three small designs, seconds of work."""
    return EvalConfig(
        name="tiny",
        designs=(("D1", "D1@0.1"), ("D2", "D2@0.1"), ("D3", "D3@0.1")),
        heldout=("D3",),
        num_vectors=6,
        num_steps=48,
        shard_size=3,
        sim_batch_size=8,
        model=ModelConfig(
            distance_kernels=3, fusion_kernels=3, prediction_kernels=3, seed=0
        ),
        training=TrainingConfig(epochs=2, batch_size=4, early_stopping_patience=None),
        scenarios=("steady_state",),
        scenario_steps=(48,),
        scenario_seeds=(0,),
    )


def _smoke_budget() -> EvalConfig:
    """Tier-2 CI budget: the D1–D4 pool at reduced scale, two held-out designs."""
    return EvalConfig(
        name="smoke",
        designs=(
            ("D1", "D1@0.12"),
            ("D2", "D2@0.12"),
            ("D3", "D3@0.12"),
            ("D4", "D4@0.12"),
        ),
        heldout=("D3", "D4"),
        num_vectors=10,
        num_steps=80,
        shard_size=5,
        sim_batch_size=16,
        model=ModelConfig(
            distance_kernels=4, fusion_kernels=4, prediction_kernels=6, seed=0
        ),
        training=TrainingConfig(epochs=12, batch_size=4, early_stopping_patience=6),
        scenarios=("steady_state", "power_virus", "single_core_sprint"),
        scenario_steps=(80, 120),
        scenario_seeds=(0,),
    )


def _paper_budget() -> EvalConfig:
    """Full-scale campaign mirroring the paper's Table 2 regime."""
    return EvalConfig(
        name="paper",
        designs=(
            ("D1", "D1@0.2"),
            ("D2", "D2@0.2"),
            ("D3", "D3@0.2"),
            ("D4", "D4@0.2"),
        ),
        heldout=("D1", "D2", "D3", "D4"),
        num_vectors=40,
        num_steps=200,
        shard_size=10,
        sim_batch_size=48,
        model=ModelConfig(seed=0),
        training=TrainingConfig(epochs=60, batch_size=4),
        scenarios=(
            "steady_state",
            "power_virus",
            "idle_to_turbo",
            "clock_gating_storm",
            "single_core_sprint",
        ),
        scenario_steps=(200, 400),
        scenario_seeds=(0, 1),
    )


_BUDGETS = {
    "tiny": _tiny_budget,
    "smoke": _smoke_budget,
    "paper": _paper_budget,
}


def budget_names() -> tuple[str, ...]:
    """Names of the registered evaluation budgets."""
    return tuple(sorted(_BUDGETS))


def budget(name: str) -> EvalConfig:
    """Look up a registered evaluation budget by name."""
    if name not in _BUDGETS:
        raise KeyError(f"unknown budget {name!r}; expected one of {budget_names()}")
    return _BUDGETS[name]()
