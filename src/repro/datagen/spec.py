"""Corpus specifications for the dataset factory.

A *corpus* is the training data for one or more designs: for every design, a
number of random test vectors, their ground-truth worst-case noise maps, and
the extracted features, produced in shards by :func:`repro.datagen.engine.
generate_corpus`.  The spec objects here are the single source of truth for
what a corpus contains:

* :class:`CorpusDesignSpec` — one design's slice of the corpus (which design,
  how many vectors, trace length, compression, shard size, seed);
* :class:`CorpusSpec` — the full multi-design sweep plus the simulation
  options shared by every design.

Specs are frozen, picklable, and canonically hashable
(:meth:`CorpusSpec.config_hash`); the hash is stamped into every manifest so
a resumed run can prove it is continuing the same corpus.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

from repro.features.temporal import RATE_STEP
from repro.sim.rom import ROMOptions
from repro.sim.transient import SOLVER_MODES, TransientOptions
from repro.utils import FixedKeys, check_positive
from repro.workloads.scenarios import validate_scenario
from repro.workloads.specs import ScenarioSpec
from repro.workloads.vectors import VectorConfig

# Keys every manifest records with one fixed value: the one symmetric SuperLU
# factorisation, and backward Euler started from the DC operating point.  The
# pairs stay in the hashed payload so pre-existing corpora keep their config
# hashes; any other value names a corpus another engine labelled.
_FIXED_KEYS = FixedKeys(
    solver_method="cholesky",
    integration_method="backward_euler",
    initial_state="dc",
)

# Every design slice records the one Algorithm-1 sweep step its features
# used, for the same reason.
_FIXED_DESIGN_KEYS = FixedKeys(rate_step=RATE_STEP)


@dataclass(frozen=True)
class CorpusDesignSpec:
    """One design's slice of a training corpus.

    Attributes
    ----------
    label:
        Manifest key for this design's shards (conventionally the design
        name, e.g. ``"D1"``); must be unique within a corpus and usable as a
        directory name.
    design:
        Design factory reference understood by the generation run's design
        factory — ``"D1@0.2"``, ``"small@8"``, ... (see
        :func:`repro.pdn.designs.design_from_name`).
    num_vectors:
        Total number of test vectors to generate and simulate.
    num_steps:
        Time stamps per vector.
    dt:
        Simulation time step in seconds.
    seed:
        Master seed of this design's vector suite.  Vector ``i`` is derived
        exactly as :meth:`repro.workloads.vectors.TestVectorGenerator.
        generate_suite` derives it, so a datagen corpus labels exactly the
        same test vectors as the sequential pipeline for the same seed
        (noise maps agree to solver rounding; see
        ``docs/data-pipeline.md``).
    shard_size:
        Vectors per on-disk shard (the unit of parallelism and resume).
    compression_rate:
        Algorithm-1 retention rate applied to the features (``None``
        disables compression).  The payload also records the fixed sweep
        step, :data:`repro.features.temporal.RATE_STEP`.
    scenario_mix:
        Scenario specs (family names or
        :class:`~repro.workloads.specs.ScenarioSpec` objects) blended into
        the vector suite.  When non-empty, ``scenario_fraction`` of the
        design's vectors are scenario traces instead of random vectors:
        scenario slots are spread evenly over the global vector-index range
        and cycle through the mix, so the assignment is a pure function of
        the spec — shard layout, generation order and resume cannot change
        it, and the corpus config hash covers it.
    scenario_fraction:
        Fraction of ``num_vectors`` built from ``scenario_mix`` (only
        meaningful when the mix is non-empty).
    """

    label: str
    design: str
    num_vectors: int = 40
    num_steps: int = 200
    dt: float = 1e-11
    seed: int = 0
    shard_size: int = 20
    compression_rate: Optional[float] = 0.3
    scenario_mix: tuple = ()
    scenario_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not self.label or "/" in self.label or self.label in (".", ".."):
            raise ValueError(f"label must be a non-empty path-safe name, got {self.label!r}")
        if not self.design:
            raise ValueError("design reference must be non-empty")
        check_positive(self.num_vectors, "num_vectors")
        check_positive(self.shard_size, "shard_size")
        check_positive(self.dt, "dt")
        if self.num_steps < 2:
            raise ValueError(f"num_steps must be >= 2, got {self.num_steps}")
        if self.compression_rate is not None and not 0.0 < self.compression_rate <= 1.0:
            raise ValueError(
                f"compression_rate must be in (0, 1] or None, got {self.compression_rate}"
            )
        object.__setattr__(
            self,
            "scenario_mix",
            tuple(validate_scenario(entry) for entry in self.scenario_mix),
        )
        if self.scenario_mix:
            if not 0.0 < self.scenario_fraction <= 1.0:
                raise ValueError(
                    f"scenario_fraction must be in (0, 1], got {self.scenario_fraction}"
                )
        else:
            # Without a mix the fraction is meaningless and excluded from
            # to_dict; pin it to the default so equality and the
            # to_dict/from_dict round-trip stay consistent.
            object.__setattr__(self, "scenario_fraction", 0.5)

    @property
    def num_shards(self) -> int:
        """Number of shards this design's vectors are split into."""
        return math.ceil(self.num_vectors / self.shard_size)

    def shard_bounds(self, index: int) -> tuple[int, int]:
        """Global vector index range ``[start, stop)`` of one shard.

        Parameters
        ----------
        index:
            Shard index in ``0 .. num_shards - 1``.

        Returns
        -------
        The half-open ``(start, stop)`` vector-index interval.
        """
        if not 0 <= index < self.num_shards:
            raise ValueError(
                f"shard index {index} out of range for {self.num_shards} shards"
            )
        start = index * self.shard_size
        return start, min(self.num_vectors, start + self.shard_size)

    def vector_config(self) -> VectorConfig:
        """The test-vector generator configuration for this design."""
        return VectorConfig(num_steps=self.num_steps, dt=self.dt)

    def scenario_assignment(self) -> dict[int, ScenarioSpec]:
        """Global vector indices built from ``scenario_mix`` (index -> spec).

        ``round(scenario_fraction * num_vectors)`` slots (at least one, at
        most all) are spread evenly over ``0 .. num_vectors - 1`` and cycle
        through the mix in order.  Every other index stays a random vector.
        The mapping depends only on spec fields, never on shard layout, so
        resumed and re-sharded runs agree on which vector is which.
        """
        if not self.scenario_mix:
            return {}
        count = min(
            self.num_vectors,
            max(1, int(round(self.scenario_fraction * self.num_vectors))),
        )
        return {
            (slot * self.num_vectors) // count: self.scenario_mix[slot % len(self.scenario_mix)]
            for slot in range(count)
        }

    def to_dict(self) -> dict:
        """JSON-serialisable representation.

        ``scenario_mix``/``scenario_fraction`` are omitted when the mix is
        empty, so pre-existing all-random corpora keep their config hashes
        (and stay resumable) across this field's introduction.
        """
        payload = asdict(self)
        if self.scenario_mix:
            payload["scenario_mix"] = [spec.to_dict() for spec in self.scenario_mix]
        else:
            del payload["scenario_mix"]
            del payload["scenario_fraction"]
        return _FIXED_DESIGN_KEYS.write(payload)

    @classmethod
    def from_dict(cls, payload: dict) -> "CorpusDesignSpec":
        """Rebuild a design spec from :meth:`to_dict` output (one sweep step only)."""
        payload = _FIXED_DESIGN_KEYS.pop(
            dict(payload), f"corpus design {payload.get('label')!r}"
        )
        payload["scenario_mix"] = tuple(
            ScenarioSpec.from_dict(entry) for entry in payload.get("scenario_mix", ())
        )
        return cls(**payload)


@dataclass(frozen=True)
class CorpusSpec:
    """A full multi-design corpus: design slices plus shared sim options.

    Attributes
    ----------
    designs:
        One :class:`CorpusDesignSpec` per design (unique labels).
    sim_batch_size:
        Vectors per lockstep transient block
        (:meth:`~repro.sim.dynamic_noise.DynamicNoiseAnalysis.run_many`).
        A block holds ``O(num_nodes x sim_batch_size)`` solver state plus
        a bounded chunk, never a copy of all its vectors' currents: 32
        stamps of them full-order, or the reduced drive and one
        reconstruction chunk through the ROM (see
        :meth:`~repro.sim.transient.TransientEngine.run_many`).  Every
        corpus is labelled by the one
        symmetric SuperLU factorisation
        (:class:`~repro.sim.linear.LinearSolver`) and by backward Euler
        started from the DC operating point; the manifest records them as
        the fixed, hashed pairs ``"solver_method": "cholesky"``,
        ``"integration_method": "backward_euler"`` and
        ``"initial_state": "dc"``.
    solver_mode:
        Which transient strategy labels the corpus: ``"full"`` (the
        full-order companion path, the default) or ``"rom"`` (the gated
        Krylov reduced-order model, see ``docs/solvers.md``).  Folded into
        the config hash and manifest — but omitted at the ``"full"``
        default, so pre-existing corpora keep their hashes and stay
        resumable.
    rom:
        Reduced-order options (:class:`~repro.sim.rom.ROMOptions`); only
        meaningful with ``solver_mode="rom"`` (auto-filled with defaults
        there, rejected otherwise by the transient-options validation).
    """

    designs: tuple[CorpusDesignSpec, ...]
    sim_batch_size: int = 48
    solver_mode: str = "full"
    rom: Optional[ROMOptions] = None

    def __post_init__(self) -> None:
        if not self.designs:
            raise ValueError("a corpus needs at least one design")
        labels = [design.label for design in self.designs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"design labels must be unique, got {labels}")
        check_positive(self.sim_batch_size, "sim_batch_size")
        if self.solver_mode not in SOLVER_MODES:
            raise ValueError(
                f"unknown solver mode {self.solver_mode!r}; "
                f"expected one of {SOLVER_MODES}"
            )
        if self.solver_mode == "rom" and self.rom is None:
            # Pin the defaults explicitly so the manifest and config hash
            # record the exact ROM configuration that labelled the corpus.
            object.__setattr__(self, "rom", ROMOptions())
        # Delegate the remaining option validation to TransientOptions.
        self.transient_options()

    def transient_options(self) -> TransientOptions:
        """The transient-engine options every ground-truth run uses."""
        return TransientOptions(solver_mode=self.solver_mode, rom=self.rom)

    def design(self, label: str) -> CorpusDesignSpec:
        """Look up one design slice by its label."""
        for spec in self.designs:
            if spec.label == label:
                return spec
        raise KeyError(f"no design labelled {label!r} in this corpus")

    @property
    def total_vectors(self) -> int:
        """Total vector count across all designs."""
        return sum(design.num_vectors for design in self.designs)

    @property
    def total_shards(self) -> int:
        """Total shard count across all designs."""
        return sum(design.num_shards for design in self.designs)

    def to_dict(self) -> dict:
        """JSON-serialisable representation (stored in the manifest).

        ``solver_mode``/``rom`` are omitted at the ``"full"`` default, so
        pre-existing full-order corpora keep their config hashes (and stay
        resumable) across the solver seam's introduction; ROM-mode specs
        record the complete :class:`~repro.sim.rom.ROMOptions` block.
        The payload always carries the fixed ``solver_method``,
        ``integration_method`` and ``initial_state`` pairs.
        """
        payload = asdict(self)
        payload["designs"] = [design.to_dict() for design in self.designs]
        _FIXED_KEYS.write(payload)
        if self.solver_mode == "full":
            del payload["solver_mode"]
            del payload["rom"]
        else:
            payload["rom"] = self.rom.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CorpusSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Raises ``ValueError`` when a fixed pair records another value: such
        a corpus was labelled by another engine and must not be resumed.
        """
        payload = _FIXED_KEYS.pop(dict(payload), "corpus spec")
        payload["designs"] = tuple(
            CorpusDesignSpec.from_dict(entry) for entry in payload["designs"]
        )
        if "rom" in payload and payload["rom"] is not None:
            payload["rom"] = ROMOptions.from_dict(payload["rom"])
        return cls(**payload)

    def config_hash(self) -> str:
        """Canonical SHA-256 of the spec.

        Two specs hash equally iff every generation-relevant field matches;
        the manifest stores this hash and a resumed run refuses to continue
        a corpus whose hash differs from its own spec.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def paper_corpus_spec(
    scale: float = 0.2,
    num_vectors: int = 40,
    num_steps: int = 200,
    shard_size: int = 20,
    seed: int = 0,
    compression_rate: Optional[float] = 0.3,
    solver_mode: str = "full",
    rom: Optional[ROMOptions] = None,
) -> CorpusSpec:
    """The paper's D1–D4 training sweep as one corpus spec.

    One call to :func:`~repro.datagen.engine.generate_corpus` with this spec
    produces per-design training corpora for all four reference analogues —
    the datagen equivalent of the per-design training regime of Table 2.

    Parameters
    ----------
    scale:
        Geometric scale of the reference designs (``1.0`` = paper size).
    num_vectors:
        Vectors per design (the paper uses 500).
    num_steps:
        Time stamps per vector.
    shard_size:
        Vectors per shard.
    seed:
        Per-design vector seed (the same seed is safe across designs — the
        designs differ, so the vector suites do too).
    compression_rate:
        Algorithm-1 retention rate for the features.
    solver_mode / rom:
        Label solver selection (see :class:`CorpusSpec`).

    Returns
    -------
    A four-design :class:`CorpusSpec`.
    """
    designs = tuple(
        CorpusDesignSpec(
            label=name,
            design=f"{name}@{scale}",
            num_vectors=num_vectors,
            num_steps=num_steps,
            seed=seed,
            shard_size=shard_size,
            compression_rate=compression_rate,
        )
        for name in ("D1", "D2", "D3", "D4")
    )
    return CorpusSpec(designs=designs, solver_mode=solver_mode, rom=rom)
