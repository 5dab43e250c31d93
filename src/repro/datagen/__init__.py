"""Dataset factory: parallel, resumable, multi-design corpus generation.

The paper's CNN trains on thousands of simulated sign-off runs per design;
this subpackage turns producing them from a script loop into an engine:

* :class:`~repro.datagen.spec.CorpusSpec` /
  :class:`~repro.datagen.spec.CorpusDesignSpec` — declarative, hashable
  descriptions of a multi-design corpus
  (:func:`~repro.datagen.spec.paper_corpus_spec` builds the D1–D4 sweep);
* :func:`~repro.datagen.engine.generate_corpus` — a process-pool driver with
  deterministic per-shard seeding, atomic shard writes, and resume (rerunning
  skips complete shards);
* :class:`~repro.datagen.shards.ShardStore` /
  :class:`~repro.datagen.shards.CorpusManifest` — the on-disk contract:
  ``.npz`` shards plus a JSON manifest carrying the spec hash, git revision
  and per-shard content hashes;
* :func:`~repro.datagen.shards.load_corpus` /
  :func:`~repro.datagen.shards.load_design_dataset` — reassemble shards into
  :class:`~repro.workloads.dataset.NoiseDataset` objects that training and
  the benchmarks consume transparently.

The heavy lifting happens in the lockstep block-RHS transient path
(:meth:`repro.sim.transient.TransientEngine.run_many`).  See
``docs/data-pipeline.md`` for the shard format and the resumability
contract, and ``benchmarks/bench_datagen.py`` for measured speedups.
"""

from repro.datagen.engine import (
    DesignFactory,
    GenerationReport,
    generate_corpus,
    shard_vectors,
)
from repro.datagen.shards import (
    CorpusManifest,
    ShardRecord,
    ShardStore,
    dataset_content_hash,
    git_revision,
    load_corpus,
    load_design_dataset,
)
from repro.datagen.spec import CorpusDesignSpec, CorpusSpec, paper_corpus_spec

__all__ = [
    "CorpusDesignSpec",
    "CorpusSpec",
    "paper_corpus_spec",
    "DesignFactory",
    "GenerationReport",
    "generate_corpus",
    "shard_vectors",
    "CorpusManifest",
    "ShardRecord",
    "ShardStore",
    "dataset_content_hash",
    "git_revision",
    "load_corpus",
    "load_design_dataset",
]
