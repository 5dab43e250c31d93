"""Fresh-run determinism: the contracts the golden baselines stand on.

Baseline gating (``repro.eval``) only works if the whole pipeline is a pure
function of its seeds: two *fresh* runs — new processes' worth of state, new
directories, any parallelism — must produce bit-identical corpora and
bit-identical training trajectories.  These tests pin that contract for the
datagen manifest and for both training engines (the shared-stream shuffle
contract introduced with the batched engine).
"""

import os
import signal

import numpy as np
import pytest

from repro import faults
from repro.core.config import ModelConfig, TrainingConfig
from repro.core.training import NoiseModelTrainer
from repro.datagen import CorpusDesignSpec, CorpusSpec, generate_corpus


def two_design_spec() -> CorpusSpec:
    return CorpusSpec(
        designs=(
            CorpusDesignSpec(
                label="small", design="small@6", num_vectors=4, num_steps=30,
                shard_size=2, seed=3,
            ),
            CorpusDesignSpec(
                label="D1", design="D1@0.1", num_vectors=4, num_steps=30,
                shard_size=2, seed=3,
            ),
        ),
        sim_batch_size=4,
    )


def manifest_content(report) -> list[dict]:
    """The deterministic part of a manifest: every shard record."""
    return [record.to_dict() for record in report.manifest.records]


class TestCorpusDeterminism:
    def test_two_fresh_runs_produce_identical_manifests(self, tmp_path):
        first = generate_corpus(two_design_spec(), tmp_path / "a", num_workers=0)
        second = generate_corpus(two_design_spec(), tmp_path / "b", num_workers=0)
        assert first.complete and second.complete
        assert manifest_content(first) == manifest_content(second)

    def test_parallel_run_matches_inline_run(self, tmp_path):
        inline = generate_corpus(two_design_spec(), tmp_path / "inline", num_workers=0)
        pooled = generate_corpus(two_design_spec(), tmp_path / "pooled", num_workers=2)
        assert manifest_content(inline) == manifest_content(pooled)


class KillWorkerOnceMidWrite(faults.FaultInjector):
    """Picklable injector factory that SIGKILLs one pool worker mid-write.

    The kill fires inside the ``datagen.shard_write`` seam of shard
    ``small:1`` — between the temp-file write and the atomic rename, the
    worst possible instant.  An ``O_EXCL`` marker file on the shared
    filesystem makes it exactly-once across every process that ever installs
    this injector, so the retried attempt (and the engine's inline fallback
    in the parent) survive.
    """

    def __init__(self, marker: str):
        self.marker = marker

    def __call__(self) -> "KillWorkerOnceMidWrite":
        return self

    def during_shard_write(self, label, index, temporary):
        if (label, index) != ("small", 1):
            return
        try:
            handle = os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(handle)
        os.kill(os.getpid(), signal.SIGKILL)


class TestPoolWorkerKill:
    def test_sigkilled_pool_worker_still_yields_identical_corpus(self, tmp_path):
        # A real SIGKILL against a pool worker mid-shard-write: the parent
        # sees a broken pool, clears the dead worker's claim, finishes the
        # remaining shards inline — and the corpus must be byte-identical to
        # a run where nothing died.
        clean = generate_corpus(two_design_spec(), tmp_path / "clean", num_workers=0)
        factory = KillWorkerOnceMidWrite(str(tmp_path / "killed.marker"))
        try:
            survived = generate_corpus(
                two_design_spec(),
                tmp_path / "killed",
                num_workers=2,
                faults_factory=factory,
            )
            if not survived.complete:
                # Tearing down the broken pool can strand claims of workers
                # that were still alive when the fallback scanned for stale
                # ones; a resumed run clears them and finishes the deferred
                # shards — exactly the operator playbook after a preemption.
                survived = generate_corpus(
                    two_design_spec(), tmp_path / "killed", num_workers=0
                )
        finally:
            # The engine's inline fallback installs the factory's injector in
            # this process; restore the inert default for neighbouring tests.
            faults.install(None)
        assert (tmp_path / "killed.marker").exists(), "the scripted kill never fired"
        assert survived.complete
        assert manifest_content(survived) == manifest_content(clean)
        assert (tmp_path / "killed" / "manifest.json").read_bytes() == (
            tmp_path / "clean" / "manifest.json"
        ).read_bytes()


def _fresh_training(tiny_dataset, tiny_design):
    """One from-scratch training run (fresh trainer, fresh split, fresh model)."""
    trainer = NoiseModelTrainer(
        tiny_dataset,
        design=tiny_design,
        model_config=ModelConfig(
            distance_kernels=3, fusion_kernels=3, prediction_kernels=3, seed=0
        ),
        training_config=TrainingConfig(
            epochs=3, batch_size=4, early_stopping_patience=None, seed=5
        ),
    )
    return trainer.train()


class TestTrainerDeterminism:
    def test_fresh_runs_have_bit_identical_loss_curves(self, tiny_dataset, tiny_design):
        first = _fresh_training(tiny_dataset, tiny_design)
        second = _fresh_training(tiny_dataset, tiny_design)
        # == on float lists: bit-identical, not merely close.
        assert first.history.train_loss == second.history.train_loss
        assert first.history.validation_loss == second.history.validation_loss
        assert first.history.best_epoch == second.history.best_epoch
        for name, value in first.model.state_dict().items():
            np.testing.assert_array_equal(value, second.model.state_dict()[name])
        np.testing.assert_array_equal(first.split.train, second.split.train)
