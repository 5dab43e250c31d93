"""Datagen under fault injection: retries, quarantine, corruption recovery.

Everything runs inline (``num_workers=0``) with scripted injectors and
zero-backoff retry policies, so the scenarios are deterministic and fast;
the real-SIGKILL pool scenario lives in ``tests/datagen/test_determinism.py``
and the cross-process chaos drill in ``test_chaos_e2e.py``.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import faults
from repro.datagen import (
    GenerationPolicy,
    generate_corpus,
    load_corpus,
    load_design_dataset,
)
from repro.datagen.shards import MANIFEST_NAME, ShardStore
from repro.faults import ScriptedFaults
from repro.resilience import CorruptShardError, RetryPolicy, ShardFailedError

#: Retry without wall-clock waits, for scripted-fault scenarios.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_s=0.0)

FAST_POLICY = GenerationPolicy(retry=FAST_RETRY)


def manifest_records(report):
    return [record.to_dict() for record in report.manifest.records]


def manifest_bytes(root) -> bytes:
    return (root / MANIFEST_NAME).read_bytes()


class PoisonFaults(ScriptedFaults):
    """Scripted injector that additionally NaN-poisons chosen vectors.

    ``poison`` maps ``(label, shard_index)`` to sample positions whose
    simulated labels are overwritten with NaN — modelling a solver blow-up
    the quarantine scan must catch.  Mutation happens on the freshly built
    dataset, so it is deterministic across runs and processes.
    """

    def __init__(self, poison):
        super().__init__()
        self.poison = dict(poison)

    def on_shard_dataset(self, label, index, dataset):
        dataset = super().on_shard_dataset(label, index, dataset)
        for position in self.poison.get((label, index), ()):
            dataset.samples[position].target[...] = np.nan
        return dataset


class TestShardRetry:
    def test_transient_failure_is_retried_to_a_clean_manifest(
        self, tmp_path, make_spec, counter_value
    ):
        clean = generate_corpus(make_spec(), tmp_path / "clean", num_workers=0)
        scripted = ScriptedFaults().fail_at(
            "datagen.shard", 0, RuntimeError("transient worker wobble")
        )
        with faults.injected(scripted):
            faulty = generate_corpus(
                make_spec(), tmp_path / "faulty", num_workers=0, policy=FAST_POLICY
            )
        assert faulty.complete
        assert scripted.fired == [("datagen.shard", 0)]
        assert manifest_records(faulty) == manifest_records(clean)
        assert counter_value("faults.errors") == 1
        assert counter_value("faults.retries") == 1
        assert counter_value("faults.exhausted") == 0

    def test_exhausted_shard_raises_after_other_shards_complete(
        self, tmp_path, make_spec, counter_value
    ):
        # Shard 0 fails on every attempt; shard 1 must still land on disk
        # and in the manifest before the typed error surfaces.  Seam ordinals:
        # wave 1 runs both shards (0 -> shard 0, 1 -> shard 1), later waves
        # re-run only shard 0 (ordinals 2, 3).
        scripted = (
            ScriptedFaults()
            .fail_at("datagen.shard", 0, RuntimeError("persistent fault"))
            .fail_at("datagen.shard", 2, RuntimeError("persistent fault"))
            .fail_at("datagen.shard", 3, RuntimeError("persistent fault"))
        )
        with faults.injected(scripted):
            with pytest.raises(ShardFailedError) as excinfo:
                generate_corpus(
                    make_spec(), tmp_path, num_workers=0, policy=FAST_POLICY
                )
        error = excinfo.value
        assert [(f["label"], f["index"]) for f in error.failures] == [("small", 0)]
        assert error.failures[0]["attempts"] == FAST_RETRY.max_attempts
        assert "persistent fault" in error.failures[0]["error"]
        report = error.report
        assert report.shards_failed == 1
        assert report.shards_generated == 1
        assert report.manifest.is_complete("small", 1)
        assert counter_value("faults.exhausted") == 1

    def test_failed_run_resumes_to_the_clean_manifest(self, tmp_path, make_spec):
        clean = generate_corpus(make_spec(), tmp_path / "clean", num_workers=0)
        scripted = (
            ScriptedFaults()
            .fail_at("datagen.shard", 0, RuntimeError("down"))
            .fail_at("datagen.shard", 2, RuntimeError("down"))
            .fail_at("datagen.shard", 3, RuntimeError("down"))
        )
        with faults.injected(scripted):
            with pytest.raises(ShardFailedError):
                generate_corpus(
                    make_spec(), tmp_path / "faulty", num_workers=0, policy=FAST_POLICY
                )
        resumed = generate_corpus(make_spec(), tmp_path / "faulty", num_workers=0)
        assert resumed.complete
        assert manifest_records(resumed) == manifest_records(clean)
        assert manifest_bytes(tmp_path / "faulty") == manifest_bytes(tmp_path / "clean")

    def test_solver_seam_failures_are_also_retried(self, tmp_path, make_spec):
        scripted = ScriptedFaults().fail_at(
            "sim.solve", 0, RuntimeError("factorisation hiccup")
        )
        with faults.injected(scripted):
            report = generate_corpus(
                make_spec(), tmp_path, num_workers=0, policy=FAST_POLICY
            )
        assert report.complete
        assert scripted.fired == [("sim.solve", 0)]


class TestQuarantine:
    def test_poisoned_vectors_are_quarantined_not_fatal(
        self, tmp_path, make_spec, counter_value
    ):
        injector = PoisonFaults({("small", 0): [1]})
        with faults.injected(injector):
            report = generate_corpus(make_spec(), tmp_path, num_workers=0)
        assert report.complete
        assert report.vectors_quarantined == 1
        quarantined = report.manifest.quarantined
        assert len(quarantined) == 1
        entry = quarantined[0]
        assert entry["label"] == "small"
        assert entry["index"] == 0
        assert entry["reason"] == "nonfinite_label"
        assert entry["key"].endswith("-v0001")
        assert counter_value("faults.quarantined_vectors") == 1

    def test_quarantined_corpus_loads_finite(self, tmp_path, make_spec):
        spec = make_spec()
        with faults.injected(PoisonFaults({("small", 0): [0], ("small", 1): [1]})):
            generate_corpus(spec, tmp_path, num_workers=0)
        datasets = load_corpus(tmp_path)
        dataset = datasets["small"]
        # One vector gone from each shard; the survivors are finite.
        assert len(dataset) == spec.designs[0].num_vectors - 2
        for sample in dataset.samples:
            assert np.all(np.isfinite(sample.target))

    def test_quarantine_is_deterministic_across_fresh_runs(self, tmp_path, make_spec):
        for root in ("a", "b"):
            with faults.injected(PoisonFaults({("small", 1): [0]})):
                generate_corpus(make_spec(), tmp_path / root, num_workers=0)
        assert manifest_bytes(tmp_path / "a") == manifest_bytes(tmp_path / "b")

    def test_quarantine_survives_manifest_round_trip(self, tmp_path, make_spec):
        with faults.injected(PoisonFaults({("small", 0): [1]})):
            report = generate_corpus(make_spec(), tmp_path, num_workers=0)
        store = ShardStore(tmp_path)
        reloaded = store.load_manifest()
        assert reloaded.quarantined == report.manifest.quarantined

    def test_quarantine_can_be_disabled_by_policy(self, tmp_path, make_spec):
        policy = dataclasses.replace(FAST_POLICY, quarantine=False)
        with faults.injected(PoisonFaults({("small", 0): [1]})):
            report = generate_corpus(
                make_spec(), tmp_path, num_workers=0, policy=policy
            )
        assert report.vectors_quarantined == 0
        assert report.manifest.quarantined == []
        # The poison stays in the shard — exactly what the policy asked for.
        dataset = load_design_dataset(tmp_path, "small")
        assert any(
            not np.all(np.isfinite(sample.target)) for sample in dataset.samples
        )

    def test_manifest_without_quarantine_key_is_refused(self, tmp_path, make_spec):
        generate_corpus(make_spec(), tmp_path, num_workers=0)
        manifest_path = tmp_path / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text())
        del payload["quarantined"]
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="has no 'quarantined' entry"):
            ShardStore(tmp_path).load_manifest()


class TestCorruptionRecovery:
    def test_corrupt_shard_is_regenerated_on_resume(
        self, tmp_path, make_spec, counter_value
    ):
        first = generate_corpus(make_spec(), tmp_path, num_workers=0)
        store = ShardStore(tmp_path)
        shard_path = store.shard_path("small", 1)
        shard_path.write_bytes(b"bit-rotted to oblivion")
        resumed = generate_corpus(make_spec(), tmp_path, num_workers=0)
        assert resumed.complete
        assert resumed.shards_regenerated == 1
        assert resumed.shards_skipped == 1
        assert counter_value("faults.corrupt_shards") == 1
        assert manifest_records(resumed) == manifest_records(first)
        # The regenerated shard verifies again.
        store.read_shard("small", 1, expected_hash=first.manifest.get("small", 1).content_hash)

    def test_truncated_shard_is_regenerated_on_resume(self, tmp_path, make_spec):
        generate_corpus(make_spec(), tmp_path, num_workers=0)
        shard_path = ShardStore(tmp_path).shard_path("small", 0)
        payload = shard_path.read_bytes()
        shard_path.write_bytes(payload[: len(payload) // 3])
        resumed = generate_corpus(make_spec(), tmp_path, num_workers=0)
        assert resumed.complete
        assert resumed.shards_regenerated == 1

    def test_bit_flipped_shard_is_regenerated_on_resume(self, tmp_path, make_spec):
        # A flip deep in the payload keeps the file readable but changes the
        # content hash — only verification catches it.
        generate_corpus(make_spec(), tmp_path, num_workers=0)
        shard_path = ShardStore(tmp_path).shard_path("small", 0)
        payload = bytearray(shard_path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        shard_path.write_bytes(bytes(payload))
        resumed = generate_corpus(make_spec(), tmp_path, num_workers=0)
        assert resumed.complete
        assert resumed.shards_regenerated == 1

    def test_verification_can_be_disabled_by_policy(self, tmp_path, make_spec):
        generate_corpus(make_spec(), tmp_path, num_workers=0)
        shard_path = ShardStore(tmp_path).shard_path("small", 0)
        corrupted = b"trusted blindly"
        shard_path.write_bytes(corrupted)
        policy = dataclasses.replace(FAST_POLICY, verify_resume=False)
        resumed = generate_corpus(make_spec(), tmp_path, num_workers=0, policy=policy)
        assert resumed.shards_regenerated == 0
        assert resumed.shards_skipped == 2
        assert shard_path.read_bytes() == corrupted


class TestCorruptShardError:
    def test_truncated_shard_load_raises_typed_error(self, tmp_path, make_spec):
        spec = make_spec()
        report = generate_corpus(spec, tmp_path, num_workers=0)
        expected_hash = report.manifest.get("small", 0).content_hash
        shard_path = ShardStore(tmp_path).shard_path("small", 0)
        payload = shard_path.read_bytes()
        shard_path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(CorruptShardError) as excinfo:
            load_design_dataset(tmp_path, "small", verify=True)
        error = excinfo.value
        assert error.path == shard_path
        assert error.expected_hash == expected_hash
        assert error.actual_hash is None  # unreadable, no hash to compare
        assert str(shard_path) in str(error)
        assert expected_hash[:12] in str(error)

    def test_bit_flip_reports_expected_and_actual_hashes(self, tmp_path, make_spec):
        report = generate_corpus(make_spec(), tmp_path, num_workers=0)
        expected_hash = report.manifest.get("small", 0).content_hash
        shard_path = ShardStore(tmp_path).shard_path("small", 0)
        payload = bytearray(shard_path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        shard_path.write_bytes(bytes(payload))
        try:
            load_design_dataset(tmp_path, "small", verify=True)
        except CorruptShardError as error:
            # Readable-but-wrong may surface as a hash mismatch (both hashes
            # known) or as an unreadable archive depending on where the flip
            # landed; either way the typed error names path and expectation.
            assert error.expected_hash == expected_hash
            assert error.path == shard_path
        else:
            pytest.fail("corrupt shard loaded without error")

    def test_corrupt_shard_error_is_a_value_error(self):
        # Legacy catch sites used ValueError; the typed error must still land.
        assert issubclass(CorruptShardError, ValueError)

    def test_unverified_load_still_wraps_unreadable_files(self, tmp_path, make_spec):
        generate_corpus(make_spec(), tmp_path, num_workers=0)
        ShardStore(tmp_path).shard_path("small", 0).write_bytes(b"junk")
        with pytest.raises(CorruptShardError):
            load_design_dataset(tmp_path, "small", verify=False)


class _RecordingFaults(faults.FaultInjector):
    """Injector factory whose products record the shards they saw start."""

    def __init__(self):
        self.started = []

    def __call__(self) -> "_RecordingFaults":
        return self

    def before_shard(self, label, index):
        self.started.append((label, index))


class TestInlineFaultsFactory:
    def test_inline_run_restores_the_callers_injector(self, tmp_path, make_spec):
        before = ScriptedFaults()
        factory = _RecordingFaults()
        with faults.injected(before):
            report = generate_corpus(
                make_spec(), tmp_path, num_workers=0, faults_factory=factory
            )
            assert faults.active() is before
        assert report.complete
        # The factory's injector was the active one while the shards ran.
        assert factory.started == [("small", 0), ("small", 1)]
