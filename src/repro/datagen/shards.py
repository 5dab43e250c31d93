"""On-disk corpus layout: shards, manifest, claims, content hashing.

A corpus root looks like::

    <root>/
      manifest.json            # config hash, git rev, spec, shard records
      D1/shard-00000.npz       # NoiseDataset archive (uncompressed .npz)
      D1/shard-00001.npz
      D2/shard-00000.npz
      ...

The **manifest is the source of truth**: a shard exists iff its manifest
record says ``complete`` *and* the file is present.  Both the manifest and
every shard are written atomically (temp file + ``os.replace``), so a killed
run can never leave a half-written artefact that a resumed run would trust;
an orphan shard file without a manifest record is simply regenerated.
Concurrent runs are fenced per shard with ``O_EXCL`` claim files.

``docs/data-pipeline.md`` documents the full format and the resumability
contract.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro import faults
from repro.datagen.spec import CorpusSpec
from repro.io.atomic import atomic_replace
from repro.resilience.errors import CorruptShardError
from repro.utils import get_logger, require_key
from repro.utils.artifacts import atomic_write_text, git_revision
from repro.workloads.dataset import NoiseDataset, merge_datasets

_LOG = get_logger("datagen.shards")

#: Manifest file name inside a corpus root.
MANIFEST_NAME = "manifest.json"

#: Manifest schema version (bumped on incompatible layout changes).
MANIFEST_VERSION = 1


def _hash_array(digest, array: np.ndarray) -> None:
    """Fold one array (dtype, shape, C-order bytes) into a running digest."""
    array = np.ascontiguousarray(array)
    digest.update(str(array.dtype).encode())
    digest.update(np.asarray(array.shape, dtype=np.int64).tobytes())
    digest.update(array.tobytes())


def dataset_content_hash(dataset: NoiseDataset) -> str:
    """Canonical SHA-256 of a dataset's *deterministic* contents.

    Covers the design identity (name, tile shape, dt, Vdd, hotspot
    threshold), the distance tensor, and every sample's name, current maps,
    target map and hotspot map.  **Excludes** per-sample ``sim_runtime`` —
    wall-clock times are the one nondeterministic field, so two runs of the
    same spec produce equal hashes even though their timings differ.  This
    is the hash recorded per shard in the manifest and asserted by the
    determinism/resume tests and ``benchmarks/bench_datagen.py``.

    Parameters
    ----------
    dataset:
        The dataset (typically one shard, or a merged design corpus).

    Returns
    -------
    Hex digest string.
    """
    digest = hashlib.sha256()
    digest.update(dataset.design_name.encode())
    digest.update(np.asarray(dataset.tile_shape, dtype=np.int64).tobytes())
    digest.update(np.float64(dataset.dt).tobytes())
    digest.update(np.float64(dataset.vdd).tobytes())
    digest.update(np.float64(dataset.hotspot_threshold).tobytes())
    _hash_array(digest, dataset.distance)
    for sample in dataset.samples:
        digest.update(sample.name.encode())
        _hash_array(digest, sample.features.current_maps)
        _hash_array(digest, sample.target)
        _hash_array(digest, sample.hotspot_map.astype(bool))
    return digest.hexdigest()


@dataclass
class ShardRecord:
    """One shard's manifest entry.

    Attributes
    ----------
    label:
        Design label the shard belongs to.
    index:
        Shard index within the design (0-based, contiguous).
    start / stop:
        Global vector-index interval ``[start, stop)`` the shard covers.
    path:
        Shard file path relative to the corpus root.
    num_samples:
        Sample count (``stop - start``).
    content_hash:
        :func:`dataset_content_hash` of the shard's dataset.
    seed:
        The design-level vector seed the shard was derived from.
    status:
        ``"complete"`` — incomplete shards are never recorded.
    solver:
        Which transient strategy actually labelled the shard: ``"full"``,
        ``"rom"``, or ``"rom+fallback"`` when the ROM error gate rejected
        the shard and the full-order solver relabelled it (see
        ``docs/solvers.md``).  Omitted from the serialised record at the
        ``"full"`` default so pre-seam manifests round-trip unchanged.
    """

    label: str
    index: int
    start: int
    stop: int
    path: str
    num_samples: int
    content_hash: str
    seed: int
    status: str = "complete"
    solver: str = "full"

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        payload = asdict(self)
        if self.solver == "full":
            del payload["solver"]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(**payload)


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid exists (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


class CorpusManifest:
    """In-memory view of a corpus manifest (see module docstring).

    Parameters
    ----------
    spec:
        The corpus spec the manifest describes.
    git_rev:
        Revision stamp; resolved via :func:`git_revision` when omitted.
    """

    def __init__(self, spec: CorpusSpec, git_rev: Optional[str] = None):
        self.spec = spec
        self.config_hash = spec.config_hash()
        self.git_rev = git_rev if git_rev is not None else git_revision()
        self._records: dict[tuple[str, int], ShardRecord] = {}
        self._quarantined: dict[tuple[str, int, str], dict] = {}

    @property
    def records(self) -> list[ShardRecord]:
        """All shard records, ordered by (label, shard index)."""
        return [self._records[key] for key in sorted(self._records)]

    def get(self, label: str, index: int) -> Optional[ShardRecord]:
        """The record of one shard, or ``None`` when not yet recorded."""
        return self._records.get((label, index))

    def is_complete(self, label: str, index: int) -> bool:
        """Whether one shard is recorded as complete."""
        record = self.get(label, index)
        return record is not None and record.status == "complete"

    def add(self, record: ShardRecord) -> None:
        """Insert or replace one shard record."""
        self._records[(record.label, record.index)] = record

    def add_quarantine(self, entry: dict) -> None:
        """Record one quarantined vector.

        ``entry`` carries ``label`` / ``index`` (the shard) plus ``key`` /
        ``reason`` / ``detail`` (see
        :class:`~repro.resilience.quarantine.QuarantineRecord`).  Entries are
        deduplicated by ``(label, index, key)``, so merging two runs'
        manifests cannot double-count a vector.
        """
        self._quarantined[(entry["label"], int(entry["index"]), entry["key"])] = dict(entry)

    @property
    def quarantined(self) -> list[dict]:
        """All quarantine entries, ordered by (label, shard index, vector)."""
        return [self._quarantined[key] for key in sorted(self._quarantined)]

    def completed_designs(self) -> list[str]:
        """Labels whose every shard is recorded as complete."""
        labels = []
        for design in self.spec.designs:
            if all(self.is_complete(design.label, i) for i in range(design.num_shards)):
                labels.append(design.label)
        return labels

    def to_dict(self) -> dict:
        """JSON-serialisable representation of the whole manifest."""
        # "quarantined" is always present (even when empty) so a clean run's
        # manifest and a faulted-then-recovered run's manifest serialise to
        # the same bytes whenever their contents agree — the byte-identity
        # contract the chaos tests diff on.
        return {
            "version": MANIFEST_VERSION,
            "config_hash": self.config_hash,
            "git_rev": self.git_rev,
            "spec": self.spec.to_dict(),
            "shards": [record.to_dict() for record in self.records],
            "quarantined": self.quarantined,
        }

    def save(self, path: Union[str, Path]) -> None:
        """Persist the manifest atomically as pretty-printed JSON."""
        atomic_write_text(Path(path), json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CorpusManifest":
        """Load a manifest written by :meth:`save`.

        Raises
        ------
        ValueError
            When the manifest schema version is unknown or its
            ``quarantined`` section is missing.
        """
        payload = json.loads(Path(path).read_text())
        if payload.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported manifest version {payload.get('version')!r} in {path}"
            )
        manifest = cls(CorpusSpec.from_dict(payload["spec"]), git_rev=payload["git_rev"])
        if manifest.config_hash != payload["config_hash"]:
            # The stored hash is authoritative for corpora written by other
            # code revisions; keep it so mismatches are detected, not hidden.
            manifest.config_hash = payload["config_hash"]
        for entry in payload.get("shards", []):
            manifest.add(ShardRecord.from_dict(entry))
        for entry in require_key(payload, "quarantined", f"manifest {path}"):
            manifest.add_quarantine(entry)
        return manifest


class ShardStore:
    """Filesystem operations of one corpus root.

    All writes are atomic; shard-level ``O_EXCL`` claim files fence
    concurrent generation runs (two workers can never both write the same
    shard — the loser skips it and moves on).

    Parameters
    ----------
    root:
        The corpus root directory (created on demand).
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    @property
    def manifest_path(self) -> Path:
        """Path of the corpus manifest."""
        return self.root / MANIFEST_NAME

    def shard_relpath(self, label: str, index: int) -> str:
        """Root-relative path of one shard file."""
        return f"{label}/shard-{index:05d}.npz"

    def shard_path(self, label: str, index: int) -> Path:
        """Absolute path of one shard file."""
        return self.root / self.shard_relpath(label, index)

    def _claim_path(self, label: str, index: int) -> Path:
        return self.root / f"{label}/shard-{index:05d}.claim"

    def claim(self, label: str, index: int) -> bool:
        """Try to claim one shard for writing.

        Creates ``<shard>.claim`` with ``O_CREAT | O_EXCL`` — the atomic
        test-and-set the filesystem gives us — and records the owner's pid
        inside.  A claim is advisory and short-lived: the writer releases it
        as soon as the shard (or the failure) is known.  Claims whose owner
        process has died are removed by :meth:`clear_stale_claims` at the
        start of the next run; claims of live processes are honoured, which
        is what fences two concurrent runs on one corpus root.

        Returns
        -------
        ``True`` when this caller owns the shard, ``False`` when another
        live writer already claimed it.
        """
        path = self._claim_path(label, index)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            descriptor = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(descriptor, "w") as handle:
            handle.write(str(os.getpid()))
        return True

    def release(self, label: str, index: int) -> None:
        """Release a claim taken with :meth:`claim` (idempotent)."""
        try:
            self._claim_path(label, index).unlink()
        except FileNotFoundError:
            pass

    def clear_stale_claims(self) -> int:
        """Remove claim files whose owning process is dead (crash recovery).

        A claim records its writer's pid; claims of still-running processes
        are left alone so that concurrent generation runs on the same root
        keep their per-shard fencing.  Unreadable claims (empty/corrupt —
        the writer died between ``open`` and ``write``) count as stale.

        Returns
        -------
        Number of claim files removed.
        """
        removed = 0
        for path in self.root.glob("*/shard-*.claim"):
            try:
                owner = int(path.read_text().strip())
            except (OSError, ValueError):
                owner = None
            if owner is not None and _pid_alive(owner):
                continue
            path.unlink(missing_ok=True)
            removed += 1
        if removed:
            _LOG.info("removed %d stale shard claims under %s", removed, self.root)
        return removed

    def write_shard(self, label: str, index: int, dataset: NoiseDataset) -> str:
        """Atomically write one shard and return its content hash.

        The dataset is stored as an uncompressed ``.npz``
        (:meth:`~repro.workloads.dataset.NoiseDataset.save` with
        ``compress=False``) through
        :func:`~repro.io.atomic.atomic_replace` (fsync + rename), so readers
        can never observe a torn shard.  The
        :meth:`~repro.faults.FaultInjector.during_shard_write` seam fires
        between the temp-file write and the rename — the window a SIGKILL
        tears in a non-atomic writer.

        Returns
        -------
        The shard's :func:`dataset_content_hash`.
        """
        path = self.shard_path(label, index)
        with atomic_replace(path, suffix=".npz") as temporary:
            dataset.save(temporary, compress=False)
            faults.active().during_shard_write(label, index, temporary)
        return dataset_content_hash(dataset)

    def read_shard(
        self, label: str, index: int, expected_hash: Optional[str] = None
    ) -> NoiseDataset:
        """Load one shard back as a :class:`NoiseDataset`.

        Raises
        ------
        repro.resilience.CorruptShardError
            When the file is unreadable (truncated or bit-flipped archive);
            ``expected_hash`` — the manifest's content hash, when the caller
            has it — is named in the error.
        """
        path = self.shard_path(label, index)
        try:
            return NoiseDataset.load(path)
        except Exception as error:
            raise CorruptShardError(
                path, expected_hash=expected_hash, reason=repr(error)
            ) from error

    def has_shard(self, label: str, index: int) -> bool:
        """Whether the shard file exists on disk."""
        return self.shard_path(label, index).exists()

    def load_manifest(self) -> Optional[CorpusManifest]:
        """Load the manifest, or ``None`` when the corpus is untouched."""
        if not self.manifest_path.exists():
            return None
        return CorpusManifest.load(self.manifest_path)

    def save_manifest(self, manifest: CorpusManifest) -> None:
        """Persist the manifest atomically."""
        self.root.mkdir(parents=True, exist_ok=True)
        manifest.save(self.manifest_path)


def load_design_dataset(
    root: Union[str, Path],
    label: str,
    verify: bool = False,
) -> NoiseDataset:
    """Load one design's full corpus from its shards.

    Parameters
    ----------
    root:
        Corpus root directory (must contain a manifest).
    label:
        Design label within the corpus.
    verify:
        Recompute every shard's content hash and compare against the
        manifest (slower; catches on-disk corruption).

    Returns
    -------
    The merged :class:`NoiseDataset`, samples ordered by global vector
    index.

    Raises
    ------
    FileNotFoundError
        When the corpus has no manifest.
    repro.resilience.CorruptShardError
        When a shard file is unreadable, or (with ``verify``) its recomputed
        content hash mismatches the manifest.  The error names the shard
        path and both hashes.  (Subclasses :class:`ValueError`.)
    ValueError
        When the design is unknown or shards are missing/incomplete.
    """
    store = ShardStore(root)
    manifest = store.load_manifest()
    if manifest is None:
        raise FileNotFoundError(f"no corpus manifest under {store.root}")
    design = manifest.spec.design(label)
    shards = []
    for index in range(design.num_shards):
        if not manifest.is_complete(label, index) or not store.has_shard(label, index):
            raise ValueError(
                f"shard {index} of design {label!r} is incomplete; "
                "re-run generate_corpus on this root to finish the corpus"
            )
        expected = manifest.get(label, index).content_hash
        shard = store.read_shard(label, index, expected_hash=expected)
        if verify:
            actual = dataset_content_hash(shard)
            if actual != expected:
                raise CorruptShardError(
                    store.shard_path(label, index),
                    expected_hash=expected,
                    actual_hash=actual,
                )
        shards.append(shard)
    return merge_datasets(shards)


def load_corpus(
    root: Union[str, Path], verify: bool = False
) -> dict[str, NoiseDataset]:
    """Load every design of a corpus.

    All designs of the spec must be complete — a partially generated corpus
    raises ``ValueError`` naming the first incomplete shard (finish it with
    :func:`~repro.datagen.engine.generate_corpus` on the same root).  Use
    :meth:`CorpusManifest.completed_designs` plus
    :func:`load_design_dataset` to read just the finished designs of a
    corpus that is still being generated.

    Parameters
    ----------
    root:
        Corpus root directory.
    verify:
        Forwarded to :func:`load_design_dataset`.

    Returns
    -------
    Mapping of design label to merged dataset, in spec order.
    """
    store = ShardStore(root)
    manifest = store.load_manifest()
    if manifest is None:
        raise FileNotFoundError(f"no corpus manifest under {Path(root)}")
    return {
        design.label: load_design_dataset(root, design.label, verify=verify)
        for design in manifest.spec.designs
    }
