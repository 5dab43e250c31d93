"""Fixtures for the gateway suite.

Everything here is built for *deterministic* concurrency testing: gateways
get a private metrics registry (so counter assertions never see another
test's traffic), a tiny restart backoff (so crash/restart scripts finish in
milliseconds), and the shared :class:`GatedPredictor` /
:class:`FlakyPredictor` helpers from the top-level conftest are installed
into a shard via hot swap rather than by racing the worker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.features.extraction import extract_vector_features_batch
import repro.gateway.gateway as gateway_module
from repro.gateway import ScreeningGateway
from repro.obs.metrics import MetricsRegistry
from repro.serving import PredictorRegistry


@pytest.fixture(scope="module")
def tiny_features(tiny_traces, tiny_design, tiny_predictor):
    """Pre-extracted features for the tiny traces (matches the predictor)."""
    return extract_vector_features_batch(
        tiny_traces,
        tiny_design,
        compression_rate=tiny_predictor.compression_rate,
    )


@pytest.fixture(scope="module")
def expected_results(tiny_features, tiny_predictor):
    """Direct (no gateway) predictions for ``tiny_features``, as ground truth."""
    return tiny_predictor.predict_batch(tiny_features)


@pytest.fixture()
def gateway_root(tmp_path, tiny_design, tiny_predictor):
    """A checkpoint root with the tiny design's predictor registered."""
    root = tmp_path / "checkpoints"
    PredictorRegistry(root).register(tiny_design.name, tiny_predictor)
    return root


@pytest.fixture()
def second_design_name(tiny_design, gateway_root, tiny_predictor):
    """A second registered design name that hashes to the *other* shard.

    Shard routing is a fixed hash of the name, so we can search candidate
    names for one that a two-shard gateway assigns differently from
    ``tiny_design`` — giving the sharding tests a guaranteed cross-shard
    pair.
    """
    with ScreeningGateway(gateway_root, num_shards=2, metrics=MetricsRegistry()) as probe:
        home = probe.shard_for(tiny_design.name)
        landed = {
            candidate: probe.shard_for(candidate)
            for candidate in (f"{tiny_design.name}-{suffix}" for suffix in "bcdefgh")
        }
    for candidate, shard in landed.items():
        if shard != home:
            PredictorRegistry(gateway_root).register(candidate, tiny_predictor)
            return candidate
    raise AssertionError("no candidate name landed on the other shard")


@pytest.fixture()
def make_gateway(gateway_root, tiny_design, monkeypatch):
    """Factory for test gateways; closes every gateway it made on teardown.

    Defaults tuned for the suite: two shards, a private metrics registry,
    millisecond restart backoff (the gateway's backoff constants are
    patched for the test), and a design factory that resolves any
    registered name to the tiny design (all test designs share its grid).
    """
    monkeypatch.setattr(gateway_module, "BACKOFF_BASE", 0.01)
    monkeypatch.setattr(gateway_module, "BACKOFF_CAP", 0.08)
    created: list[ScreeningGateway] = []

    def make(**kwargs) -> ScreeningGateway:
        kwargs.setdefault("num_shards", 2)
        kwargs.setdefault("metrics", MetricsRegistry())
        kwargs.setdefault("design_factory", lambda name: tiny_design)
        gateway = ScreeningGateway(gateway_root, **kwargs)
        created.append(gateway)
        return gateway

    yield make
    for gateway in created:
        gateway.close(timeout=10.0)


@pytest.fixture(scope="session")
def assert_noise_close():
    """Asserter: two predictions came from the same checkpoint and features."""

    def check(result, expected) -> None:
        assert np.allclose(result.noise_map, expected.noise_map)
        assert np.isclose(result.worst_noise, expected.worst_noise)

    return check
