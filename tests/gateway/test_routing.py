"""Shard routing: a fixed SHA-256 hash of the design name, modulo the shards."""

from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.gateway import _shard_of

names = st.text(min_size=1, max_size=40)


def _reference(name: str, num_shards: int) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=names, num_shards=st.integers(1, 64))
def test_shard_is_in_range_and_matches_the_sha256_reference(name, num_shards):
    shard = _shard_of(name, num_shards)
    assert shard in range(num_shards)
    assert shard == _reference(name, num_shards)
    assert _shard_of(name, 1) == 0


def test_every_shard_gets_a_reasonable_share():
    keys = [f"design-{i}@{scale:.1f}" for i in range(250) for scale in (0.1, 0.5)]
    counts = [0] * 4
    for key in keys:
        counts[_shard_of(key, 4)] += 1
    for shard, count in enumerate(counts):
        share = count / len(keys)
        assert 0.15 <= share <= 0.35, f"shard {shard} owns {share:.0%} of keys"


def test_gateway_routes_through_the_shard_function(make_gateway):
    gateway = make_gateway(num_shards=3)
    for name in ("small", "small@8", "D1@0.5", "D4@0.2", "unit-test"):
        assert gateway.shard_for(name) == _reference(name, 3)
