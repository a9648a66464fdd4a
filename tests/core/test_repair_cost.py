"""What a repair and a scrub cycle pay per provider, by count, not by clock.

Repair, the scrubber and every shard move read through the read engine's
batches: one ``get_many`` a provider a round, each answer checked against
the digest recorded at write time, and a moved or rebuilt shard stored by
a one-shard ``put_many``.  No single ``get``, ``put`` or ``head`` -- a
``head`` answers the checksum the provider recorded, so it cannot see rot
the provider reports.  The file is the read-path cost tests' PL-3 one:
2,048 1 KiB chunks under raid5@4 on six in-memory providers.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.core.distributor import REMOVE_WINDOW_CHUNKS, CloudDataDistributor
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.health.monitor import PROBE_KEY
from repro.health.scrubber import Scrubber
from repro.obs.metrics import MetricsRegistry
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry

CHUNKS = 2048


class Counting(InMemoryProvider):
    """Counts the calls made of each provider method; a batch is one call
    (``put_many`` does not go through ``put``), and a ``head`` of the
    health probe's key is left out."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.calls: Counter[str] = Counter()

    def get(self, key):
        self.calls["get"] += 1
        return super().get(key)

    def get_many(self, keys):
        self.calls["get_many"] += 1
        return super().get_many(keys)

    def put(self, key, data, checksum=None):
        self.calls["put"] += 1
        super().put(key, data, checksum=checksum)

    def put_many(self, items, checksums=None):
        self.calls["put_many"] += 1
        self.calls["put_many items"] += len(items)
        for (key, data), checksum in zip(items, checksums or [None] * len(items)):
            InMemoryProvider.put(self, key, data, checksum=checksum)
        return [None] * len(items)

    def head(self, key):
        self.calls["head"] += key != PROBE_KEY
        return super().head(key)


@pytest.fixture
def world() -> tuple[CloudDataDistributor, list[Counting], bytes]:
    """The PL-3 file (10% misleading bytes), its counts zeroed."""
    providers = [Counting(f"P{i}") for i in range(6)]
    registry = ProviderRegistry()
    for provider in providers:
        registry.register(provider, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    d = CloudDataDistributor(
        registry, codec="raid5@4", seed=13, metrics=MetricsRegistry()
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    data = os.urandom(CHUNKS * 1024)
    receipt = d.upload_file(
        "C", "pw", "f", data, PrivacyLevel.PRIVATE, misleading_fraction=0.1
    )
    assert receipt.chunk_count == CHUNKS
    for provider in providers:
        provider.calls.clear()
    return d, providers, data


def single_calls(providers) -> int:
    return sum(p.calls["get"] + p.calls["put"] + p.calls["head"] for p in providers)


def test_a_healthy_repair_is_one_batched_get_a_provider(world):
    d, providers, data = world
    report = d.repair_file("C", "pw", "f")
    assert (report.chunks_checked, report.shards_missing) == (CHUNKS, 0)
    assert single_calls(providers) == 0
    assert [p.calls for p in providers] == [Counter(get_many=1)] * len(providers)


def test_a_repair_rebuilds_a_lost_provider_from_one_batched_round(world):
    d, providers, data = world
    lost = providers[2]
    dropped = lost.keys()
    for key in dropped:
        lost.drop_blob(key)
    report = d.repair_file("C", "pw", "f")
    assert report.shards_missing == report.shards_rebuilt == len(dropped)
    assert report.chunks_unrecoverable == 0
    assert single_calls(providers) == 0
    # One round reads every member; each rebuilt shard is one one-shard put.
    assert all(p.calls["get_many"] == 1 for p in providers)
    assert sum(p.calls["put_many"] for p in providers) == len(dropped)
    assert sum(p.calls["put_many items"] for p in providers) == len(dropped)
    assert lost.keys() == []
    assert d.get_file("C", "pw", "f") == data
    assert d.repair_file("C", "pw", "f").shards_missing == 0


def test_a_scrub_cycle_reads_every_shard_once_and_heads_none(world):
    d, providers, data = world
    report = Scrubber(d, metrics=MetricsRegistry()).run_once()
    shards = sum(len(p.keys()) for p in providers)
    assert (report.chunks_checked, report.shards_checked) == (CHUNKS, shards)
    assert report.shards_missing == 0
    assert single_calls(providers) == 0
    # One batched get a provider a window of rows.
    windows = -(-CHUNKS // REMOVE_WINDOW_CHUNKS)
    assert [p.calls for p in providers] == [Counter(get_many=windows)] * len(providers)


def test_a_repair_deletes_no_twin_its_read_found_missing(world, monkeypatch):
    """A rebuilt shard that moves leaves its old twin to be deleted --
    unless the read that condemned it answered not-found: there is no twin.
    A provider whose blobs were dropped is sent no delete (1,365 before,
    one a rebuilt shard); a corrupt twin exists and is still deleted."""
    d, providers, data = world
    lost, rotten = providers[2], providers[4]
    dropped = lost.keys()
    for key in dropped:
        lost.drop_blob(key)
    rotten.corrupt_blob(rotten.keys()[0])
    deleted: Counter[str] = Counter()
    for provider in (lost, rotten):
        delete = provider.delete

        def counted(key, _name=provider.name, _delete=delete):
            deleted[_name] += 1
            return _delete(key)

        monkeypatch.setattr(provider, "delete", counted)
    report = d.repair_file("C", "pw", "f")
    assert report.shards_missing == report.shards_rebuilt == len(dropped) + 1
    assert deleted == {rotten.name: 1}
    assert not set(lost.keys()) & set(dropped)
    assert d.get_file("C", "pw", "f") == data
