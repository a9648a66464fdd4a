"""What a PL-3 read pays per shard below the window, by count, not by clock.

The paper's answer to mining is smaller chunks for more sensitive data, so
at PL-3 a read is thousands of 376-byte shards and whatever Python runs
per shard is most of its cost.  Two SHA-256 per shard stay -- the
backend's at-rest check and the distributor's end-to-end one are different
checks -- and both go through ``blob_checksum``.  What these tests pin:
both checks are alive (two hashes per shard that arrived, never fewer),
each provider hears one batched call per round, and the Python calls
around the checks are a fixed, small number per shard.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ProviderUnavailableError
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.obs.metrics import MetricsRegistry
from repro.providers import base
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry

K = 3  # raid5@4: three data members a stripe
#: Python calls per data shard a healthy read makes below ``get_file``,
#: beyond its fixed cost: 2.36 as landed (two ``blob_checksum``, the rest
#: per chunk over its three shards: the window is planned from the Chunk
#: Table's columns, its keys formatted in one call); 6.01 while a read
#: built a fetch job a chunk and a ``shard_key`` call a shard; 15.34 before
#: the fetch-and-check pass went per provider.
PER_SHARD = 2.4
#: The same for the second read after one provider lost its blobs (about
#: half the stripes short a member, their parity asked in a second round):
#: 2.36 as landed, no more than a healthy read -- only the failed members
#: are handled one by one, the window is decoded a slab at a time and the
#: lost provider's run of failures is one monitor call; 5.97 while every
#: answer was filed in a dict per stripe, each degraded stripe decoded on
#: its own and each failed shard reported to the monitor alone.
DEGRADED_PER_SHARD = 2.4


class Switchable(InMemoryProvider):
    """Counts batched reads and the shards they served; ``dark`` refuses
    every read whole, as an unreachable provider does."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.batches = 0
        self.served = 0
        self.dark = False

    def get_many(self, keys):
        self.batches += 1
        if self.dark:
            raise ProviderUnavailableError(f"{self.name} is dark")
        outcomes = super().get_many(keys)
        self.served += list(map(type, outcomes)).count(bytes)
        return outcomes


def stored(chunks: int) -> tuple[CloudDataDistributor, list[Switchable], bytes]:
    """A PL-3 file of *chunks* 1 KiB chunks (10% misleading bytes) on six
    in-memory providers under ``raid5@4``, read once to warm up."""
    providers = [Switchable(f"P{i}") for i in range(6)]
    registry = ProviderRegistry()
    for provider in providers:
        registry.register(provider, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    d = CloudDataDistributor(
        registry, codec="raid5@4", seed=13, metrics=MetricsRegistry()
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    data = os.urandom(chunks * 1024)
    receipt = d.upload_file(
        "C", "pw", "f", data, PrivacyLevel.PRIVATE, misleading_fraction=0.1
    )
    assert receipt.chunk_count == chunks
    assert d.get_file("C", "pw", "f") == data
    for provider in providers:
        provider.batches = provider.served = 0
    return d, providers, data


@pytest.fixture
def hashes(monkeypatch) -> list[int]:
    """The length of every shard hashed through ``blob_checksum``, in any
    module that imported it by name."""
    calls: list[int] = []
    original = base.blob_checksum

    def counted(data):
        calls.append(len(data))
        return original(data)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, "blob_checksum", None) is original
        ):
            monkeypatch.setattr(module, "blob_checksum", counted)
    return calls


def test_a_healthy_read_hashes_every_data_shard_twice_in_one_round(hashes):
    d, providers, data = stored(64)
    del hashes[:]  # the upload's and the warm-up read's
    assert d.get_file("C", "pw", "f") == data
    shards = 64 * K
    assert sum(p.served for p in providers) == shards
    assert len(hashes) == 2 * shards
    assert set(hashes) == {376}  # (1,024 + 102) bytes over three members
    # One round: one batched call to each provider holding a data member.
    holders = {
        name
        for ref in d.client_table.get("C").refs_for_file("f")
        for name in d._members(d.chunk_table.get(ref.chunk_index))[:K]
    }
    assert {p.name: p.batches for p in providers} == {
        p.name: int(p.name in holders) for p in providers
    }


def test_a_read_with_one_provider_dark_hashes_twice_what_arrived(hashes):
    d, providers, data = stored(64)
    del hashes[:]
    providers[2].dark = True
    assert d.get_file("C", "pw", "f") == data
    arrived = sum(p.served for p in providers)
    assert arrived == 64 * K  # each stripe: k members, parity standing in
    assert len(hashes) == 2 * arrived
    # Two rounds: data members, then the parity the dark one's stripes lack.
    assert providers[2].batches == 1
    assert max(p.batches for p in providers) == 2


def python_calls(fn) -> int:
    """Python-level calls (function entries and generator resumptions)
    *fn* makes on this thread."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def test_a_read_costs_a_fixed_number_of_python_calls_per_shard():
    def read(chunks: int) -> tuple[int, int]:
        d, _, data = stored(chunks)
        calls = python_calls(lambda: d.get_file("C", "pw", "f"))
        d.close()
        return calls, chunks * K

    (small, small_shards), (large, large_shards) = read(64), read(512)
    marginal = (large - small) / (large_shards - small_shards)
    assert marginal <= PER_SHARD, marginal
    # The rest is a fixed cost: no more per shard at 512 chunks than at 64.
    assert large / large_shards <= small / small_shards
    assert large / large_shards <= PER_SHARD + 0.25, large / large_shards


def test_a_degraded_read_costs_a_fixed_number_of_python_calls_per_shard():
    def read(chunks: int) -> tuple[int, int]:
        d, providers, data = stored(chunks)
        for key in list(providers[2].keys()):
            providers[2].delete(key)
        assert d.get_file("C", "pw", "f") == data  # the first read after the loss
        calls = python_calls(lambda: d.get_file("C", "pw", "f"))
        d.close()
        return calls, chunks * K

    (small, small_shards), (large, large_shards) = read(64), read(512)
    marginal = (large - small) / (large_shards - small_shards)
    assert marginal <= DEGRADED_PER_SHARD, marginal
