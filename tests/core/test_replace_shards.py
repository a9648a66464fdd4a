"""A displaced shard moves one way.

Write failover, ``repair_file``, the scrubber, ``decommission_provider``
and ``rebalance`` each give a shard a new home through
``CloudDataDistributor._replace_shards`` and nothing else: besides the
write engine's window transfers (an upload's ``put_many`` a provider),
every store is a one-shard ``put_many`` made inside a call of that one
function -- each booked here by where it was made, never timed.
"""

import os

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ProviderUnavailableError
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.core.rebalance import admit_provider, decommission_provider, rebalance
from repro.health.scrubber import Scrubber
from repro.obs.metrics import MetricsRegistry
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry

DATA = os.urandom(8 * 512)


class World:
    """Six in-memory providers under one distributor, with every store
    booked as ``(where, method, shards)``: *where* is ``"move"`` inside
    ``_replace_shards``, ``"window"`` inside ``_transfer_window`` and
    ``"stray"`` anywhere else."""

    def __init__(self, monkeypatch) -> None:
        self.providers = [InMemoryProvider(f"N{i}") for i in range(6)]
        registry = ProviderRegistry()
        for provider in self.providers:
            registry.register(provider, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        self.d = CloudDataDistributor(
            registry, chunk_policy=ChunkSizePolicy.uniform(512),
            codec="raid5@4", seed=5, metrics=MetricsRegistry(),
        )
        self.d.register_client("C")
        self.d.add_password("C", "pw", PrivacyLevel.PRIVATE)
        self.calls = 0  # of _replace_shards
        self.depth = {"move": 0, "window": 0}
        self.stores: list[tuple[str, str, int]] = []
        for where, routine in (("move", "_replace_shards"), ("window", "_transfer_window")):
            self.count(monkeypatch, where, routine)
        for provider in self.providers:
            self.watch(provider)

    def count(self, monkeypatch, where: str, routine: str) -> None:
        original = getattr(CloudDataDistributor, routine)

        def counted(d, *args, **kwargs):
            self.calls += where == "move"
            self.depth[where] += 1
            try:
                return original(d, *args, **kwargs)
            finally:
                self.depth[where] -= 1

        monkeypatch.setattr(CloudDataDistributor, routine, counted)

    def where(self) -> str:
        return next((where for where, depth in self.depth.items() if depth), "stray")

    def watch(self, provider) -> None:
        # The base ``put_many`` loops over ``put``: go around the watch, so
        # a batch is booked once.
        put = provider.put

        def batch(items, checksums=None):
            self.stores.append((self.where(), "put_many", len(items)))
            return [
                put(key, data, checksum=checksum)
                for (key, data), checksum in zip(items, checksums or [None] * len(items))
            ]

        def single(key, data, checksum=None):
            self.stores.append((self.where(), "put", 1))
            return put(key, data, checksum=checksum)

        provider.put_many, provider.put = batch, single

    def upload(self, name="f") -> None:
        self.d.upload_file("C", "pw", name, DATA, PrivacyLevel.PRIVATE)

    def drop_a_shard(self) -> None:
        holder = next(p for p in self.providers if p.keys())
        holder.drop_blob(holder.keys()[0])

    def moved_through_the_routine(self) -> bool:
        """At least one shard moved, and every store but the window
        transfers' was one shard stored inside the routine."""
        stores, self.stores = self.stores, []
        calls, self.calls = self.calls, 0
        moved = [store for store in stores if store[0] != "window"]
        return bool(moved) and set(moved) == {("move", "put_many", 1)} and calls > 0


@pytest.fixture
def world(monkeypatch):
    return World(monkeypatch)


def test_an_upload_moves_nothing(world):
    world.upload()
    assert world.calls == 0 and {where for where, _, _ in world.stores} == {"window"}
    assert world.d.get_file("C", "pw", "f") == DATA


def test_write_failover(world):
    victim = world.providers[0]

    def refuse(items, checksums=None):
        return [ProviderUnavailableError(f"{victim.name} refuses")] * len(items)

    victim.put_many = refuse
    world.upload()
    assert world.d.metrics.value("distributor_failover_shards_total") >= 1
    assert world.moved_through_the_routine()
    assert world.d.get_file("C", "pw", "f") == DATA


def test_repair_file(world):
    world.upload()
    world.drop_a_shard()
    assert world.d.repair_file("C", "pw", "f").shards_rebuilt == 1
    assert world.moved_through_the_routine()


def test_scrubber(world):
    world.upload()
    world.drop_a_shard()
    assert Scrubber(world.d).run_once().shards_rebuilt == 1
    assert world.moved_through_the_routine()


def test_decommission_provider(world):
    world.upload()
    victim = max(world.d.provider_loads(), key=world.d.provider_loads().get)
    assert decommission_provider(world.d, victim).shards_moved > 0
    assert world.moved_through_the_routine()
    assert world.d.get_file("C", "pw", "f") == DATA


def test_rebalance(world):
    world.upload()
    newcomer = InMemoryProvider("Fresh")
    world.watch(newcomer)
    admit_provider(world.d, newcomer, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    assert rebalance(world.d).shards_moved > 0
    assert world.moved_through_the_routine()
    assert world.d.get_file("C", "pw", "f") == DATA
