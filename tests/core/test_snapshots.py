"""SnapshotManager unit behaviour.  (A snapshot is deleted with its
chunk's shards, in the distributor's delete batches.)"""

from __future__ import annotations

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import BlobNotFoundError, ProviderUnavailableError
from repro.core.placement import PlacementPolicy
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.core.rebalance import decommission_provider
from repro.core.snapshots import SnapshotManager
from repro.health.monitor import HealthMonitor, HealthState
from repro.obs.metrics import MetricsRegistry
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry


@pytest.fixture
def manager(registry):
    return SnapshotManager(registry, PlacementPolicy())


def test_write_read_cycle(manager):
    name = manager.choose_provider(PrivacyLevel.PUBLIC, exclude=set())
    key = manager.write(name, 7, b"pre-state")
    assert key == "S7"
    assert manager.read(name, 7) == b"pre-state"
    manager.registry.get(name).provider.delete(key)
    with pytest.raises(BlobNotFoundError):
        manager.read(name, 7)


def test_choose_provider_prefers_outside_stripe(manager, registry):
    everyone = set(registry.names())
    keep_out = set(list(everyone)[:-1])
    name = manager.choose_provider(PrivacyLevel.PUBLIC, exclude=keep_out)
    assert name not in keep_out
    # With every provider excluded, it still picks one (inside the stripe).
    assert manager.choose_provider(PrivacyLevel.PUBLIC, exclude=everyone)


class Dark(InMemoryProvider):
    """An in-memory provider that refuses every request while ``down``."""

    down = False

    def _refuse(self) -> None:
        if self.down:
            raise ProviderUnavailableError(f"{self.name} is down")

    def put(self, key, data, checksum=None):
        self._refuse()
        super().put(key, data, checksum=checksum)

    def get_many(self, keys):
        self._refuse()
        return super().get_many(keys)

    def head(self, key):
        self._refuse()
        return super().head(key)


def dark_fleet(count: int = 6):
    registry = ProviderRegistry()
    providers = [Dark(f"P{i}") for i in range(count)]
    for provider in providers:
        registry.register(provider, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    d = CloudDataDistributor(
        registry, codec="raid5@4", seed=3, metrics=MetricsRegistry(),
        health=HealthMonitor(registry, probe_min_interval=3600, metrics=MetricsRegistry()),
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return d, providers


def test_an_update_keeps_its_snapshot_off_a_provider_that_is_down():
    # A DOWN provider takes no new shards, so its load is the lowest: a
    # snapshot home picked by (cost, load) without the health verdict
    # lands there every time, and the update rolls back.
    d, providers = dark_fleet()
    data = bytes(range(256)) * 64
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
    providers[5].down = True
    d.health.record_failure("P5", count=d.health.down_after)
    assert d.health.state("P5") is HealthState.DOWN
    for serial in range(4):
        d.update_chunk("C", "pw", "f", serial, bytes([serial]) * 1024)
        entry = d.chunk_table.get(d.client_table.get("C").ref_for_chunk("f", serial).chunk_index)
        assert d.provider_table.get(entry.snapshot_index).name != "P5"
        assert "P5" not in d._members(entry)
        assert d.get_snapshot("C", "pw", "f", serial) == data[serial * 1024 : (serial + 1) * 1024]
    assert d.get_chunk("C", "pw", "f", 3) == b"\x03" * 1024


def test_a_drain_moves_a_snapshot_off_to_a_provider_that_is_up():
    # Seven providers: a drained shard still has somewhere to go outside
    # its stripe, its snapshot's home and the provider that is down.
    d, providers = dark_fleet(7)
    d.upload_file("C", "pw", "f", bytes(4096), PrivacyLevel.PRIVATE)
    d.update_chunks("C", "pw", "f", {serial: b"\x01" * 1024 for serial in range(4)})
    leaving = "P0"
    (entry,) = [e for _, e in d.chunk_table if e.snapshot_index == 0]
    # The home a pick blind to health gives the snapshot leaving P0 is down.
    down = d.snapshots.choose_provider(
        PrivacyLevel.PRIVATE, exclude={leaving, *d._members(entry)},
        load=d.provider_loads(),
    )
    providers[int(down[1:])].down = True
    d.health.record_failure(down, count=d.health.down_after)
    decommission_provider(d, leaving)
    for _, entry in d.chunk_table:
        assert d.provider_table.get(entry.snapshot_index).name not in (leaving, down)
    for serial in range(4):
        assert d.get_snapshot("C", "pw", "f", serial) == bytes(1024)
