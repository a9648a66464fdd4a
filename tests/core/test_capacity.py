"""Provider capacity limits steering placement."""

import os

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import PlacementError
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.providers.registry import ProviderSpec, build_simulated_fleet


def build(capacities):
    specs = [
        ProviderSpec(
            f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP, capacity_bytes=cap
        )
        for i, cap in enumerate(capacities)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=601)
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(512), codec="raid5@4", seed=602
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return registry, providers, d


def test_capacity_validation():
    registry, _, _ = build([None] * 4)
    from repro.providers.memory import InMemoryProvider

    with pytest.raises(ValueError):
        registry.register(InMemoryProvider("X"), 3, 1, capacity_bytes=0)


def test_has_capacity_semantics():
    registry, providers, _ = build([1000, None, None, None, None])
    entry = registry.get("P0")
    assert entry.has_capacity_for(1000)
    providers[0].put("k", b"x" * 999)
    assert entry.has_capacity_for(1)
    assert not entry.has_capacity_for(2)
    assert registry.get("P1").has_capacity_for(10**12)  # unlimited


def test_full_provider_stops_receiving(capsys=None):
    # P0 has a tiny cap; everyone else unlimited.
    registry, providers, d = build([900, None, None, None, None, None])
    for i in range(8):
        d.upload_file("C", "pw", f"f{i}", os.urandom(2048), PrivacyLevel.PRIVATE)
    used = registry.get("P0").used_bytes()
    # It filled up (allowing the crossing shard) and then placement
    # steered around it.
    assert used <= 900 + 512
    others = [registry.get(f"P{i}").used_bytes() for i in range(1, 6)]
    assert min(others) > used - 512 or used < min(others)


def test_everything_full_raises():
    registry, providers, d = build([600] * 4)
    with pytest.raises(PlacementError):
        for i in range(10):
            d.upload_file("C", "pw", f"f{i}", os.urandom(4096), PrivacyLevel.PRIVATE)


def test_untracked_backend_is_not_capacity_limited():
    from repro.core.placement import PlacementPolicy
    from repro.providers.memory import InMemoryProvider
    from repro.providers.registry import ProviderRegistry

    registry = ProviderRegistry()
    registry.register(InMemoryProvider("raw"), 3, 1, capacity_bytes=10)
    entry = registry.get("raw")
    entry.provider.put("k", b"way more than ten bytes of data")
    # No meter -> capacity unenforceable -> treated as having room.
    assert entry.has_capacity_for(100)
    assert PlacementPolicy(seed=1).candidates(registry, 3)
