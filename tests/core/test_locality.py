"""Locality-aware placement (Section VII-E's multinational optimization)."""

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.placement import PlacementPolicy
from repro.core.privacy import ChunkSizePolicy, PrivacyLevel
from repro.providers.registry import (
    build_simulated_fleet,
    regional_fleet_specs,
    regional_latency,
)


@pytest.fixture
def regional_world():
    return build_simulated_fleet(regional_fleet_specs(per_region=3), seed=61)


def test_regional_latency_ordering():
    assert regional_latency("local").rtt_s < regional_latency("near").rtt_s
    assert regional_latency("near").rtt_s < regional_latency("far").rtt_s
    with pytest.raises(ValueError):
        regional_latency("moon")


def test_regional_fleet_specs_validation():
    with pytest.raises(ValueError):
        regional_fleet_specs(0)


def test_preferred_region_wins(regional_world):
    registry, _, _ = regional_world
    policy = PlacementPolicy(preferred_regions=("local",), seed=1)
    group = policy.stripe_group(registry, PrivacyLevel.PRIVATE, width=3)
    assert all(name.startswith("local-") for name in group)


def test_region_preference_order(regional_world):
    registry, _, _ = regional_world
    policy = PlacementPolicy(preferred_regions=("near", "local"), seed=1)
    group = policy.stripe_group(registry, PrivacyLevel.PRIVATE, width=4)
    # 3 near providers first, then spill into local before far.
    assert sum(name.startswith("near-") for name in group) == 3
    assert sum(name.startswith("local-") for name in group) == 1


def test_no_preference_ignores_region(regional_world):
    registry, _, _ = regional_world
    policy = PlacementPolicy(seed=2)
    groups = {
        tuple(sorted(policy.stripe_group(registry, PrivacyLevel.PRIVATE, width=4)))
        for _ in range(20)
    }
    regions = {name.split("-")[0] for group in groups for name in group}
    assert len(regions) > 1  # spread across regions when indifferent


def test_local_placement_cuts_read_latency(regional_world):
    """The paper's future-work claim: locality reduces access overhead."""
    registry, _, clock = regional_world

    def read_time(policy, tag):
        d = CloudDataDistributor(
            registry,
            chunk_policy=ChunkSizePolicy.uniform(4096),
            placement=policy,
            codec="raid5@3",
            seed=62,
        )
        d.register_client("C")
        d.add_password("C", "pw", PrivacyLevel.PRIVATE)
        payload = b"r" * (32 * 1024)
        d.upload_file("C", "pw", tag, payload, PrivacyLevel.PRIVATE)
        t0 = clock.now
        assert d.get_file("C", "pw", tag) == payload
        return clock.now - t0

    local = read_time(PlacementPolicy(preferred_regions=("local",), seed=63), "a")
    spread = read_time(PlacementPolicy(seed=63), "b")
    assert local < spread


def test_region_survives_registry_roundtrip(regional_world):
    registry, _, _ = regional_world
    assert registry.get("far-0").region == "far"
    assert registry.get("local-2").region == "local"
