"""Client-side distributor churn handling: overlay heal + re-replication."""

import os

import pytest

from repro.core.errors import DHTError
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.dht.client_distributor import ClientSideDistributor
from repro.providers.failures import FailureInjector
from repro.providers.registry import ProviderSpec, build_simulated_fleet


@pytest.fixture(params=["chord", "can"])
def world(request):
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(10)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=701)
    dist = ClientSideDistributor(
        registry,
        protocol=request.param,
        replicas=2,
        chunk_policy=ChunkSizePolicy.uniform(1024),
        seed=702,
    )
    injector = FailureInjector(providers, clock, seed=703)
    payload = os.urandom(16 * 1024)
    dist.upload_file("f", payload, PrivacyLevel.PRIVATE)
    return registry, providers, injector, dist, payload


def _providers_used(dist):
    return {name for r in dist.chunk_table.values() for name in r.providers}


def test_failure_heals_overlay_and_rereplicates(world):
    registry, providers, injector, dist, payload = world
    victim = sorted(_providers_used(dist))[0]
    injector.kill_permanently(victim)

    recreated = dist.handle_provider_failure(victim)
    assert recreated > 0
    # No record references the dead provider any more.
    assert victim not in _providers_used(dist)
    # Replica count is restored everywhere.
    assert all(len(set(r.providers)) == 2 for r in dist.chunk_table.values())
    # The overlay no longer contains the victim at any privacy level.
    for overlay in dist.overlays.values():
        assert victim not in overlay.node_names
    # And the file reads back perfectly.
    assert dist.get_file("f") == payload


def test_survives_second_failure_after_repair(world):
    registry, providers, injector, dist, payload = world
    victim1 = sorted(_providers_used(dist))[0]
    injector.kill_permanently(victim1)
    dist.handle_provider_failure(victim1)

    victim2 = sorted(_providers_used(dist))[0]
    injector.take_down(victim2)
    # Without repair, the replica still serves the read.
    assert dist.get_file("f") == payload


def test_no_orphans_left_behind(world):
    registry, providers, injector, dist, payload = world
    victim = sorted(_providers_used(dist))[0]
    injector.kill_permanently(victim)
    dist.handle_provider_failure(victim)
    # Every stored object is referenced by the local chunk table.
    expected = {
        (name, f"{r.entry.virtual_id}.{i}")
        for r in dist.chunk_table.values()
        for i, name in enumerate(r.providers)
    }
    actual = {
        (entry.name, key)
        for entry in registry.all()
        if getattr(entry.provider, "available", True)
        for key in entry.provider.backend.keys()  # type: ignore[attr-defined]
    }
    assert actual == expected


def test_total_replica_loss_surfaces_as_error():
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(6)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=704)
    dist = ClientSideDistributor(
        registry, protocol="chord", replicas=1,
        chunk_policy=ChunkSizePolicy.uniform(1024), seed=705,
    )
    injector = FailureInjector(providers, clock, seed=706)
    dist.upload_file("f", b"x" * 512, PrivacyLevel.PRIVATE)
    only = dist.chunk_table[("f", 0)].providers[0]
    injector.kill_permanently(only)
    recreated = dist.handle_provider_failure(only)
    assert recreated == 0
    with pytest.raises(DHTError):
        dist.get_chunk("f", 0)
