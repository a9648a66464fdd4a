"""Upload atomicity and availability-aware placement."""

import os

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import PlacementError, UnknownFileError
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.providers.failures import FailureInjector
from repro.providers.registry import ProviderSpec, build_simulated_fleet


def make_world(n=6):
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(n)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=91)
    injector = FailureInjector(providers, clock, seed=92)
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(512), codec="raid5@4", seed=93
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return registry, providers, injector, d


def test_placement_avoids_down_providers():
    registry, _, injector, d = make_world()
    injector.take_down("P0")
    d.upload_file("C", "pw", "f", os.urandom(4096), PrivacyLevel.PRIVATE)
    # No shard landed on the dark provider.
    down_index = d.provider_table.index_of("P0")
    for _, entry in d.chunk_table:
        assert down_index not in entry.provider_indices


def test_upload_fails_cleanly_when_too_few_up():
    registry, _, injector, d = make_world(n=5)
    for name in ("P0", "P1"):
        injector.take_down(name)
    # Only 3 providers up < stripe width 4.
    with pytest.raises(PlacementError):
        d.upload_file("C", "pw", "f", b"x" * 2048, PrivacyLevel.PRIVATE)
    # Nothing leaked: tables empty, fleet clean.
    assert len(d.chunk_table) == 0
    assert sum(d.provider_loads().values()) == 0
    with pytest.raises(UnknownFileError):
        d.get_file("C", "pw", "f")


def sabotage_after_first_put(victim):
    """Make *victim* die right after its first successful put."""
    original_put = victim.put
    state = {"puts": 0}

    def put(key, data, checksum=None):
        state["puts"] += 1
        if state["puts"] > 1:
            victim.set_available(False)
        return original_put(key, data)

    victim.put = put  # type: ignore[method-assign]
    return original_put


def test_mid_upload_failure_fails_over_to_spare_provider():
    # A member dying mid-upload no longer aborts the file: its later
    # shards are re-placed on the spare providers (n=6 > width=4).
    registry, providers, injector, d = make_world()
    victim = providers[0]
    sabotage_after_first_put(victim)

    payload = os.urandom(8192)
    d.upload_file("C", "pw", "f", payload, PrivacyLevel.PRIVATE)
    assert d.get_file("C", "pw", "f") == payload

    # Bookkeeping is consistent: every recorded shard key actually exists
    # at a live provider or is repairable; nothing doubled up.
    for _, entry in d.chunk_table:
        assert len(set(entry.provider_indices)) == len(entry.provider_indices)


def test_mid_upload_failure_rolls_back_whole_file():
    # With zero spare providers (n = width = 4) failover has nowhere to
    # go, so dropping below k survivors kills the upload atomically:
    # two of the four members dying leaves 2 < k=3 shards placeable.
    registry, providers, injector, d = make_world(n=4)
    original_puts = [
        sabotage_after_first_put(providers[0]),
        sabotage_after_first_put(providers[1]),
    ]

    with pytest.raises(Exception):
        d.upload_file("C", "pw", "f", os.urandom(8192), PrivacyLevel.PRIVATE)

    # Atomic: no chunk survived, no refs, no shard objects anywhere, and
    # the provider table counts are all back to zero.
    assert len(d.chunk_table) == 0
    assert d.client_table.get("C").chunk_refs == []
    assert all(count == 0 for count in d.provider_loads().values())
    for p in providers:
        if p.available:
            assert p.backend.object_count == 0

    # Recovery: once the providers are back, the same upload succeeds.
    for p, put in zip(providers[:2], original_puts):
        p.put = put  # type: ignore[method-assign]
        injector.bring_up(p.name)
    payload = os.urandom(8192)
    d.upload_file("C", "pw", "f", payload, PrivacyLevel.PRIVATE)
    assert d.get_file("C", "pw", "f") == payload


def test_virtual_ids_released_on_rollback():
    registry, providers, injector, d = make_world(n=5)
    before = d.ids.allocated_count
    for name in ("P0", "P1"):
        injector.take_down(name)
    with pytest.raises(PlacementError):
        d.upload_file("C", "pw", "f", b"x" * 2048, PrivacyLevel.PRIVATE)
    assert d.ids.allocated_count == before
