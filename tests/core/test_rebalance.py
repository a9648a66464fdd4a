"""Provider churn: admission, draining, rebalancing."""

import os
import threading

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import PlacementError
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.core.rebalance import admit_provider, decommission_provider, rebalance
from repro.core.virtual_id import shard_key
from repro.health.fsck import run_fsck
from repro.health.scrubber import Scrubber
from repro.obs.metrics import get_metrics
from repro.providers.base import blob_checksum
from repro.providers.failures import FailureInjector
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import (
    ProviderRegistry,
    ProviderSpec,
    build_simulated_fleet,
)


@pytest.fixture
def world():
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(6)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=71)
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(512), codec="raid5@4", seed=72
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    payload = os.urandom(8 * 1024)
    d.upload_file("C", "pw", "f", payload, PrivacyLevel.PRIVATE)
    return registry, providers, clock, d, payload


def test_admit_provider_becomes_placeable(world):
    registry, _, _, d, _ = world
    admit_provider(d, InMemoryProvider("Fresh"), PrivacyLevel.PRIVATE, CostLevel.CHEAPEST)
    assert "Fresh" in registry
    d.upload_file("C", "pw", "g", b"y" * 2048, PrivacyLevel.PRIVATE)
    # Cheapest-eligible policy routes new shards to the newcomer.
    assert d.provider_loads()["Fresh"] > 0
    assert d.get_file("C", "pw", "g") == b"y" * 2048


def test_decommission_drains_everything(world):
    registry, _, _, d, payload = world
    victim = max(d.provider_loads(), key=d.provider_loads().get)
    report = decommission_provider(d, victim)
    assert report.shards_moved > 0
    assert report.shards_stuck == 0
    assert d.provider_loads()[victim] == 0
    assert registry.get(victim).provider.object_count == 0
    assert d.get_file("C", "pw", "f") == payload
    # No chunk references the victim any more.
    victim_index = d.provider_table.index_of(victim)
    for _, entry in d.chunk_table:
        assert victim_index not in entry.provider_indices
        assert entry.snapshot_index != victim_index


def test_decommission_dark_provider_rebuilds(world):
    registry, providers, clock, d, payload = world
    victim = max(d.provider_loads(), key=d.provider_loads().get)
    FailureInjector(providers, clock, seed=1).take_down(victim)
    report = decommission_provider(d, victim)
    assert report.shards_moved > 0
    assert report.shards_rebuilt == report.shards_moved  # all via stripe rebuild
    assert d.get_file("C", "pw", "f") == payload


def test_decommission_moves_snapshots(world):
    _, _, _, d, _ = world
    d.update_chunk("C", "pw", "f", 0, b"v2" * 256)
    ref = d.client_table.get("C").ref_for_chunk("f", 0)
    entry = d.chunk_table.get(ref.chunk_index)
    snap_name = d.provider_table.get(entry.snapshot_index).name
    decommission_provider(d, snap_name)
    assert d.get_snapshot("C", "pw", "f", 0)  # still readable elsewhere


def test_decommission_without_spare_capacity_raises():
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(4)  # exactly the stripe width: nowhere to drain to
    ]
    registry, _, _ = build_simulated_fleet(specs, seed=73)
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(512), codec="raid5@4", seed=74
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    d.upload_file("C", "pw", "f", b"z" * 2048, PrivacyLevel.PRIVATE)
    with pytest.raises(PlacementError):
        decommission_provider(d, "P0")


def test_rebalance_levels_loads(world):
    registry, _, _, d, payload = world
    # Skew the fleet: admit two empty providers.
    admit_provider(d, InMemoryProvider("N1"), PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    admit_provider(d, InMemoryProvider("N2"), PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    before = d.provider_loads()
    spread_before = max(before.values()) - min(before.values())
    report = rebalance(d)
    after = d.provider_loads()
    spread_after = max(after.values()) - min(after.values())
    assert report.shards_moved > 0
    assert spread_after < spread_before
    assert d.get_file("C", "pw", "f") == payload


def test_rebalance_respects_move_budget(world):
    _, _, _, d, _ = world
    admit_provider(d, InMemoryProvider("N1"), PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    report = rebalance(d, max_moves=3)
    assert report.shards_moved <= 3


def test_rebalance_noop_when_even():
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(4)
    ]
    registry, _, _ = build_simulated_fleet(specs, seed=75)
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(512), codec="raid5@4", seed=76
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    d.upload_file("C", "pw", "f", b"q" * 4096, PrivacyLevel.PRIVATE)
    # Width == fleet: every provider holds one shard of every chunk.
    report = rebalance(d)
    assert report.shards_moved == 0


# -- decommission under degradation: unreachable providers -------------------


def test_decommission_degraded_beyond_repair_counts_stuck(world):
    registry, providers, clock, d, _ = world
    loads = d.provider_loads()
    victim = max(loads, key=loads.get)
    keeper = min((n for n in loads if n != victim), key=loads.get)
    injector = FailureInjector(providers, clock, seed=2)
    # Darken the victim AND everything but one survivor: its shards can
    # neither be read directly nor rebuilt (survivors < k).
    for name in loads:
        if name != keeper:
            injector.take_down(name)
    report = decommission_provider(d, victim)
    assert report.shards_moved == 0
    assert report.shards_stuck > 0
    # Nothing was mutated for the stuck shards: the victim is still
    # referenced, so a later retry (post-repair) can drain it properly.
    victim_index = d.provider_table.index_of(victim)
    assert any(
        victim_index in entry.provider_indices for _, entry in d.chunk_table
    )


def test_decommission_skips_dark_replacement_targets(world):
    registry, providers, clock, d, payload = world
    loads = d.provider_loads()
    victim = max(loads, key=loads.get)
    dark_spare = min((n for n in loads if n != victim), key=loads.get)
    FailureInjector(providers, clock, seed=3).take_down(dark_spare)
    report = decommission_provider(d, victim)
    assert report.shards_moved > 0
    assert d.provider_loads()[victim] == 0
    # No displaced shard may land on the unreachable provider.
    assert all(target != dark_spare for _, _, _, target in report.moves)
    assert d.get_file("C", "pw", "f") == payload


def test_decommission_raises_when_all_spares_dark(world):
    registry, providers, clock, d, _ = world
    loads = d.provider_loads()
    victim = max(loads, key=loads.get)
    injector = FailureInjector(providers, clock, seed=4)
    for name in loads:
        if name != victim:
            injector.take_down(name)
    # The victim itself is readable, but every eligible target is dark:
    # refusing beats quietly leaving shards in limbo.
    with pytest.raises(PlacementError):
        decommission_provider(d, victim)


def test_decommission_snapshot_on_dark_victim_counts_stuck(world):
    registry, providers, clock, d, _ = world
    d.update_chunk("C", "pw", "f", 0, b"v2" * 256)
    ref = d.client_table.get("C").ref_for_chunk("f", 0)
    entry = d.chunk_table.get(ref.chunk_index)
    snap_name = d.provider_table.get(entry.snapshot_index).name
    FailureInjector(providers, clock, seed=5).take_down(snap_name)
    report = decommission_provider(d, snap_name)
    # The snapshot cannot be read off the dark victim: it stays put and is
    # reported stuck rather than silently dropped.
    assert report.shards_stuck >= 1
    assert entry.snapshot_index == d.provider_table.index_of(snap_name)


# -- a drain moves a shard the way a repair does: verified, or rebuilt --------


def rot_silently(provider, key):
    """Flip a byte at rest and re-stamp the provider-side checksum, so only
    the distributor's recorded checksum can notice (as
    ``tests/health/test_scrubber.py`` does it)."""
    blob = bytearray(provider.backend._blobs[key])
    blob[0] ^= 0xFF
    provider.backend._blobs[key] = bytes(blob)
    provider.backend._checksums[key] = blob_checksum(bytes(blob))


def stored_shards_match_their_records(d, registry):
    for _, entry in d.chunk_table:
        recorded = entry.record.shard_checksums
        for shard_index, table_index in enumerate(entry.provider_indices):
            provider = registry.get(d.provider_table.get(table_index).name).provider
            data = provider.backend.get(shard_key(entry.virtual_id, shard_index))
            assert blob_checksum(data) == recorded[shard_index]


def degraded_reads():
    return get_metrics().sum_counter("raid_degraded_reads_total")


def test_decommission_does_not_copy_a_silently_rotten_shard(world):
    registry, providers, _, d, payload = world
    victim = max(d.provider_loads(), key=d.provider_loads().get)
    backend = registry.get(victim).provider
    rotten = backend.backend.keys()[0]
    rot_silently(backend, rotten)
    report = decommission_provider(d, victim)
    assert report.shards_stuck == 0
    assert d.provider_loads()[victim] == 0
    # The rotten member was a failed member: rebuilt from its stripe, not
    # copied verbatim to its new home.
    assert report.shards_rebuilt == 1
    stored_shards_match_their_records(d, registry)
    before = degraded_reads()
    assert d.get_file("C", "pw", "f") == payload
    assert degraded_reads() == before


def test_dark_drain_does_not_fold_a_rotten_survivor_into_the_rebuild(world):
    registry, providers, clock, d, payload = world
    victim = max(d.provider_loads(), key=d.provider_loads().get)
    victim_index = d.provider_table.index_of(victim)
    # One chunk the victim holds a shard of: rot a *survivor* of its stripe.
    entry = next(
        entry for _, entry in d.chunk_table if victim_index in entry.provider_indices
    )
    survivor_shard, survivor_index = next(
        (i, t) for i, t in enumerate(entry.provider_indices) if t != victim_index
    )
    survivor = registry.get(d.provider_table.get(survivor_index).name).provider
    rot_silently(survivor, shard_key(entry.virtual_id, survivor_shard))
    FailureInjector(providers, clock, seed=6).take_down(victim)
    report = decommission_provider(d, victim)
    # raid5 survives one loss: with the victim dark and a survivor rotten
    # this stripe has k-1 sound members, so its shard stays put (stuck)
    # rather than being "rebuilt" from rot and reported moved.
    assert report.shards_stuck == 1
    moved = {(vid, shard) for vid, shard, _, _ in report.moves}
    assert all(vid != entry.virtual_id for vid, _ in moved)
    assert report.shards_rebuilt == report.shards_moved > 0


# -- a drain and a scrub of the same chunk take turns (the op lock) -----------


def in_memory_world(chunks):
    registry = ProviderRegistry()
    providers = [InMemoryProvider(f"M{i}") for i in range(7)]
    for provider in providers:
        registry.register(provider, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(256), codec="raid5@4", seed=78
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    payload = os.urandom(chunks * 256)
    d.upload_file("C", "pw", "f", payload, PrivacyLevel.PRIVATE)
    return providers, d, payload


def test_scrubber_and_drain_together_leave_a_clean_table():
    providers, d, payload = in_memory_world(chunks=64)
    victim = max(d.provider_loads(), key=d.provider_loads().get)
    # Damage for the scrubber to find while the drain runs: every shard of
    # one other provider dropped behind the distributor's back.
    other = next(p for p in providers if p.name != victim)
    for key in other.keys():
        other.delete(key)

    scrubber = Scrubber(d, probe_fleet=False)
    stop = threading.Event()
    errors = []

    def scrub():
        try:
            while not stop.is_set():
                scrubber.run_once()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    thread = threading.Thread(target=scrub)
    thread.start()
    try:
        report = decommission_provider(d, victim)
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive() and not errors
    scrubber.run_once()  # whatever the last drain moves left to heal
    assert report.shards_stuck == 0 and report.shards_moved > 0
    assert run_fsck(d).clean
    for serial in range(64):
        assert d.get_chunk("C", "pw", "f", serial) == payload[serial * 256:][:256]
    assert d.get_file("C", "pw", "f") == payload


@pytest.mark.parametrize("migrate", [decommission_provider, rebalance])
def test_migration_waits_for_the_op_lock(migrate):
    providers, d, payload = in_memory_world(chunks=8)
    admit_provider(d, InMemoryProvider("N1"), PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    victim = max(d.provider_loads(), key=d.provider_loads().get)
    rows = [list(entry.provider_indices) for _, entry in d.chunk_table]
    reports = []
    thread = threading.Thread(
        target=lambda: reports.append(
            migrate(d, victim) if migrate is decommission_provider else migrate(d)
        )
    )
    with d.op_lock:  # a scrub cycle, or a client op, mid-chunk
        thread.start()
        thread.join(timeout=0.5)
        # The parent mutated rows and provider counts without the lock and
        # had finished by now.
        assert thread.is_alive() and not reports
        assert rows == [list(entry.provider_indices) for _, entry in d.chunk_table]
    thread.join(timeout=60)
    assert not thread.is_alive() and reports[0].shards_moved > 0
    assert d.get_file("C", "pw", "f") == payload
