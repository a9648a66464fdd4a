"""Distributor behaviour under provider failures: degraded reads, repair,
RAID-level guarantees (Section III-B)."""

import os

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ReconstructionError
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.providers.failures import FailureInjector
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.raid.striping import RaidLevel


def make_world(n=6, raid=RaidLevel.RAID5, width=4):
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(n)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=11)
    injector = FailureInjector(providers, clock, seed=12)
    distributor = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(512),
        codec=f"{raid.value}@{width}",
        seed=13,
    )
    distributor.register_client("C")
    distributor.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return registry, providers, injector, distributor


def stripe_members(distributor, filename, serial):
    ref = distributor.client_table.get("C").ref_for_chunk(filename, serial)
    entry = distributor.chunk_table.get(ref.chunk_index)
    return [distributor.provider_table.get(i).name for i in entry.provider_indices]


def test_raid5_degraded_read_one_provider_down():
    _, _, injector, d = make_world()
    data = os.urandom(2000)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
    injector.take_down(stripe_members(d, "f", 0)[0])
    assert d.get_file("C", "pw", "f") == data


def test_raid5_two_members_down_unrecoverable():
    _, _, injector, d = make_world()
    d.upload_file("C", "pw", "f", os.urandom(400), PrivacyLevel.PRIVATE)
    members = stripe_members(d, "f", 0)
    injector.take_down(members[0])
    injector.take_down(members[1])
    with pytest.raises(ReconstructionError):
        d.get_chunk("C", "pw", "f", 0)


def test_raid6_survives_two_losses():
    _, _, injector, d = make_world(raid=RaidLevel.RAID6, width=5)
    data = os.urandom(2000)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
    members = stripe_members(d, "f", 0)
    injector.take_down(members[0])
    injector.take_down(members[1])
    assert d.get_file("C", "pw", "f") == data


def test_raid1_survives_all_but_one():
    _, _, injector, d = make_world(raid=RaidLevel.RAID1, width=3)
    data = b"mirrored payload"
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
    members = stripe_members(d, "f", 0)
    injector.take_down(members[0])
    injector.take_down(members[1])
    assert d.get_file("C", "pw", "f") == data


def test_raid0_loses_data_on_any_failure():
    _, _, injector, d = make_world(raid=RaidLevel.RAID0, width=3)
    d.upload_file("C", "pw", "f", os.urandom(600), PrivacyLevel.PRIVATE)
    injector.take_down(stripe_members(d, "f", 0)[1])
    with pytest.raises(ReconstructionError):
        d.get_chunk("C", "pw", "f", 0)


def test_repair_relocates_after_permanent_loss():
    registry, providers, injector, d = make_world(n=6)
    data = os.urandom(3000)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
    victim = stripe_members(d, "f", 0)[0]
    injector.kill_permanently(victim)

    report = d.repair_file("C", "pw", "f")
    assert report.shards_rebuilt > 0
    assert report.chunks_unrecoverable == 0
    # Every relocated shard moved off the dead provider.
    assert all(old == victim for _, _, old, _ in report.relocations)
    assert all(new != victim for _, _, _, new in report.relocations)

    # After repair the file survives a SECOND failure.
    survivors = {name for serial in range(d.chunk_count("C", "f"))
                 for name in stripe_members(d, "f", serial)}
    second_victim = sorted(survivors)[0]
    injector.take_down(second_victim)
    assert d.get_file("C", "pw", "f") == data


def test_repair_detects_corruption():
    registry, providers, injector, d = make_world()
    d.upload_file("C", "pw", "f", os.urandom(400), PrivacyLevel.PRIVATE)
    victim = stripe_members(d, "f", 0)[0]
    provider = next(p for p in providers if p.name == victim)
    key = provider.backend.keys()[0]
    injector.corrupt_blob(victim, key)

    report = d.repair_file("C", "pw", "f")
    assert report.shards_missing >= 1
    assert report.shards_rebuilt >= 1
    assert d.get_file("C", "pw", "f") is not None


def test_repair_noop_when_healthy():
    _, _, _, d = make_world()
    d.upload_file("C", "pw", "f", os.urandom(1500), PrivacyLevel.PRIVATE)
    report = d.repair_file("C", "pw", "f")
    assert report.shards_missing == 0
    assert report.shards_rebuilt == 0
    assert report.chunks_checked == d.chunk_count("C", "f")


def test_repair_leaves_degraded_when_no_replacement():
    # Fleet exactly as wide as the stripe: no relocation target exists.
    _, providers, injector, d = make_world(n=4, width=4)
    data = os.urandom(800)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
    injector.take_down(providers[0].name)
    report = d.repair_file("C", "pw", "f")
    assert report.shards_rebuilt == 0
    assert report.chunks_unrecoverable == 0
    assert d.get_file("C", "pw", "f") == data  # still readable degraded


def test_outage_window_then_recovery_needs_no_repair():
    _, providers, injector, d = make_world()
    data = os.urandom(1000)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
    name = stripe_members(d, "f", 0)[0]
    clock_now = providers[0].clock.now
    injector.schedule_outage(name, start=clock_now + 10, duration=100)
    injector.run_until(clock_now + 50)
    assert d.get_file("C", "pw", "f") == data  # degraded read during outage
    injector.run_until(clock_now + 200)
    report = d.repair_file("C", "pw", "f")
    assert report.shards_missing == 0  # blobs survived the outage
