"""Write-path failover and degraded-write acceptance.

A failed shard put no longer aborts the chunk: the shard is re-placed on a
healthy spare when one exists, and when none does the chunk is accepted
degraded as long as >= k shards landed -- with the missing shard recorded
in the tables as the scrubber's work list.
"""

import os

import pytest

from repro.analysis.consistency import verify_deployment
from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ProviderUnavailableError
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.health.scrubber import Scrubber
from repro.providers.failures import FailureInjector
from repro.providers.registry import ProviderSpec, build_simulated_fleet


def make_world(n=6, width=4):
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(n)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=61)
    injector = FailureInjector(providers, clock, seed=62)
    d = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(512),
        codec=f"raid5@{width}",
        seed=63,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return registry, providers, injector, d


def sabotage_puts(victim):
    """All of *victim*'s puts fail from now on; returns an undo handle."""
    original = victim.put

    def put(key, data, checksum=None):
        raise ProviderUnavailableError(f"{victim.name} sabotaged")

    victim.put = put
    return original


def test_degraded_write_accepted_when_k_shards_land():
    # Width 4 over exactly 4 providers: no spare exists, so a single
    # failed put can only be accepted degraded (3 of 4 >= k=3).
    _, providers, _, d = make_world(n=4, width=4)
    victim = providers[0]
    sabotage_puts(victim)
    data = os.urandom(3000)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)

    # The write completed and reads back byte-exact despite the hole.
    assert d.get_file("C", "pw", "f") == data
    # The victim is still *recorded* as a member of every stripe: the
    # table is the scrubber's work list, not a claim the bytes exist.
    victim_index = d.provider_table.index_of(victim.name)
    assert all(
        victim_index in entry.provider_indices for _, entry in d.chunk_table
    )
    assert victim.backend.object_count == 0


def test_scrubber_heals_degraded_write_once_provider_recovers():
    _, providers, _, d = make_world(n=4, width=4)
    victim = providers[0]
    original = sabotage_puts(victim)
    data = os.urandom(2000)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
    victim.put = original  # the outage ends

    report = Scrubber(d).run_once()
    assert report.shards_missing >= 1
    assert report.shards_rebuilt >= 1
    assert report.chunks_unrecoverable == 0
    assert victim.backend.object_count > 0
    assert Scrubber(d).run_once().shards_missing == 0
    assert d.get_file("C", "pw", "f") == data


def test_failover_relocates_shard_to_spare():
    # With spares available the failed shard moves; nothing references
    # the victim and no stripe is left degraded.
    _, providers, _, d = make_world(n=6, width=4)
    victim = providers[2]
    sabotage_puts(victim)
    data = os.urandom(4096)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)

    victim_index = d.provider_table.index_of(victim.name)
    for _, entry in d.chunk_table:
        assert victim_index not in entry.provider_indices
        assert len(set(entry.provider_indices)) == len(entry.provider_indices)
    assert victim.backend.object_count == 0
    assert d.get_file("C", "pw", "f") == data
    # Nothing was left degraded, so the scrubber has nothing to do.
    report = Scrubber(d).run_once()
    assert report.shards_missing == 0


def test_rollback_when_fewer_than_k_shards_land():
    # Two dead members of a width-4 RAID-5 stripe leave only 2 < k=3
    # shards; the upload must fail with nothing leaked anywhere.
    _, providers, _, d = make_world(n=4, width=4)
    sabotage_puts(providers[0])
    sabotage_puts(providers[1])
    with pytest.raises(ProviderUnavailableError):
        d.upload_file("C", "pw", "f", os.urandom(1000), PrivacyLevel.PRIVATE)
    assert len(d.chunk_table) == 0
    assert all(p.backend.object_count == 0 for p in providers)


def test_torn_write_scrubbed_during_failover():
    # The failed member stored the bytes but lost the ack.  Failover must
    # delete the orphan twin before re-placing the shard elsewhere.
    _, providers, _, d = make_world(n=6, width=4)
    victim = providers[1]
    original = victim.put

    def torn_put(key, data, checksum=None):
        original(key, data)  # the object lands...
        raise ProviderUnavailableError("ack lost")  # ...but the ack is lost

    victim.put = torn_put
    data = os.urandom(2500)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
    victim.put = original

    assert victim.backend.object_count == 0  # no orphan twins survive
    assert d.get_file("C", "pw", "f") == data
    # Fleet-wide object set matches the tables exactly.
    assert verify_deployment(d).clean
