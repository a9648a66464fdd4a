"""Acceptance: the fleet heals itself after a chunk-server death.

Kill one chunk server out of six and -- without any human marking
providers up or down -- the stack must (a) complete fresh uploads by
failing the dead node's shards over to live spares, (b) serve existing
files byte-exact through degraded reads, (c) rebuild the lost shards onto
live servers via the scrubber, and (d) report the dead provider DOWN from
observed traffic alone.
"""

from __future__ import annotations

import os

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, PrivacyLevel
from repro.health.monitor import HealthState
from repro.health.scrubber import Scrubber
from repro.net.cluster import LocalCluster
from repro.net.remote import RetryPolicy

DEAD = 0


@pytest.fixture
def cluster():
    with LocalCluster(
        6, retry=RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.05)
    ) as c:
        yield c


@pytest.fixture
def distributor(cluster):
    d = CloudDataDistributor(
        cluster.build_registry(),
        chunk_policy=ChunkSizePolicy.uniform(512),
        codec="raid5@4",
        seed=31,
    )
    d.register_client("Alice")
    d.add_password("Alice", "pw", PrivacyLevel.PRIVATE)
    yield d
    d.close()


def test_fleet_self_heals_after_server_death(cluster, distributor):
    d = distributor
    before = os.urandom(4000)
    d.upload_file("Alice", "pw", "before.bin", before, PrivacyLevel.PRIVATE)

    dead_name = cluster.backends[DEAD].name
    cluster.kill_server(DEAD)

    # (a) A fresh upload completes: the dead node's shards fail over to
    # live spares, and nothing in the new file references it.
    after = os.urandom(4000)
    d.upload_file("Alice", "pw", "after.bin", after, PrivacyLevel.PRIVATE)
    dead_index = d.provider_table.index_of(dead_name)
    for ref in d.client_table.get("Alice").refs_for_file("after.bin"):
        entry = d.chunk_table.get(ref.chunk_index)
        assert dead_index not in entry.provider_indices
    assert d.get_file("Alice", "pw", "after.bin") == after

    # (b) The pre-existing file still reads byte-exact, degraded.
    assert d.get_file("Alice", "pw", "before.bin") == before

    # (d) The monitor concluded DOWN from that traffic alone -- nobody
    # called a "mark down" API.
    assert d.health.state(dead_name) is HealthState.DOWN

    # (c) One scrub cycle relocates every shard off the dead node.
    report = Scrubber(d).run_once()
    assert report.shards_rebuilt > 0
    assert all(old == dead_name for _, _, old, _ in report.relocations)
    assert all(new != dead_name for _, _, _, new in report.relocations)
    for _, entry in d.chunk_table:
        names = {d.provider_table.get(i).name for i in entry.provider_indices}
        assert dead_name not in names
    assert Scrubber(d).run_once().shards_missing == 0
    assert d.get_file("Alice", "pw", "before.bin") == before
    assert d.get_file("Alice", "pw", "after.bin") == after


def test_restarted_server_is_readmitted_by_probes(cluster, distributor):
    d = distributor
    data = os.urandom(2000)
    d.upload_file("Alice", "pw", "f.bin", data, PrivacyLevel.PRIVATE)
    dead_name = cluster.backends[DEAD].name
    cluster.kill_server(DEAD)
    assert d.get_file("Alice", "pw", "f.bin") == data  # degraded read
    assert d.health.state(dead_name) is HealthState.DOWN

    cluster.restart_server(DEAD)
    # The next usability check re-probes and readmits the node: no human
    # intervention, and new uploads may stripe onto it again.
    assert d.health.is_usable(dead_name)
    assert d.health.state(dead_name) is not HealthState.DOWN
