"""Acceptance: the full distributor stack over real localhost sockets.

Every provider in these tests is a :class:`RemoteProvider` backed by a
:class:`ChunkServer` -- the paper's distributor <-> provider interaction as
actual network traffic, including provider death mid-read and RAID
recovery.
"""

from __future__ import annotations

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ProviderUnavailableError
from repro.core.privacy import PrivacyLevel
from repro.net.cluster import LocalCluster
from repro.net.remote import RetryPolicy
from repro.raid.striping import RaidLevel


@pytest.fixture
def cluster():
    with LocalCluster(
        4, retry=RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.05)
    ) as c:
        yield c


@pytest.fixture
def distributor(cluster):
    d = CloudDataDistributor(cluster.build_registry(), seed=21)
    d.register_client("Alice")
    d.add_password("Alice", "pl3", PrivacyLevel.PRIVATE)
    yield d
    d.close()


def test_upload_retrieve_over_sockets(distributor):
    data = bytes(range(256)) * 500  # 125 KiB
    receipt = distributor.upload_file("Alice", "pl3", "doc.bin", data, 3)
    assert receipt.stripe_width == 4
    assert distributor.get_file("Alice", "pl3", "doc.bin") == data
    # Shards really live on the remote nodes, keyed by opaque virtual ids.
    loads = distributor.provider_loads()
    assert sum(loads.values()) == receipt.chunk_count * receipt.stripe_width


def test_dead_server_surfaces_unavailable_after_retries(cluster, distributor):
    distributor.upload_file("Alice", "pl3", "f.bin", b"x" * 20_000, 3)
    cluster.kill_server(0)
    with pytest.raises(ProviderUnavailableError, match="attempt"):
        cluster.providers[0].get("anything")


def test_raid_recovers_through_dead_server(cluster, distributor):
    """Kill one chunk server mid-read: the direct path fails with
    ProviderUnavailableError but the stripe still decodes (RAID-5)."""
    data = b"confidential payload " * 3000
    distributor.upload_file("Alice", "pl3", "f.bin", data, 3)
    assert distributor.get_file("Alice", "pl3", "f.bin") == data
    cluster.kill_server(2)
    assert distributor.get_file("Alice", "pl3", "f.bin") == data


def test_repair_relocates_after_data_loss(cluster, distributor):
    data = b"irreplaceable " * 2000
    distributor.upload_file("Alice", "pl3", "f.bin", data, 3)
    # Node 1 loses its disk entirely (server keeps running, objects gone).
    victim = cluster.backends[1]
    for key in list(victim.keys()):
        victim.drop_blob(key)
    report = distributor.repair_file("Alice", "pl3", "f.bin")
    assert report.shards_missing > 0
    assert report.chunks_unrecoverable == 0
    assert distributor.get_file("Alice", "pl3", "f.bin") == data


def test_update_and_snapshot_over_sockets(distributor):
    distributor.upload_file("Alice", "pl3", "f.bin", b"version one " * 200, 3)
    distributor.update_chunk("Alice", "pl3", "f.bin", 0, b"VERSION TWO!")
    snap = distributor.get_snapshot("Alice", "pl3", "f.bin", 0)
    assert snap.startswith(b"version one ")
    assert distributor.get_chunk("Alice", "pl3", "f.bin", 0) == b"VERSION TWO!"


def test_remove_clears_remote_nodes(cluster, distributor):
    distributor.upload_file("Alice", "pl3", "f.bin", b"z" * 50_000, 3)
    distributor.remove_file("Alice", "pl3", "f.bin")
    for provider in cluster.providers:
        assert provider.keys() == []


def test_mixed_raid_levels_over_sockets(cluster, distributor):
    for raid in (RaidLevel.RAID0, RaidLevel.RAID1, RaidLevel.RAID5):
        name = f"file-{raid.name}"
        payload = name.encode() * 1000
        distributor.upload_file(
            "Alice", "pl3", name, payload, 3, codec=raid
        )
        assert distributor.get_file("Alice", "pl3", name) == payload


def test_serial_transport_still_works(cluster):
    d = CloudDataDistributor(
        cluster.build_registry(), seed=3, max_transport_workers=1
    )
    d.register_client("Bob")
    d.add_password("Bob", "pw", 3)
    data = b"serial path " * 4000
    d.upload_file("Bob", "pw", "f.bin", data, 3)
    assert d.get_file("Bob", "pw", "f.bin") == data
    d.close()
