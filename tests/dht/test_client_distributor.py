import os

import pytest

from repro.core.errors import DHTError, UnknownFileError
from repro.core.privacy import ChunkSizePolicy, PrivacyLevel
from repro.dht.client_distributor import ClientSideDistributor, build_overlays
from repro.providers.failures import FailureInjector
from repro.providers.registry import build_simulated_fleet, default_fleet_specs


@pytest.fixture
def world():
    registry, providers, clock = build_simulated_fleet(default_fleet_specs(8), seed=31)
    return registry, providers, clock


@pytest.fixture(params=["chord", "can"])
def dist(request, world):
    registry, _, _ = world
    return ClientSideDistributor(
        registry,
        protocol=request.param,
        replicas=2,
        chunk_policy=ChunkSizePolicy.uniform(512),
        seed=32,
    )


def test_overlays_respect_eligibility(world):
    registry, _, _ = world
    overlays = build_overlays(registry, protocol="chord")
    for level in PrivacyLevel:
        eligible = {e.name for e in registry.eligible(level)}
        assert set(overlays[level].node_names) == eligible


def test_unknown_protocol(world):
    registry, _, _ = world
    with pytest.raises(ValueError):
        build_overlays(registry, protocol="pastry")


def test_upload_download_roundtrip(dist):
    data = os.urandom(5000)
    n = dist.upload_file("f", data, PrivacyLevel.LOW)
    assert n == 10
    assert dist.get_file("f") == data


def test_roundtrip_with_misleading(dist):
    data = os.urandom(2000)
    dist.upload_file("f", data, PrivacyLevel.MODERATE, misleading_fraction=0.3)
    assert dist.get_file("f") == data


def test_duplicate_upload_rejected(dist):
    dist.upload_file("f", b"1", PrivacyLevel.LOW)
    with pytest.raises(ValueError):
        dist.upload_file("f", b"2", PrivacyLevel.LOW)


def test_placement_deterministic(world):
    registry, _, _ = world
    a = ClientSideDistributor(registry, protocol="chord", seed=1)
    b = ClientSideDistributor(registry, protocol="chord", seed=2)
    assert a.locate("f", 0, PrivacyLevel.LOW) == b.locate("f", 0, PrivacyLevel.LOW)


def test_placement_respects_privacy_level(world, dist):
    registry, _, _ = world
    data = os.urandom(3000)
    dist.upload_file("private", data, PrivacyLevel.PRIVATE)
    eligible = {e.name for e in registry.eligible(PrivacyLevel.PRIVATE)}
    for record in dist.chunk_table.values():
        assert set(record.providers) <= eligible


def test_replica_failover(world, dist):
    registry, providers, clock = world
    data = os.urandom(1000)
    dist.upload_file("f", data, PrivacyLevel.LOW)
    injector = FailureInjector(providers, clock, seed=5)
    # Kill the primary replica of chunk 0; the copy must serve.
    record = dist.chunk_table[("f", 0)]
    injector.take_down(record.providers[0])
    assert dist.get_file("f") == data


def test_all_replicas_down_raises(world, dist):
    registry, providers, clock = world
    dist.upload_file("f", b"payload", PrivacyLevel.LOW)
    injector = FailureInjector(providers, clock, seed=5)
    record = dist.chunk_table[("f", 0)]
    for name in record.providers:
        injector.take_down(name)
    with pytest.raises(DHTError):
        dist.get_chunk("f", 0)


def test_remove_file(dist, world):
    registry, _, _ = world
    dist.upload_file("f", os.urandom(2000), PrivacyLevel.LOW)
    dist.remove_file("f")
    assert dist.chunk_table == {}
    with pytest.raises(UnknownFileError):
        dist.get_file("f")
    with pytest.raises(UnknownFileError):
        dist.remove_file("f")


def test_get_missing_chunk(dist):
    with pytest.raises(UnknownFileError):
        dist.get_chunk("ghost", 0)


def test_lookup_hops_nonnegative(dist):
    dist.upload_file("f", b"x" * 2048, PrivacyLevel.LOW)
    hops = dist.lookup_hops("f", 0, PrivacyLevel.LOW)
    assert hops >= 0


def test_table_memory_grows_with_chunks(dist):
    before = dist.table_memory_bytes
    dist.upload_file("f", os.urandom(4096), PrivacyLevel.LOW)
    assert dist.table_memory_bytes > before


def test_misleading_rows_are_packed_and_the_report_counts_what_is_held(dist):
    # The client-side table holds the distributor's row type: 4 bytes a
    # position (it charged a flat 8, and would have held 102 numpy scalars
    # a chunk once inject returned arrays), and reads still round-trip.
    from repro.core.misleading import NO_POSITIONS
    from tests.core.test_misleading import is_row

    data = os.urandom(4096)
    dist.upload_file("plain", data, PrivacyLevel.LOW)
    assert all(
        record.entry.misleading_positions is NO_POSITIONS
        for record in dist.chunk_table.values()
    )
    # The engine's rows of "f" hold what "plain"'s do, plus the positions.
    plain = dist.table_memory_bytes
    dist.upload_file("f", data, PrivacyLevel.LOW, misleading_fraction=0.25)
    rows = [
        record.entry.misleading_positions
        for (name, _), record in dist.chunk_table.items()
        if name == "f"
    ]
    assert len(rows) == 8
    for row in rows:
        assert is_row(row) and len(row) == 128
    fixed = 2 * plain
    assert dist.table_memory_bytes == fixed + 4 * 128 * 8
    assert dist.table_memory_bytes < fixed + 8 * 128 * 8  # what it used to charge
    assert dist.get_file("f") == data
    assert dist.get_chunk("f", 3) == data[3 * 512 : 4 * 512]
    assert dist.get_file("plain") == data


def test_replicas_validation(world):
    registry, _, _ = world
    with pytest.raises(ValueError):
        ClientSideDistributor(registry, replicas=0)
