"""An invalid ``misleading_fraction`` is refused at the upload engine's
door, on every entry point, before anything is reserved or journalled.

A negative or NaN fraction once stored the file with no misleading bytes
at all (the engine's ``> 0`` test skipped injection, so the injector's own
``< 0`` check never ran), ``True`` passed for 100%, infinity escaped as a
bare ``OverflowError`` after the filename was reserved, and a string as a
bare ``TypeError``.  Each is a ``ValueError`` now, over the wire too, and
on the client-side (DHT) distributor, which skipped injection the same way
and handed ``True`` and infinity to the injector.
"""

from __future__ import annotations

import io
import math

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.journal import IntentJournal
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.dht.client_distributor import ClientSideDistributor
from repro.net.gateway import GatewayClient, GatewayServer
from repro.obs.metrics import MetricsRegistry
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry

from tests.fleet.conftest import add_tenants, make_base_registry, make_gateway

BAD = [-0.5, -1, math.nan, math.inf, -math.inf, True, False, "0.1", None, 10**400]
DATA = bytes(range(256)) * 8  # 2 KiB: two PL-3 chunks at 1 KiB


def ids(value) -> str:
    return repr(value)[:12]


@pytest.fixture
def journaled(tmp_path):
    registry = ProviderRegistry()
    for i in range(6):
        registry.register(
            InMemoryProvider(f"P{i}"), PrivacyLevel.PRIVATE, CostLevel.CHEAP
        )
    journal = IntentJournal(tmp_path / "journal.jsonl")
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(1024), codec="raid5@4",
        seed=3, metrics=MetricsRegistry(), journal=journal,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    yield d, journal
    d.close()


UPLOADS = {
    "upload_file": lambda d, fraction: d.upload_file(
        "C", "pw", "f", DATA, PrivacyLevel.PRIVATE, misleading_fraction=fraction
    ),
    "put_stream": lambda d, fraction: d.put_stream(
        "C", "pw", "f", io.BytesIO(DATA), PrivacyLevel.PRIVATE,
        misleading_fraction=fraction, window_chunks=1,
    ),
}


@pytest.mark.parametrize("fraction", BAD, ids=ids)
@pytest.mark.parametrize("upload", UPLOADS)
def test_the_distributor_refuses_and_reserves_nothing(journaled, upload, fraction):
    d, journal = journaled
    with pytest.raises(ValueError, match="misleading fraction"):
        UPLOADS[upload](d, fraction)
    assert d._inflight_uploads == {}
    assert journal.replay() == []  # no transaction was ever opened
    assert sum(d.provider_loads().values()) == 0
    assert d.ids.allocated_count == 0
    # The name was never taken: a valid upload of it goes through.
    UPLOADS[upload](d, 0.1)
    assert d.get_file("C", "pw", "f") == DATA
    assert d.ids.allocated_count == 2


@pytest.mark.parametrize("fraction", [0, 0.0, 0.1, 1, 2.5])
def test_every_finite_non_negative_number_is_taken(journaled, fraction):
    d, _ = journaled
    d.upload_file(
        "C", "pw", "f", DATA, PrivacyLevel.PRIVATE, misleading_fraction=fraction
    )
    positions = [
        len(d.chunk_table.get(ref.chunk_index).misleading_positions)
        for ref in d.client_table.get("C").refs_for_file("f")
    ]
    assert positions == [round(1024 * fraction)] * 2
    assert d.get_file("C", "pw", "f") == DATA


@pytest.mark.parametrize("protocol", ["chord", "can"])
@pytest.mark.parametrize("fraction", BAD, ids=ids)
def test_the_client_side_distributor_refuses_and_stores_nothing(protocol, fraction):
    providers = [InMemoryProvider(f"P{i}") for i in range(6)]
    registry = ProviderRegistry()
    for provider in providers:
        registry.register(provider, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    d = ClientSideDistributor(
        registry, protocol=protocol, chunk_policy=ChunkSizePolicy.uniform(1024),
        seed=3,
    )
    with pytest.raises(ValueError, match="misleading fraction"):
        d.upload_file("f", DATA, PrivacyLevel.PRIVATE, misleading_fraction=fraction)
    assert d.engine.ids.allocated_count == 0
    assert len(d.engine.chunk_table) == 0
    assert not any(provider.keys() for provider in providers)
    assert d.upload_file("f", DATA, PrivacyLevel.PRIVATE, misleading_fraction=0.1) == 2
    assert [len(entry.misleading_positions) for _, entry in d.engine.chunk_table] == [
        102, 102
    ]
    assert d.get_file("f") == DATA


def _shards_idle(gateway) -> bool:
    return all(
        shard.distributor._inflight_uploads == {}
        for shard in gateway.shards.values()
    )


@pytest.mark.parametrize("fraction", BAD, ids=ids)
def test_the_fleet_gateway_refuses(fraction):
    gateway = make_gateway(make_base_registry())
    add_tenants(gateway)
    try:
        with pytest.raises(ValueError, match="misleading fraction"):
            gateway.upload_file(
                "alice", "pw-a", "f", DATA, 3, misleading_fraction=fraction
            )
        assert _shards_idle(gateway)
        assert gateway.list_files("alice", "pw-a") == []
        gateway.upload_file("alice", "pw-a", "f", DATA, 3, misleading_fraction=0.1)
        assert gateway.get_file("alice", "pw-a", "f") == DATA
    finally:
        gateway.close()


# What JSON can carry: the client sends the value as it is.
WIRE_BAD = [-0.5, math.nan, math.inf, True, "0.1", None, [0.1]]


@pytest.mark.parametrize("fraction", WIRE_BAD, ids=ids)
def test_the_gateway_client_gets_the_refusal_back_as_value_error(fraction):
    gateway = make_gateway(make_base_registry())
    add_tenants(gateway)
    try:
        with GatewayServer(gateway) as server:
            with GatewayClient("127.0.0.1", server.port) as client:
                with pytest.raises(ValueError, match="misleading fraction"):
                    client.upload_file(
                        "alice", "pw-a", "f", DATA, 3,
                        misleading_fraction=fraction,
                    )
                assert _shards_idle(gateway)
                assert client.list_files("alice", "pw-a") == []
                client.upload_file(
                    "alice", "pw-a", "f", DATA, 3, misleading_fraction=0.1
                )
                assert client.get_file("alice", "pw-a", "f") == DATA
    finally:
        gateway.close()
