"""A provider that rewrites a blob together with its own checksum (the
paper's insider) never gets altered bytes through the client-side
distributor: every read is judged against the digest the distributor
recorded at upload, and a replica that fails it is read around."""

import pytest

from repro.core.errors import DHTError, ReconstructionError
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.dht.client_distributor import ClientSideDistributor
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.workloads.files import random_bytes

PROTOCOLS = ["chord", "can"]
PAYLOAD = random_bytes(16 * 1024, seed=811)
CHUNK = 1024


def _world(protocol):
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP) for i in range(6)
    ]
    registry, _, _ = build_simulated_fleet(specs, seed=812)
    dist = ClientSideDistributor(
        registry, protocol=protocol, replicas=2,
        chunk_policy=ChunkSizePolicy.uniform(CHUNK), seed=813,
    )
    dist.upload_file("f", PAYLOAD, PrivacyLevel.LOW)
    return registry, dist


def _holding(registry) -> list[str]:
    """The providers that store any object."""
    return [entry.name for entry in registry.all() if entry.provider.backend.keys()]


def _lie(provider) -> None:
    """Rewrite every blob the provider holds, and its checksum with it."""
    backend = provider.backend
    for key in backend.keys():
        backend.put(key, bytes(byte ^ 0x5A for byte in backend.get(key)))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_lying_replica_never_returns_altered_bytes(protocol):
    holding = _holding(_world(protocol)[0])
    assert len(holding) >= 2
    for liar in holding:
        registry, dist = _world(protocol)
        _lie(registry.get(liar).provider)
        assert dist.get_file("f") == PAYLOAD, liar
        for serial in range(len(PAYLOAD) // CHUNK):
            chunk = PAYLOAD[serial * CHUNK : (serial + 1) * CHUNK]
            assert dist.get_chunk("f", serial) == chunk, liar


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_replica_lying_is_a_typed_error(protocol):
    registry, dist = _world(protocol)
    for name in _holding(registry):
        _lie(registry.get(name).provider)
    with pytest.raises(DHTError) as raised:
        dist.get_file("f")
    assert isinstance(raised.value.__cause__, ReconstructionError)
    with pytest.raises(DHTError):
        dist.get_chunk("f", 0)
