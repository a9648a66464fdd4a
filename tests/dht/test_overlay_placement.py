"""The client-side distributor's engine puts each chunk's replicas exactly
where the overlay says -- the owners of ``filename:serial`` -- and, after a
provider fails, only on members of the healed overlay."""

import pytest

from repro.core.privacy import ChunkSizePolicy, PrivacyLevel
from repro.dht.client_distributor import CLIENT, ClientSideDistributor
from repro.providers.failures import FailureInjector
from repro.providers.registry import build_simulated_fleet, default_fleet_specs
from repro.workloads.files import random_bytes

PAYLOAD = random_bytes(16 * 1024, seed=821)


def _holders(dist) -> dict[tuple[str, int], tuple[PrivacyLevel, list[str]]]:
    """Each chunk's level and holders, straight from the engine's tables."""
    engine = dist.engine
    out = {}
    for ref in engine.client_table.get(CLIENT).chunk_refs:
        entry = engine.chunk_table.get(ref.chunk_index)
        out[ref.filename, ref.serial] = (
            entry.privacy_level, engine.provider_table.names(entry.provider_indices)
        )
    return out


@pytest.mark.parametrize("protocol", ["chord", "can"])
def test_the_engine_puts_each_chunk_where_the_overlay_says(protocol):
    registry, providers, clock = build_simulated_fleet(default_fleet_specs(8), seed=822)
    dist = ClientSideDistributor(
        registry, protocol=protocol, replicas=2,
        chunk_policy=ChunkSizePolicy.uniform(1024), seed=823,
    )
    dist.upload_file("f", PAYLOAD, PrivacyLevel.LOW)
    dist.upload_file("g", PAYLOAD[:4096], PrivacyLevel.PRIVATE)
    before = _holders(dist)
    assert len(before) == 20
    for (filename, serial), (level, names) in before.items():
        assert set(names) == set(dist.locate(filename, serial, level))

    victim = sorted({name for _, names in before.values() for name in names})[0]
    FailureInjector(providers, clock, seed=824).kill_permanently(victim)
    assert dist.handle_provider_failure(victim) > 0
    for level, names in _holders(dist).values():
        assert victim not in names
        assert set(names) <= set(dist.overlays[level].node_names)
        assert len(set(names)) == len(names)
    assert dist.get_file("f") == PAYLOAD
    assert dist.get_file("g") == PAYLOAD[:4096]
