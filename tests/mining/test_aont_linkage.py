"""AONT-RS vs the paper's core threat: a single curious provider.

With plain RAID/RS striping a lone provider holds contiguous plaintext
slices, and salvage/linkage attacks recover a fraction of records from
its local pool.  With ``aont-rs`` every stored shard is a slice of an
all-or-nothing package: any shard subset below k reveals nothing, so a
single provider's pool reconstructs zero chunks and zero records."""

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.mining.adversary import Adversary
from repro.mining.linkage_attack import reassemble_chunks
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.workloads.bidding import PARSERS, generate_bidding_history


@pytest.fixture
def world():
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(6)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=81)
    distributor = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(256),
        codec="raid5@4",
        seed=82,
    )
    distributor.register_client("C")
    distributor.add_password("C", "pw", PrivacyLevel.PRIVATE)
    dataset = generate_bidding_history(400, seed=83)
    distributor.upload_file(
        "C", "pw", "bids.csv", dataset.to_bytes(), PrivacyLevel.PRIVATE,
        codec="aont-rs(4,2)",
    )
    return registry, distributor, dataset


def test_single_provider_pool_reconstructs_zero_chunks(world):
    registry, distributor, dataset = world
    payload = dataset.to_bytes()
    for name in registry.names():
        blobs = Adversary.insider(registry, name).dump_blobs()
        # Each reassembled "chunk" is a lone package slice: no plaintext
        # window of it may appear anywhere in the original file.
        for vid, reassembled in reassemble_chunks(blobs).items():
            assert reassembled not in payload
            for offset in range(0, max(1, len(reassembled) - 24), 16):
                assert reassembled[offset : offset + 24] not in payload, (
                    f"provider {name}: chunk {vid} leaked plaintext bytes"
                )


def test_single_provider_salvages_zero_records(world):
    registry, distributor, dataset = world
    for name in registry.names():
        fraction = Adversary.insider(registry, name).recovered_fraction(
            PARSERS, dataset.rows
        )
        assert fraction == 0.0, f"provider {name} recovered {fraction:.1%}"


def test_legitimate_read_still_byte_exact(world):
    _, distributor, dataset = world
    assert distributor.get_file("C", "pw", "bids.csv") == dataset.to_bytes()


def test_plain_striping_leaks_where_aont_does_not():
    # Control group: the identical workload under raid5 striping leaks
    # records to at least one single provider, proving the zero above is
    # the codec's doing rather than a weak attack.
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(6)
    ]
    registry, _, _ = build_simulated_fleet(specs, seed=91)
    distributor = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(256),
        codec="raid5@4",
        seed=92,
    )
    distributor.register_client("C")
    distributor.add_password("C", "pw", PrivacyLevel.PRIVATE)
    dataset = generate_bidding_history(400, seed=93)
    distributor.upload_file(
        "C", "pw", "bids.csv", dataset.to_bytes(), PrivacyLevel.PRIVATE
    )
    leaked = max(
        Adversary.insider(registry, name).recovered_fraction(
            PARSERS, dataset.rows
        )
        for name in registry.names()
    )
    assert leaked > 0.0
