"""Adversary models against a real distributor deployment."""

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.mining.adversary import Adversary
from repro.mining.linkage_attack import (
    correlation_gain,
    group_shards,
    reassemble_chunks,
)
from repro.providers.failures import FailureInjector
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.workloads.bidding import PARSERS, generate_bidding_history


@pytest.fixture
def world():
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(6)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=51)
    distributor = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(256),
        codec="raid5@4",
        seed=52,
    )
    distributor.register_client("Hercules")
    distributor.add_password("Hercules", "pw", PrivacyLevel.PRIVATE)
    dataset = generate_bidding_history(400, seed=53)
    distributor.upload_file(
        "Hercules", "pw", "bids.csv", dataset.to_bytes(), PrivacyLevel.PRIVATE
    )
    return registry, providers, clock, distributor, dataset


def test_constructor_validation(world):
    registry = world[0]
    with pytest.raises(KeyError):
        Adversary(registry, ["Ghost"])
    with pytest.raises(ValueError):
        Adversary(registry, ["P0", "P0"])


def test_insider_sees_only_their_provider(world):
    registry, _, _, _, _ = world
    insider = Adversary.insider(registry, "P0")
    view = insider.observe(PARSERS)
    assert view.compromised == ("P0",)
    assert set(view.blobs) == {"P0"}
    assert view.blob_count == registry.get("P0").provider.object_count


def test_insider_recovers_less_than_global(world):
    registry, _, _, _, dataset = world
    insider_frac = Adversary.insider(registry, "P0").recovered_fraction(
        PARSERS, dataset.rows
    )
    global_frac = Adversary.global_view(registry).recovered_fraction(
        PARSERS, dataset.rows
    )
    assert insider_frac < global_frac
    # Even a full naive compromise loses rows cut at shard boundaries;
    # a single provider sees only a small slice.
    assert global_frac > 0.5
    assert insider_frac < 0.3


def test_collusion_monotone(world):
    registry, _, _, _, dataset = world
    fractions = []
    for k in (1, 2, 4, 6):
        adversary = Adversary.colluding(registry, [f"P{i}" for i in range(k)])
        fractions.append(adversary.recovered_fraction(PARSERS, dataset.rows))
    assert all(a <= b + 1e-9 for a, b in zip(fractions, fractions[1:]))


def test_downed_provider_contributes_nothing(world):
    registry, providers, clock, _, dataset = world
    injector = FailureInjector(providers, clock, seed=1)
    injector.take_down("P0")
    view = Adversary.insider(registry, "P0").observe(PARSERS)
    assert view.blobs == {"P0": {}}
    assert view.rows == []


def test_group_shards_parses_keys(world):
    registry, _, _, _, _ = world
    blobs = Adversary.global_view(registry).dump_blobs()
    grouped = group_shards(blobs)
    assert grouped  # something stored
    for vid, shards in grouped.items():
        assert isinstance(vid, int)
        assert sorted(shards) == list(range(len(shards)))


def test_reassembled_chunks_contain_contiguous_rows(world):
    registry, _, _, _, dataset = world
    blobs = Adversary.global_view(registry).dump_blobs()
    chunks = reassemble_chunks(blobs)
    assert chunks
    # Full pooled reassembly recovers essentially the whole file.
    from repro.workloads.serialization import salvage_records

    recovered = set()
    for data in chunks.values():
        recovered.update(r for r in salvage_records(data, PARSERS) if r in set(dataset.rows))
    # Reassembly recovers almost everything except rows cut at *chunk*
    # boundaries -- chunk order stays hidden behind random virtual ids.
    assert len(recovered) / len(dataset.rows) > 0.8


def test_correlation_gain_positive_under_full_collusion(world):
    registry, _, _, _, dataset = world
    blobs = Adversary.global_view(registry).dump_blobs()
    naive, correlated = correlation_gain(blobs, PARSERS, dataset.rows)
    # Correlating shards recovers rows that straddle shard boundaries.
    assert correlated > naive
    assert correlated > 0.8


def test_misleading_bytes_hurt_even_global_adversary():
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(5)
    ]
    registry, _, _ = build_simulated_fleet(specs, seed=61)
    distributor = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(256), codec="raid5@4", seed=62
    )
    distributor.register_client("C")
    distributor.add_password("C", "pw", PrivacyLevel.PRIVATE)
    dataset = generate_bidding_history(300, seed=63)
    distributor.upload_file(
        "C", "pw", "bids.csv", dataset.to_bytes(), PrivacyLevel.PRIVATE,
        misleading_fraction=0.3,
    )
    frac = Adversary.global_view(registry).recovered_fraction(PARSERS, dataset.rows)
    assert frac < 0.7  # misleading bytes corrupt a good share of rows

    # But the legitimate client still reads the file perfectly.
    assert (
        distributor.get_file("C", "pw", "bids.csv") == dataset.to_bytes()
    )
