"""Experiments F1/E1: distribution-time performance (Section VIII).

"We have tested the consistency of the system and have monitored its
performance (Distribution time)."  The paper reports no absolute numbers,
so we regenerate the measurement itself: simulated upload (distribution)
and retrieval time across file size, chunk size, provider count and RAID
level, on the shared simulated clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.raid.codecs import CodecSpec
from repro.raid.striping import RaidLevel
from repro.util.rng import SeedLike
from repro.workloads.files import random_bytes


@dataclass(frozen=True)
class DistributionTiming:
    file_size: int
    chunk_size: int
    n_providers: int
    raid_level: RaidLevel
    stripe_width: int
    n_chunks: int
    upload_sim_s: float
    retrieve_sim_s: float
    stored_bytes: int

    @property
    def storage_overhead(self) -> float:
        return self.stored_bytes / self.file_size if self.file_size else 1.0


def distribution_time_once(
    file_size: int,
    chunk_size: int = 4096,
    n_providers: int = 6,
    codec: "CodecSpec | RaidLevel | str" = "raid5@4",
    seed: SeedLike = 90,
) -> DistributionTiming:
    """Upload + retrieve one file on a fresh fleet; report simulated times."""
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(n_providers)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=seed)
    distributor = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(chunk_size),
        codec=codec,
        seed=seed,
    )
    distributor.register_client("C")
    distributor.add_password("C", "pw", PrivacyLevel.PRIVATE)
    payload = random_bytes(file_size, seed=seed)

    t0 = clock.now
    receipt = distributor.upload_file("C", "pw", "f", payload, PrivacyLevel.PRIVATE)
    upload_time = clock.now - t0

    t1 = clock.now
    roundtrip = distributor.get_file("C", "pw", "f")
    retrieve_time = clock.now - t1
    if roundtrip != payload:
        raise AssertionError("consistency check failed: retrieved != uploaded")

    stored = sum(p.meter.stored_bytes for p in providers)
    return DistributionTiming(
        file_size=file_size,
        chunk_size=chunk_size,
        n_providers=n_providers,
        raid_level=receipt.raid_level,
        stripe_width=receipt.stripe_width,
        n_chunks=receipt.chunk_count,
        upload_sim_s=upload_time,
        retrieve_sim_s=retrieve_time,
        stored_bytes=stored,
    )


def distribution_time_sweep(
    file_sizes: list[int] = (64 * 1024, 256 * 1024, 1024 * 1024),
    chunk_sizes: list[int] = (1024, 4096, 16384),
    provider_counts: list[int] = (4, 8, 16),
    raid_levels: list[RaidLevel] = (RaidLevel.RAID0, RaidLevel.RAID5, RaidLevel.RAID6),
    seed: SeedLike = 91,
) -> list[DistributionTiming]:
    """The E1 parameter sweep: one axis varies while the others sit at
    their middle defaults."""
    results: list[DistributionTiming] = []
    mid_file = file_sizes[len(file_sizes) // 2]
    mid_chunk = chunk_sizes[len(chunk_sizes) // 2]
    for size in file_sizes:
        results.append(distribution_time_once(size, chunk_size=mid_chunk, seed=seed))
    for chunk in chunk_sizes:
        results.append(distribution_time_once(mid_file, chunk_size=chunk, seed=seed))
    for n in provider_counts:
        results.append(
            distribution_time_once(mid_file, chunk_size=mid_chunk, n_providers=n, seed=seed)
        )
    for level in raid_levels:
        results.append(
            distribution_time_once(
                mid_file,
                chunk_size=mid_chunk,
                codec=CodecSpec(level.value, width=max(4, level.min_width)),
                seed=seed,
            )
        )
    return results
