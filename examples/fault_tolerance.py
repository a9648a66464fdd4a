#!/usr/bin/env python3
"""Availability drills: outages, provider death, and distributor failover.

Demonstrates the availability half of the paper's pitch (Section III-B):
RAID-coded stripes ride out provider outages, repair re-homes shards after
a provider goes out of business, and the Fig. 2 multi-distributor
extension keeps retrievals alive through a distributor crash.

Run:  python examples/fault_tolerance.py
"""

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import DistributorUnavailableError, ReconstructionError
from repro.core.multi_distributor import DistributorGroup
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.providers.failures import FailureInjector
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.raid.striping import RaidLevel
from repro.workloads.files import random_bytes


def raid_drill() -> None:
    print("=== RAID drill: one fleet, four redundancy levels ===")
    payload = random_bytes(64 * 1024, seed=1)
    for level in (RaidLevel.RAID0, RaidLevel.RAID5, RaidLevel.RAID6):
        width = max(4, level.min_width)
        specs = [
            ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
            for i in range(width + 2)
        ]
        registry, fleet, clock = build_simulated_fleet(specs, seed=2)
        d = CloudDataDistributor(
            registry, chunk_policy=ChunkSizePolicy.uniform(4096),
            codec=f"{level.value}@{width}", seed=3,
        )
        d.register_client("C")
        d.add_password("C", "pw", PrivacyLevel.PRIVATE)
        d.upload_file("C", "pw", "f", payload, PrivacyLevel.PRIVATE)

        injector = FailureInjector(fleet, clock)
        injector.take_down("P0")
        injector.take_down("P1")
        try:
            ok = d.get_file("C", "pw", "f") == payload
            outcome = "served" if ok else "CORRUPT"
        except ReconstructionError:
            outcome = "lost"
        print(f"  {level.name:6s} (width {width}): two providers down -> read {outcome}")
    print()


def death_and_repair() -> None:
    print("=== Provider goes out of business; repair re-homes its shards ===")
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP) for i in range(6)
    ]
    registry, fleet, clock = build_simulated_fleet(specs, seed=4)
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(4096), codec="raid5@4", seed=5
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    payload = random_bytes(128 * 1024, seed=6)
    d.upload_file("C", "pw", "f", payload, PrivacyLevel.PRIVATE)

    injector = FailureInjector(fleet, clock)
    injector.kill_permanently("P0")
    report = d.repair_file("C", "pw", "f")
    print(
        f"  P0 died holding {report.shards_missing} shards; "
        f"{report.shards_rebuilt} rebuilt, {report.chunks_unrecoverable} chunks lost"
    )
    assert d.get_file("C", "pw", "f") == payload
    print("  file intact after repair\n")


def distributor_failover() -> None:
    print("=== Fig. 2: distributor crash, secondaries keep serving ===")
    registry, fleet, clock = build_simulated_fleet(
        [ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP) for i in range(6)],
        seed=7,
    )
    group = DistributorGroup(
        registry, n_distributors=3, seed=8, chunk_policy=ChunkSizePolicy.uniform(4096)
    )
    group.register_client("Alice")
    group.add_password("Alice", "pw", PrivacyLevel.PRIVATE)
    payload = random_bytes(32 * 1024, seed=9)
    group.upload_file("Alice", "pw", "f", payload, PrivacyLevel.PRIVATE)

    primary = group.primary_index("Alice")
    group.crash(primary)
    assert group.get_file("Alice", "pw", "f") == payload
    print(f"  primary distributor {primary} crashed; a secondary served the read")
    try:
        group.upload_file("Alice", "pw", "g", b"x", PrivacyLevel.PRIVATE)
    except DistributorUnavailableError:
        print("  uploads blocked until the primary recovers (by design)")
    group.recover(primary)
    group.upload_file("Alice", "pw", "g", b"x", PrivacyLevel.PRIVATE)
    print("  primary recovered, resynced, and accepted a new upload\n")


if __name__ == "__main__":
    raid_drill()
    death_and_repair()
    distributor_failover()
