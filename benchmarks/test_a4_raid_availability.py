"""Ablation A4: RAID level vs availability under provider outages (§III-B).

"RAID level 6 ... guarantees successful retrieval of data in case of a
cloud provider being blocked by any unlikely event or going out of
business."  Schedules Poisson outages over a simulated month and samples
reads under each RAID level.
"""

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ReconstructionError
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.providers.failures import FailureInjector
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.raid.striping import RaidLevel
from repro.util.tables import render_table
from repro.workloads.files import random_bytes

LEVELS = [RaidLevel.RAID0, RaidLevel.RAID1, RaidLevel.RAID5, RaidLevel.RAID6]
HORIZON = 30 * 24 * 3600.0  # one simulated month
N_SAMPLES = 40


def run_a4():
    out = []
    payload = random_bytes(16 * 1024, seed=140)
    for level in LEVELS:
        width = max(4, level.min_width)
        specs = [
            ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
            for i in range(width)
        ]
        registry, providers, clock = build_simulated_fleet(specs, seed=141)
        distributor = CloudDataDistributor(
            registry,
            chunk_policy=ChunkSizePolicy.uniform(4096),
            codec=f"{level.value}@{width}",
            seed=142,
        )
        distributor.register_client("C")
        distributor.add_password("C", "pw", PrivacyLevel.PRIVATE)
        distributor.upload_file("C", "pw", "f", payload, PrivacyLevel.PRIVATE)

        injector = FailureInjector(providers, clock, seed=143)
        # Heavy weather: ~6 outages per provider-month, mean 8 h each.
        injector.schedule_random_outages(
            rate_per_provider=6 / HORIZON, horizon=clock.now + HORIZON,
            mean_duration=8 * 3600.0,
        )
        successes = 0
        start = clock.now
        for i in range(N_SAMPLES):
            injector.run_until(start + (i + 1) * HORIZON / N_SAMPLES)
            try:
                if distributor.get_file("C", "pw", "f") == payload:
                    successes += 1
            except ReconstructionError:
                pass
        out.append(
            (
                level.name,
                width,
                level.fault_tolerance,
                f"{level.storage_overhead(width):.2f}x",
                successes / N_SAMPLES,
            )
        )
    return out


def test_a4_raid_availability(benchmark, save_result):
    rows = benchmark.pedantic(run_a4, rounds=1, iterations=1)
    table = render_table(
        ["RAID", "stripe width", "tolerates", "storage overhead", "read availability"],
        rows,
        title=f"A4: RAID LEVEL vs AVAILABILITY ({N_SAMPLES} reads over a stormy month)",
    )
    save_result("a4_raid_availability", table)

    availability = {name: a for name, _, _, _, a in rows}
    # Redundancy buys availability, in order.
    assert availability["RAID0"] < availability["RAID5"]
    assert availability["RAID5"] <= availability["RAID6"]
    assert availability["RAID6"] >= 0.9
    assert availability["RAID1"] >= availability["RAID5"]
