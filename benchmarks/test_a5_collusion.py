"""Ablation A5: colluding-provider count vs information recovered (§III-B).

"Distribution of data chunks among multiple providers restricts a cloud
provider from accessing all chunks of a client ... Specially correlating
data from various sources is cumbersome."  Sweeps the number of
compromised providers and compares the naive attacker against the
shard-correlating attacker.
"""

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.mining.adversary import Adversary
from repro.mining.linkage_attack import correlation_gain
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.util.tables import render_table
from repro.workloads.bidding import PARSERS, generate_bidding_history

N_PROVIDERS = 8


def run_a5():
    dataset = generate_bidding_history(600, seed=150)
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(N_PROVIDERS)
    ]
    registry, _, _ = build_simulated_fleet(specs, seed=151)
    distributor = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(1024),
        codec="raid5@4",
        seed=152,
    )
    distributor.register_client("C")
    distributor.add_password("C", "pw", PrivacyLevel.PRIVATE)
    distributor.upload_file(
        "C", "pw", "bids.csv", dataset.to_bytes(), PrivacyLevel.PRIVATE
    )
    out = []
    for k in range(1, N_PROVIDERS + 1):
        adversary = Adversary.colluding(registry, [f"P{i}" for i in range(k)])
        blobs = adversary.dump_blobs()
        naive, correlated = correlation_gain(blobs, PARSERS, dataset.rows)
        out.append((k, naive, correlated))
    return out


def test_a5_collusion(benchmark, save_result):
    rows = benchmark.pedantic(run_a5, rounds=1, iterations=1)
    table = render_table(
        ["colluding providers", "naive recovery", "correlating recovery"],
        [[k, f"{n:.3f}", f"{c:.3f}"] for k, n, c in rows],
        title=f"A5: COLLUSION SWEEP ({N_PROVIDERS} providers, RAID-5 width 4)",
    )
    save_result("a5_collusion", table)

    naive = [n for _, n, _ in rows]
    correlated = [c for _, _, c in rows]
    # Recovery grows with the collusion set, for both attackers.
    assert naive[0] < naive[-1]
    assert all(a <= b + 1e-9 for a, b in zip(naive, naive[1:]))
    assert all(a <= b + 1e-9 for a, b in zip(correlated, correlated[1:]))
    # Correlating shards beats naive parsing once stripes are covered.
    assert correlated[-1] > naive[-1]
    # A single insider recovers only a small slice.
    assert naive[0] < 0.25
