"""Ablation A1: chunk size vs mining success (Section VII-C).

"Splitting data into smaller chunks restricts mining to a great extent.
Smaller chunks contain insufficient data."  An insider at one provider
salvages rows from her shards and refits the bidding model; smaller chunks
leave her fewer parseable rows and a worse model.
"""

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.mining.adversary import Adversary
from repro.mining.regression import coefficient_distance, fit_linear
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.util.tables import render_table
from repro.workloads.bidding import PARSERS, generate_bidding_history, rows_from_salvaged

CHUNK_SIZES = [8192, 2048, 512, 128, 64]


def run_a1():
    dataset = generate_bidding_history(600, seed=110)
    full_model = fit_linear(dataset.features(), dataset.bids())
    rows = []
    for chunk_size in CHUNK_SIZES:
        specs = [
            ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
            for i in range(6)
        ]
        registry, _, _ = build_simulated_fleet(specs, seed=111)
        distributor = CloudDataDistributor(
            registry,
            chunk_policy=ChunkSizePolicy.uniform(chunk_size),
            codec="raid5@4",
            seed=112,
        )
        distributor.register_client("C")
        distributor.add_password("C", "pw", PrivacyLevel.PRIVATE)
        distributor.upload_file(
            "C", "pw", "bids.csv", dataset.to_bytes(), PrivacyLevel.PRIVATE
        )
        insider = Adversary.insider(registry, "P0")
        salvaged = insider.observe(PARSERS).rows
        divergence = None
        if len(salvaged) >= 4:
            model = fit_linear(*(lambda d: (d.features(), d.bids()))(rows_from_salvaged(salvaged)))
            divergence = coefficient_distance(full_model, model)
        rows.append((chunk_size, len(salvaged), len(dataset), divergence))
    return rows


def test_a1_chunk_size_vs_mining(benchmark, save_result):
    rows = benchmark.pedantic(run_a1, rounds=1, iterations=1)
    table = render_table(
        ["chunk size (B)", "insider rows", "total rows", "model divergence"],
        [
            [c, got, total, "n/a (too few rows)" if d is None else f"{d:.4f}"]
            for c, got, total, d in rows
        ],
        title="A1: CHUNK SIZE vs INSIDER MINING SUCCESS (1 of 6 providers)",
    )
    save_result("a1_chunk_size_vs_mining", table)

    recovered = [got for _, got, _, _ in rows]
    divergences = [d for _, _, _, d in rows]
    # Once shards shrink toward a single record's size the insider's
    # salvage collapses; at 64 B chunks (21 B shards < one row) she gets
    # essentially nothing.
    assert recovered[-1] < 0.1 * recovered[0]
    assert recovered[-1] < 0.02 * rows[0][2]
    # Her model drifts further from the truth as chunks shrink (where she
    # can fit one at all).
    fitted = [d for d in divergences if d is not None]
    assert fitted[0] < 0.05
    assert fitted[-1] > 10 * fitted[0]
