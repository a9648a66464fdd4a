"""Ablation A2: provider count vs per-provider mining quality (§VII-A).

"Fragmentation of data reduces the number of samples available and thus
affect the result."  With more providers sharing the chunks, one insider
sees a smaller sample and both her regression and prediction attacks
degrade.
"""

import numpy as np

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.mining.adversary import Adversary
from repro.mining.naive_bayes import fit_gaussian_nb
from repro.mining.regression import coefficient_distance, fit_linear
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.util.tables import render_table
from repro.workloads.bidding import PARSERS, generate_bidding_history, rows_from_salvaged
from repro.workloads.records import PARSERS as RECORD_PARSERS
from repro.workloads.records import RecordSet, generate_records

PROVIDER_COUNTS = [2, 4, 8, 16]


def run_a2():
    bids = generate_bidding_history(800, seed=120, noise_std=400.0)
    full_model = fit_linear(bids.features(), bids.bids())
    records = generate_records(2000, seed=121)
    test_records = generate_records(800, seed=122)
    full_nb = fit_gaussian_nb(records.features(), records.labels())
    full_acc = full_nb.accuracy(test_records.features(), test_records.labels())

    out = []
    for n in PROVIDER_COUNTS:
        specs = [
            ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
            for i in range(n)
        ]
        registry, _, _ = build_simulated_fleet(specs, seed=123)
        distributor = CloudDataDistributor(
            registry,
            chunk_policy=ChunkSizePolicy.uniform(1024),
            codec=f"raid5@{min(4, n)}" if n >= 3 else f"raid0@{n}",
            seed=124,
        )
        distributor.register_client("C")
        distributor.add_password("C", "pw", PrivacyLevel.PRIVATE)
        distributor.upload_file("C", "pw", "bids.csv", bids.to_bytes(), PrivacyLevel.PRIVATE)
        distributor.upload_file("C", "pw", "records.csv", records.to_bytes(), PrivacyLevel.PRIVATE)

        insider = Adversary.insider(registry, "P0")
        bid_rows = [r for r in insider.observe(PARSERS).rows if len(r) == 6]
        record_rows = [r for r in insider.observe(RECORD_PARSERS).rows if len(r) == 6]
        # Disambiguate workloads by schema: bidding rows have a str company.
        bid_rows = [r for r in bid_rows if isinstance(r[1], str)]
        record_rows = [r for r in record_rows if isinstance(r[1], int)]

        divergence = float("nan")
        if len(bid_rows) >= 4:
            model = fit_linear(
                rows_from_salvaged(bid_rows).features(),
                rows_from_salvaged(bid_rows).bids(),
            )
            divergence = coefficient_distance(full_model, model)
        accuracy = float("nan")
        labels = {r[5] for r in record_rows}
        if len(record_rows) >= 8 and len(labels) == 2:
            frag = RecordSet(rows=record_rows)
            nb = fit_gaussian_nb(frag.features(), frag.labels())
            accuracy = nb.accuracy(test_records.features(), test_records.labels())
        out.append((n, len(bid_rows), divergence, len(record_rows), accuracy))
    return out, full_acc


def test_a2_provider_count_vs_mining(benchmark, save_result):
    rows, full_acc = benchmark.pedantic(run_a2, rounds=1, iterations=1)
    table = render_table(
        ["providers", "insider bid rows", "regression divergence",
         "insider record rows", "NB accuracy (full={:.3f})".format(full_acc)],
        rows,
        title="A2: PROVIDER COUNT vs INSIDER MINING QUALITY",
    )
    save_result("a2_provider_count_vs_mining", table)

    bid_counts = [r[1] for r in rows]
    # More providers -> fewer rows at any one of them.
    assert bid_counts[0] > bid_counts[-1]
    # Insider's regression drifts further from the truth as data thins.
    divergences = [r[2] for r in rows if not np.isnan(r[2])]
    assert divergences[-1] > divergences[0]
