"""Ablation A3: misleading-data fraction vs mining damage and overhead
(Section VII-D).

"Addition of misleading data affects mining results ... but it has some
overhead associated with retrieving data."
"""

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.mining.adversary import Adversary
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.util.tables import render_table
from repro.workloads.bidding import PARSERS, generate_bidding_history

FRACTIONS = [0.0, 0.1, 0.3, 0.6]


def run_a3():
    dataset = generate_bidding_history(500, seed=130)
    reference = set(dataset.rows)
    out = []
    for fraction in FRACTIONS:
        specs = [
            ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
            for i in range(5)
        ]
        registry, providers, clock = build_simulated_fleet(specs, seed=131)
        distributor = CloudDataDistributor(
            registry,
            chunk_policy=ChunkSizePolicy.uniform(2048),
            codec="raid5@4",
            seed=132,
        )
        distributor.register_client("C")
        distributor.add_password("C", "pw", PrivacyLevel.PRIVATE)
        payload = dataset.to_bytes()
        distributor.upload_file(
            "C", "pw", "bids.csv", payload, PrivacyLevel.PRIVATE,
            misleading_fraction=fraction,
        )
        # Attack: a full-fleet compromise, the strongest adversary.
        view = Adversary.global_view(registry).observe(PARSERS)
        genuine = len({r for r in view.rows if r in reference})
        fabricated = len(view.rows) - sum(r in reference for r in view.rows)

        # Overheads: extra stored bytes; extra retrieval time.
        stored = sum(p.meter.stored_bytes for p in providers)
        t0 = clock.now
        roundtrip = distributor.get_file("C", "pw", "bids.csv")
        read_time = clock.now - t0
        assert roundtrip == payload  # client unaffected
        out.append(
            (
                fraction,
                genuine / len(reference),
                fabricated,
                stored / len(payload),
                read_time,
            )
        )
    return out


def test_a3_misleading_data(benchmark, save_result):
    rows = benchmark.pedantic(run_a3, rounds=1, iterations=1)
    table = render_table(
        ["misleading fraction", "genuine rows recovered",
         "fabricated/damaged rows seen", "storage overhead", "read time (sim s)"],
        [
            [f, f"{g:.3f}", fab, f"{o:.2f}x", f"{t:.3f}"]
            for f, g, fab, o, t in rows
        ],
        title="A3: MISLEADING DATA vs GLOBAL-ADVERSARY RECOVERY (and its price)",
    )
    save_result("a3_misleading_data", table)

    recovered = [g for _, g, _, _, _ in rows]
    overheads = [o for _, _, _, o, _ in rows]
    # More misleading bytes -> monotonically less genuine data recovered...
    assert all(a >= b for a, b in zip(recovered, recovered[1:]))
    assert recovered[-1] < 0.5 * recovered[0]
    # ...at a storage overhead that grows with the fraction.
    assert all(a <= b for a, b in zip(overheads, overheads[1:]))
    assert overheads[-1] > overheads[0] * 1.3
