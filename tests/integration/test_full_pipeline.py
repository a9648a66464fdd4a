"""One end-to-end pass of the whole paper: all workloads uploaded through
the real distributor, all four mining attacks run by a single insider,
each degraded relative to the single-provider baseline."""

import numpy as np
import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.mining.adversary import Adversary
from repro.mining.apriori import mine_rules, rule_recall
from repro.mining.decision_tree import fit_tree
from repro.mining.hierarchical import cut_tree, linkage
from repro.mining.metrics import adjusted_rand_index
from repro.mining.naive_bayes import fit_gaussian_nb
from repro.mining.regression import coefficient_distance, fit_linear
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.workloads import bidding, gps, records, transactions


@pytest.fixture(scope="module")
def world():
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(8)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=201)
    d = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(1024),
        codec="raid5@4",
        seed=202,
    )
    d.register_client("Corp")
    d.add_password("Corp", "pw", PrivacyLevel.PRIVATE)

    bids = bidding.generate_bidding_history(800, seed=203, noise_std=300.0)
    gps_traces = gps.generate_city(n_users=12, n_obs=600, seed=204)
    gps_blob = b"".join(t.to_bytes() for t in gps_traces)
    basket_log = transactions.generate_transactions(1500, seed=205)
    record_set = records.generate_records(1500, seed=206)

    d.upload_file("Corp", "pw", "bids.csv", bids.to_bytes(), PrivacyLevel.PRIVATE)
    d.upload_file("Corp", "pw", "gps.csv", gps_blob, PrivacyLevel.PRIVATE)
    d.upload_file("Corp", "pw", "baskets.csv", basket_log.to_bytes(), PrivacyLevel.PRIVATE)
    d.upload_file("Corp", "pw", "patients.csv", record_set.to_bytes(), PrivacyLevel.PRIVATE)

    insider = Adversary.insider(registry, "P0")
    return {
        "registry": registry,
        "distributor": d,
        "bids": bids,
        "gps_traces": gps_traces,
        "baskets": basket_log,
        "records": record_set,
        "insider": insider,
    }


def test_client_reads_everything_back(world):
    d = world["distributor"]
    assert d.get_file("Corp", "pw", "bids.csv") == world["bids"].to_bytes()
    assert d.get_file("Corp", "pw", "baskets.csv") == world["baskets"].to_bytes()


def test_regression_attack_degraded(world):
    truth = fit_linear(world["bids"].features(), world["bids"].bids())
    rows = [
        r for r in world["insider"].observe(bidding.PARSERS).rows
        if isinstance(r[1], str) and not r[1].isdigit()
    ]
    assert 0 < len(rows) < 0.4 * len(world["bids"])
    recovered = bidding.rows_from_salvaged(rows)
    model = fit_linear(recovered.features(), recovered.bids())
    assert coefficient_distance(truth, model) > 0.01


def test_clustering_attack_degraded(world):
    traces = world["gps_traces"]
    full = linkage(gps.feature_matrix(traces), method="average")
    full_labels = cut_tree(full, 4)

    rows = world["insider"].observe(gps.PARSERS).rows
    by_user: dict[int, list[tuple]] = {}
    for r in rows:
        by_user.setdefault(r[0], []).append(r)
    # The insider cannot even see all users' points; she clusters the ones
    # she has enough observations for.
    usable = [u for u in range(len(traces)) if len(by_user.get(u, [])) >= 10]
    assert len(usable) <= len(traces)
    partial_traces = []
    for u in usable:
        pts = np.array([[r[2], r[3]] for r in by_user[u]])
        partial_traces.append(
            gps.GPSTrace(user=traces[u].user, times=np.arange(len(pts)), points=pts)
        )
    if len(partial_traces) >= 4:
        frag = linkage(gps.feature_matrix(partial_traces), method="average")
        frag_labels = cut_tree(frag, min(4, len(partial_traces)))
        reference = full_labels[np.array(usable)]
        assert adjusted_rand_index(reference, frag_labels) < 1.0


def test_association_attack_degraded(world):
    full_rules = mine_rules(world["baskets"].baskets, min_support=0.03, min_confidence=0.6)
    assert full_rules  # the single-provider baseline finds rules
    rows = [
        r for r in world["insider"].observe(transactions.PARSERS).rows
        if isinstance(r[1], str) and not r[1].replace(".", "").isdigit()
    ]
    recovered_log = transactions.baskets_from_rows(rows)
    # Rebuilt baskets are fragmentary: txn groups are cut across shards.
    recovered_rules = mine_rules(
        recovered_log.baskets, min_support=0.03, min_confidence=0.6
    ) if recovered_log.baskets else []
    assert rule_recall(full_rules, recovered_rules) < 1.0


def test_prediction_attack_degraded(world):
    test_set = records.generate_records(600, seed=207)
    full_nb = fit_gaussian_nb(world["records"].features(), world["records"].labels())
    full_acc = full_nb.accuracy(test_set.features(), test_set.labels())

    rows = [
        r for r in world["insider"].observe(records.PARSERS).rows
        if len(r) == 6 and isinstance(r[1], int)
    ]
    assert len(rows) < len(world["records"])
    if len(rows) >= 10 and len({r[5] for r in rows}) == 2:
        frag = records.RecordSet(rows=rows)
        nb = fit_gaussian_nb(frag.features(), frag.labels())
        tree = fit_tree(frag.features(), frag.labels(), max_depth=5)
        # Insider's models are no better than the full-data baseline.
        assert nb.accuracy(test_set.features(), test_set.labels()) <= full_acc + 0.03
        assert tree.accuracy(test_set.features(), test_set.labels()) <= full_acc + 0.03


def test_insider_sees_minority_of_bytes(world):
    view = world["insider"].observe(bidding.PARSERS)
    total = sum(
        e.provider.stored_bytes for e in world["registry"].all()
    )
    assert view.byte_count < 0.30 * total  # ~4/8 of chunks x 1/4 of stripe each
