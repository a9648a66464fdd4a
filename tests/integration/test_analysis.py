"""Exposure and availability analysis."""

import os

import pytest

from repro.analysis.availability import (
    file_availability,
    mttdl_ratio,
    stripe_availability,
)
from repro.analysis.exposure import (
    client_exposure,
    collusion_exposure,
    exposure_rows,
)
from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.raid.striping import RaidLevel


@pytest.fixture
def deployed():
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(8)
    ]
    registry, _, _ = build_simulated_fleet(specs, seed=310)
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(1024), codec="raid5@4", seed=311
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    d.upload_file("C", "pw", "f", os.urandom(40 * 1024), PrivacyLevel.PRIVATE)
    return d


# -- exposure --------------------------------------------------------------


def test_exposure_shares_sum_to_one(deployed):
    report = client_exposure(deployed, "C")
    assert sum(p.byte_share for p in report.per_provider) == pytest.approx(1.0)
    assert report.total_chunks == 40
    assert report.providers_used > 1


def test_exposure_bounded_by_distribution(deployed):
    report = client_exposure(deployed, "C")
    # 8 providers, stripes of 4, load-balanced: no provider should hold
    # much more than 4/8 of the bytes; certainly not all of them.
    assert report.max_byte_share < 0.30
    assert report.max_chunk_coverage < 0.8


def test_exposure_single_provider_baseline():
    """The architecture the paper attacks: one provider sees 100%."""
    specs = [ProviderSpec("Mono", PrivacyLevel.PRIVATE, CostLevel.CHEAP)]
    registry, _, _ = build_simulated_fleet(specs, seed=312)
    d = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(1024),
        codec="raid0@1",
        seed=313,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    d.upload_file("C", "pw", "f", b"x" * 4096, PrivacyLevel.PRIVATE)
    report = client_exposure(d, "C")
    assert report.max_byte_share == pytest.approx(1.0)
    assert report.max_chunk_coverage == pytest.approx(1.0)


def test_collusion_exposure_monotone(deployed):
    values = [collusion_exposure(deployed, "C", k) for k in range(0, 9)]
    assert values[0] == 0.0
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0)


def test_collusion_validation(deployed):
    with pytest.raises(ValueError):
        collusion_exposure(deployed, "C", -1)


def test_exposure_rows_render(deployed):
    rows = exposure_rows(client_exposure(deployed, "C"))
    assert len(rows) == 8
    assert all(len(r) == 5 for r in rows)


# -- availability ---------------------------------------------------------------


def test_stripe_availability_extremes():
    assert stripe_availability(RaidLevel.RAID5, 4, 0.0) == pytest.approx(1.0)
    assert stripe_availability(RaidLevel.RAID5, 4, 1.0) == pytest.approx(0.0)


def test_stripe_availability_ordering():
    p = 0.1
    a0 = stripe_availability(RaidLevel.RAID0, 4, p)
    a5 = stripe_availability(RaidLevel.RAID5, 4, p)
    a6 = stripe_availability(RaidLevel.RAID6, 4, p)
    a1 = stripe_availability(RaidLevel.RAID1, 4, p)
    assert a0 < a5 < a6 <= a1


def test_raid0_closed_form():
    # RAID0 readable iff all members up.
    assert stripe_availability(RaidLevel.RAID0, 4, 0.1) == pytest.approx(0.9**4)


def test_raid5_closed_form():
    # Up to one loss: P = q^4 + 4 q^3 p with q = 0.9.
    expected = 0.9**4 + 4 * 0.9**3 * 0.1
    assert stripe_availability(RaidLevel.RAID5, 4, 0.1) == pytest.approx(expected)


def test_matches_monte_carlo():
    import numpy as np

    rng = np.random.default_rng(0)
    p = 0.15
    trials = 20_000
    downs = rng.random((trials, 5)) < p
    survivors = (downs.sum(axis=1) <= 2).mean()  # RAID6 width 5 tolerates 2
    assert stripe_availability(RaidLevel.RAID6, 5, p) == pytest.approx(
        survivors, abs=0.01
    )


def test_file_availability_decays_with_chunks():
    a1 = file_availability(RaidLevel.RAID5, 4, 0.05, 1)
    a100 = file_availability(RaidLevel.RAID5, 4, 0.05, 100)
    assert a100 < a1 <= 1.0
    assert file_availability(RaidLevel.RAID5, 4, 0.05, 0) == 1.0


def test_validation():
    with pytest.raises(ValueError):
        stripe_availability(RaidLevel.RAID5, 4, 1.5)
    with pytest.raises(ValueError):
        file_availability(RaidLevel.RAID5, 4, 0.1, -1)


def test_mttdl_ratio():
    ratio = mttdl_ratio(RaidLevel.RAID6, RaidLevel.RAID5, 5, 0.05)
    assert ratio > 5  # RAID6 fails reads far less often
    assert mttdl_ratio(RaidLevel.RAID5, RaidLevel.RAID5, 5, 0.05) == pytest.approx(1.0)
