"""Deployment consistency checker and garbage collection."""

import os

import pytest

from repro.analysis.consistency import collect_garbage, verify_deployment
from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.providers.failures import FailureInjector
from repro.providers.registry import ProviderSpec, build_simulated_fleet


@pytest.fixture
def world():
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(6)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=401)
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(512), codec="raid5@4", seed=402
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    d.upload_file("C", "pw", "f", os.urandom(6 * 1024), PrivacyLevel.PRIVATE)
    injector = FailureInjector(providers, clock, seed=403)
    return registry, providers, injector, d


def test_clean_deployment(world):
    _, _, _, d = world
    report = verify_deployment(d)
    assert report.clean
    assert report.shards_checked == 12 * 4
    assert report.missing == []
    assert "0 missing" in report.summary()


def test_detects_lost_shard(world):
    registry, providers, injector, d = world
    victim = providers[0]
    key = victim.backend.keys()[0]
    injector.lose_blob(victim.name, key)
    report = verify_deployment(d)
    assert not report.clean
    assert len(report.missing) == 1
    issue = report.missing[0]
    assert issue.provider == victim.name
    assert f"{issue.virtual_id}.{issue.shard_index}" == key
    # Repair fixes it; re-verify comes back clean.
    d.repair_file("C", "pw", "f")
    assert verify_deployment(d).clean


def test_detects_missing_snapshot(world):
    _, _, injector, d = world
    d.update_chunk("C", "pw", "f", 0, b"v2" * 128)
    ref = d.client_table.get("C").ref_for_chunk("f", 0)
    entry = d.chunk_table.get(ref.chunk_index)
    snap_provider = d.provider_table.get(entry.snapshot_index).name
    injector.lose_blob(snap_provider, f"S{entry.virtual_id}")
    report = verify_deployment(d)
    assert any(i.shard_index == -1 for i in report.missing)


def test_detects_and_collects_orphans(world):
    registry, providers, _, d = world
    providers[1].backend.put("999999.0", b"stale shard from a failed delete")
    providers[2].backend.put("junk-key", b"??")
    report = verify_deployment(d)
    assert not report.clean
    assert sum(len(v) for v in report.orphans.values()) == 2

    removed = collect_garbage(d, report)
    assert removed == 2
    assert verify_deployment(d).clean


def test_unreachable_provider_reported(world):
    _, providers, injector, d = world
    injector.take_down(providers[3].name)
    report = verify_deployment(d)
    assert providers[3].name in report.unreachable_providers
    # Its shards are neither counted missing nor orphaned.
    assert all(i.provider != providers[3].name for i in report.missing)


def test_gc_never_touches_live_data(world):
    _, _, _, d = world
    payload = d.get_file("C", "pw", "f")
    removed = collect_garbage(d)
    assert removed == 0
    assert d.get_file("C", "pw", "f") == payload


def test_profiling_helpers():
    from repro.util.profiling import profiled, timed

    with timed() as t:
        sum(range(10000))
    assert t["seconds"] >= 0

    with profiled(top=5) as prof:
        sorted(range(50000), key=lambda x: -x)
    assert prof.wall_seconds > 0
    assert prof.top  # captured some functions
    assert "wall time" in prof.report()
