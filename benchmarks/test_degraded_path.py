"""Degraded-path bench: what provider failures cost at read/write time.

Measures, on the simulated clock, how RAID-5 and RAID-6 stripes behave
with 0, 1 and 2 failed providers -- reads through parity rebuilds, writes
steered around dark nodes by health-aware placement -- plus the scrubber's
repair throughput when a stripe member dies outright.  The shapes that
must hold: degraded reads cost more than clean ones, RAID-5 dies at two
failures where RAID-6 keeps answering, and one scrub cycle relocates
every lost shard.
"""

from __future__ import annotations

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ReconstructionError
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.health.scrubber import Scrubber
from repro.providers.failures import FailureInjector
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.raid.striping import RaidLevel
from repro.util.tables import render_table
from repro.workloads.files import random_bytes

WIDTH = 4
CHUNK = 4096
PAYLOAD = random_bytes(64 * 1024, seed=150)
LEVELS = [RaidLevel.RAID5, RaidLevel.RAID6]


def make_world(level, n):
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(n)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=151)
    injector = FailureInjector(providers, clock, seed=152)
    d = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(CHUNK),
        codec=f"{level.value}@{WIDTH}",
        seed=153,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return d, providers, injector, clock


def timed_get(level, failed):
    """Upload over exactly WIDTH providers, fail *failed* stripe members,
    and read back on the simulated clock."""
    d, providers, injector, clock = make_world(level, n=WIDTH)
    d.upload_file("C", "pw", "f", PAYLOAD, PrivacyLevel.PRIVATE)
    for provider in providers[:failed]:
        injector.take_down(provider.name)
    start = clock.now
    try:
        assert d.get_file("C", "pw", "f") == PAYLOAD
    except ReconstructionError:
        return None
    return clock.now - start


def timed_put(level, failed):
    """Fail *failed* of six providers, then upload: health-aware placement
    must steer the stripe onto the live ones."""
    d, providers, injector, clock = make_world(level, n=WIDTH + 2)
    for provider in providers[:failed]:
        injector.take_down(provider.name)
    start = clock.now
    d.upload_file("C", "pw", "f", PAYLOAD, PrivacyLevel.PRIVATE)
    elapsed = clock.now - start
    assert d.get_file("C", "pw", "f") == PAYLOAD
    return elapsed


def timed_scrub():
    """Kill one stripe member for good; one scrub cycle must relocate all
    of its shards onto the spare nodes."""
    d, providers, injector, clock = make_world(RaidLevel.RAID5, n=WIDTH + 2)
    d.upload_file("C", "pw", "f", PAYLOAD, PrivacyLevel.PRIVATE)
    victim = max(providers, key=lambda p: p.backend.object_count)
    lost = victim.backend.object_count
    injector.kill_permanently(victim.name)
    start = clock.now
    report = Scrubber(d).run_once()
    elapsed = clock.now - start
    assert report.shards_rebuilt >= lost
    assert report.chunks_unrecoverable == 0
    assert Scrubber(d).run_once().shards_missing == 0
    assert d.get_file("C", "pw", "f") == PAYLOAD
    return report.shards_rebuilt, elapsed


def fmt(seconds):
    return "unreadable" if seconds is None else f"{seconds:.3f}s"


def run_bench():
    rows = []
    times = {}
    for level in LEVELS:
        for failed in (0, 1, 2):
            get_s = timed_get(level, failed)
            put_s = timed_put(level, failed)
            times[(level.name, "get", failed)] = get_s
            rows.append((level.name, failed, fmt(get_s), fmt(put_s)))
    rebuilt, scrub_s = timed_scrub()
    return rows, times, (rebuilt, scrub_s)


def test_degraded_path(benchmark, save_result):
    rows, times, (rebuilt, scrub_s) = benchmark.pedantic(
        run_bench, rounds=1, iterations=1
    )
    table = render_table(
        ["RAID", "failed providers", "get (sim clock)", "put (sim clock)"],
        rows,
        title="DEGRADED PATH: read/write cost vs failed providers "
        f"({len(PAYLOAD)} B file, width {WIDTH})",
    )
    rate = rebuilt / scrub_s if scrub_s > 0 else float("inf")
    table += (
        f"\nscrubber repair: {rebuilt} shard(s) relocated in "
        f"{scrub_s:.3f}s simulated ({rate:.1f} shards/s)"
    )
    save_result("degraded_path", table)

    # Parity rebuilds cost more than clean reads...
    assert times[("RAID5", "get", 1)] > times[("RAID5", "get", 0)]
    assert times[("RAID6", "get", 2)] > times[("RAID6", "get", 0)]
    # ...RAID-5 cannot survive two failures, RAID-6 must...
    assert times[("RAID5", "get", 2)] is None
    assert times[("RAID6", "get", 2)] is not None
    # ...and the scrubber actually relocated the dead node's shards.
    assert rebuilt > 0
