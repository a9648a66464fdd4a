"""Ablation A9: chunk-cache effectiveness vs access pattern and capacity.

The paper's future-work overhead concern (§X) is frequent access.  A9
sweeps the distributor's LRU chunk cache over Zipf-skewed, sequential-scan
and uniform access patterns and reports hit rate + simulated time saved.
"""

from repro.core.cache import ChunkCache
from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.util.tables import render_table
from repro.util.units import format_duration
from repro.workloads.access_patterns import (
    sequential_scan,
    uniform_accesses,
    zipf_accesses,
)
from repro.workloads.files import random_bytes

CHUNK = 2048
N_CHUNKS = 64
N_ACCESSES = 300


def run_pattern(pattern_name, serials, cache_chunks):
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(6)
    ]
    registry, _, clock = build_simulated_fleet(specs, seed=190)
    cache = ChunkCache(cache_chunks * CHUNK) if cache_chunks else None
    d = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(CHUNK),
        codec="raid5@4",
        seed=191,
        cache=cache,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    payload = random_bytes(N_CHUNKS * CHUNK, seed=192)
    d.upload_file("C", "pw", "f", payload, PrivacyLevel.PRIVATE)
    t0 = clock.now
    for serial in serials:
        expected = payload[serial * CHUNK : (serial + 1) * CHUNK]
        assert d.get_chunk("C", "pw", "f", serial) == expected
    elapsed = clock.now - t0
    hit_rate = cache.hit_rate if cache else 0.0
    return pattern_name, cache_chunks, hit_rate, elapsed


def run_a9():
    patterns = {
        "zipf(1.1)": zipf_accesses(N_CHUNKS, N_ACCESSES, alpha=1.1, seed=193),
        "sequential x4": sequential_scan(N_CHUNKS, n_passes=4)[:N_ACCESSES],
        "uniform": uniform_accesses(N_CHUNKS, N_ACCESSES, seed=194),
    }
    rows = []
    for name, serials in patterns.items():
        for cache_chunks in (0, 16, 64):
            rows.append(run_pattern(name, serials, cache_chunks))
    return rows


def test_a9_cache_effectiveness(benchmark, save_result):
    rows = benchmark.pedantic(run_a9, rounds=1, iterations=1)
    table = render_table(
        ["pattern", "cache (chunks)", "hit rate", "sim time"],
        [
            [name, size or "off", f"{hit:.1%}", format_duration(t)]
            for name, size, hit, t in rows
        ],
        title=f"A9: CHUNK-CACHE EFFECTIVENESS ({N_ACCESSES} point reads of {N_CHUNKS} chunks)",
    )
    save_result("a9_cache_effectiveness", table)

    by = {(name, size): (hit, t) for name, size, hit, t in rows}
    # Any cache beats none for every pattern.
    for pattern in ("zipf(1.1)", "sequential x4", "uniform"):
        assert by[(pattern, 16)][1] <= by[(pattern, 0)][1]
        assert by[(pattern, 64)][1] <= by[(pattern, 16)][1] + 1e-9
    # A full-corpus cache converts repeats into hits: near-perfect for
    # sequential repeats, strong for zipf, decent for uniform.
    assert by[("sequential x4", 64)][0] > 0.7
    assert by[("zipf(1.1)", 16)][0] > by[("uniform", 16)][0]
    # A small cache is nearly useless for sequential scans (classic LRU
    # scan-thrash) but still catches zipf's hot head.
    assert by[("zipf(1.1)", 16)][0] > 0.4
