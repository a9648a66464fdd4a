"""Chunk cache: standalone LRU behaviour and distributor integration."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ChunkCache
from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.providers.registry import ProviderSpec, build_simulated_fleet


# -- standalone LRU -------------------------------------------------------------


def test_capacity_validation():
    with pytest.raises(ValueError):
        ChunkCache(0)


def test_hit_miss_accounting():
    cache = ChunkCache(1024)
    assert cache.get(1) is None
    cache.put(1, b"abc")
    assert cache.get(1) == b"abc"
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate == 0.5


def test_lru_eviction_order():
    cache = ChunkCache(30)
    cache.put(1, b"x" * 10)
    cache.put(2, b"y" * 10)
    cache.put(3, b"z" * 10)
    cache.get(1)  # refresh 1; 2 becomes LRU
    cache.put(4, b"w" * 10)
    assert 2 not in cache
    assert 1 in cache and 3 in cache and 4 in cache
    assert cache.evictions == 1


def test_oversized_payload_not_cached():
    cache = ChunkCache(8)
    cache.put(1, b"too large for the cache")
    assert 1 not in cache
    assert cache.stored_bytes == 0


def test_overwrite_updates_bytes():
    cache = ChunkCache(100)
    cache.put(1, b"a" * 60)
    cache.put(1, b"b" * 10)
    assert cache.stored_bytes == 10
    assert cache.get(1) == b"b" * 10


def test_invalidate_and_clear():
    cache = ChunkCache(100)
    cache.put(1, b"a")
    cache.put(2, b"b")
    cache.invalidate(1)
    assert 1 not in cache and 2 in cache
    cache.clear()
    assert len(cache) == 0 and cache.stored_bytes == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20), st.binary(min_size=1, max_size=40)), max_size=40))
def test_property_bytes_never_exceed_capacity(ops):
    cache = ChunkCache(100)
    for vid, payload in ops:
        cache.put(vid, payload)
        assert cache.stored_bytes <= 100
        assert cache.stored_bytes == sum(
            len(cache._entries[k]) for k in cache._entries
        )


# -- distributor integration ---------------------------------------------------


@pytest.fixture
def cached_world():
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(6)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=320)
    cache = ChunkCache(1024 * 1024)
    d = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(1024),
        codec="raid5@4",
        seed=321,
        cache=cache,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return d, cache, providers, clock


def test_second_read_served_from_cache(cached_world):
    d, cache, providers, clock = cached_world
    payload = os.urandom(8 * 1024)
    d.upload_file("C", "pw", "f", payload, PrivacyLevel.PRIVATE)
    assert d.get_file("C", "pw", "f") == payload
    requests_after_first = sum(len(p.request_log) for p in providers)
    t0 = clock.now
    assert d.get_file("C", "pw", "f") == payload
    assert sum(len(p.request_log) for p in providers) == requests_after_first
    assert clock.now == t0  # zero simulated time: no provider touched
    assert cache.hit_rate > 0


def test_cached_read_survives_total_outage(cached_world):
    d, cache, providers, clock = cached_world
    payload = os.urandom(2 * 1024)
    d.upload_file("C", "pw", "f", payload, PrivacyLevel.PRIVATE)
    d.get_file("C", "pw", "f")  # warm
    for p in providers:
        p.set_available(False)
    assert d.get_file("C", "pw", "f") == payload


def test_update_invalidates(cached_world):
    d, cache, _, _ = cached_world
    d.upload_file("C", "pw", "f", b"v1" * 200, PrivacyLevel.PRIVATE)
    d.get_file("C", "pw", "f")  # warm
    d.update_chunk("C", "pw", "f", 0, b"v2" * 200)
    assert d.get_file("C", "pw", "f") == b"v2" * 200


def test_remove_invalidates(cached_world):
    d, cache, _, _ = cached_world
    d.upload_file("C", "pw", "f", b"x" * 500, PrivacyLevel.PRIVATE)
    d.get_file("C", "pw", "f")
    warm = len(cache)
    d.remove_file("C", "pw", "f")
    assert len(cache) < warm or warm == 0


def test_cache_does_not_bypass_authorization(cached_world):
    d, cache, _, _ = cached_world
    d.add_password("C", "weak", PrivacyLevel.PUBLIC)
    d.upload_file("C", "pw", "f", b"secret" * 100, PrivacyLevel.PRIVATE)
    d.get_file("C", "pw", "f")  # warm the cache
    from repro.core.errors import AuthorizationError

    with pytest.raises(AuthorizationError):
        d.get_file("C", "weak", "f")
