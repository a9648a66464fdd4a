"""A remove pays per provider and per window, not per shard.

Counted, not timed: ``net_client_request_seconds{op="DELETE"}`` takes one
sample per exchange (a window of pipelined frames is one), while
``net_client_requests_total{op="DELETE"}`` still counts every frame.
"""

from __future__ import annotations

import io
from math import ceil

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, PrivacyLevel
from repro.net.cluster import LocalCluster
from repro.net.remote import DELETE_WINDOW
from repro.obs.metrics import MetricsRegistry, set_metrics

NODES = 6
CHUNK = 64
CHUNKS = 512
DATA = bytes(range(256)) * (CHUNK * CHUNKS // 256)
# 512 raid5@4 chunks are 2,048 shards, about 342 to each of 6 providers.
EXCHANGES_BOUND = NODES * ceil(ceil(CHUNKS * 4 / NODES) / DELETE_WINDOW)


@pytest.fixture
def fleet():
    metrics = MetricsRegistry()
    previous = set_metrics(metrics)  # LocalCluster's clients take the default
    try:
        with LocalCluster(NODES) as cluster:
            d = CloudDataDistributor(
                cluster.build_registry(),
                chunk_policy=ChunkSizePolicy.uniform(CHUNK),
                seed=3,
                metrics=metrics,
            )
            d.register_client("C")
            d.add_password("C", "pw", PrivacyLevel.PRIVATE)
            yield d, cluster, metrics
            d.close()
    finally:
        set_metrics(previous)


def delete_counts(metrics: MetricsRegistry) -> tuple[int, int]:
    """(exchanges, frames) of DELETE so far, over every provider."""
    exchanges = metrics.histogram(
        "net_client_request_seconds", op="DELETE"
    ).count
    frames = sum(
        metrics.value(
            "net_client_requests_total", op="DELETE", provider=f"node{i}"
        )
        for i in range(NODES)
    )
    return exchanges, int(frames)


def stored_objects(cluster: LocalCluster) -> int:
    return sum(len(backend.keys()) for backend in cluster.backends)


def test_remove_file_exchanges_windows_not_shards(fleet):
    d, cluster, metrics = fleet
    receipt = d.upload_file(
        "C", "pw", "f", DATA, PrivacyLevel.MODERATE, codec="raid5@4"
    )
    assert receipt.chunk_count == CHUNKS
    assert stored_objects(cluster) == 4 * CHUNKS
    assert delete_counts(metrics) == (0, 0)
    d.remove_file("C", "pw", "f")
    exchanges, frames = delete_counts(metrics)
    assert frames == 4 * CHUNKS  # every shard still its own DELETE frame
    assert NODES <= exchanges <= EXCHANGES_BOUND
    assert stored_objects(cluster) == 0
    assert d.provider_loads() == {f"node{i}": 0 for i in range(NODES)}


class _DiesAfter(io.BytesIO):
    """A source that fails once *limit* bytes have been read from it."""

    def __init__(self, data: bytes, limit: int) -> None:
        super().__init__(data)
        self.limit = limit

    def readinto(self, buffer) -> int:
        if self.tell() >= self.limit:
            raise OSError("source died")
        return super().readinto(buffer)


def test_upload_aborted_in_its_last_window_erases_in_windows(fleet):
    """Four windows of 128 chunks; the source dies as the fourth is read,
    with two windows tabled and the third on the wire: the abort erases
    all three in one batch per provider."""
    d, cluster, metrics = fleet
    source = _DiesAfter(DATA, limit=3 * 128 * CHUNK)
    with pytest.raises(OSError, match="source died"):
        d.put_stream(
            "C", "pw", "f", source, PrivacyLevel.MODERATE,
            codec="raid5@4", window_chunks=128,
        )
    exchanges, frames = delete_counts(metrics)
    assert frames == 4 * 3 * 128
    assert NODES <= exchanges <= EXCHANGES_BOUND
    assert stored_objects(cluster) == 0
    assert d.provider_loads() == {f"node{i}": 0 for i in range(NODES)}
    assert d.list_files("C", "pw") == []
    # The name is free again and the fleet takes the file whole.
    d.upload_file("C", "pw", "f", DATA, PrivacyLevel.MODERATE, codec="raid5@4")
    assert d.get_file("C", "pw", "f") == DATA
