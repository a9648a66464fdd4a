"""Transport bench: in-process vs socket, serial vs concurrent fan-out.

Round-trips the same PL-3 file through four configurations of the
distributor -- {in-process, socket transport} x {serial, fan-out} -- and
reports wall-clock upload/retrieve times.  The shapes that must hold:
sockets cost more than in-process calls, and fan-out reclaims a chunk of
that cost by overlapping the per-stripe requests across providers.

A uniform 64 KiB chunk policy replaces the default 1 KiB PL-3 schedule:
with ~350-byte shards the wall clock is pure Python framing overhead and
fan-out has nothing to overlap.  Every backend also carries a 1 ms per-op
service lag: loopback sockets answer in microseconds, so without it the
whole bench is GIL-bound framing in a single process and concurrency has
no latency to hide -- the lag stands in for the WAN round-trip a real
cloud provider costs, which is exactly what fan-out overlaps.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.net.cluster import LocalCluster
from repro.net.remote import RetryPolicy
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry
from repro.util.tables import render_table
from repro.util.units import format_bytes, format_duration

FILE_SIZE = 1024 * 1024
CHUNK_SIZE = 64 * 1024
NODES = 4
LAG_S = 0.001


class LaggedMemoryProvider(InMemoryProvider):
    """In-memory store with a fixed per-op service lag.

    Models the provider-side round-trip a real deployment pays; the sleep
    releases the GIL, so overlapped requests genuinely run concurrently.
    """

    waits = True  # it sleeps: its legs belong on the transport pool

    def put(self, key, data, checksum=None):
        time.sleep(LAG_S)
        return super().put(key, data)

    def get(self, key):
        time.sleep(LAG_S)
        return super().get(key)

    def delete(self, key):
        time.sleep(LAG_S)
        return super().delete(key)

    def head(self, key):
        time.sleep(LAG_S)
        return super().head(key)

    def keys(self):
        time.sleep(LAG_S)
        return super().keys()


@dataclass
class Result:
    transport: str
    dispatch: str
    upload_s: float
    retrieve_s: float


def _roundtrip(registry, workers: int) -> tuple[float, float]:
    distributor = CloudDataDistributor(
        registry,
        seed=17,
        max_transport_workers=workers,
        chunk_policy=ChunkSizePolicy.uniform(CHUNK_SIZE),
    )
    distributor.register_client("bench")
    distributor.add_password("bench", "pw", 3)
    data = os.urandom(FILE_SIZE)

    started = time.perf_counter()
    distributor.upload_file("bench", "pw", "bench.bin", data, 3)
    upload_s = time.perf_counter() - started

    started = time.perf_counter()
    retrieved = distributor.get_file("bench", "pw", "bench.bin")
    retrieve_s = time.perf_counter() - started
    assert retrieved == data
    distributor.close()
    return upload_s, retrieve_s


def _memory_registry() -> ProviderRegistry:
    registry = ProviderRegistry()
    for i in range(NODES):
        registry.register(
            LaggedMemoryProvider(f"mem{i}"), PrivacyLevel.PRIVATE, CostLevel.CHEAP
        )
    return registry


def run_bench() -> list[Result]:
    results = []
    for dispatch, workers in (("serial", 1), ("fan-out", NODES)):
        upload_s, retrieve_s = _roundtrip(_memory_registry(), workers)
        results.append(Result("in-process", dispatch, upload_s, retrieve_s))
    for dispatch, workers in (("serial", 1), ("fan-out", NODES)):
        backends = [LaggedMemoryProvider(f"node{i}") for i in range(NODES)]
        with LocalCluster(
            backends=backends, retry=RetryPolicy(attempts=2, base_delay=0.01)
        ) as cluster:
            upload_s, retrieve_s = _roundtrip(cluster.build_registry(), workers)
        results.append(Result("socket", dispatch, upload_s, retrieve_s))
    return results


def test_net_throughput(benchmark, save_result):
    results = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    table = render_table(
        ["transport", "dispatch", "upload", "retrieve", "total"],
        [
            [
                r.transport,
                r.dispatch,
                format_duration(r.upload_s),
                format_duration(r.retrieve_s),
                format_duration(r.upload_s + r.retrieve_s),
            ]
            for r in results
        ],
        title=f"NET: TRANSPORT THROUGHPUT ({format_bytes(FILE_SIZE)} PL-3 file, "
        f"{NODES} providers)",
    )
    save_result("net_throughput", table)

    by_key = {(r.transport, r.dispatch): r.upload_s + r.retrieve_s for r in results}
    # Sockets cost real syscalls; in-process dict stores must win big.
    assert by_key[("in-process", "serial")] < by_key[("socket", "serial")]
    # Fan-out overlaps the per-stripe socket round-trips across providers;
    # generous 0.9 margin keeps loaded CI machines from flaking the bench.
    assert by_key[("socket", "fan-out")] < by_key[("socket", "serial")] * 0.9
