"""Transport fan-out: one stripe's shards are dispatched concurrently.

Uses gate providers whose ``put``/``get`` block on a barrier sized to the
stripe: the barrier only releases if every shard request of the stripe is
in flight *at the same time*, so a serial dispatch deterministically fails
the test (and vice versa for the serial-path test).
"""

from __future__ import annotations

import threading

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.providers.base import BlobStat, CloudProvider
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry

WIDTH = 4


class GateProvider(CloudProvider):
    """In-memory provider that can gate requests on a shared barrier."""

    def __init__(self, name: str, gates: dict) -> None:
        super().__init__(name)
        self.inner = InMemoryProvider(name)
        self.gates = gates  # {"put": Barrier | None, "get": ...}
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0

    def _enter(self, op: str) -> None:
        with self.lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        barrier = self.gates.get(op)
        if barrier is not None:
            barrier.wait()  # timeout set at Barrier construction

    def _exit(self) -> None:
        with self.lock:
            self.in_flight -= 1

    def put(self, key: str, data: bytes, checksum=None) -> None:
        self._enter("put")
        try:
            self.inner.put(key, data)
        finally:
            self._exit()

    def get(self, key: str) -> bytes:
        self._enter("get")
        try:
            return self.inner.get(key)
        finally:
            self._exit()

    def delete(self, key: str) -> None:
        self.inner.delete(key)

    def keys(self) -> list[str]:
        return self.inner.keys()

    def head(self, key: str) -> BlobStat:
        return self.inner.head(key)


def build(gates: dict, **distributor_kwargs):
    registry = ProviderRegistry()
    providers = [GateProvider(f"G{i}", gates) for i in range(WIDTH)]
    for p in providers:
        registry.register(p, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    d = CloudDataDistributor(
        registry, seed=11, codec=f"raid5@{WIDTH}", **distributor_kwargs
    )
    d.register_client("C")
    d.add_password("C", "pw", 3)
    return d, providers


def test_stripe_put_dispatches_concurrently():
    # The barrier releases only when all WIDTH shard puts overlap in time.
    gates = {"put": threading.Barrier(WIDTH, timeout=5.0)}
    d, _ = build(gates)
    d.upload_file("C", "pw", "f", b"tiny payload", 3)  # one chunk
    assert d.get_file("C", "pw", "f") == b"tiny payload"
    d.close()


def test_stripe_get_dispatches_concurrently():
    gates: dict = {}
    d, _ = build(gates)
    d.upload_file("C", "pw", "f", b"tiny payload", 3)
    # RAID5 over WIDTH providers: k = WIDTH - 1 data shards fetched first,
    # all of which must be in flight together to fill the barrier.
    gates["get"] = threading.Barrier(WIDTH - 1, timeout=5.0)
    assert d.get_file("C", "pw", "f") == b"tiny payload"
    d.close()


def test_serial_path_never_overlaps():
    d, providers = build({}, max_transport_workers=1)
    d.upload_file("C", "pw", "f", b"tiny payload", 3)
    assert d.get_file("C", "pw", "f") == b"tiny payload"
    assert all(p.max_in_flight == 1 for p in providers)
    d.close()


def test_serial_barrier_would_deadlock():
    """Sanity check of the instrument itself: with one transport worker the
    put barrier cannot fill, so the gated upload must fail, proving the
    concurrent test above really measures overlap."""
    barrier = threading.Barrier(WIDTH, timeout=0.2)
    d, _ = build({"put": barrier}, max_transport_workers=1)
    with pytest.raises(threading.BrokenBarrierError):
        d.upload_file("C", "pw", "f", b"tiny payload", 3)
    d.close()
