"""What a wire round costs the client, by count, never by clock.

A one-chunk update reaches the chunk's providers in three rounds: read the
pre-state, store the new stripe and its snapshot, retire the old shards.
Each round is one batched request a provider, sent by the calling thread
to every provider before it reads any answer: no leg is handed to a
transport thread, each provider lends one pooled socket a round, and a
warmed round resolves no metric handle on either end of a frame, sets no
socket timeout and formats no op label.  A reply lost between the two
halves is replayed as a whole call's would be.
"""

from __future__ import annotations

import socket
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import PrivacyLevel
from repro.net.cluster import LocalCluster
from repro.net.pool import ConnectionPool
from repro.net.protocol import OpCode
from repro.net.server import ChunkServer
from repro.obs.metrics import MetricsRegistry, set_metrics

from tests.net.conftest import RequestLog
from tests.net.test_wire_faults import ScriptedFaults

DATA = bytes(range(256)) * 32  # 8 KiB: two chunks at PL-2


class LoggedServer(RequestLog, ChunkServer):
    def __init__(self, backend, **kwargs) -> None:
        super().__init__(backend, wire_faults=ScriptedFaults(), **kwargs)


@pytest.fixture
def fleet():
    """A PL-2 ``raid5@4`` file on six socket nodes, every node's sockets,
    and every client and server metric handle warmed."""
    metrics = MetricsRegistry()
    previous = set_metrics(metrics)  # the cluster's clients and servers
    try:
        with LocalCluster(6, server_cls=LoggedServer) as cluster:
            d = CloudDataDistributor(
                cluster.build_registry(), seed=3, codec="raid5@4", metrics=metrics
            )
            d.register_client("C")
            d.add_password("C", "pw", PrivacyLevel.PRIVATE)
            d.upload_file("C", "pw", "f", DATA, PrivacyLevel.MODERATE)
            for provider in cluster.providers:
                assert provider.put_many([("warm", b"w")]) == [None]
                assert provider.get_many(["warm"]) == [b"w"]
                assert provider.delete_many(["warm"]) == [None]
            d.update_chunk("C", "pw", "f", 0, b"warm")
            for server in cluster.servers:
                server.ops.clear()
            yield d, cluster
            d.close()
    finally:
        set_metrics(previous)


@pytest.fixture
def rounds(monkeypatch):
    """One entry per round: its legs' ``(method, provider)`` and the pool
    each socket checkout of the round came from."""
    log: list[dict] = []
    transport_map = CloudDataDistributor._transport_map
    checkout = ConnectionPool.checkout

    def booked_round(d, legs):
        log.append({"legs": [(leg[0], leg[1]) for leg in legs], "leases": []})
        return transport_map(d, legs)

    def booked_checkout(pool, op=""):
        log[-1]["leases"].append(pool.label)
        return checkout(pool, op)

    monkeypatch.setattr(CloudDataDistributor, "_transport_map", booked_round)
    monkeypatch.setattr(ConnectionPool, "checkout", booked_checkout)
    return log


@pytest.fixture
def submits(monkeypatch):
    calls: list = []
    submit = ThreadPoolExecutor.submit

    def counted(self, fn, /, *args, **kwargs):
        calls.append(fn)
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
    return calls


@pytest.fixture
def net_handle_lookups(monkeypatch):
    """One entry per ``MetricsRegistry.counter``/``histogram`` call made
    from a ``repro.net`` module, on any thread."""
    calls: list[str] = []
    for kind in ("counter", "histogram"):
        lookup = getattr(MetricsRegistry, kind)

        def watched(registry, name, *args, _lookup=lookup, **labels):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("repro.net"):
                calls.append(name)
            return _lookup(registry, name, *args, **labels)

        monkeypatch.setattr(MetricsRegistry, kind, watched)
    return calls


@pytest.fixture
def timeouts(monkeypatch):
    """``settimeout`` calls made from ``repro.net.remote``, and the sockets
    the pools dialed (each dial sets its connect timeout itself)."""
    counts = Counter()
    settimeout, connect = socket.socket.settimeout, ConnectionPool._connect

    def watched(sock, value):
        if sys._getframe(1).f_globals.get("__name__") == "repro.net.remote":
            counts["settimeout"] += 1
        return settimeout(sock, value)

    def dialed(pool):
        counts["dialed"] += 1
        return connect(pool)

    monkeypatch.setattr(socket.socket, "settimeout", watched)
    monkeypatch.setattr(ConnectionPool, "_connect", dialed)
    return counts


@pytest.fixture
def op_name_reads():
    """Each ``OpCode.name`` read made from ``repro.net.remote``."""
    reads: list[str] = []

    def name(op):
        if sys._getframe(1).f_globals.get("__name__") == "repro.net.remote":
            reads.append(op._name_)
        return op._name_

    OpCode.name = property(name)  # shadows the enum's own, until deleted
    try:
        yield reads
    finally:
        del OpCode.name


def served_ops(cluster: LocalCluster) -> Counter:
    return Counter(
        OpCode(op).name for server in cluster.servers for op in server.ops
    )


def test_a_one_chunk_update_is_three_rounds_on_the_calling_thread(
    fleet, rounds, submits, net_handle_lookups
):
    d, cluster = fleet
    d.update_chunk("C", "pw", "f", 1, b"patched")
    assert d.get_chunk("C", "pw", "f", 1) == b"patched"
    update = rounds[:3]
    assert [Counter(method for method, _ in r["legs"]) for r in update] == [
        {"get_many": 3}, {"put_many": 5}, {"delete_many": 4},
    ]
    labels = {p.name: p.pool.label for p in cluster.providers}
    for r in update:
        # One lease a provider a round: every leg's socket, no other.
        assert sorted(r["leases"]) == sorted(labels[name] for _, name in r["legs"])
    assert served_ops(cluster) == {
        # the update's three rounds, then the read's k data shards
        "MULTI_GET": 3 + 3, "MULTI_PUT": 5, "DELETE": 4,
    }
    assert submits == []
    assert net_handle_lookups == []


@pytest.mark.parametrize("socket", ["reused", "fresh"])
def test_a_reply_lost_between_the_halves_is_replayed(fleet, socket):
    """The first provider the update reads from closes its connection
    after the request arrived and before the answer left.  A reused socket
    is redialed for free, a fresh one is retried once: either way the
    update lands and the provider is not held to blame."""
    d, cluster = fleet
    (ref,) = [r for r in d.client_table.get("C").refs_for_file("f") if r.serial == 1]
    first = d.chunk_table.get(ref.chunk_index).provider_indices[0]
    name = d.provider_table.get(int(first)).name
    index = [p.name for p in cluster.providers].index(name)
    if socket == "fresh":
        cluster.providers[index].pool.discard_idle()
    cluster.servers[index].wire_faults.arm({1: "drop"})
    d.update_chunk("C", "pw", "f", 1, b"patched")
    assert cluster.servers[index].wire_faults.injected["drop"] == 1
    assert d.get_chunk("C", "pw", "f", 1) == b"patched"
    assert served_ops(cluster)["MULTI_GET"] == 3 + 1 + 3  # the read replayed once
    stale = d.metrics.value("net_client_stale_connections_total", provider=name)
    retries = d.metrics.value("net_client_retries_total", provider=name)
    assert (stale, retries) == ((1, 0) if socket == "reused" else (0, 1))
    assert d.health.healthy(name)


def test_warmed_updates_set_no_timeout_and_read_no_op_name(fleet, timeouts, op_name_reads):
    # Without a deadline a leased socket's timeout is always op_timeout: it
    # is set once a dialed socket, not once a window, and each op's labels
    # are formatted once, not read off the enum a window.
    d, _ = fleet
    for i in range(20):
        d.update_chunk("C", "pw", "f", i % 2, bytes([i]) * 100)
    assert d.get_chunk("C", "pw", "f", 1) == bytes([19]) * 100
    assert timeouts["settimeout"] <= timeouts["dialed"]
    assert op_name_reads == []
