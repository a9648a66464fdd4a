"""Stale pooled sockets after a server restart must not cost anything.

When a chunk server restarts, every socket parked in the client's idle
pool is silently dead.  The first request on each one fails at the
transport level even though the server is back up -- the client must
detect the reuse, redial, and succeed WITHOUT burning retry attempts,
sleeping through backoff, opening the circuit breaker, or reporting a
failure that health monitors would count against the provider.

These tests restart the :class:`ChunkServer` directly (not through any
cluster helper that calls ``pool.discard_idle()`` for us) so the idle
sockets genuinely go stale.
"""

from __future__ import annotations

import pytest

from repro.net.pool import (
    ConnectionPool,
    Lease,
    StaleConnectionError,
    classify_stale,
)
from repro.net.remote import RemoteProvider, RetryPolicy
from repro.net.server import ChunkServer
from repro.obs.metrics import MetricsRegistry
from repro.providers.memory import InMemoryProvider

FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.05)


def _restarted_provider(metrics: MetricsRegistry):
    """Server + provider where the pool holds sockets from a dead epoch."""
    backend = InMemoryProvider("stale")
    server = ChunkServer(backend).start()
    port = server.port
    provider = RemoteProvider(
        "stale",
        "127.0.0.1",
        port,
        retry=FAST_RETRY,
        failfast_window=30.0,
        metrics=metrics,
    )
    provider.put("k", b"v")  # parks a now-reusable socket in the pool
    assert provider.pool.idle_count >= 1
    server.stop()
    server2 = ChunkServer(backend, port=port).start()
    return provider, server2


def test_lease_reports_freshness():
    backend = InMemoryProvider("x")
    with ChunkServer(backend) as server:
        pool = ConnectionPool(server.host, server.port, size=2)
        with pool.lease() as first:
            assert isinstance(first, Lease)
            assert first.fresh  # nothing idle yet: this one was dialed
        with pool.lease() as second:
            assert not second.fresh  # reused the socket parked above
        pool.close()


def test_stale_socket_redials_without_burning_budget():
    metrics = MetricsRegistry()
    provider, server2 = _restarted_provider(metrics)
    try:
        # Succeeds on the spot even though the pooled socket is dead.
        assert provider.get("k") == b"v"
        assert (
            metrics.value("net_client_stale_connections_total", provider="stale")
            >= 1
        )
        # The redial was free: no retry was recorded and the circuit never
        # opened (a second op goes straight through).
        assert metrics.value("net_client_retries_total", provider="stale") == 0
        assert provider.get("k") == b"v"
    finally:
        provider.close()
        server2.stop()


def test_stale_socket_does_not_feed_failure_metrics():
    """The op counts as one success -- no failure evidence for monitors."""
    metrics = MetricsRegistry()
    provider, server2 = _restarted_provider(metrics)
    try:
        provider.put("k2", b"v2")
        assert provider.get("k2") == b"v2"
        assert (
            metrics.value("net_client_circuit_open_total", provider="stale")
            == 0
        )
        assert metrics.value("net_client_retries_total", provider="stale") == 0
    finally:
        provider.close()
        server2.stop()


def test_fresh_dial_failures_still_pay_full_price():
    """Only *reused* sockets get the free pass; a dead server still costs
    the whole retry budget and opens the circuit."""
    metrics = MetricsRegistry()
    backend = InMemoryProvider("down")
    server = ChunkServer(backend).start()
    port = server.port
    server.stop()
    provider = RemoteProvider(
        "down",
        "127.0.0.1",
        port,
        retry=FAST_RETRY,
        failfast_window=30.0,
        metrics=metrics,
    )
    from repro.core.errors import ProviderUnavailableError

    with pytest.raises(ProviderUnavailableError):
        provider.get("k")
    assert metrics.value("net_client_retries_total", provider="down") == 2
    with pytest.raises(ProviderUnavailableError, match="circuit open"):
        provider.get("k")
    provider.close()


def test_stale_error_classification():
    """StaleConnectionError stays inside the OSError hierarchy so generic
    transport handling still catches it."""
    assert issubclass(StaleConnectionError, OSError)
    exc = classify_stale(OSError("boom"), fresh=False)
    assert isinstance(exc, StaleConnectionError)
    assert classify_stale(OSError("boom"), fresh=True).args == ("boom",)
    already = StaleConnectionError("x")
    assert classify_stale(already, fresh=False) is already
