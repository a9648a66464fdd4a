"""Pool checkout-wait telemetry: the saturation warning event."""

import socket

import pytest

from repro.net.pool import ConnectionPool
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry


class _FakeSocket:
    def close(self) -> None:
        pass


@pytest.fixture
def pool(monkeypatch):
    metrics = MetricsRegistry()
    events = EventLog(emit_logging=False)
    p = ConnectionPool(
        "127.0.0.1",
        9,
        size=2,
        metrics=metrics,
        events=events,
        saturation_threshold=0.001,
    )
    monkeypatch.setattr(p, "_connect", lambda: _FakeSocket())
    yield p, metrics, events
    p.close()


def test_slow_checkout_emits_saturation_warning(pool, monkeypatch):
    p, metrics, events = pool
    ticks = [100.0, 100.25]  # checkout appears to take 250ms
    monkeypatch.setattr(
        "repro.net.pool.time.perf_counter",
        lambda: ticks.pop(0) if ticks else 101.0,
    )
    with p.lease(op="MULTI_PUT"):
        pass
    event = events.last("pool_saturation")
    assert event is not None
    assert event["level"] == "warning"
    assert event["pool"] == "127.0.0.1:9"
    assert event["op"] == "MULTI_PUT"
    assert event["wait_s"] == pytest.approx(0.25)
    hist = metrics.histogram(
        "net_pool_checkout_wait_seconds", pool="127.0.0.1:9"
    )
    assert hist.count == 1
    assert hist.sum == pytest.approx(0.25)


def test_fast_checkout_stays_quiet(pool):
    p, metrics, events = pool
    with p.lease(op="GET"):
        pass
    # The socket went back to the idle stack; reusing it is instant.
    with p.lease(op="GET"):
        pass
    assert events.named("pool_saturation") == []
    hist = metrics.histogram(
        "net_pool_checkout_wait_seconds", pool="127.0.0.1:9"
    )
    assert hist.count == 2


def test_real_dial_wait_feeds_histogram():
    """Against a real listener the wait includes the dial, and every
    checkout lands one histogram sample."""
    metrics = MetricsRegistry()
    events = EventLog(emit_logging=False)
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(4)
    host, port = server.getsockname()
    pool = ConnectionPool(
        host, port, size=1, metrics=metrics, events=events,
        saturation_threshold=60.0,  # never fires on a loopback dial
    )
    try:
        with pool.lease(op="PING"):
            pass
        hist = metrics.histogram(
            "net_pool_checkout_wait_seconds", pool=pool.label
        )
        assert hist.count == 1
        assert events.named("pool_saturation") == []
    finally:
        pool.close()
        server.close()
