"""Admission control: bounded workers, bounded queue, typed load shedding,
and the DEADLINE envelope over the wire."""

from __future__ import annotations

import socket
import struct

import pytest

from repro.core.errors import DeadlineExceeded, ResourceExhaustedError
from repro.net.protocol import (
    OpCode,
    Status,
    decode_retry_hint,
    encode_frame,
    recv_frame,
)
from repro.net.remote import RemoteProvider, RetryPolicy
from repro.net.resilience import RetryBudget, retry_budget_scope
from repro.net.server import ChunkServer
from repro.obs.metrics import MetricsRegistry
from repro.providers.memory import InMemoryProvider
from repro.util.deadline import Deadline, deadline_scope
from tests.net.conftest import RequestLog

FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.05)


class _LoggedServer(RequestLog, ChunkServer):
    pass


def test_admission_parameters_validated():
    backend = InMemoryProvider("v")
    with pytest.raises(ValueError):
        ChunkServer(backend, max_workers=0)
    with pytest.raises(ValueError):
        ChunkServer(backend, accept_queue=0)
    with pytest.raises(ValueError):
        ChunkServer(backend, shed_retry_after=-1.0)


@pytest.fixture
def tiny_server():
    """One worker, one queue slot: the third concurrent connection sheds."""
    metrics = MetricsRegistry()
    backend = InMemoryProvider("tiny")
    server = ChunkServer(
        backend,
        max_workers=1,
        accept_queue=1,
        shed_retry_after=0.05,
        metrics=metrics,
    )
    with server:
        yield server, metrics


def _occupy(server: ChunkServer) -> socket.socket:
    """Open a connection and pin a worker on it with one round-trip."""
    conn = socket.create_connection((server.host, server.port), timeout=5)
    conn.sendall(encode_frame(OpCode.PING, payload=b"x"))
    frame = recv_frame(conn)
    assert frame is not None and frame.code == Status.OK
    return conn


def test_saturated_server_sheds_with_retry_hint(tiny_server):
    server, metrics = tiny_server
    pinned = _occupy(server)  # worker 1 (of 1) now serves this connection
    queued = socket.create_connection((server.host, server.port), timeout=5)
    try:
        # Third connection: queue full -> one RESOURCE_EXHAUSTED frame, close.
        with socket.create_connection(
            (server.host, server.port), timeout=5
        ) as shed:
            frame = recv_frame(shed)
            assert frame is not None
            assert frame.code == Status.RESOURCE_EXHAUSTED
            retry_after, text = decode_retry_hint(frame.payload.decode())
            assert retry_after == pytest.approx(0.05)
            assert "overloaded" in text
            assert recv_frame(shed) is None  # server hung up after the frame
        assert server.requests_shed == 1
        assert metrics.value("net_server_shed_total") == 1
    finally:
        pinned.close()
        queued.close()


def test_queued_connection_is_served_once_worker_frees(tiny_server):
    server, _ = tiny_server
    pinned = _occupy(server)
    queued = socket.create_connection((server.host, server.port), timeout=5)
    pinned.close()  # worker drains, pops the queued connection
    try:
        queued.sendall(encode_frame(OpCode.PING, payload=b"y"))
        frame = recv_frame(queued)
        assert frame is not None and frame.code == Status.OK
    finally:
        queued.close()


def test_remote_provider_surfaces_typed_shed(tiny_server):
    server, _ = tiny_server
    metrics = MetricsRegistry()
    pinned = _occupy(server)
    queued = socket.create_connection((server.host, server.port), timeout=5)
    provider = RemoteProvider(
        "tiny", server.host, server.port, retry=FAST_RETRY, metrics=metrics
    )
    try:
        with pytest.raises(ResourceExhaustedError) as excinfo:
            provider.get("k")
        assert excinfo.value.retry_after == pytest.approx(0.05)
        # Every attempt was shed and each shed was counted client-side.
        assert metrics.value("net_client_shed_total", provider="tiny") == 3
    finally:
        provider.close()
        pinned.close()
        queued.close()


def test_retry_budget_caps_shed_retries(tiny_server):
    server, _ = tiny_server
    metrics = MetricsRegistry()
    pinned = _occupy(server)
    queued = socket.create_connection((server.host, server.port), timeout=5)
    provider = RemoteProvider(
        "tiny", server.host, server.port, retry=FAST_RETRY, metrics=metrics
    )
    budget = RetryBudget(1)
    try:
        with retry_budget_scope(budget):
            with pytest.raises(ResourceExhaustedError):
                provider.get("k")
        # First attempt is free; the shared budget allowed exactly one retry.
        assert budget.spent == 1
        assert metrics.value("net_client_shed_total", provider="tiny") == 2
        assert (
            metrics.value(
                "net_client_retry_budget_exhausted_total", provider="tiny"
            )
            == 1
        )
    finally:
        provider.close()
        pinned.close()
        queued.close()


def test_oversized_response_answers_internal_not_worker_death(monkeypatch):
    # Regression: a response payload over MAX_PAYLOAD made send_frame raise
    # ProtocolError past _serve_connection's OSError-only handler, killing
    # the pooled worker -- each occurrence permanently shrank capacity.
    backend = InMemoryProvider("big")
    backend.put("huge", b"z" * 2048)
    with ChunkServer(backend, max_workers=1, metrics=MetricsRegistry()) as server:
        monkeypatch.setattr("repro.net.protocol.MAX_PAYLOAD", 1024)
        with socket.create_connection(
            (server.host, server.port), timeout=5
        ) as conn:
            conn.sendall(encode_frame(OpCode.GET, key="huge"))
            frame = recv_frame(conn)
            assert frame is not None
            assert frame.code == Status.INTERNAL
            assert recv_frame(conn) is None  # server hung up after answering
        # The only worker survived: a fresh connection is still served.
        with socket.create_connection(
            (server.host, server.port), timeout=5
        ) as conn:
            conn.sendall(encode_frame(OpCode.PING, payload=b"x"))
            frame = recv_frame(conn)
            assert frame is not None and frame.code == Status.OK


# -- DEADLINE envelope over the wire ---------------------------------------


@pytest.fixture
def served():
    metrics = MetricsRegistry()
    backend = InMemoryProvider("dl")
    with _LoggedServer(backend, metrics=metrics) as server:
        yield backend, server, metrics


def test_client_wraps_requests_in_deadline_envelope(served):
    _, server, _ = served
    with RemoteProvider("dl", server.host, server.port, retry=FAST_RETRY) as p:
        with deadline_scope(Deadline.after(10.0)):
            p.put("k", b"v")
            assert p.get("k") == b"v"
    # The server unwrapped and served both DEADLINE envelopes.
    assert server.ops == [OpCode.DEADLINE, OpCode.DEADLINE]
    assert server.served["DEADLINE"] == 2


def test_expired_ambient_deadline_fails_before_sending(served):
    _, server, metrics = served
    provider = RemoteProvider(
        "dl", server.host, server.port, retry=FAST_RETRY, metrics=metrics
    )
    expired = Deadline(at=0.0)  # monotonic zero is always in the past
    try:
        with deadline_scope(expired):
            with pytest.raises(DeadlineExceeded):
                provider.get("k")
        assert server.requests_served == 0  # nothing reached the wire
        assert (
            metrics.value("net_client_deadline_exceeded_total", provider="dl")
            >= 1
        )
    finally:
        provider.close()


def test_server_rejects_already_expired_budget(served):
    _, server, metrics = served
    inner = encode_frame(OpCode.GET, key="k")
    # Hand-packed zero budget: the encoder refuses to produce one, but a
    # slow network can deliver a frame whose budget drained in flight.
    envelope = encode_frame(
        OpCode.DEADLINE, payload=struct.pack("!I", 0) + inner
    )
    with socket.create_connection((server.host, server.port), timeout=5) as conn:
        conn.sendall(envelope)
        frame = recv_frame(conn)
    assert frame is not None
    assert frame.code == Status.DEADLINE_EXCEEDED
    assert metrics.value(
        "net_server_deadline_exceeded_total", op="DEADLINE"
    ) == 1


def test_deadline_envelope_round_trips_through_raw_socket(served):
    backend, server, _ = served
    backend.put("k", b"payload")
    inner = encode_frame(OpCode.GET, key="k")
    envelope = encode_frame(
        OpCode.DEADLINE, payload=struct.pack("!I", 30_000) + inner
    )
    with socket.create_connection((server.host, server.port), timeout=5) as conn:
        conn.sendall(envelope)
        frame = recv_frame(conn)
    # The response is the *inner* response: a deadline adds no framing back.
    assert frame is not None
    assert frame.code == Status.OK
    assert frame.payload == b"payload"
