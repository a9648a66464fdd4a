"""Chunk server + RemoteProvider behaviour: lifecycle, errors, retries."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.core.errors import (
    BlobCorruptedError,
    BlobNotFoundError,
    ProviderError,
    ProviderUnavailableError,
)
from repro.net.cluster import LocalCluster
from repro.net.pool import ConnectionPool
from repro.net.protocol import (
    OpCode,
    Status,
    encode_deadline_request,
    encode_frame,
    recv_frame,
)
from repro.net.remote import RemoteProvider, RetryPolicy
from repro.net.server import ChunkServer
from repro.providers.memory import InMemoryProvider

FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.05)


@pytest.fixture
def served():
    backend = InMemoryProvider("srv")
    with ChunkServer(backend) as server:
        with RemoteProvider(
            "srv", server.host, server.port, retry=FAST_RETRY
        ) as provider:
            yield backend, server, provider


def test_server_binds_ephemeral_port(served):
    _, server, _ = served
    assert server.port != 0
    assert server.running


def test_ping(served):
    _, _, provider = served
    assert provider.ping() >= 0.0


def test_error_statuses_translate(served):
    backend, _, provider = served
    with pytest.raises(BlobNotFoundError):
        provider.get("missing")
    with pytest.raises(BlobNotFoundError):
        provider.delete("missing")
    backend.put("k", b"data")
    backend.corrupt_blob("k")
    with pytest.raises(BlobCorruptedError):
        provider.get("k")


def test_connection_survives_errors(served):
    """An error response must not poison the pooled connection."""
    _, _, provider = served
    for _ in range(3):
        with pytest.raises(BlobNotFoundError):
            provider.get("missing")
    provider.put("k", b"v")
    assert provider.get("k") == b"v"
    assert provider.pool.idle_count >= 1  # connection was reused, not dropped


def test_concurrent_clients(served):
    """Many threads through one provider: the pool must keep frames paired."""
    _, _, provider = served
    errors: list[Exception] = []

    def worker(i: int) -> None:
        try:
            payload = bytes([i]) * (1000 + i)
            provider.put(f"key-{i}", payload)
            assert provider.get(f"key-{i}") == payload
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(provider.keys()) == 16


def test_dead_server_raises_unavailable_after_retries():
    backend = InMemoryProvider("gone")
    server = ChunkServer(backend).start()
    port = server.port
    server.stop()
    provider = RemoteProvider("gone", "127.0.0.1", port, retry=FAST_RETRY)
    with pytest.raises(ProviderUnavailableError, match="3 attempt"):
        provider.get("k")
    provider.close()


def test_kill_mid_session_then_restart():
    backend = InMemoryProvider("flaky")
    server = ChunkServer(backend).start()
    port = server.port
    provider = RemoteProvider("flaky", "127.0.0.1", port, retry=FAST_RETRY)
    provider.put("k", b"v")
    server.stop()
    with pytest.raises(ProviderUnavailableError):
        provider.get("k")
    # Same backend, same port: the client recovers through its retry loop
    # discarding the stale pooled connections.
    server2 = ChunkServer(backend, port=port).start()
    try:
        assert provider.get("k") == b"v"
    finally:
        provider.close()
        server2.stop()


def test_circuit_breaker_fails_fast_then_recovers():
    backend = InMemoryProvider("cb")
    server = ChunkServer(backend).start()
    port = server.port
    provider = RemoteProvider(
        "cb", "127.0.0.1", port, retry=FAST_RETRY, failfast_window=30.0
    )
    provider.put("k", b"v")
    server.stop()
    with pytest.raises(ProviderUnavailableError, match="attempt"):
        provider.get("k")  # pays the full retry budget once
    with pytest.raises(ProviderUnavailableError, match="circuit open"):
        provider.get("k")  # subsequent calls fail fast
    server2 = ChunkServer(backend, port=port).start()
    try:
        provider.reset_circuit()
        assert provider.get("k") == b"v"
    finally:
        provider.close()
        server2.stop()


def test_put_is_atomic_with_checksum_echo(served):
    backend, _, provider = served
    provider.put("k", b"exact bytes")
    assert backend.get("k") == b"exact bytes"


def test_server_answers_unknown_opcode(served):
    _, server, _ = served
    with socket.create_connection((server.host, server.port), timeout=2) as sock:
        sock.sendall(encode_frame(0x7F, "k", b""))
        frame = recv_frame(sock)
    assert frame.code == Status.BAD_REQUEST


def test_server_hangs_up_on_garbage(served):
    _, server, _ = served
    with socket.create_connection((server.host, server.port), timeout=2) as sock:
        sock.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 32)
        frame = recv_frame(sock)
        assert frame is None or frame.code == Status.BAD_REQUEST


def test_stop_is_idempotent():
    server = ChunkServer(InMemoryProvider("x")).start()
    server.stop()
    server.stop()
    assert not server.running


def test_retry_policy_backoff_is_bounded():
    policy = RetryPolicy(attempts=6, base_delay=0.1, max_delay=0.4)
    delays = [policy.delay(i) for i in range(5)]
    assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)


def test_pool_caps_idle_connections():
    backend = InMemoryProvider("pooled")
    with ChunkServer(backend) as server:
        pool = ConnectionPool(server.host, server.port, size=2)
        socks = []
        for _ in range(4):
            cm = pool.lease()
            socks.append((cm, cm.__enter__()))
        for cm, _ in socks:
            cm.__exit__(None, None, None)
        assert pool.idle_count == 2  # the two extras were closed, not leaked
        pool.close()
        with pytest.raises(RuntimeError):
            with pool.lease():
                pass


def test_wire_errors_stay_in_provider_hierarchy(served):
    """Every wire failure surfaces as a ProviderError subclass, so RAID
    degraded reads treat remote failures like local ones."""
    _, server, provider = served
    server.stop()
    with pytest.raises(ProviderError):
        provider.get("k")


# -- the wire's answers, byte for byte ----------------------------------------
#
# Response bytes recorded from ChunkServer at 93c6afe (backend "same"), when
# a second, event-loop server was deleted and these scenarios stopped being
# compared between the two: whatever moves under the connection loop or the
# frame reader, a request still gets exactly these bytes back.

_SHA_DATA = b"3a6eb0790f39ac87c94f3856b2dd2c5d110e6811602261a9a923d3bb23adc8b7"
_SHA_SEG = b"ea42cfa102bd7aac62b7cc8f323802129072eca6c96585421adc1c5ace46c1dd"

PINNED_ANSWERS = {
    "ping": (
        [encode_frame(OpCode.PING, payload=b"ping")],
        b"RP\x01\x00\x00\x00\x00\x00\x00\x04%\xd5=\xfdping",
    ),
    "put-get-missing": (
        [
            encode_frame(OpCode.PUT, key="k", payload=b"data"),
            encode_frame(OpCode.GET, key="k"),
            encode_frame(OpCode.GET, key="missing"),
        ],
        b"RP\x01\x00\x00\x01\x00\x00\x00@4\x19\xd3\x9ak" + _SHA_DATA
        + b"RP\x01\x00\x00\x01\x00\x00\x00\x04\xad\xf3\xf3ckdata"
        + b"RP\x01\x01\x00\x07\x00\x00\x00'\xd7\xd1\xa1Dmissing"
        + b"provider 'same' has no object 'missing'",
    ),
    "unknown-opcode": (  # the downgrade signal
        [encode_frame(0x7F)],
        b"RP\x01\x04\x00\x00\x00\x00\x00\x14\x1d\xfd\xf7\xd6"
        + b"unknown op code 0x7f",
    ),
    "stream-op-in-deadline-envelope": (
        [
            encode_frame(
                OpCode.DEADLINE,
                payload=encode_deadline_request(
                    5000, encode_frame(OpCode.STREAM_PUT)
                ),
            )
        ],
        b"RP\x01\x04\x00\x00\x00\x00\x00B\xe6\xc2\xa6\xc8stream op STREAM_PUT "
        + b"cannot ride inside a TRACED/DEADLINE envelope",
    ),
    "stream-session-then-get": (
        [
            encode_frame(OpCode.STREAM_PUT),
            encode_frame(OpCode.STREAM_SEG, key="s", payload=b"seg"),
            encode_frame(OpCode.STREAM_END),
            encode_frame(OpCode.GET, key="s"),
        ],
        b"RP\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
        + b"RP\x01\x00\x00\x01\x00\x00\x00@\xe1\x7f\xc3\xe5s" + _SHA_SEG
        + b"RP\x01\x00\x00\x00\x00\x00\x00\x04VC\xef\x8a\x00\x00\x00\x01"
        + b"RP\x01\x00\x00\x01\x00\x00\x00\x03b\xaad\x02sseg",
    ),
}


@pytest.mark.parametrize("scenario", PINNED_ANSWERS)
def test_raw_answers_are_pinned(scenario):
    requests, expected = PINNED_ANSWERS[scenario]
    with ChunkServer(InMemoryProvider("same")) as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(b"".join(requests))
            answered = b""
            while len(answered) < len(expected):
                piece = sock.recv(len(expected) - len(answered))
                assert piece, f"server hung up after {answered!r}"
                answered += piece
            assert answered == expected
            # ... and not a byte more.
            sock.settimeout(0.1)
            with pytest.raises(socket.timeout):
                sock.recv(1)


class _SubclassedServer(ChunkServer):
    pass


def test_cluster_restart_preserves_server_class():
    with LocalCluster(
        2, server_cls=_SubclassedServer, retry=FAST_RETRY
    ) as cluster:
        assert all(isinstance(s, _SubclassedServer) for s in cluster.servers)
        cluster.kill_server(0)
        cluster.restart_server(0)
        assert isinstance(cluster.servers[0], _SubclassedServer)
        cluster.providers[0].put("k", b"v")
        assert cluster.providers[0].get("k") == b"v"
