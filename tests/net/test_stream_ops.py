"""STREAM_PUT/STREAM_GET sessions: round-trips, refusal, rollback.

A server without the stream ops answers each STREAM_* frame BAD_REQUEST
("unknown op code") with the connection in sync, and the client raises
that as a typed error, as it does any refused request: it caches no
verdict and sends nothing in the stream's place.  The server side must
also make a mid-stream sender crash invisible: segments staged by a
session that dies before STREAM_END are rolled back.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.core.errors import BlobNotFoundError, ProviderError
from repro.net.protocol import (
    HEADER,
    MAGIC,
    STREAM_OPS,
    Frame,
    OpCode,
    Status,
    VERSION,
    decode_stream_count,
    encode_deadline_request,
    encode_frame,
    read_frame,
    sendmsg_all,
    status_for_error,
)
from repro.net.remote import RemoteProvider, RetryPolicy
from repro.net.server import ChunkServer
from repro.obs.metrics import MetricsRegistry
from repro.providers.memory import InMemoryProvider
from repro.util.deadline import Deadline, deadline_scope
from tests.net.conftest import RequestLog

FAST_RETRY = RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.05)


class OldChunkServer(ChunkServer):
    """A PR-7-era server: no stream branch in dispatch.

    Routing STREAM_* straight to ``_handle`` reproduces the pre-stream
    behaviour byte-for-byte -- the frames hit the unknown-opcode guard
    and are answered BAD_REQUEST without desynchronizing the connection.
    """

    def _dispatch_multi(self, frame, session):
        if frame.code in STREAM_OPS:
            try:
                with self._backend_lock:
                    result = self._handle(frame)
            except Exception as exc:  # noqa: BLE001 - must answer, not crash
                result = (
                    status_for_error(exc),
                    frame.key,
                    str(exc).encode("utf-8"),
                )
            return [result]
        return super()._dispatch_multi(frame, session)


class _LoggedServer(RequestLog, ChunkServer):
    pass


class _LoggedOldServer(RequestLog, OldChunkServer):
    pass


def _provider(server: ChunkServer, **kwargs) -> RemoteProvider:
    return RemoteProvider(
        server.backend.name, server.host, server.port,
        retry=FAST_RETRY, **kwargs,
    )


def _items(n: int, prefix: str = "k") -> list[tuple[str, bytes]]:
    return [(f"{prefix}{i}", bytes([i % 256]) * (100 + i)) for i in range(n)]


# -- round-trips over the modern wire ----------------------------------------


def test_stream_put_get_roundtrip():
    backend = InMemoryProvider("s")
    with _LoggedServer(backend) as server:
        provider = _provider(server)
        items = _items(20)
        outcomes = provider.put_stream(items)
        assert outcomes == [None] * len(items)
        got = provider.get_stream([key for key, _ in items])
        assert got == [data for _, data in items]
        provider.close()
    # Both directions rode stream sessions, nothing else.
    assert set(server.ops) == {
        OpCode.STREAM_PUT, OpCode.STREAM_SEG, OpCode.STREAM_END,
        OpCode.STREAM_GET,
    }


def test_stream_put_larger_than_ack_window():
    # More in-flight segments than STREAM_ACK_WINDOW forces the client
    # through its mid-stream ack-drain path.
    backend = InMemoryProvider("s")
    with ChunkServer(backend) as server:
        provider = _provider(server)
        items = _items(150)
        assert provider.put_stream(items) == [None] * len(items)
        assert backend.get("k149") == items[149][1]
        provider.close()


def test_stream_get_missing_key_is_per_item():
    backend = InMemoryProvider("s")
    backend.put("have", b"x")
    with ChunkServer(backend) as server:
        provider = _provider(server)
        got = provider.get_stream(["have", "missing"])
        assert got[0] == b"x"
        assert isinstance(got[1], BlobNotFoundError)
        provider.close()


def test_stream_results_visible_to_batched_and_single_ops():
    # A streamed window is ordinary objects: MULTI_GET and GET see them.
    backend = InMemoryProvider("s")
    with ChunkServer(backend) as server:
        provider = _provider(server)
        items = _items(5)
        provider.put_stream(items)
        assert provider.get("k0") == items[0][1]
        assert provider.get_many([k for k, _ in items]) == [
            d for _, d in items
        ]
        provider.close()


# -- refusal by an old server -------------------------------------------------


def test_stream_put_downgrades_against_old_server():
    """``put_stream`` on a server without streams raises the typed
    refusal, stores nothing, and tries the stream again next time."""
    backend = InMemoryProvider("old")
    with _LoggedOldServer(backend) as server:
        provider = _provider(server)
        for _ in range(2):
            with pytest.raises(ProviderError, match="BAD_REQUEST: unknown op"):
                provider.put_stream(_items(8))
        assert backend.keys() == []
        assert OpCode.MULTI_PUT not in server.ops  # no fallback was sent
        assert server.ops.count(OpCode.STREAM_PUT) == 2
        provider.close()


def test_stream_get_downgrades_against_old_server():
    """``get_stream`` is refused the same way, and is asked again."""
    backend = InMemoryProvider("old")
    for key, data in _items(6):
        backend.put(key, data)
    with _LoggedOldServer(backend) as server:
        provider = _provider(server)
        for _ in range(2):
            with pytest.raises(ProviderError, match="BAD_REQUEST: unknown op"):
                provider.get_stream([k for k, _ in _items(6)])
        assert server.ops == [OpCode.STREAM_GET, OpCode.STREAM_GET]
        provider.close()


def test_downgrade_leaves_connection_in_sync():
    # After a refused stream, in both directions, ordinary ops reuse the
    # same socket.
    backend = InMemoryProvider("old")
    with _LoggedOldServer(backend) as server:
        provider = _provider(server, metrics=MetricsRegistry())
        with pytest.raises(ProviderError):
            provider.put_stream(_items(4))
        assert provider.pool.idle_count == 1  # socket survived the refusal
        provider.put("k1", b"v")
        with pytest.raises(ProviderError):
            provider.get_stream(["k1"])
        assert provider.get("k1") == b"v"
        assert server.connections == 1
        provider.close()


def test_envelopes_still_downgrade_on_old_server():
    # Under a deadline scope an old server without streams still serves
    # the DEADLINE envelope, refuses the bare stream ops with the typed
    # error, and the request after the refusal is enveloped as before.
    backend = InMemoryProvider("old")
    with _LoggedOldServer(backend) as server:
        provider = _provider(server, op_timeout=5.0)
        with deadline_scope(Deadline.after(30)):
            provider.put("k", b"v")
            with pytest.raises(ProviderError, match="BAD_REQUEST: unknown op"):
                provider.put_stream(_items(2))
            with pytest.raises(ProviderError, match="BAD_REQUEST: unknown op"):
                provider.get_stream(["k"])
            assert provider.get("k") == b"v"
        assert server.served["DEADLINE"] == 2
        assert server.ops[0] == server.ops[-1] == OpCode.DEADLINE
        provider.close()


# -- raw-socket behaviours ----------------------------------------------------


def _connect(server: ChunkServer) -> socket.socket:
    sock = socket.create_connection((server.host, server.port), timeout=5.0)
    sock.settimeout(5.0)
    return sock


def _send(sock: socket.socket, code: int, key: str = "",
          payload: bytes = b"") -> None:
    sock.sendall(encode_frame(code, key=key, payload=payload))


def _read(sock: socket.socket) -> Frame:
    rfile = sock.makefile("rb")
    try:
        frame = read_frame(rfile)
    finally:
        rfile.detach()
    assert frame is not None
    return frame


def _await(predicate, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not met before timeout")


def test_kill_sender_mid_stream_rolls_back():
    backend = InMemoryProvider("s")
    metrics = MetricsRegistry()
    with ChunkServer(backend, metrics=metrics) as server:
        sock = _connect(server)
        _send(sock, OpCode.STREAM_PUT)
        assert _read(sock).code == Status.OK
        for i in range(3):
            _send(sock, OpCode.STREAM_SEG, key=f"dead{i}", payload=b"zzz")
            assert _read(sock).code == Status.OK
        assert backend.get("dead1") == b"zzz"  # staged, pre-commit
        sock.close()  # dies before STREAM_END

        _await(lambda: metrics.value("net_server_stream_rollbacks_total") >= 1)
        for i in range(3):
            with pytest.raises(BlobNotFoundError):
                backend.get(f"dead{i}")


def test_committed_window_survives_disconnect():
    backend = InMemoryProvider("s")
    with ChunkServer(backend) as server:
        sock = _connect(server)
        _send(sock, OpCode.STREAM_PUT)
        _read(sock)
        _send(sock, OpCode.STREAM_SEG, key="keep", payload=b"committed")
        _read(sock)
        _send(sock, OpCode.STREAM_END)
        end = _read(sock)
        assert end.code == Status.OK
        assert decode_stream_count(end.payload) == 1
        sock.close()  # abrupt, but after the commit

        time.sleep(0.1)  # give a (wrong) rollback time to happen
        assert backend.get("keep") == b"committed"


def test_restaged_key_survives_old_sessions_rollback():
    # Session A stages "k" and hangs; session B re-stages and commits it.
    # A's later death must not delete B's committed bytes (owner moved).
    backend = InMemoryProvider("s")
    with ChunkServer(backend) as server:
        a = _connect(server)
        _send(a, OpCode.STREAM_PUT)
        _read(a)
        _send(a, OpCode.STREAM_SEG, key="k", payload=b"stale-epoch")
        _read(a)

        b = _connect(server)
        _send(b, OpCode.STREAM_PUT)
        _read(b)
        _send(b, OpCode.STREAM_SEG, key="k", payload=b"fresh-epoch")
        _read(b)
        _send(b, OpCode.STREAM_END)
        _read(b)
        b.close()

        a.close()  # dies with "k" still in its staged list
        time.sleep(0.2)
        assert backend.get("k") == b"fresh-epoch"


def test_seg_without_open_session_is_rejected():
    backend = InMemoryProvider("s")
    with ChunkServer(backend) as server:
        sock = _connect(server)
        _send(sock, OpCode.STREAM_SEG, key="k", payload=b"x")
        frame = _read(sock)
        assert frame.code == Status.BAD_REQUEST
        assert b"without an open stream session" in frame.payload
        sock.close()


def test_stream_op_inside_envelope_is_rejected():
    # Stream ops are bare-only: a multi-frame response cannot nest in a
    # single envelope response.  The refusal must NOT say "unknown op
    # code" -- that phrase is the downgrade signal and would make a
    # modern client wrongly cache the server as pre-stream.
    backend = InMemoryProvider("s")
    with ChunkServer(backend) as server:
        sock = _connect(server)
        inner = encode_frame(OpCode.STREAM_PUT)
        _send(sock, OpCode.DEADLINE,
              payload=encode_deadline_request(5000, inner))
        frame = _read(sock)
        assert frame.code == Status.BAD_REQUEST
        assert b"envelope" in frame.payload
        assert b"unknown op code" not in frame.payload
        sock.close()


def test_sendmsg_all_handles_partial_sends():
    # Payload far larger than the socket buffer: sendmsg() stops short
    # and the loop must re-enter with offsets, never dropping a byte.
    left, right = socket.socketpair()
    try:
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        payload = bytes(range(256)) * 4096  # 1 MiB
        buffers = [b"head:", memoryview(payload), b":tail"]
        received = bytearray()
        total = sum(len(b) for b in buffers)

        import threading

        def drain() -> None:
            while len(received) < total:
                data = right.recv(65536)
                if not data:
                    break
                received.extend(data)

        reader = threading.Thread(target=drain)
        reader.start()
        sendmsg_all(left, buffers)
        reader.join(timeout=10)
        assert bytes(received) == b"head:" + payload + b":tail"
    finally:
        left.close()
        right.close()


def test_stream_frames_wire_shape():
    # Pin the framing: same header struct as every other op, so old
    # parsers at least fail cleanly on the opcode, not on the bytes.
    raw = encode_frame(OpCode.STREAM_SEG, key="k", payload=b"p")
    magic, version, code, key_len, payload_len, _crc = HEADER.unpack(
        raw[: HEADER.size]
    )
    assert (magic, version) == (MAGIC, VERSION)
    assert code == OpCode.STREAM_SEG == 0x0C
    assert (key_len, payload_len) == (1, 1)


def test_streaming_picks_wire_op_by_segment_size():
    """Streaming windows choose STREAM vs MULTI frames by segment size.

    Both move exactly one window's shards (the O(window) bound holds
    either way), but per-segment framing and acks only pay off once the
    shards amortize them: chunks striped into >= STREAM_SEGMENT_THRESHOLD
    shards travel as STREAM_PUT/STREAM_GET sessions, while small shards
    ride the batched MULTI frames.
    """
    import io

    from repro.core.distributor import CloudDataDistributor
    from repro.net.cluster import LocalCluster
    from repro.obs.metrics import set_metrics

    data = bytes(range(256)) * 2048  # 512 KiB
    cases = [
        # 512 KiB chunks stripe into ~170 KiB shards: stream sessions.
        (512 * 1024, ("STREAM_PUT", "STREAM_GET"), ("MULTI_PUT", "MULTI_GET")),
        # 4 KiB chunks stripe into ~1.4 KB shards: batched MULTI frames.
        (4 * 1024, ("MULTI_PUT", "MULTI_GET"), ("STREAM_PUT", "STREAM_GET")),
    ]
    for chunk_size, expected, forbidden in cases:
        previous = set_metrics(MetricsRegistry())
        try:
            with LocalCluster(4, retry=FAST_RETRY) as cluster:
                dist = CloudDataDistributor(
                    cluster.build_registry(privacy_level=3), seed=11
                )
                dist.register_client("c")
                dist.add_password("c", "pw", 3)
                dist.put_stream("c", "pw", "f.bin", io.BytesIO(data), 3,
                                chunk_size=chunk_size)
                assert b"".join(dist.get_stream("c", "pw", "f.bin")) == data
        finally:
            fresh = set_metrics(previous)
        ops = " ".join(
            fresh.snapshot()["counters"].get("net_client_requests_total", {})
        )
        for op in expected:
            assert op in ops, f"chunk_size={chunk_size}: {op} not in {ops}"
        for op in forbidden:
            assert op not in ops, f"chunk_size={chunk_size}: {op} in {ops}"
