"""TRACED envelope: codecs, client<->server joins, refusal by an old server.

The envelope must never break the wire contract: a server without it
answers BAD_REQUEST with the connection intact, and the client raises
that as a typed error without caching any verdict about the server; a
client that never wraps has its plain frames served exactly as before --
no opcode or version renumbering on either side.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ProviderError
from repro.net.protocol import (
    Frame,
    OpCode,
    ProtocolError,
    Status,
    decode_frame,
    decode_traced_request,
    decode_traced_response,
    encode_frame,
    encode_traced_request,
    encode_traced_response,
    status_for_error,
)
from repro.net.remote import RemoteProvider, RetryPolicy
from repro.net.server import ChunkServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.providers.memory import InMemoryProvider
from tests.net.conftest import RequestLog

FAST_RETRY = RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.05)


class LegacyChunkServer(ChunkServer):
    """A PR-3-era server: no TRACED branch in dispatch.

    Routing every frame straight to ``_handle`` reproduces the seed
    behaviour byte-for-byte -- TRACED hits the unknown-opcode guard and
    answers BAD_REQUEST without desynchronizing the connection.
    """

    def _dispatch(self, frame: Frame):
        try:
            with self._backend_lock:
                return self._handle(frame)
        except Exception as exc:  # noqa: BLE001 - must answer, not crash
            return status_for_error(exc), frame.key, str(exc).encode("utf-8")


class _LoggedServer(RequestLog, ChunkServer):
    pass


class _LoggedLegacyServer(RequestLog, LegacyChunkServer):
    pass


# -- codec round-trips -------------------------------------------------------


def test_decode_frame_roundtrip():
    raw = encode_frame(OpCode.PUT, key="k", payload=b"data")
    frame = decode_frame(raw)
    assert (frame.code, frame.key, frame.payload) == (OpCode.PUT, "k", b"data")


def test_decode_frame_rejects_trailing_bytes():
    raw = encode_frame(OpCode.GET, key="k") + b"x"
    with pytest.raises(ProtocolError):
        decode_frame(raw)


def test_traced_request_roundtrip():
    inner = encode_frame(OpCode.GET, key="chunk-1")
    payload = encode_traced_request("t1.01:s1.02", inner)
    context, frame = decode_traced_request(payload)
    assert context == "t1.01:s1.02"
    assert frame.code == OpCode.GET and frame.key == "chunk-1"


def test_traced_response_roundtrip():
    inner = encode_frame(Status.OK, key="chunk-1", payload=b"bytes")
    spans = b'[{"name": "server.GET", "span_id": "a", "parent_id": "b"}]'
    records, frame = decode_traced_response(encode_traced_response(spans, inner))
    assert records == [{"name": "server.GET", "span_id": "a", "parent_id": "b"}]
    assert frame.payload == b"bytes"


def test_traced_response_rejects_bad_json():
    inner = encode_frame(Status.OK)
    with pytest.raises(ProtocolError):
        decode_traced_response(encode_traced_response(b"{not json", inner))


# -- new client <-> new server ----------------------------------------------


@pytest.fixture
def traced_pair():
    client_tracer = Tracer(export_events=False)
    server_tracer = Tracer(export_events=False)
    metrics = MetricsRegistry()
    backend = InMemoryProvider("srv")
    with _LoggedServer(backend, tracer=server_tracer, metrics=metrics) as server:
        with RemoteProvider(
            "srv", server.host, server.port,
            retry=FAST_RETRY, tracer=client_tracer, metrics=metrics,
        ) as provider:
            yield server, provider, client_tracer


def test_server_spans_join_client_trace(traced_pair):
    _, provider, tracer = traced_pair
    provider.put("k", b"payload")
    with tracer.trace("get_file"):
        assert provider.get("k") == b"payload"
    trace = tracer.last_trace()
    names = set(trace.span_names())
    assert "net.GET" in names
    assert "server.GET" in names and "server.backend" in names
    spans = {s.name: s for s in trace.spans}
    assert spans["server.GET"].remote
    assert spans["server.GET"].parent_id == spans["net.GET"].span_id
    assert spans["server.backend"].parent_id == spans["server.GET"].span_id


def test_untraced_requests_stay_plain(traced_pair):
    server, provider, tracer = traced_pair
    # No active trace: nothing to propagate, nothing recorded.
    provider.put("k", b"payload")
    assert provider.get("k") == b"payload"
    assert tracer.last_trace() is None
    assert server.ops == [OpCode.PUT, OpCode.GET]  # no envelope was sent
    assert server.served["TRACED"] == 0


def test_error_statuses_survive_the_envelope(traced_pair):
    _, provider, tracer = traced_pair
    from repro.core.errors import BlobNotFoundError

    with tracer.trace("lookup"):
        with pytest.raises(BlobNotFoundError):
            provider.get("missing")
    trace = tracer.last_trace()
    assert "server.GET" in trace.span_names()


def test_multi_ops_ride_the_envelope(traced_pair):
    _, provider, tracer = traced_pair
    items = [(f"k{i}", bytes([i]) * 64) for i in range(5)]
    with tracer.trace("upload"):
        assert provider.put_many(items) == [None] * 5
    with tracer.trace("download"):
        blobs = provider.get_many([key for key, _ in items])
    assert blobs == [data for _, data in items]
    up = {s.name for s in tracer.finished[0].spans}
    down = {s.name for s in tracer.finished[1].spans}
    assert "server.MULTI_PUT" in up
    assert "server.MULTI_GET" in down


# -- new client <-> old server (refusal) ------------------------------------


@pytest.fixture
def legacy_pair():
    tracer = Tracer(export_events=False)
    backend = InMemoryProvider("old")
    with _LoggedLegacyServer(backend) as server:
        with RemoteProvider(
            "old", server.host, server.port, retry=FAST_RETRY, tracer=tracer
        ) as provider:
            yield server, provider, tracer


def test_old_server_triggers_plain_fallback(legacy_pair):
    """A server without TRACED refuses a traced request: the call raises a
    typed error naming the BAD_REQUEST, and nothing is resent plainly."""
    server, provider, tracer = legacy_pair
    with tracer.trace("round_trip"):
        with pytest.raises(ProviderError, match="BAD_REQUEST: unknown op code"):
            provider.put("k", b"payload")
    assert server.ops == [OpCode.TRACED]
    assert server.backend.keys() == []
    trace = tracer.last_trace()
    # Client-side spans still recorded; no server spans to graft.
    assert "net.PUT" in trace.span_names()
    assert not any(s.remote for s in trace.spans)


def test_old_server_batch_fallback(legacy_pair):
    """Batch windows are refused the same way, window by window."""
    server, provider, tracer = legacy_pair
    items = [(f"k{i}", bytes([i]) * 32) for i in range(4)]
    with tracer.trace("upload"):
        with pytest.raises(ProviderError, match="BAD_REQUEST"):
            provider.put_many(items)
        with pytest.raises(ProviderError, match="BAD_REQUEST"):
            provider.get_many(["k0", "k3"])
    assert server.ops == [OpCode.TRACED, OpCode.TRACED]
    # Untraced, the same windows are served.
    assert provider.put_many(items) == [None] * 4
    assert provider.get_many(["k0", "k3"]) == [items[0][1], items[3][1]]


def test_capability_cache_skips_wrapping(legacy_pair):
    """A refusal caches nothing: the next traced call is framed exactly as
    the first was, on the same pooled connection, and is refused again."""
    server, provider, tracer = legacy_pair
    provider.put("k", b"v")
    for attempt in ("first", "second"):
        with tracer.trace(attempt):
            with pytest.raises(ProviderError, match="BAD_REQUEST"):
                provider.get("k")
    assert provider.get("k") == b"v"
    assert server.ops == [OpCode.PUT, OpCode.TRACED, OpCode.TRACED, OpCode.GET]
    assert server.connections == 1  # every refusal left the socket in sync
    assert server.served["TRACED"] == 0


# -- old client <-> new server ----------------------------------------------


def test_old_client_plain_frames_unchanged():
    """A client that never wraps sees the exact pre-telemetry behaviour."""
    backend = InMemoryProvider("srv")
    with ChunkServer(backend) as server:
        with RemoteProvider(
            "srv", server.host, server.port,
            retry=FAST_RETRY, tracer=Tracer(export_events=False),
        ) as provider:
            provider.put("k", b"payload")
            assert provider.get("k") == b"payload"
            assert provider.put_many([("a", b"1"), ("b", b"2")]) == [None, None]
            assert provider.get_many(["a", "b"]) == [b"1", b"2"]
            assert provider.head("k").size == 7
            assert sorted(provider.keys()) == ["a", "b", "k"]
            provider.delete("k")
