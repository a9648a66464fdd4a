"""What ``RemoteProvider`` writes, byte for byte.

A relay between the client and a real ``ChunkServer`` keeps every byte
the client sent; each window must equal the nested composition of the
protocol's one-buffer encoders -- ``encode_frame`` around
``encode_traced_request`` around ``encode_deadline_request`` -- however
the client builds its send list.  The only values read back from the
captured bytes are the ones the client computes at send time: the
deadline's remaining budget.
"""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro.net.protocol import (
    HEADER,
    OpCode,
    encode_deadline_request,
    encode_frame,
    encode_multi_put,
    encode_traced_request,
)
from repro.net.remote import RemoteProvider, RetryPolicy
from repro.net.server import ChunkServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.providers.memory import InMemoryProvider
from repro.util.deadline import Deadline, deadline_scope

ITEMS = [
    ("fleet/s0/7.0", b"\x00" * 700),
    ("fleet/s0/7.1", bytearray(b"\x01" * 300)),
    ("fleet/s0/8.0", memoryview(b"\x02" * 1024)),
    ("fleet/s0/8.1", b""),
]


class _Tap:
    """Relays one client connection to *upstream*, keeping what the
    client wrote in :attr:`written`."""

    def __init__(self, upstream: tuple[str, int]) -> None:
        self.written = bytearray()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._upstream = upstream
        threading.Thread(target=self._relay, daemon=True).start()

    def _relay(self) -> None:
        client, _ = self._listener.accept()
        server = socket.create_connection(self._upstream)
        threading.Thread(
            target=self._pump, args=(server, client, None), daemon=True
        ).start()
        self._pump(client, server, self.written)

    @staticmethod
    def _pump(src, dst, keep: bytearray | None) -> None:
        with src, dst:
            while data := src.recv(1 << 16):
                if keep is not None:
                    keep += data
                dst.sendall(data)

    def take(self) -> bytes:
        """The bytes written since the last call."""
        taken = bytes(self.written)
        self.written.clear()
        return taken

    def close(self) -> None:
        self._listener.close()


@pytest.fixture
def tapped():
    tracer = Tracer(export_events=False)
    with ChunkServer(InMemoryProvider("srv")) as server:
        tap = _Tap(server.address)
        provider = RemoteProvider(
            "srv", "127.0.0.1", tap.port, pool_size=1,
            retry=RetryPolicy(attempts=1), tracer=tracer,
            metrics=MetricsRegistry(),
        )
        try:
            yield provider, tap, tracer
        finally:
            provider.close()
            tap.close()


def _budget(window: bytes, at: int = 0) -> int:
    """The budget of the DEADLINE frame at offset *at* of *window*."""
    return struct.unpack_from("!I", window, at + HEADER.size)[0]


def _in_deadline(budget: int, inner: bytes) -> bytes:
    return encode_frame(
        OpCode.DEADLINE, payload=encode_deadline_request(budget, inner)
    )


def test_a_bare_multi_put_window_is_one_encoded_frame(tapped):
    provider, tap, _ = tapped
    assert provider.put_many(ITEMS) == [None] * len(ITEMS)
    assert tap.take() == encode_frame(
        OpCode.MULTI_PUT, payload=encode_multi_put(ITEMS)
    )


def test_an_enveloped_multi_put_window_nests_the_same_frame(tapped):
    provider, tap, tracer = tapped
    with tracer.trace("upload"), deadline_scope(Deadline.after(30)):
        assert provider.put_many(ITEMS) == [None] * len(ITEMS)
    net = next(s for s in tracer.last_trace().spans if s.name == "net.MULTI_PUT")
    context = f"{net.trace_id}:{net.span_id}"
    written = tap.take()
    inner = encode_frame(OpCode.MULTI_PUT, payload=encode_multi_put(ITEMS))
    traced = encode_frame(
        OpCode.TRACED, payload=encode_traced_request(context, inner)
    )
    assert 0 < _budget(written) <= 30_000
    assert written == _in_deadline(_budget(written), traced)


def test_a_delete_window_under_a_deadline_is_one_envelope_per_key(tapped):
    provider, tap, _ = tapped
    keys = [key for key, _ in ITEMS]
    provider.put_many(ITEMS)
    tap.take()
    with deadline_scope(Deadline.after(30)):
        assert provider.delete_many(keys) == [None] * len(keys)
    written = tap.take()
    expected = b""
    for key in keys:
        frame = _in_deadline(
            _budget(written, len(expected)), encode_frame(OpCode.DELETE, key)
        )
        expected += frame
    assert written == expected
