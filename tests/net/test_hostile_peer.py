"""Everything a peer sends is hostile input, in both directions.

The paper's adversary *is* the provider (the malicious insider of Section
III), so whatever a live, CRC-correct server answers must come back from
:class:`RemoteProvider` as a :class:`ProviderError` -- the one thing
degraded reads, fsck and the health monitor know how to go around -- and
a request no client of ours would send must cost the server one
``BAD_REQUEST`` frame, never a worker's traceback.
"""

from __future__ import annotations

import io
import logging
import socket
import struct
import threading
import time
import zlib

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import BlobCorruptedError, ProviderError
from repro.net.cluster import LocalCluster
from repro.net.protocol import (
    HEADER,
    MAGIC,
    VERSION,
    OpCode,
    Status,
    encode_batch_results,
    encode_deadline_request,
    encode_frame,
    encode_stream_count,
    encode_traced_request,
    read_frame,
    recv_frame,
)
from repro.net.remote import DELETE_WINDOW, RemoteProvider, RetryPolicy
from repro.net.server import ChunkServer
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.obs.trace import Tracer
from repro.providers.base import blob_checksum
from repro.providers.memory import InMemoryProvider
from repro.util.deadline import Deadline, deadline_scope
from tests.net.conftest import RequestLog

FAST_RETRY = RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.05)

NOT_UTF8 = b"\xff\xfe"


def _raw_frame(code: int, key: bytes, payload: bytes) -> bytes:
    """A CRC-correct frame whose key bytes ``encode_frame`` would refuse."""
    header = HEADER.pack(
        MAGIC, VERSION, code, len(key), len(payload), zlib.crc32(payload)
    )
    return header + key + payload


class _CannedServer:
    """Answers every request frame with the same well-framed bytes."""

    def __init__(self, answer: bytes) -> None:
        self.answer = answer
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with conn, conn.makefile("rb") as reader:
                while read_frame(reader) is not None:
                    conn.sendall(self.answer)

    def close(self) -> None:
        self._listener.close()


# A KEYS listing of one key that is not UTF-8; a batch answer that
# promises three results and carries none; a HEAD stat cut short, and one
# whose checksum is not the 64 lowercase hex characters the wire spells a
# digest in.
BAD_KEYS = struct.pack("!IH", 1, len(NOT_UTF8)) + NOT_UTF8
BAD_BATCH = struct.pack("!I", 3) + b"\x00"
BAD_STAT = b"\x00\x01"
NON_HEX_STAT = struct.pack("!Q", 7) + b"z" * 64
# A STREAM_GET for ["a", "b"] answered in the other order.  (The
# stream-seg-ack-key case acks a put_stream of key "a" with a correct
# echo of its bytes, but for key "b".)
SWAPPED_STREAM_GET = (
    encode_frame(Status.OK, payload=encode_stream_count(2))
    + encode_frame(Status.OK, key="b", payload=b"B")
    + encode_frame(Status.OK, key="a", payload=b"A")
)


@pytest.mark.parametrize(
    "answer,call",
    [
        (_raw_frame(Status.OK, NOT_UTF8, b"data"), lambda p: p.get("k")),
        (encode_frame(Status.OK, payload=BAD_KEYS), lambda p: p.keys()),
        (encode_frame(Status.OK, payload=BAD_BATCH),
         lambda p: p.get_many(["a", "b", "c"])),
        (encode_frame(Status.OK, payload=BAD_BATCH),
         lambda p: p.put_many([("a", b"1"), ("b", b"2"), ("c", b"3")])),
        (encode_frame(Status.OK, key="k", payload=BAD_STAT),
         lambda p: p.head("k")),
        (encode_frame(Status.OK, key="k", payload=NON_HEX_STAT),
         lambda p: p.head("k")),
        (SWAPPED_STREAM_GET, lambda p: p.get_stream(["a", "b"])),
        (encode_frame(Status.OK, key="b", payload=blob_checksum(b"1").hex().encode()),
         lambda p: p.put_stream([("a", b"1")])),
    ],
    ids=["frame-key", "keys", "multi-get", "multi-put", "head", "head-not-hex",
         "stream-get-swapped", "stream-seg-ack-key"],
)
def test_junk_from_a_live_server_is_a_provider_error(answer, call):
    server = _CannedServer(answer)
    provider = RemoteProvider(
        "evil", "127.0.0.1", server.port, retry=FAST_RETRY,
        metrics=MetricsRegistry(),
    )
    try:
        with pytest.raises(ProviderError):
            call(provider)
    finally:
        provider.close()
        server.close()


@pytest.mark.parametrize(
    "echo",
    [b"z" * 64, blob_checksum(b"1").hex().upper().encode(), blob_checksum(b"1")],
    ids=["non-hex", "capitals", "raw-bytes"],
)
def test_an_echo_that_spells_no_digest_fails_its_item(echo):
    # A put's echo is never parsed: it must be the item's digest spelled
    # in lowercase hex, and anything else -- junk, capitals, a digest the
    # server forgot to spell -- is that item's BlobCorruptedError.
    batch = _CannedServer(
        encode_frame(Status.OK, payload=encode_batch_results([(Status.OK, echo)]))
    )
    single = _CannedServer(encode_frame(Status.OK, key="a", payload=echo))
    providers = [
        RemoteProvider(
            "evil", "127.0.0.1", server.port, retry=FAST_RETRY,
            metrics=MetricsRegistry(),
        )
        for server in (batch, single)
    ]
    try:
        (outcome,) = providers[0].put_many([("a", b"1")])
        assert isinstance(outcome, BlobCorruptedError)
        assert "echo mismatch" in str(outcome)
        with pytest.raises(BlobCorruptedError, match="echo mismatch"):
            providers[1].put("a", b"1")
    finally:
        for provider in providers:
            provider.close()
        batch.close()
        single.close()


@pytest.mark.parametrize("hint", ["nan", "inf", "1e9"])
def test_a_shed_answer_with_a_wild_retry_hint_is_a_provider_error_soon(hint):
    # A hint that is not finite is no hint (the client's own backoff
    # applies), and a finite one sleeps no longer than RetryPolicy's
    # max_delay: either way, with no deadline set, the call ends in the
    # typed shed verdict, never a bare ValueError or OverflowError from
    # time.sleep, nor a sleep of 1e9 seconds.
    message = f"retry-after={hint}; busy".encode()
    server = _CannedServer(encode_frame(Status.RESOURCE_EXHAUSTED, payload=message))
    provider = RemoteProvider(
        "busy", "127.0.0.1", server.port, retry=FAST_RETRY, metrics=MetricsRegistry(),
    )
    try:
        start = time.monotonic()
        with pytest.raises(ProviderError) as caught:
            provider.get("k")
        assert time.monotonic() - start < 2.0
        assert caught.value.retry_after == (1e9 if hint == "1e9" else None)
    finally:
        provider.close()
        server.close()


def test_non_utf8_request_key_gets_bad_request_and_a_quiet_log(caplog):
    with ChunkServer(InMemoryProvider("srv"), max_workers=1) as server:
        with caplog.at_level(logging.WARNING, logger="repro"):
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(_raw_frame(OpCode.GET, NOT_UTF8, b""))
                frame = recv_frame(sock)
                assert frame is not None and frame.code == Status.BAD_REQUEST
                assert b"UTF-8" in frame.payload
                assert recv_frame(sock) is None  # then the hang-up
            # The only worker is back in the pool, and said nothing.
            with socket.create_connection(server.address, timeout=5) as sock:
                sock.sendall(encode_frame(OpCode.PING, payload=b"x"))
                assert recv_frame(sock).code == Status.OK
        assert caplog.records == []


class _JunkReadsOnNode0(ChunkServer):
    """``node0`` stores faithfully and answers every batched read with a
    well-framed payload that decodes to nothing."""

    def _dispatch_multi(self, frame, session):
        if self.backend.name == "node0" and frame.code in (
            OpCode.MULTI_GET, OpCode.STREAM_GET
        ):
            return [(Status.OK, "", b"junk!")]
        return super()._dispatch_multi(frame, session)


@pytest.mark.parametrize(
    "chunk_size,wire_op",
    [(4 * 1024, "MULTI_GET"), (512 * 1024, "STREAM_GET")],
)
def test_a_provider_answering_junk_costs_a_parity_read(chunk_size, wire_op):
    data = bytes(range(256)) * 2048  # 512 KiB
    previous = set_metrics(MetricsRegistry())
    try:
        with LocalCluster(
            4, server_cls=_JunkReadsOnNode0, retry=FAST_RETRY
        ) as cluster:
            dist = CloudDataDistributor(
                cluster.build_registry(privacy_level=3),
                codec="raid5@4", seed=11,
            )
            dist.register_client("c")
            dist.add_password("c", "pw", 3)
            dist.put_stream(
                "c", "pw", "f.bin", io.BytesIO(data), 3, chunk_size=chunk_size
            )
            assert dist.get_file("c", "pw", "f.bin") == data
            assert b"".join(dist.get_stream("c", "pw", "f.bin")) == data
            dist.close()
    finally:
        metrics = set_metrics(previous)
    # This chunk size rides the op under test (the honest nodes answered
    # it), and the monitor heard about node0 -- and about nobody else.
    assert metrics.value(
        "net_client_requests_total", op=wire_op, provider="node1"
    ) > 0
    failures = [
        metrics.value(
            "health_provider_results_total",
            provider=f"node{i}", outcome="failure",
        )
        for i in range(4)
    ]
    assert failures[0] > 0 and failures[1:] == [0, 0, 0]


class _SlowReader(RequestLog, ChunkServer):
    """Takes each connection's frames off a 4 KiB receive buffer, one
    every few milliseconds: a full window's requests are all on the wire
    long before the first is answered."""

    def _serve_connection(self, conn):
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        super()._serve_connection(conn)

    def _dispatch_multi(self, frame, session):
        time.sleep(0.003)
        return super()._dispatch_multi(frame, session)


def test_a_full_delete_window_in_both_envelopes_cannot_deadlock():
    """The client writes a whole window before it reads one answer.  With
    TRACED and DEADLINE on, that window still fits a send buffer (the
    bound DELETE_WINDOW's comment states), so a server that reads slowly
    stalls nobody: the window completes, every key answered."""
    inner = InMemoryProvider("slow")
    keys = [f"fleet/s0/{9_000_000 + i}.{i % 4}" for i in range(DELETE_WINDOW)]
    inner.put_many([(key, b"v") for key in keys])
    tracer = Tracer()
    with _SlowReader(inner) as server:
        provider = RemoteProvider(
            "slow", server.host, server.port, retry=FAST_RETRY,
            metrics=MetricsRegistry(), tracer=tracer,
        )
        try:
            with tracer.trace("remove"), deadline_scope(Deadline.after(30)):
                context = tracer.wire_context()
                outcomes = provider.delete_many(keys)
        finally:
            provider.close()
    assert server.served == {"DEADLINE": DELETE_WINDOW, "TRACED": DELETE_WINDOW}
    assert outcomes == [None] * DELETE_WINDOW
    assert inner.keys() == []
    enveloped = sum(
        len(
            encode_frame(
                OpCode.DEADLINE,
                payload=encode_deadline_request(
                    30_000,
                    encode_frame(
                        OpCode.TRACED,
                        payload=encode_traced_request(
                            context, encode_frame(OpCode.DELETE, key=key)
                        ),
                    ),
                ),
            )
        )
        for key in keys
    )
    assert enveloped < 16 * 1024  # the smallest default SO_SNDBUF
