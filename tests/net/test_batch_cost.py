"""What a wire batch pays per frame, by count, not by clock.

The data path hands each provider a window's shards as one ``MULTI_PUT``
and asks for them back as one ``MULTI_GET``, so whatever either end runs
per item is paid hundreds of times a frame: 342 shards of a 2 MiB RAID-5
upload go to each of six servers.  What these tests pin: a ``MULTI_PUT``
frame reaches ``sendmsg`` as the same few buffers whatever its item
count, a ``MULTI_GET`` or ``STREAM_GET`` frame is one backend call on
the server, reading a frame holds its payload once, and what an upload
holds at its peak is a small multiple of the file.
"""

from __future__ import annotations

import io
import os
import socket
import threading
import tracemalloc

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import BlobNotFoundError
from repro.core.privacy import ChunkSizePolicy, PrivacyLevel
from repro.net import remote
from repro.net.cluster import LocalCluster
from repro.net.protocol import OpCode, encode_frame, read_frame, recv_frame
from repro.obs.metrics import MetricsRegistry
from repro.providers.memory import InMemoryProvider

#: What an 8 MiB upload of 64 KiB chunks (raid5@4, six socket servers in
#: this process, so both ends count) holds at its peak under tracemalloc,
#: over the file's size: 5.70-6.39 over 16 uploads as landed, in steps of
#: one provider's joined batch payload (0.22 of the file) -- how many of
#: the six parallel sends hold theirs at the peak; all six would read
#: about 6.6.  5.07 while a batch left as two views an item, never joined.
PEAK_PER_FILE_BYTE = 6.8


class Counted(InMemoryProvider):
    """Records the key count of every ``get_many`` call (``get`` is a
    one-key ``get_many``, so every read is seen)."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.reads: list[int] = []

    def get_many(self, keys):
        self.reads.append(len(keys))
        return super().get_many(keys)


def items(n: int) -> list[tuple[str, bytes]]:
    return [(f"7.{i}", bytes([i % 256]) * 1024) for i in range(n)]


def test_a_multi_put_frame_hands_sendmsg_the_same_buffers_at_any_size(monkeypatch):
    buffers: list[int] = []
    send = remote.sendmsg_all

    def counting(sock, segments):
        buffers.append(len(segments))
        return send(sock, segments)

    monkeypatch.setattr(remote, "sendmsg_all", counting)
    with LocalCluster(count=1) as cluster:
        (provider,) = cluster.providers
        for n in (1, 16, 342):
            del buffers[:]
            assert provider.put_many(items(n)) == [None] * n
            # The frame header and its payload: 686 buffers for 342 items
            # while each item went as a header and a view of its data.
            assert buffers == [2], n


def test_a_multi_get_frame_is_one_backend_call():
    backend = Counted("node0")
    stored = items(342)
    with LocalCluster(backends=[backend]) as cluster:
        (provider,) = cluster.providers
        assert provider.put_many(stored) == [None] * len(stored)
        keys = [key for key, _ in stored]
        assert provider.get_many(keys) == [data for _, data in stored]
    # One call for the frame's 342 keys, where the server made 342 ``get``s.
    assert backend.reads == [len(keys)]


def test_a_stream_get_frame_is_one_backend_call():
    backend = Counted("node0")
    stored = items(64)
    keys = [key for key, _ in stored]
    keys.insert(5, "7.missing")
    with LocalCluster(backends=[backend]) as cluster:
        (provider,) = cluster.providers
        assert provider.put_many(stored) == [None] * len(stored)
        got = provider.get_stream(keys)
    # One call for the frame's 65 keys, where the server made 65 ``get``s.
    assert backend.reads == [len(keys)]
    # The missing key still answers its own frame, in its place.
    assert isinstance(got.pop(5), BlobNotFoundError)
    assert got == [data for _, data in stored]


def test_reading_a_keyed_frame_holds_its_payload_once():
    # The key and the payload are two reads: a payload cut out of one
    # body read held it twice, 2.0 MiB at the peak for a 1 MiB frame with
    # a key against 1.0 MiB without one.
    payload = os.urandom(1 << 20)
    for key in ("", "k", "7.42"):
        stream = io.BytesIO(encode_frame(OpCode.PUT, key, payload))
        tracemalloc.start()
        try:
            frame = read_frame(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (frame.key, frame.payload) == (key, payload)
        assert peak <= 1.1 * len(payload), (key, peak / len(payload))


def test_receiving_a_frame_off_a_socket_holds_its_payload_once():
    # recv_frame reads the payload into one buffer: recv() chunks joined
    # once they had all arrived held a 4 MiB frame twice at the peak.
    payload = os.urandom(4 << 20)
    frame = encode_frame(OpCode.PUT, "k", payload)
    a, b = socket.socketpair()
    with a, b:
        sender = threading.Thread(target=a.sendall, args=(frame,))
        tracemalloc.start()
        try:
            sender.start()
            got = recv_frame(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            sender.join()
    assert (got.key, got.payload) == ("k", payload)
    assert peak <= 1.1 * len(payload), peak / len(payload)


def test_an_upload_holds_a_small_multiple_of_the_file_at_its_peak():
    data = os.urandom(8 << 20)
    with LocalCluster(count=6) as cluster:
        d = CloudDataDistributor(
            cluster.build_registry(),
            chunk_policy=ChunkSizePolicy.uniform(64 << 10),
            codec="raid5@4", seed=9, metrics=MetricsRegistry(),
        )
        with d:
            d.register_client("C")
            d.add_password("C", "pw", PrivacyLevel.PRIVATE)
            d.upload_file("C", "pw", "warm", data[: 64 << 10], PrivacyLevel.PRIVATE)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert d.get_file("C", "pw", "f") == data
    assert peak <= PEAK_PER_FILE_BYTE * len(data), peak / len(data)
