"""Wire-level fault injection: the server answers late, wrong, or not at
all, and the client's retry loop must still converge on correct results."""

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import BlobNotFoundError
from repro.core.privacy import ChunkSizePolicy, PrivacyLevel
from repro.net.cluster import LocalCluster
from repro.net.remote import DELETE_WINDOW, RemoteProvider, RetryPolicy
from repro.net.server import ChunkServer, WireFaults
from repro.providers.memory import InMemoryProvider


def make_client(server, **kwargs):
    kwargs.setdefault("retry", RetryPolicy(attempts=8, base_delay=0.01))
    kwargs.setdefault("connect_timeout", 1.0)
    kwargs.setdefault("op_timeout", 2.0)
    return RemoteProvider("W", server.host, server.port, **kwargs)


def test_wire_faults_validation():
    with pytest.raises(ValueError):
        WireFaults(drop_rate=1.2)
    with pytest.raises(ValueError):
        WireFaults(stall_s=-0.1)


def test_corrupted_frames_are_detected_and_retried():
    inner = InMemoryProvider("W")
    faults = WireFaults(corrupt_rate=0.3, seed=11)
    with ChunkServer(inner, wire_faults=faults) as server:
        client = make_client(server)
        try:
            for i in range(10):
                client.put(f"k{i}", bytes([i]) * 32)
            for i in range(10):
                assert client.get(f"k{i}") == bytes([i]) * 32
        finally:
            client.close()
    assert faults.injected["corrupt"] > 0


def test_dropped_connections_are_retried():
    inner = InMemoryProvider("W")
    faults = WireFaults(drop_rate=0.3, seed=12)
    with ChunkServer(inner, wire_faults=faults) as server:
        client = make_client(server)
        try:
            for i in range(10):
                client.put(f"k{i}", b"v" * 16)
            for i in range(10):
                assert client.get(f"k{i}") == b"v" * 16
        finally:
            client.close()
    assert faults.injected["drop"] > 0


def test_stalls_delay_but_do_not_fail():
    inner = InMemoryProvider("W")
    faults = WireFaults(stall_rate=1.0, stall_s=0.02, seed=13)
    with ChunkServer(inner, wire_faults=faults) as server:
        client = make_client(server)
        try:
            client.put("k", b"slow")
            assert client.get("k") == b"slow"
        finally:
            client.close()
    assert faults.injected["stall"] >= 2


def test_stall_beyond_op_timeout_times_out_then_recovers():
    inner = InMemoryProvider("W")
    inner.put("k", b"v")
    faults = WireFaults(stall_rate=1.0, stall_s=0.5, seed=14)
    with ChunkServer(inner, wire_faults=faults) as server:
        client = make_client(
            server,
            retry=RetryPolicy(attempts=1, base_delay=0.01),
            op_timeout=0.1,
        )
        try:
            with pytest.raises(Exception):
                client.get("k")
        finally:
            client.close()
        # With the faults quieted, the same server serves the same object.
        faults.stall_rate = 0.0
        survivor = make_client(server)
        try:
            assert survivor.get("k") == b"v"
        finally:
            survivor.close()


def test_seeded_fault_schedule_is_reproducible():
    a = WireFaults(drop_rate=0.3, corrupt_rate=0.3, seed=42)
    b = WireFaults(drop_rate=0.3, corrupt_rate=0.3, seed=42)
    assert [a.draw() for _ in range(50)] == [b.draw() for _ in range(50)]
    assert a.injected == b.injected


def test_prefix_scoped_stall_sees_the_keys_inside_a_batch():
    # Batched traffic (MULTI_PUT / MULTI_GET / STREAM_GET) carries its keys
    # in the payload; prefix scoping must still find them, and the seeded
    # schedule must advance identically whether or not the prefix matches.
    scoped = WireFaults(stall_rate=1.0, stall_s=0.0, seed=15,
                        key_prefix="fleet/sB/")
    unscoped = WireFaults(stall_rate=1.0, stall_s=0.0, seed=15)
    for faults in (scoped, unscoped):
        with ChunkServer(InMemoryProvider("W"), wire_faults=faults) as server:
            client = make_client(server)
            try:
                hit = [(f"fleet/sB/k{i}", b"v" * 8) for i in range(3)]
                miss = [(f"fleet/sA/k{i}", b"v" * 8) for i in range(3)]
                assert client.put_many(hit) == [None] * 3
                assert client.put_many(miss) == [None] * 3
                assert client.get_many([k for k, _ in miss]) == [b"v" * 8] * 3
                assert client.get_many([k for k, _ in hit]) == [b"v" * 8] * 3
                assert client.get_stream([k for k, _ in hit]) == [b"v" * 8] * 3
            finally:
                client.close()
    assert scoped.injected["stall"] == 3    # the three sB batches, only
    assert unscoped.injected["stall"] == 5
    assert scoped.draw("fleet/sB/next") == unscoped.draw("fleet/sB/next")
    assert scoped._rng.random() == unscoped._rng.random()


# -- pipelined DELETE windows ---------------------------------------------------


class ScriptedFaults(WireFaults):
    """Faults exactly the responses its script numbers (1-based, counted
    from :meth:`arm`), once each: no rates, no luck."""

    def __init__(self) -> None:
        super().__init__()
        self.script: dict[int, str] = {}
        self.answered = 0

    def arm(self, script: dict[int, str]) -> None:
        with self._lock:
            self.script, self.answered = dict(script), 0

    def draw(self, key: str = "") -> str | None:
        with self._lock:
            self.answered += 1
            fault = self.script.pop(self.answered, None)
            if fault is not None:
                self.injected[fault] += 1
            return fault


class ScriptedServer(ChunkServer):
    def __init__(self, backend, **kwargs) -> None:
        super().__init__(backend, wire_faults=ScriptedFaults(), **kwargs)


def test_a_reply_lost_or_damaged_mid_window_replays_the_window():
    """Three windows.  The reply to the 36th frame of the second is
    dropped with the connection (the delete itself took effect), one in
    the middle of the third arrives with a bad CRC: each window is
    replayed whole, and a key that went the first time answers not-found
    the second -- gone either way."""
    inner = InMemoryProvider("W")
    keys = [f"k{i}" for i in range(2 * DELETE_WINDOW + 22)]
    inner.put_many([(key, b"v") for key in keys])
    inner.put("kept", b"kept")
    faults = ScriptedFaults()
    with ChunkServer(inner, wire_faults=faults) as server:
        client = make_client(server)
        try:
            # Answers: 64 for the first window, 36 until the drop, 64 for
            # the replayed second window, then the third.
            faults.arm({DELETE_WINDOW + 36: "drop", 2 * DELETE_WINDOW + 46: "corrupt"})
            outcomes = client.delete_many(keys)
            assert client.keys() == ["kept"]  # and the server still serves
        finally:
            client.close()
    assert faults.injected == {"stall": 0, "drop": 1, "corrupt": 1}
    assert len(outcomes) == len(keys)
    assert {type(outcome) for outcome in outcomes} == {
        type(None), BlobNotFoundError
    }
    # First window untouched; the dropped window's first 36 keys had gone.
    assert outcomes[:DELETE_WINDOW] == [None] * DELETE_WINDOW
    assert all(
        isinstance(outcome, BlobNotFoundError)
        for outcome in outcomes[DELETE_WINDOW : DELETE_WINDOW + 36]
    )
    assert outcomes[DELETE_WINDOW + 36 : 2 * DELETE_WINDOW] == [None] * 28


def test_remove_file_rides_out_faults_inside_its_windows():
    """Every node loses one reply and damages another inside the remove's
    windows: ``remove_file`` does not raise, no shard stays behind, and
    the transport pool serves the next request."""
    retry = RetryPolicy(attempts=8, base_delay=0.005)
    with LocalCluster(6, retry=retry, server_cls=ScriptedServer) as cluster:
        d = CloudDataDistributor(
            cluster.build_registry(),
            chunk_policy=ChunkSizePolicy.uniform(64),
            seed=3,
        )
        d.register_client("C")
        d.add_password("C", "pw", PrivacyLevel.PRIVATE)
        data = bytes(range(256)) * 128  # 512 chunks, ~342 shards a node
        d.upload_file("C", "pw", "f", data, PrivacyLevel.MODERATE, codec="raid5@4")
        for server in cluster.servers:
            server.wire_faults.arm({30: "drop", 150: "corrupt"})
        d.remove_file("C", "pw", "f")
        for server in cluster.servers:
            assert server.wire_faults.injected == {
                "stall": 0, "drop": 1, "corrupt": 1
            }
        assert [backend.keys() for backend in cluster.backends] == [[]] * 6
        assert d.list_files("C", "pw") == []
        d.upload_file("C", "pw", "g", data[:4096], PrivacyLevel.MODERATE)
        assert d.get_file("C", "pw", "g") == data[:4096]
        d.close()
