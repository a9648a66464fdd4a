"""Wire-level fault injection: the server answers late, wrong, or not at
all, and the client's retry loop must still converge on correct results."""

import pytest

from repro.net.remote import RemoteProvider, RetryPolicy
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
