"""Batched wire operations: MULTI_PUT / MULTI_GET.

The data path coalesces every shard of a window bound for one provider into
a single framed round-trip.  These tests pin the batch payload encodings,
conformance with the looped per-object primitives, per-item partial
failure reporting, retry behaviour under wire faults, and the health
verdicts batch failures must feed.
"""

import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    BlobCorruptedError,
    BlobNotFoundError,
    ProviderError,
    ProviderUnavailableError,
)
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.net.protocol import (
    OpCode,
    ProtocolError,
    Status,
    decode_batch_results,
    decode_multi_put,
    encode_batch_results,
    encode_deadline_request,
    encode_frame,
    encode_keys,
    encode_multi_put,
    recv_frame,
)
from repro.net.remote import RemoteProvider, RetryPolicy
from repro.net.server import ChunkServer, WireFaults
from repro.providers.chaos import ChaosProvider, FaultPlan
from repro.providers.base import blob_checksum
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry
from tests.net.conftest import RequestLog


def make_client(server, **kwargs):
    kwargs.setdefault("retry", RetryPolicy(attempts=8, base_delay=0.01))
    kwargs.setdefault("connect_timeout", 1.0)
    kwargs.setdefault("op_timeout", 2.0)
    return RemoteProvider("B", server.host, server.port, **kwargs)


# -- payload encodings -------------------------------------------------------


def test_multi_put_encoding_roundtrip():
    items = [
        ("100.0", b"alpha"),
        ("100.1", b""),
        ("snapshot/é", bytes(range(256))),
    ]
    assert decode_multi_put(encode_multi_put(items)) == items


def test_batch_results_encoding_roundtrip():
    results = [
        (int(Status.OK), b"checksum"),
        (int(Status.NOT_FOUND), b"no such key"),
        (int(Status.OK), b""),
    ]
    assert decode_batch_results(encode_batch_results(results)) == results


@pytest.mark.parametrize("cut", [1, 4, 5, 11])
def test_truncated_multi_put_rejected(cut):
    payload = encode_multi_put([("k", b"value")])
    with pytest.raises(ProtocolError):
        decode_multi_put(payload[:-cut])


@pytest.mark.parametrize("cut", [1, 3, 5])
def test_truncated_batch_results_rejected(cut):
    payload = encode_batch_results([(int(Status.OK), b"body")])
    with pytest.raises(ProtocolError):
        decode_batch_results(payload[:-cut])


def test_trailing_garbage_rejected():
    with pytest.raises(ProtocolError):
        decode_multi_put(encode_multi_put([("k", b"v")]) + b"x")
    with pytest.raises(ProtocolError):
        decode_batch_results(
            encode_batch_results([(int(Status.OK), b"")]) + b"x"
        )


# -- default (loop) implementations ------------------------------------------


def test_default_put_many_get_many_match_looped_ops():
    batch = InMemoryProvider("A")
    looped = InMemoryProvider("B")
    items = [(f"k{i}", bytes([i]) * 64) for i in range(10)]

    assert batch.put_many(items) == [None] * len(items)
    for key, data in items:
        looped.put(key, data)
    assert sorted(batch.keys()) == sorted(looped.keys())

    keys = [key for key, _ in items]
    assert batch.get_many(keys) == [looped.get(key) for key in keys]


def test_default_get_many_captures_per_item_errors():
    provider = InMemoryProvider("A")
    provider.put("present", b"here")
    outcomes = provider.get_many(["present", "absent"])
    assert outcomes[0] == b"here"
    assert isinstance(outcomes[1], BlobNotFoundError)


class _PickyProvider(InMemoryProvider):
    """Rejects puts whose key contains the marker substring."""

    def put(self, key, data, checksum=None):
        if "reject" in key:
            raise ProviderUnavailableError(f"{key} refused")
        super().put(key, data)


def test_default_put_many_captures_per_item_errors():
    provider = _PickyProvider("A")
    outcomes = provider.put_many(
        [("ok1", b"a"), ("reject-me", b"b"), ("ok2", b"c")]
    )
    assert outcomes[0] is None and outcomes[2] is None
    assert isinstance(outcomes[1], ProviderUnavailableError)
    assert sorted(provider.keys()) == ["ok1", "ok2"]


# -- remote conformance ------------------------------------------------------


def test_remote_batch_ops_match_looped_ops():
    inner = InMemoryProvider("B")
    items = [(f"k{i}", bytes([i % 256]) * (i + 1)) for i in range(40)]
    with ChunkServer(inner) as server:
        client = make_client(server)
        try:
            assert client.put_many(items) == [None] * len(items)
            # The backend holds exactly what looped puts would have stored.
            for key, data in items:
                assert inner.get(key) == data
            keys = [key for key, _ in items]
            assert client.get_many(keys) == [data for _, data in items]
            # Batched and per-object reads agree object by object.
            for key, data in items[:5]:
                assert client.get(key) == data
        finally:
            client.close()


def test_remote_multi_get_partial_failure_statuses():
    inner = InMemoryProvider("B")
    inner.put("a", b"aa")
    inner.put("c", b"cc")
    with ChunkServer(inner) as server:
        client = make_client(server)
        try:
            outcomes = client.get_many(["a", "missing", "c"])
        finally:
            client.close()
    assert outcomes[0] == b"aa"
    assert isinstance(outcomes[1], BlobNotFoundError)
    assert outcomes[2] == b"cc"


class _Watched(InMemoryProvider):
    """Records every backend item call: ``("put", key)`` a stored object,
    ``("get_many", n)`` a read of *n* keys (``get`` is a one-key
    ``get_many``)."""

    def __init__(self, name):
        super().__init__(name)
        self.calls = []

    def put(self, key, data, checksum=None):
        self.calls.append(("put", key))
        super().put(key, data, checksum=checksum)

    def get_many(self, keys):
        self.calls.append(("get_many", len(keys)))
        return super().get_many(keys)


def test_remote_multi_get_answers_every_slot_from_one_backend_call():
    inner = _Watched("B")
    inner.put("good", b"gg")
    inner.put("flipped", b"ff")
    inner.corrupt_blob("flipped")
    del inner.calls[:]
    with ChunkServer(inner) as server:
        client = make_client(server)
        try:
            outcomes = client.get_many(["good", "missing", "flipped"])
        finally:
            client.close()
    assert outcomes[0] == b"gg"
    assert isinstance(outcomes[1], BlobNotFoundError)
    assert isinstance(outcomes[2], BlobCorruptedError)
    assert inner.calls == [("get_many", 3)]


class _Logged(RequestLog, ChunkServer):
    pass


class _DarkReads(InMemoryProvider):
    """Raises *error* from every batched read instead of answering slots."""

    error: Exception = ProviderUnavailableError("reads are dark")

    def get_many(self, keys):
        raise self.error


@pytest.mark.parametrize(
    "error, expected, text",
    [
        (ProviderUnavailableError("reads are dark"), ProviderUnavailableError,
         "reads are dark"),
        (BlobCorruptedError("disk rot"), BlobCorruptedError, "disk rot"),
        (RuntimeError("backend bug"), ProviderError, "INTERNAL: backend bug"),
    ],
)
def test_a_backend_whose_get_many_raises_fails_every_slot(error, expected, text):
    inner = _DarkReads("B")
    inner.error = error
    with _Logged(inner) as server:
        client = make_client(server)
        try:
            outcomes = client.get_many(["a", "b", "c"])
            # The worker keeps serving, on the same pooled connection.
            client.put("k", b"v")
            assert client.ping() >= 0
        finally:
            client.close()
    assert [type(outcome) for outcome in outcomes] == [expected] * 3
    assert all(str(outcome) == text for outcome in outcomes)
    assert inner.contains("k")
    assert server.connections == 1


@pytest.mark.parametrize("op", [OpCode.MULTI_PUT, OpCode.MULTI_GET])
def test_a_batch_whose_budget_is_spent_touches_no_backend_item(op):
    inner = _Watched("B")
    payload = (
        encode_multi_put([("a", b"x"), ("b", b"y")])
        if op == OpCode.MULTI_PUT
        else encode_keys(["a", "b"])
    )

    def enveloped(budget_ms):
        return encode_frame(
            OpCode.DEADLINE,
            payload=encode_deadline_request(
                budget_ms, encode_frame(op, payload=payload)
            ),
        )

    with ChunkServer(inner) as server:
        with socket.create_connection((server.host, server.port), 5) as sock:
            # Spent before it was sent: a zero budget.
            sock.sendall(enveloped(0))
            assert recv_frame(sock).code == Status.DEADLINE_EXCEEDED
            # Spent while it waited for the backend.
            with server._backend_lock:
                sock.sendall(enveloped(1))
                time.sleep(0.2)
            assert recv_frame(sock).code == Status.DEADLINE_EXCEEDED
            assert inner.calls == []
            # The same batch with time to spare is served, on this socket.
            sock.sendall(enveloped(5000))
            answer = recv_frame(sock)
    assert answer.code == Status.OK
    assert len(decode_batch_results(answer.payload)) == 2
    assert inner.calls == (
        [("put", "a"), ("put", "b")]
        if op == OpCode.MULTI_PUT
        else [("get_many", 2)]
    )


class _EchoGarbler(ChunkServer):
    """Vouches for the right bytes with a wrong echo for ``k5``: its last
    character flipped (``flip``), or moved onto the front of ``k6``'s
    echo (``shift``: both echoes wrong, their join right)."""

    mode = "flip"

    def _put(self, key, data):
        echo = super()._put(key, data)
        if key == "k5":
            self.carry = echo[-1:]
            if self.mode == "flip":
                return echo[:-1] + (b"1" if self.carry == b"0" else b"0")
            return echo[:-1]
        if key == "k6" and self.mode == "shift":
            return self.carry + echo
        return echo


@pytest.mark.parametrize("method", ["put_many", "put_stream"])
@pytest.mark.parametrize("with_checksums", [True, False])
@pytest.mark.parametrize("mode, failed", [("flip", [5]), ("shift", [5, 6])])
def test_a_garbled_echo_mid_batch_fails_exactly_its_items(
    method, with_checksums, mode, failed
):
    items = [(f"k{i}", bytes([i]) * 64) for i in range(12)]
    checksums = [blob_checksum(data) for _, data in items]
    server = _EchoGarbler(InMemoryProvider("B"))
    server.mode = mode
    with server:
        client = make_client(server)
        try:
            outcomes = getattr(client, method)(
                items, checksums=checksums if with_checksums else None
            )
            again = getattr(client, method)(items[:5] + items[7:])
        finally:
            client.close()
    assert [
        i for i, outcome in enumerate(outcomes) if outcome is not None
    ] == failed
    for i in failed:
        assert isinstance(outcomes[i], BlobCorruptedError)
        assert "echo mismatch" in str(outcomes[i])
    # A batch without the garbled items passes whole.
    assert again == [None] * 10


def test_remote_multi_put_partial_failure_statuses():
    inner = _PickyProvider("B")
    with ChunkServer(inner) as server:
        client = make_client(server)
        try:
            outcomes = client.put_many(
                [("ok1", b"a"), ("reject-2", b"b"), ("ok3", b"c")]
            )
        finally:
            client.close()
    assert outcomes[0] is None and outcomes[2] is None
    assert isinstance(outcomes[1], ProviderUnavailableError)
    assert sorted(inner.keys()) == ["ok1", "ok3"]


def test_remote_batch_splits_oversized_windows(monkeypatch):
    import repro.net.remote as remote_mod

    monkeypatch.setattr(remote_mod, "BATCH_ITEMS", 4)
    inner = InMemoryProvider("B")
    items = [(f"k{i}", bytes([i]) * 8) for i in range(11)]
    with ChunkServer(inner) as server:
        client = make_client(server)
        try:
            assert client.put_many(items) == [None] * len(items)
            keys = [key for key, _ in items]
            assert client.get_many(keys) == [data for _, data in items]
        finally:
            client.close()
    assert inner.object_count == len(items)


def test_split_batches_respects_byte_and_item_caps(monkeypatch):
    import repro.net.remote as remote_mod

    monkeypatch.setattr(remote_mod, "BATCH_BYTES", 100)
    monkeypatch.setattr(remote_mod, "BATCH_ITEMS", 3)
    items = [("k", b"x" * 60), ("k", b"x" * 60), ("k", b"x" * 1)] + [
        ("k", b"")
    ] * 5
    batches = RemoteProvider._split_batches(items, lambda item: len(item[1]))
    assert [len(b) for b in batches] == [1, 3, 3, 1]
    assert [item for batch in batches for item in batch] == items
    # Every batch honours both caps.
    for batch in batches:
        assert len(batch) <= 3
        assert sum(len(data) for _, data in batch) <= 100 or len(batch) == 1


# -- wire faults -------------------------------------------------------------


def test_batch_frames_survive_dropped_connections():
    # One batch is one fault draw, so several rounds are needed before
    # the schedule injects a drop (retrying replays the whole window).
    inner = InMemoryProvider("B")
    faults = WireFaults(drop_rate=0.4, seed=21)
    items = [(f"k{i}", bytes([i]) * 32) for i in range(12)]
    keys = [key for key, _ in items]
    with ChunkServer(inner, wire_faults=faults) as server:
        client = make_client(server)
        try:
            for _ in range(6):
                assert client.put_many(items) == [None] * len(items)
                assert client.get_many(keys) == [data for _, data in items]
        finally:
            client.close()
    assert faults.injected["drop"] > 0


def test_batch_frames_survive_corrupted_frames():
    inner = InMemoryProvider("B")
    faults = WireFaults(corrupt_rate=0.4, seed=22)
    items = [(f"k{i}", bytes([i]) * 32) for i in range(12)]
    keys = [key for key, _ in items]
    with ChunkServer(inner, wire_faults=faults) as server:
        client = make_client(server)
        try:
            for _ in range(6):
                assert client.put_many(items) == [None] * len(items)
                assert client.get_many(keys) == [data for _, data in items]
        finally:
            client.close()
    assert faults.injected["corrupt"] > 0


# -- health accounting -------------------------------------------------------


def _distributor_with(provider):
    from repro.core.distributor import CloudDataDistributor

    registry = ProviderRegistry()
    registry.register(provider, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    return CloudDataDistributor(registry, seed=5)


def test_chaos_batch_put_failures_feed_health_monitor():
    chaos = ChaosProvider(
        InMemoryProvider("P0"), plan=FaultPlan(error_rate=1.0), seed=31
    )
    d = _distributor_with(chaos)
    items = [(f"k{i}", b"x" * 16) for i in range(3)]
    outcomes = d._provider_batch("put_many", "P0", items)
    assert all(isinstance(exc, ProviderError) for exc in outcomes)
    # Three transport failures in one batch cross the DOWN threshold,
    # exactly as three failed individual puts would.
    assert d.health.down("P0")


def test_clean_batch_put_records_successes():
    d = _distributor_with(InMemoryProvider("P0"))
    items = [(f"k{i}", b"x" * 16) for i in range(4)]
    assert d._provider_batch("put_many", "P0", items) == [None] * 4
    assert d.health.healthy("P0")
    rows = {row[0]: row for row in d.health.report_rows()}
    assert rows["P0"][4] == 4  # one health observation per item


def test_mixed_batch_get_records_per_item_outcomes():
    d = _distributor_with(InMemoryProvider("P0"))
    d.registry.get("P0").provider.put("present", b"v")
    outcomes = d._provider_batch("get_many", "P0", ["present", "absent"])
    assert outcomes[0] == b"v"
    assert isinstance(outcomes[1], BlobNotFoundError)
    # The miss is a data failure: EWMA rises but no DOWN verdict.
    assert not d.health.down("P0")


class _ScriptedProvider(InMemoryProvider):
    """Answers every batch with the outcomes it was scripted to give."""

    def __init__(self, name, script):
        super().__init__(name)
        self.script = script

    def put_many(self, items, checksums=None):
        return list(self.script)


_OUTCOME = {
    "ok": lambda: None,
    "transport": lambda: ProviderUnavailableError("scripted"),
    "data": lambda: BlobNotFoundError("scripted"),
}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["ok", "ok", "ok", "transport", "data"]),
                min_size=1, max_size=40))
def test_property_batch_outcomes_reach_health_as_if_recorded_one_by_one(kinds):
    from repro.health.monitor import HealthMonitor
    from repro.obs.metrics import MetricsRegistry

    outcomes = [_OUTCOME[kind]() for kind in kinds]
    d = _distributor_with(_ScriptedProvider("P0", outcomes))
    items = [(f"k{i}", b"x") for i in range(len(outcomes))]
    assert d._provider_batch("put_many", "P0", items) == outcomes

    reference = HealthMonitor(d.registry, metrics=MetricsRegistry())
    for kind in kinds:
        if kind == "ok":
            reference.record_success("P0")
        else:
            reference.record_failure("P0", transport=kind == "transport")
    got, want = d.health._record("P0"), reference._record("P0")
    assert d.health.state("P0") is reference.state("P0")
    assert got.consecutive_failures == want.consecutive_failures
    assert (got.successes, got.failures) == (want.successes, want.failures)
    assert got.error_ewma == pytest.approx(want.error_ewma, rel=1e-12)


@pytest.mark.parametrize("answered", [0, 2, 4])
def test_batch_answer_of_the_wrong_length_condemns_every_item(answered):
    d = _distributor_with(_ScriptedProvider("P0", [None] * answered))
    items = [(f"k{i}", b"x") for i in range(3)]
    outcomes = d._provider_batch("put_many", "P0", items)
    assert len(outcomes) == 3
    assert all(type(exc) is ProviderError for exc in outcomes)
    assert d.health.down("P0")  # three transport failures
