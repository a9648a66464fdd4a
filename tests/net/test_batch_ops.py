"""Batched wire operations: MULTI_PUT / MULTI_GET.

The data path coalesces every shard of a window bound for one provider into
a single framed round-trip.  These tests pin the batch payload encodings,
conformance with the looped per-object primitives, per-item partial
failure reporting, retry behaviour under wire faults, and the health
verdicts batch failures must feed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    BlobNotFoundError,
    ProviderError,
    ProviderUnavailableError,
)
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.net.protocol import (
    ProtocolError,
    Status,
    decode_batch_results,
    decode_multi_put,
    encode_batch_results,
    encode_multi_put,
)
from repro.net.remote import RemoteProvider, RetryPolicy
from repro.net.server import ChunkServer, WireFaults
from repro.providers.chaos import ChaosProvider, FaultPlan
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry


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
