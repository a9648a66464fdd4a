"""Provider conformance suite: every backend honours the same contract.

The distributor treats backends as interchangeable (Section IV-B's "virtual
id is all a provider sees"), which only holds if put/get/delete/head/keys,
overwrite, missing-key and corruption-detection semantics are *identical*
across in-memory, on-disk, simulated and remote-socket providers, and
through the chaos and namespace wrappers.  Each test here runs once per
backend.
"""

from __future__ import annotations

import pytest

from repro.core.errors import BlobCorruptedError, BlobNotFoundError
from repro.fleet.namespace import NamespacedProvider
from repro.net.remote import DELETE_WINDOW, RemoteProvider, RetryPolicy
from repro.net.server import ChunkServer
from repro.providers.base import blob_checksum
from repro.providers.chaos import ChaosProvider
from repro.providers.disk import DiskProvider
from repro.providers.memory import InMemoryProvider
from repro.providers.simulated import SimulatedProvider
from repro.util.clock import SimulatedClock

BACKENDS = ["memory", "disk", "simulated", "remote", "chaos", "namespaced"]


@pytest.fixture(params=BACKENDS)
def conformant(request, tmp_path):
    """(provider, corrupt) pair for each backend flavour.

    *corrupt* flips a stored byte behind the provider's back without
    updating the recorded checksum -- the bit-rot scenario every backend
    must detect at ``get`` time.
    """
    if request.param == "memory":
        provider = InMemoryProvider("conf")
        yield provider, provider.corrupt_blob
    elif request.param == "disk":
        provider = DiskProvider("conf", tmp_path / "store")

        def corrupt(key: str) -> None:
            path = provider._blob_path(key)
            data = bytearray(path.read_bytes())
            data[0] ^= 0xFF
            path.write_bytes(bytes(data))

        yield provider, corrupt
    elif request.param == "simulated":
        inner = InMemoryProvider("conf")
        provider = SimulatedProvider(inner, clock=SimulatedClock(), seed=5)
        yield provider, inner.corrupt_blob
    elif request.param == "chaos":
        # A quiet fault plan: the wrapper must be bit-for-bit transparent.
        inner = InMemoryProvider("conf")
        provider = ChaosProvider(inner, seed=5)
        yield provider, inner.corrupt_blob
    elif request.param == "namespaced":
        inner = InMemoryProvider("conf")
        provider = NamespacedProvider(inner, "s0")
        yield provider, lambda key: inner.corrupt_blob(f"fleet/s0/{key}")
    else:
        inner = InMemoryProvider("conf")
        with ChunkServer(inner) as server:
            provider = RemoteProvider(
                "conf",
                server.host,
                server.port,
                retry=RetryPolicy(attempts=2, base_delay=0.01),
            )
            yield provider, inner.corrupt_blob
            provider.close()


def test_put_get_roundtrip(conformant):
    provider, _ = conformant
    provider.put("k", b"value")
    assert provider.get("k") == b"value"


def test_binary_payload_roundtrip(conformant):
    provider, _ = conformant
    payload = bytes(range(256)) * 17
    provider.put("bin", payload)
    assert provider.get("bin") == payload


def test_empty_payload_roundtrip(conformant):
    provider, _ = conformant
    provider.put("empty", b"")
    assert provider.get("empty") == b""
    assert provider.head("empty").size == 0


def test_unusual_keys_roundtrip(conformant):
    provider, _ = conformant
    for key in ("a/b c", "chunk-10986.0", "snap:S16948", "ключ"):
        provider.put(key, key.encode("utf-8"))
    for key in ("a/b c", "chunk-10986.0", "snap:S16948", "ключ"):
        assert provider.get(key) == key.encode("utf-8")
    assert sorted(provider.keys()) == sorted(
        ["a/b c", "chunk-10986.0", "snap:S16948", "ключ"]
    )


def test_overwrite_replaces(conformant):
    provider, _ = conformant
    provider.put("k", b"one")
    provider.put("k", b"two-is-longer")
    assert provider.get("k") == b"two-is-longer"
    assert provider.head("k").size == len(b"two-is-longer")
    assert provider.keys() == ["k"]


def test_get_missing_raises(conformant):
    provider, _ = conformant
    with pytest.raises(BlobNotFoundError):
        provider.get("nope")


def test_head_missing_raises(conformant):
    provider, _ = conformant
    with pytest.raises(BlobNotFoundError):
        provider.head("nope")


def test_delete_then_missing(conformant):
    provider, _ = conformant
    provider.put("k", b"v")
    provider.delete("k")
    assert not provider.contains("k")
    with pytest.raises(BlobNotFoundError):
        provider.get("k")
    with pytest.raises(BlobNotFoundError):
        provider.delete("k")


def test_keys_and_contains(conformant):
    provider, _ = conformant
    assert provider.keys() == []
    provider.put("a", b"1")
    provider.put("b", b"22")
    assert sorted(provider.keys()) == ["a", "b"]
    assert provider.contains("a")
    assert not provider.contains("c")
    assert provider.object_count == 2


def test_head_matches_content(conformant):
    provider, _ = conformant
    provider.put("k", b"payload-bytes")
    stat = provider.head("k")
    assert stat.key == "k"
    assert stat.size == len(b"payload-bytes")
    assert stat.checksum == blob_checksum(b"payload-bytes")


def test_corruption_detected_at_get(conformant):
    provider, corrupt = conformant
    provider.put("k", b"precious data")
    corrupt("k")
    with pytest.raises(BlobCorruptedError):
        provider.get("k")


def test_overwrite_clears_corruption(conformant):
    provider, corrupt = conformant
    provider.put("k", b"precious data")
    corrupt("k")
    provider.put("k", b"fresh")
    assert provider.get("k") == b"fresh"


def test_delete_many_answers_every_key_in_order(conformant):
    """One outcome per key, in the order asked; an absent key is a
    ``BlobNotFoundError`` in its slot and the keys after it still go.
    More keys than one wire window, so the remote backend pipelines
    several."""
    provider, _ = conformant
    count = 2 * DELETE_WINDOW + 7
    stored = [f"k{i}" for i in range(count) if i % 5]
    provider.put_many([(key, key.encode()) for key in stored])
    provider.put("kept", b"kept")
    outcomes = provider.delete_many([f"k{i}" for i in range(count)])
    assert [type(outcome) for outcome in outcomes] == [
        type(None) if i % 5 else BlobNotFoundError for i in range(count)
    ]
    assert provider.keys() == ["kept"]


def test_delete_many_of_nothing_answers_nothing(conformant):
    provider, _ = conformant
    provider.put("kept", b"kept")
    assert provider.delete_many([]) == []
    assert provider.keys() == ["kept"]


def test_namespaced_delete_many_is_one_inner_delete_many():
    calls = []

    class Counting(InMemoryProvider):
        def delete_many(self, keys):
            calls.append(list(keys))
            return super().delete_many(keys)

    inner = Counting("conf")
    provider = NamespacedProvider(inner, "s0")
    provider.put_many([("a", b"1"), ("b", b"2")])
    inner.put("fleet/s1/a", b"someone else's")
    outcomes = provider.delete_many(["a", "absent", "b"])
    assert calls == [["fleet/s0/a", "fleet/s0/absent", "fleet/s0/b"]]
    assert [type(outcome) for outcome in outcomes] == [
        type(None), BlobNotFoundError, type(None)
    ]
    assert inner.keys() == ["fleet/s1/a"]


# -- get and get_many never disagree -------------------------------------------

IN_TREE = ["memory", "disk", "chaos", "namespaced"]


@pytest.fixture(params=IN_TREE)
def damageable(request, tmp_path):
    """(provider, corrupt, drop) for each in-process backend: *corrupt*
    flips a stored byte behind the provider's back, *drop* loses the
    object silently."""
    if request.param == "disk":
        provider = DiskProvider("conf", tmp_path / "store")

        def corrupt(key: str) -> None:
            path = provider._blob_path(key)
            record = bytearray(path.read_bytes())
            record[-1] ^= 0xFF
            path.write_bytes(bytes(record))

        def drop(key: str) -> None:
            provider._blob_path(key).unlink()

        return provider, corrupt, drop
    inner = InMemoryProvider("conf")
    if request.param == "namespaced":
        return (
            NamespacedProvider(inner, "s0"),
            lambda key: inner.corrupt_blob(f"fleet/s0/{key}"),
            lambda key: inner.drop_blob(f"fleet/s0/{key}"),
        )
    provider = inner if request.param == "memory" else ChaosProvider(inner, seed=5)
    return provider, inner.corrupt_blob, inner.drop_blob


def _answers(call):
    """An outcome as comparable evidence: the bytes, or the error type."""
    try:
        outcome = call()
    except (BlobCorruptedError, BlobNotFoundError) as exc:
        return type(exc)
    return outcome if isinstance(outcome, bytes) else type(outcome)


def test_get_many_answers_slot_for_slot_as_get_does(damageable):
    """Present, absent, corrupted and dropped keys, one asked twice, in an
    order that is not the order they were stored in: one answer per key,
    in order, each what ``get`` says of that key, and a failed slot does
    not stop the slots after it."""
    provider, corrupt, drop = damageable
    for name in ("a", "b", "rotten", "lost", "z"):
        provider.put(name, name.encode() * 7)
    corrupt("rotten")
    drop("lost")
    keys = ["z", "absent", "rotten", "a", "lost", "a", "b"]
    batch = [
        outcome if isinstance(outcome, bytes) else type(outcome)
        for outcome in provider.get_many(keys)
    ]
    assert batch == [_answers(lambda key=key: provider.get(key)) for key in keys]
    assert batch == [
        b"z" * 7, BlobNotFoundError, BlobCorruptedError, b"a" * 7,
        BlobNotFoundError, b"a" * 7, b"b" * 7,
    ]
    assert provider.get_many([]) == []
