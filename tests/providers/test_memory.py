import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import BlobCorruptedError, BlobNotFoundError
from repro.providers.memory import InMemoryProvider


@pytest.fixture
def provider():
    return InMemoryProvider("test")


def test_put_get_roundtrip(provider):
    provider.put("k", b"value")
    assert provider.get("k") == b"value"


def test_put_overwrites(provider):
    provider.put("k", b"one")
    provider.put("k", b"two")
    assert provider.get("k") == b"two"


def test_get_missing_raises(provider):
    with pytest.raises(BlobNotFoundError):
        provider.get("nope")


def test_delete(provider):
    provider.put("k", b"v")
    provider.delete("k")
    assert not provider.contains("k")
    with pytest.raises(BlobNotFoundError):
        provider.delete("k")


def test_keys_and_counts(provider):
    provider.put("a", b"1")
    provider.put("b", b"22")
    assert sorted(provider.keys()) == ["a", "b"]
    assert provider.object_count == 2
    assert provider.stored_bytes == 3


def test_head(provider):
    provider.put("k", b"12345")
    stat = provider.head("k")
    assert stat.size == 5
    assert stat.key == "k"
    with pytest.raises(BlobNotFoundError):
        provider.head("missing")


def test_corruption_detected(provider):
    provider.put("k", b"precious")
    provider.corrupt_blob("k")
    with pytest.raises(BlobCorruptedError):
        provider.get("k")


def test_corrupt_empty_blob_becomes_loss(provider):
    provider.put("k", b"")
    provider.corrupt_blob("k")
    with pytest.raises(BlobNotFoundError):
        provider.get("k")


def test_corrupt_missing_raises(provider):
    with pytest.raises(BlobNotFoundError):
        provider.corrupt_blob("ghost")


def test_drop_blob_silent(provider):
    provider.put("k", b"v")
    provider.drop_blob("k")
    with pytest.raises(BlobNotFoundError):
        provider.get("k")
    provider.drop_blob("k")  # idempotent


def test_empty_name_rejected():
    with pytest.raises(ValueError):
        InMemoryProvider("")


@given(st.dictionaries(st.text(min_size=1, max_size=10), st.binary(max_size=50), max_size=8))
def test_property_store_matches_dict(contents):
    provider = InMemoryProvider("prop")
    for key, value in contents.items():
        provider.put(key, value)
    assert sorted(provider.keys()) == sorted(contents)
    for key, value in contents.items():
        assert provider.get(key) == value


# -- a batched read answers as its keys one by one -----------------------------


@given(st.lists(st.sampled_from(["good", "missing", "corrupt"]), max_size=40))
def test_a_batch_answers_as_its_keys_one_by_one(kinds):
    # A clean batch of more than _FEW_KEYS keys is one lookup pass, one
    # hashing pass and one compare; any other is judged key by key.  Either
    # way every slot is what a one-key read of it answers -- the same
    # bytes, or an error of the same type and message -- and each stored
    # object is hashed once.
    from repro.providers import memory

    provider = InMemoryProvider("diff")
    keys = []
    for i, kind in enumerate(kinds):
        keys.append(f"{kind}{i}")
        if kind != "missing":
            provider.put(keys[-1], bytes([i]) * (i + 1))
        if kind == "corrupt":
            provider.corrupt_blob(keys[-1], flip_index=i)
    one_by_one = [provider.get_many([key])[0] for key in keys]
    hashed = []
    original = memory.blob_checksum
    memory.blob_checksum = lambda data: hashed.append(data) or original(data)
    try:
        batched = provider.get_many(keys)
    finally:
        memory.blob_checksum = original
    assert list(map(type, batched)) == list(map(type, one_by_one))
    assert [o if isinstance(o, bytes) else str(o) for o in batched] == [
        o if isinstance(o, bytes) else str(o) for o in one_by_one
    ]
    assert len(hashed) == len(kinds) - kinds.count("missing")


@pytest.mark.parametrize("size", [4, 40])
def test_a_clean_batch_is_the_stored_objects_themselves(provider, size):
    for i in range(size):
        provider.put(f"k{i}", bytes([i]) * 10)
    keys = [f"k{i}" for i in reversed(range(size))] + ["k0"]
    got = provider.get_many(keys)
    assert got == [bytes([int(key[1:])]) * 10 for key in keys]
    assert all(data is provider._blobs[key] for data, key in zip(got, keys))
