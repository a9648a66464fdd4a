import errno
import os

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import (
    BlobCorruptedError,
    BlobNotFoundError,
    ProviderUnavailableError,
)
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.obs.metrics import MetricsRegistry
from repro.providers import disk
from repro.providers.disk import DiskProvider
from repro.providers.registry import ProviderRegistry


@pytest.fixture
def provider(tmp_path):
    return DiskProvider("disk", tmp_path / "store")


def test_roundtrip(provider):
    provider.put("k", b"\x00\x01binary")
    assert provider.get("k") == b"\x00\x01binary"


def test_missing(provider):
    with pytest.raises(BlobNotFoundError):
        provider.get("nope")
    with pytest.raises(BlobNotFoundError):
        provider.delete("nope")
    with pytest.raises(BlobNotFoundError):
        provider.head("nope")


def test_delete(provider):
    provider.put("k", b"v")
    provider.delete("k")
    assert not provider.contains("k")


def test_weird_keys_are_encoded(provider):
    keys = ["a/b", "12345.0", "S98765", "sp ace", "unié"]
    for i, key in enumerate(keys):
        provider.put(key, str(i).encode())
    assert sorted(provider.keys()) == sorted(keys)
    for i, key in enumerate(keys):
        assert provider.get(key) == str(i).encode()


def test_persistence_across_instances(tmp_path):
    a = DiskProvider("d", tmp_path / "s")
    a.put("k", b"persists")
    b = DiskProvider("d", tmp_path / "s")
    assert b.get("k") == b"persists"


def test_corruption_detected(provider, tmp_path):
    provider.put("k", b"data!")
    blob_file = provider._blob_path("k")
    blob_file.write_bytes(b"DATA!")
    with pytest.raises(BlobCorruptedError):
        provider.get("k")


def test_head_size(provider):
    provider.put("k", b"123")
    assert provider.head("k").size == 3


def test_record_format_embeds_checksum(provider):
    provider.put("k", b"data")
    raw = provider._blob_path("k").read_bytes()
    assert raw.startswith(b"RB1\n")
    assert not provider._sum_path("k").exists()  # sidecars are never written


def test_legacy_sidecar_files_still_readable(provider):
    from repro.providers.base import blob_checksum

    # A blob written by the old layout: raw payload + checksum sidecar.
    provider._blob_path("old").write_bytes(b"legacy payload")
    provider._sum_path("old").write_text(blob_checksum(b"legacy payload").hex())
    assert provider.get("old") == b"legacy payload"
    stat = provider.head("old")
    assert stat.size == len(b"legacy payload")
    assert stat.checksum == blob_checksum(b"legacy payload")
    # The first overwrite migrates to the record format, dropping the sidecar.
    provider.put("old", b"new payload")
    assert provider.get("old") == b"new payload"
    assert not provider._sum_path("old").exists()


def test_legacy_blob_without_sidecar_is_corrupt(provider):
    provider._blob_path("naked").write_bytes(b"payload, no checksum anywhere")
    with pytest.raises(BlobCorruptedError):
        provider.get("naked")


def test_put_is_atomic_under_crash(provider):
    from repro.util.crash import CrashPoint, crashing_at

    provider.put("k", b"old")
    with crashing_at("atomic.tmp_written"):
        with pytest.raises(CrashPoint):
            provider.put("k", b"new")
    # Torn write: the published record (blob + checksum together) is the
    # old one, and it still verifies.
    assert provider.get("k") == b"old"
    with crashing_at("disk.put.committed"):
        with pytest.raises(CrashPoint):
            provider.put("k", b"new")
    # The rename already landed atomically; the new record verifies.
    assert provider.get("k") == b"new"


def test_legacy_migration_crash_leaves_readable_state(provider):
    from repro.providers.base import blob_checksum
    from repro.util.crash import CrashPoint, crashing_at

    provider._blob_path("m").write_bytes(b"legacy")
    provider._sum_path("m").write_text(blob_checksum(b"legacy").hex())
    with crashing_at("disk.put.committed"):
        with pytest.raises(CrashPoint):
            provider.put("m", b"migrated")
    # Record renamed in, stale sidecar left behind: readers prefer the
    # embedded checksum, so the leftover sidecar is ignored garbage...
    assert provider.get("m") == b"migrated"
    assert provider._sum_path("m").exists()
    # ...and the next overwrite cleans it up.
    provider.put("m", b"again")
    assert provider.get("m") == b"again"
    assert not provider._sum_path("m").exists()


# -- an OS error is answered in the provider's own terms ----------------------


def _unreadable(provider, key):
    """Make *key*'s blob a directory: every read of it fails with an
    ``OSError`` that is not ENOENT (as EIO or EACCES would)."""
    path = provider._blob_path(key)
    path.unlink()
    path.mkdir()


def _full(monkeypatch, provider):
    """Every write under *provider*'s root fails as a full disk does."""
    write = disk.atomic_write_bytes

    def refusing(path, data, **kwargs):
        if path.parent == provider.root:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return write(path, data, **kwargs)

    monkeypatch.setattr(disk, "atomic_write_bytes", refusing)


def test_an_unreadable_blob_is_corrupt_to_get_and_head(provider):
    provider.put("k", b"data")
    _unreadable(provider, "k")
    with pytest.raises(BlobCorruptedError):
        provider.get("k")
    with pytest.raises(BlobCorruptedError):
        provider.head("k")
    [outcome] = provider.get_many(["k"])
    assert isinstance(outcome, BlobCorruptedError)


def test_a_refused_delete_is_unavailable(provider):
    provider.put("k", b"data")
    _unreadable(provider, "k")
    with pytest.raises(ProviderUnavailableError):
        provider.delete("k")


def test_a_full_disk_refuses_a_put_as_unavailable(provider, monkeypatch):
    provider.put("old", b"kept")
    _full(monkeypatch, provider)
    with pytest.raises(ProviderUnavailableError, match="No space left"):
        provider.put("k", b"data")
    [outcome] = provider.put_many([("k", b"data")])
    assert isinstance(outcome, ProviderUnavailableError)
    assert provider.get("old") == b"kept"
    assert provider.keys() == ["old"]


def test_a_full_disk_fails_its_shards_over_instead_of_the_upload(
    tmp_path, monkeypatch
):
    providers = [DiskProvider(f"D{i}", tmp_path / f"d{i}") for i in range(5)]
    registry = ProviderRegistry()
    for p in providers:
        registry.register(p, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    _full(monkeypatch, providers[0])
    data = bytes(range(256)) * 12
    with CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(256), codec="raid5@4",
        seed=5, metrics=MetricsRegistry(),
    ) as d:
        d.register_client("C")
        d.add_password("C", "pw", PrivacyLevel.PRIVATE)
        d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
        assert d.metrics.value("distributor_failover_shards_total") > 0
        assert providers[0].keys() == []
        assert d.provider_loads()[providers[0].name] == 0
        assert d.get_file("C", "pw", "f") == data


# -- a header or sidecar that spells no digest ----------------------------------


@pytest.mark.parametrize(
    "header", [b"z" * 64, b"A" * 64, "é".encode() * 32], ids=["non-hex", "capitals", "non-ascii"]
)
def test_a_record_header_that_spells_no_digest_is_corrupt(provider, header):
    # The header holds the digest as 64 lowercase hex characters; anything
    # else is a damaged record, on a read and on a head alike.
    provider.put("k", b"payload")
    path = provider._blob_path("k")
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + header + raw[68:])
    with pytest.raises(BlobCorruptedError, match="64 lowercase hex"):
        provider.get("k")
    with pytest.raises(BlobCorruptedError, match="64 lowercase hex"):
        provider.head("k")


def test_a_legacy_sidecar_that_spells_no_digest_is_corrupt(provider):
    provider._blob_path("old").write_bytes(b"legacy payload")
    provider._sum_path("old").write_text("z" * 64)
    with pytest.raises(BlobCorruptedError, match="64 lowercase hex"):
        provider.get("old")
    with pytest.raises(BlobCorruptedError, match="64 lowercase hex"):
        provider.head("old")
