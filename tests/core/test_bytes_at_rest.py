"""The bytes at rest, pinned: what a scripted history leaves at every
provider, and in the journal, is the same whatever the write engine's
internal layout.

The history covers each way the write engine stores bytes: a PL-3 upload
with misleading bytes, a PL-1 ``raid6`` upload, a ciphered ``put_stream``
cut into several windows, a multi-chunk ``update_chunks`` (new stripes
plus snapshots) and a remove, all journalled; a second history has one
provider refuse every batch, so an upload fails over, an update rolls
back and a streamed upload journals its windows' failover homes.  The
digests below were recorded before the engine planned a window as
columns; a change that moves any draw, placement, key, shard byte or
journal record moves them.
"""

from __future__ import annotations

import hashlib
import io

import numpy as np
import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ProviderUnavailableError
from repro.core.journal import IntentJournal
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.crypto.stream import StreamCipher
from repro.obs.metrics import MetricsRegistry
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry

#: SHA-256 over every provider's sorted ``(key, sha256(blob))`` list.
PROVIDERS_DIGEST = "1b7afec3c77858f01a0a4aa97710f0f6548a182b6e0e2e4558886bfca036069b"
#: SHA-256 of the journal file: every intent, extend and commit record.
JOURNAL_DIGEST = "910a1e9a1ff037d8dd61e2a85e0333ba4261ed1c1b6626cbc107bc42673d01f9"
#: The same two digests after :func:`refused_history`.
REFUSED_PROVIDERS_DIGEST = "646d563a501ac70bde2ebd98c2c0928b52c53161f4eb08366d079f2b425a6c2d"
REFUSED_JOURNAL_DIGEST = "9e11e1d48d608cd5020bf6bb5e7551e3f389282f3b1bc18efb03eb950d5ea96d"


def history(tmp_path) -> tuple[ProviderRegistry, bytes]:
    """Run the scripted history; returns the fleet and the journal bytes."""
    registry = ProviderRegistry()
    for i in range(7):
        registry.register(
            InMemoryProvider(f"P{i}"), PrivacyLevel.PRIVATE, CostLevel.CHEAP
        )
    journal = IntentJournal(tmp_path / "journal.jsonl")
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(512), codec="raid5@4",
        seed=34, metrics=MetricsRegistry(), journal=journal,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    rng = np.random.default_rng(35)
    d.upload_file(
        "C", "pw", "sensitive", rng.bytes(9000), PrivacyLevel.PRIVATE,
        misleading_fraction=0.1,
    )
    d.upload_file("C", "pw", "low", rng.bytes(5000), PrivacyLevel.LOW, codec="raid6@5")
    d.put_stream(
        "C", "pw", "streamed", io.BytesIO(rng.bytes(7000)), PrivacyLevel.MODERATE,
        window_chunks=4, cipher=StreamCipher(b"at-rest"),
    )
    d.update_chunks(
        "C", "pw", "sensitive",
        {serial: rng.bytes(512) for serial in (0, 3, 4, 17)},
    )
    d.remove_file("C", "pw", "low")
    d.close()
    return registry, journal.path.read_bytes()


def refused_history(tmp_path) -> tuple[ProviderRegistry, bytes, int]:
    """A history with ``P2`` refusing every batch put; returns the fleet,
    the journal bytes and how many shards failed over."""
    registry = ProviderRegistry()
    providers = [InMemoryProvider(f"P{i}") for i in range(7)]
    for provider in providers:
        registry.register(provider, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    journal = IntentJournal(tmp_path / "journal.jsonl")
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(512), codec="raid5@4",
        seed=5, metrics=MetricsRegistry(), journal=journal,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    rng = np.random.default_rng(1)
    providers[2].put_many = lambda items, checksums=None: [
        ProviderUnavailableError("P2 refuses")
    ] * len(items)
    d.upload_file(
        "C", "pw", "a", rng.bytes(6000), PrivacyLevel.PRIVATE, misleading_fraction=0.1
    )
    # A snapshot is one object: refused, it has nowhere else to go.
    with pytest.raises(ProviderUnavailableError):
        d.update_chunks("C", "pw", "a", {1: rng.bytes(512), 5: rng.bytes(512)})
    d.put_stream(
        "C", "pw", "s", io.BytesIO(rng.bytes(9000)), PrivacyLevel.PRIVATE,
        window_chunks=3,
    )
    d.close()
    moved = d.metrics.value("distributor_failover_shards_total")
    return registry, journal.path.read_bytes(), moved


def providers_digest(registry: ProviderRegistry) -> str:
    digest = hashlib.sha256()
    for entry in sorted(registry.all(), key=lambda e: e.name):
        provider = entry.provider
        digest.update(entry.name.encode())
        for key in sorted(provider.keys()):
            digest.update(key.encode())
            digest.update(hashlib.sha256(provider.get(key)).digest())
    return digest.hexdigest()


def test_a_history_leaves_the_bytes_it_always_left(tmp_path):
    registry, journal = history(tmp_path)
    assert providers_digest(registry) == PROVIDERS_DIGEST
    assert hashlib.sha256(journal).hexdigest() == JOURNAL_DIGEST


def test_a_refused_history_leaves_the_bytes_it_always_left(tmp_path):
    registry, journal, moved = refused_history(tmp_path)
    assert moved == 7
    assert journal.count(b'"rec": "extend"') == 6  # failover homes, stream windows
    assert providers_digest(registry) == REFUSED_PROVIDERS_DIGEST
    assert hashlib.sha256(journal).hexdigest() == REFUSED_JOURNAL_DIGEST


def test_the_history_reads_back(tmp_path):
    registry, _ = history(tmp_path)
    stored = sum(len(entry.provider.keys()) for entry in registry.all())
    # 18 PL-3 chunks and 14 streamed ones, four shards each; four of the
    # PL-3 ones also keep a snapshot.  The raid6 file is gone.
    assert stored == (18 + 14) * 4 + 4
