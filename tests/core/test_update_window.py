"""An update is one window of the write engine.

``update_chunks`` replaces any number of a file's chunks as one write: one
read of the current versions, one plan, one batched transfer in which each
chunk's pre-state rides as its snapshot, one journal transaction, and the
old chunks retired after the commit record.  ``update_chunk`` is its
one-chunk caller.  These tests pin that shape, the all-or-nothing outcome,
and Table III's rule that a snapshot lives outside its chunk's stripe.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.audit import AuditLog
from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ProviderUnavailableError, UnknownChunkError
from repro.core.journal import IntentJournal
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.core.virtual_id import shard_key, snapshot_key
from repro.health.fsck import run_fsck
from repro.obs.metrics import MetricsRegistry
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry

DATA = np.random.default_rng(5).bytes(8 * 1024)  # eight 1 KiB PL-3 chunks


def world(n: int = 6, journal=None, audit=None) -> CloudDataDistributor:
    registry = ProviderRegistry()
    for i in range(n):
        registry.register(
            InMemoryProvider(f"P{i}"), PrivacyLevel.PRIVATE, CostLevel.CHEAP
        )
    d = CloudDataDistributor(
        registry, codec="raid5@4", seed=17, journal=journal, audit=audit,
        metrics=MetricsRegistry(),
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    d.upload_file(
        "C", "pw", "f", DATA, PrivacyLevel.PRIVATE, misleading_fraction=0.1
    )
    return d


def chunk(serial: int) -> bytes:
    return DATA[serial * 1024 : (serial + 1) * 1024]


def row(d: CloudDataDistributor, serial: int):
    ref = d.client_table.get("C").ref_for_chunk("f", serial)
    return d.chunk_table.get(ref.chunk_index)


def stored_objects(d: CloudDataDistributor) -> dict[str, list[str]]:
    return {
        entry.name: sorted(entry.provider.keys()) for entry in d.registry.all()
    }


def test_several_chunks_update_as_one_transaction(tmp_path):
    journal = IntentJournal(tmp_path / "journal.jsonl")
    d = world(journal=journal)
    journal.checkpoint()
    updates = {1: b"one" * 300, 4: b"four" * 256, 6: b"six"}
    d.update_chunks("C", "pw", "f", updates)

    want = b"".join(updates.get(serial, chunk(serial)) for serial in range(8))
    assert d.get_file("C", "pw", "f") == want
    for serial in updates:
        assert d.get_snapshot("C", "pw", "f", serial) == chunk(serial)
        entry = row(d, serial)
        assert entry.snapshot_index not in entry.provider_indices
    # One intent (every shard and snapshot it writes) and one commit.
    records = [json.loads(line) for line in journal.path.read_text().splitlines()]
    assert [r["rec"] for r in records] == ["intent", "commit"]
    assert len(records[0]["put_keys"]) == 3 * (4 + 1)
    assert len(records[1]["delta"]["remove"]) == len(records[1]["delta"]["add"]) == 3
    assert run_fsck(d).clean
    assert d.provider_loads() == {
        name: len(keys) for name, keys in stored_objects(d).items()
    }


def test_an_update_writes_one_batch_per_provider():
    d = world()
    batches: list[str] = []
    for entry in d.registry.all():
        provider = entry.provider

        def put_many(items, checksums=None, _p=provider, _put_many=provider.put_many):
            batches.append(_p.name)
            return _put_many(items, checksums=checksums)

        provider.put_many = put_many
    d.update_chunks("C", "pw", "f", {serial: b"x" * 1000 for serial in range(8)})
    assert sorted(batches) == sorted(set(batches))
    assert len(batches) == 6


def test_the_misleading_budget_and_codec_stay_with_the_chunk():
    d = world()
    before = row(d, 2)
    # A view of the row reads the columns: what the old version was must be
    # read before the update retires it.
    was = (len(before.misleading_positions), before.record, before.virtual_id)
    d.update_chunk("C", "pw", "f", 2, b"\x07" * 1024)
    with pytest.raises(UnknownChunkError):
        before.virtual_id
    after = row(d, 2)
    assert len(after.misleading_positions) == was[0] == 102
    assert after.record.stripe.codec == was[1].stripe.codec
    assert after.record.rotation == was[1].rotation == 2 % 4
    assert after.virtual_id != was[2]
    assert d.get_chunk("C", "pw", "f", 2) == b"\x07" * 1024


def test_a_refused_snapshot_fails_the_whole_update_and_changes_nothing():
    d = world()
    objects, loads = stored_objects(d), d.provider_loads()
    refs = d.client_table.get("C").refs_for_file("f")
    for entry in d.registry.all():
        provider = entry.provider

        def put(key, data, checksum=None, _put=provider.put):
            if key.startswith("S"):
                raise ProviderUnavailableError("no snapshots taken")
            _put(key, data, checksum=checksum)

        provider.put = put
    with pytest.raises(ProviderUnavailableError):
        d.update_chunks("C", "pw", "f", {0: b"new", 5: b"new"})
    assert d.get_file("C", "pw", "f") == DATA
    assert stored_objects(d) == objects
    assert d.provider_loads() == loads
    assert d.client_table.get("C").refs_for_file("f") == refs
    assert d.ids.allocated_count == len(d.chunk_table) == 8


def test_a_failed_over_shard_stays_off_the_snapshot_holder():
    """Five providers, stripes of four: the fifth holds the snapshot, so a
    refused shard has nowhere else to go.  It stays a hole (three of four
    landed, so the chunk is accepted degraded) rather than move onto the
    provider holding the chunk's previous version."""
    d = world(n=5)
    refused: list[str] = []
    for entry in d.registry.all():
        provider = entry.provider

        def put(key, data, checksum=None, _p=provider, _put=provider.put):
            if not refused and not key.startswith("S"):
                refused.append(_p.name)
                raise ProviderUnavailableError(f"{_p.name} refuses")
            _put(key, data, checksum=checksum)

        provider.put = put
    d.update_chunk("C", "pw", "f", 3, b"\x09" * 1024)
    entry = row(d, 3)
    holder = d.provider_table.get(entry.snapshot_index).name
    assert refused and holder not in d._members(entry)
    assert d.get_chunk("C", "pw", "f", 3) == b"\x09" * 1024
    assert d.get_snapshot("C", "pw", "f", 3) == chunk(3)


def test_a_repaired_shard_stays_off_the_snapshot_holder():
    """The same rule for a tabled row: a lost shard of a five-provider
    fleet's updated chunk is rebuilt where it was, not moved onto the
    provider holding the chunk's previous version."""
    d = world(n=5)
    d.update_chunk("C", "pw", "f", 3, b"\x09" * 1024)
    entry = row(d, 3)
    members = d._members(entry)
    d.registry.get(members[0]).provider.delete(shard_key(entry.virtual_id, 0))
    report = d.repair_file("C", "pw", "f")
    assert (report.shards_rebuilt, report.relocations) == (1, [])
    assert d._members(entry) == members
    assert d.get_chunk("C", "pw", "f", 3) == b"\x09" * 1024


def test_update_chunk_is_update_chunks_of_one_in_the_audit_log():
    log = AuditLog()
    d = world(audit=log)
    d.update_chunk("C", "pw", "f", 3, b"three")
    d.update_chunks("C", "pw", "f", {0: b"zero", 7: b"seven"})
    one, several = log.events[-2:]
    assert (one.operation, one.serial) == ("update_chunk", 3)
    assert (several.operation, several.serial) == ("update_chunk", None)
    assert one.ok and several.ok
    assert len(several.virtual_ids) == 2 * 2  # two read, two written


def test_an_update_naming_no_chunk_is_refused():
    d = world()
    with pytest.raises(ValueError, match="names no chunk"):
        d.update_chunks("C", "pw", "f", {})
    assert d.get_file("C", "pw", "f") == DATA


def test_removing_an_updated_chunk_whose_snapshot_is_gone_still_removes_it():
    """The snapshot is deleted in the shards' batch, best effort like
    them: one already gone (a recovery replayed, an operator cleaned up)
    does not stop the remove."""
    d = world()
    d.update_chunk("C", "pw", "f", 1, b"v2")
    entry = row(d, 1)
    holder = d.registry.get(d.provider_table.get(entry.snapshot_index).name)
    holder.provider.delete(snapshot_key(entry.virtual_id))
    d.remove_file("C", "pw", "f")
    assert stored_objects(d) == {f"P{i}": [] for i in range(6)}
    assert sum(d.provider_loads().values()) == len(d.chunk_table) == 0
