"""Journal recovery: what it believes of a record, and what it costs.

A committed record is metadata on disk like ``metadata.json``: the row it
describes comes in by the door a loaded chunk row comes in by, or boot
stops with a typed error naming the transaction.  A purged chunk leaves
nothing behind.  And recovery finds a chunk by its virtual id without
walking the Chunk Table at all.
"""

from __future__ import annotations

import json

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import MetadataCorruptedError, UnknownFileError
from repro.core.journal import IntentJournal, recover_from_journal
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.core.tables import ChunkTable
from repro.health.fsck import run_fsck
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry
from repro.util.crash import CrashPoint, crashing_at

DATA = bytes(range(256)) * 4


@pytest.fixture
def registry() -> ProviderRegistry:
    registry = ProviderRegistry()
    for i in range(6):
        registry.register(
            InMemoryProvider(f"P{i}"), PrivacyLevel.PRIVATE, CostLevel(1)
        )
    return registry


def boot(registry, path, chunk: int = 256) -> CloudDataDistributor:
    """A process start over the same providers and journal: empty tables
    (no snapshot was saved), the client registered again."""
    d = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(chunk),
        seed=7,
        journal=IntentJournal(path),
    )
    d.register_client("Bob")
    d.add_password("Bob", "pw", PrivacyLevel.PRIVATE)
    return d


def edit_commit(path, edit) -> int:
    """Apply *edit* to the first added spec of the commit record on disk,
    as a hand or a torn write would; returns the transaction id."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    (commit,) = [r for r in records if r["rec"] == "commit"]
    edit(commit["delta"]["add"][0])
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return commit["txn"]


def _positions(value):
    return lambda spec: spec.__setitem__("positions", value(spec))


HOSTILE = {
    "repeated": _positions(lambda s: s["positions"][:1] * 2),
    "descending": _positions(lambda s: s["positions"][::-1]),
    "negative": _positions(lambda s: [-1] + s["positions"]),
    "past-the-end": _positions(lambda s: s["positions"] + [10**6]),
    "not-integers": _positions(lambda s: [str(p) for p in s["positions"]]),
    "past-uint32": _positions(lambda s: s["positions"] + [2**32]),
    "wraps-to-in-range": _positions(lambda s: s["positions"][:-1] + [2**32 + 200]),
    "past-int64": _positions(lambda s: s["positions"] + [2**70]),
    "a-bool": _positions(lambda s: [True] + s["positions"][1:]),
    "a-float": _positions(lambda s: s["positions"][:-1] + [200.5]),
    "nested": _positions(lambda s: [s["positions"]]),
    "not-a-sequence": _positions(lambda s: 7),
    "short-checksums": lambda s: s.__setitem__("checksums", s["checksums"][:-1]),
    # Bare KeyError / TypeError / ValueError at 107f412, or (the three
    # providers, the missing filename) a row loaded as if nothing were wrong.
    "no-stripe": lambda s: s.pop("stripe"),
    "no-providers": lambda s: s.pop("providers"),
    "no-serial": lambda s: s.pop("serial"),
    "no-filename": lambda s: s.pop("filename"),
    "no-vid": lambda s: s.pop("vid"),
    "vid-not-an-integer": lambda s: s.__setitem__("vid", "x"),
    "short-stripe": lambda s: s.__setitem__("stripe", s["stripe"][:5]),
    "stripe-not-integers": lambda s: s["stripe"].__setitem__(2, "x"),
    "stripe-not-a-list": lambda s: s.__setitem__("stripe", 7),
    "rotation-not-an-integer": lambda s: s.__setitem__("rotation", "x"),
    "unregistered-provider": lambda s: s["providers"].__setitem__(0, "ghost"),
    "providers-not-a-list": lambda s: s.__setitem__("providers", 7),
    "three-providers-for-four-shards": lambda s: s["providers"].pop(),
    "unregistered-snapshot-provider": lambda s: s.__setitem__("snapshot", "ghost"),
    "level-99": lambda s: s.__setitem__("level", 99),
    "no-level": lambda s: s.pop("level"),
    # Loaded at 8025e85 (the first then failed every read of its shard); the
    # Chunk Table keeps a checksum as its 32 raw bytes and a vid as a 64-bit
    # integer, so both are refused at the door.
    "checksum-not-a-hex-digest": lambda s: s["checksums"].__setitem__(0, "z" * 64),
    "vid-past-int64": lambda s: s.__setitem__("vid", 2**70),
}


@pytest.mark.parametrize("edit", HOSTILE.values(), ids=HOSTILE.keys())
def test_a_committed_record_that_contradicts_its_stripe_stops_the_boot(
    registry, tmp_path, edit
):
    path = tmp_path / "journal.jsonl"
    first = boot(registry, path)
    first.upload_file(
        "Bob", "pw", "f", DATA, PrivacyLevel.PRIVATE, misleading_fraction=0.1
    )
    txn = edit_commit(path, edit)
    rebooted = boot(registry, path)
    with pytest.raises(MetadataCorruptedError, match=f"transaction {txn} ") as err:
        recover_from_journal(rebooted, rebooted.journal)
    assert "'f'" in str(err.value)
    # The bad row was never tabled: nothing reads as plaintext with a
    # misleading byte in it, nothing waits to raise IndexError mid-read.
    assert len(rebooted.chunk_table) == 0
    with pytest.raises(UnknownFileError):
        rebooted.get_file("Bob", "pw", "f")


def test_the_same_record_untouched_is_restored(registry, tmp_path):
    path = tmp_path / "journal.jsonl"
    first = boot(registry, path)
    first.upload_file(
        "Bob", "pw", "f", DATA, PrivacyLevel.PRIVATE, misleading_fraction=0.1
    )
    edit_commit(path, lambda spec: None)
    rebooted = boot(registry, path)
    report = recover_from_journal(rebooted, rebooted.journal)
    assert report.chunks_restored == len(DATA) // 256
    assert rebooted.get_file("Bob", "pw", "f") == DATA


def test_recovered_rows_are_the_rows_an_upload_tables(registry, tmp_path):
    from repro.core.misleading import NO_POSITIONS
    from tests.core.test_misleading import is_row

    path = tmp_path / "journal.jsonl"
    first = boot(registry, path)
    first.upload_file(
        "Bob", "pw", "f", DATA, PrivacyLevel.PRIVATE, misleading_fraction=0.1
    )
    first.upload_file("Bob", "pw", "plain", DATA, PrivacyLevel.PRIVATE)
    rebooted = boot(registry, path)
    recover_from_journal(rebooted, rebooted.journal)
    by_vid = {entry.virtual_id: entry for _, entry in first.chunk_table}
    assert len(rebooted.chunk_table) == len(by_vid) == 8
    for _, entry in rebooted.chunk_table:
        row = entry.misleading_positions
        assert entry.misleading_positions.tolist() == (
            by_vid[entry.virtual_id].misleading_positions.tolist()
        )
        assert is_row(row)
        assert (len(row) == 0) == (row is NO_POSITIONS)
    assert sum(
        entry.misleading_positions is NO_POSITIONS
        for _, entry in rebooted.chunk_table
    ) == 4
    assert rebooted.get_file("Bob", "pw", "f") == DATA
    assert rebooted.get_file("Bob", "pw", "plain") == DATA


def test_a_purged_chunk_leaves_nothing_behind(registry, tmp_path):
    """At 107f412 the purge forgot the unknown-codec quarantine: four rows
    that described nothing rode every later save, and fsck was never clean
    again."""
    path = tmp_path / "journal.jsonl"
    d = boot(registry, path)
    d.upload_file("Bob", "pw", "f", DATA, PrivacyLevel.PRIVATE)
    snapshot = d.export_metadata()
    snapshot["chunk_state"] = {
        vid: ("bogus",) + tuple(packed[1:])
        for vid, packed in snapshot["chunk_state"].items()
    }
    d.import_metadata(snapshot)
    assert all(entry.quarantined for _, entry in d.chunk_table)
    saved = d.export_metadata()
    with crashing_at("remove.intent_logged"):
        with pytest.raises(CrashPoint):
            d.remove_file("Bob", "pw", "f")

    rebooted = boot(registry, path)
    rebooted.import_metadata(saved)
    assert len(rebooted.chunk_table) == 4
    report = recover_from_journal(rebooted, rebooted.journal)
    assert report.rolled_forward == 2  # the upload (a no-op) and the remove
    assert len(rebooted.chunk_table) == 0
    assert rebooted.client_table.get("Bob").chunk_refs == []
    assert rebooted.export_metadata()["chunk_state"] == {}
    assert run_fsck(rebooted).unknown_codec == []
    assert run_fsck(rebooted).clean


def test_recovering_a_512_chunk_remove_never_walks_the_chunk_table(
    registry, tmp_path, monkeypatch
):
    """By count, not by clock: a scan per spec made this remove's
    recovery 512 walks of a 520-row table, then a map built per pass one;
    the table's own vid -> index map makes it none."""
    path = tmp_path / "journal.jsonl"
    d = boot(registry, path, chunk=16)
    d.upload_file("Bob", "pw", "keep", DATA[:128], PrivacyLevel.PRIVATE)
    d.upload_file("Bob", "pw", "victim", DATA * 8, PrivacyLevel.PRIVATE)
    d.journal.checkpoint()  # the uploads are history
    refs = d.client_table.get("Bob").refs_for_file("victim")
    assert len(refs) == 512
    shards = sum(
        len(d.chunk_table.get(ref.chunk_index).provider_indices)
        for ref in refs
    )
    kept = sum(len(entry.provider.keys()) for entry in registry.all()) - shards
    with crashing_at("remove.intent_logged"):
        with pytest.raises(CrashPoint):
            d.remove_file("Bob", "pw", "victim")

    walks = []
    walk = ChunkTable.__iter__
    monkeypatch.setattr(
        ChunkTable, "__iter__", lambda self: walks.append(1) or walk(self)
    )
    # The process died with its tables; this one stands in for a reboot
    # that loaded them from the last snapshot.
    report = recover_from_journal(d, d.journal)
    assert walks == []
    assert report.rolled_forward == 1
    assert report.objects_deleted == shards
    assert d.client_table.get("Bob").filenames() == ["keep"]
    assert len(d.chunk_table) == 8
    assert d.get_file("Bob", "pw", "keep") == DATA[:128]
    assert sum(len(entry.provider.keys()) for entry in registry.all()) == kept


def recounted_loads(d: CloudDataDistributor) -> dict[str, int]:
    """Shards plus snapshots per provider, counted row by row: what
    ``provider_loads()`` must say without counting."""
    loads = {entry.name: 0 for _, entry in d.provider_table}
    for _, entry in d.chunk_table:
        for index in (*entry.provider_indices, entry.snapshot_index):
            if index is not None:
                loads[d.provider_table.get(index).name] += 1
    return loads


def test_keys_a_recovered_remove_purged_leave_no_load_behind(tmp_path):
    """At f1432f1 the Provider Table kept its own key lists beside the
    rows: a repair moved P0's shards while P0 was down (their twins stayed
    on it), the last snapshot still listed them under P0, and recovery's
    purge took the moved copies off their new homes' lists only.  P0 kept
    counting 5 shards it did not hold -- through ``fsck --repair``, and
    into every later ``metadata.json``."""
    from repro.core.persistence import load_metadata, save_metadata
    from repro.providers.failures import FailureInjector
    from repro.providers.registry import ProviderSpec, build_simulated_fleet

    registry, providers, clock = build_simulated_fleet(
        [ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP) for i in range(6)],
        seed=3,
    )
    injector = FailureInjector(providers, clock)

    def boot_raid5():
        return CloudDataDistributor(
            registry, chunk_policy=ChunkSizePolicy.uniform(256),
            codec="raid5@4", seed=5, journal=IntentJournal(tmp_path / "journal"),
        )

    d = boot_raid5()
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    d.upload_file("C", "pw", "f", DATA * 2, PrivacyLevel.PRIVATE)
    d.upload_file("C", "pw", "g", DATA[:700], PrivacyLevel.PRIVATE)
    save_metadata(d, tmp_path / "metadata.json")
    injector.take_down("P0")
    assert len(d.repair_file("C", "pw", "f").relocations) == 5
    injector.bring_up("P0")
    with crashing_at("remove.intent_logged"):
        with pytest.raises(CrashPoint):
            d.remove_file("C", "pw", "f")

    rebooted = boot_raid5()
    load_metadata(rebooted, tmp_path / "metadata.json")
    recover_from_journal(rebooted, rebooted.journal)
    assert rebooted.client_table.get("C").filenames() == ["g"]
    loads = rebooted.provider_loads()
    assert loads == recounted_loads(rebooted) and loads["P0"] == 3
    listed = rebooted.export_metadata()["provider_table"]["entries"]
    assert sum(len(row[3]) for row in listed.values()) == sum(loads.values())
    report = run_fsck(rebooted, repair=True)
    assert report.orphans_deleted == 5  # the twins the repair left on P0
    assert rebooted.provider_loads() == loads
    assert run_fsck(rebooted).clean
    assert rebooted.get_file("C", "pw", "g") == DATA[:700]
