import json
import os
from pathlib import Path

import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.persistence import (
    MetadataCorruptedError,
    load_metadata,
    save_metadata,
)
from repro.core.privacy import PrivacyLevel
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry


@pytest.fixture
def stored(distributor, bob, tmp_path):
    data = os.urandom(5000)
    distributor.upload_file(
        bob, "Ty7e", "f", data, PrivacyLevel.PRIVATE, misleading_fraction=0.1
    )
    distributor.update_chunk(bob, "Ty7e", "f", 0, os.urandom(256))
    path = tmp_path / "meta.json"
    save_metadata(distributor, path)
    return distributor, path, data


def test_restart_from_disk(stored, registry):
    distributor, path, _ = stored
    expected = distributor.get_file("Bob", "Ty7e", "f")

    fresh = CloudDataDistributor(registry, seed=999)
    load_metadata(fresh, path)
    assert fresh.get_file("Bob", "Ty7e", "f") == expected
    assert fresh.chunk_count("Bob", "f") == distributor.chunk_count("Bob", "f")
    # Credentials survived (hashed): wrong password still rejected.
    from repro.core.errors import AuthenticationError

    with pytest.raises(AuthenticationError):
        fresh.get_file("Bob", "wrong", "f")


def test_snapshot_pointers_survive(stored, registry):
    distributor, path, _ = stored
    fresh = CloudDataDistributor(registry, seed=1000)
    load_metadata(fresh, path)
    snap = fresh.get_snapshot("Bob", "Ty7e", "f", 0)
    assert snap == distributor.get_snapshot("Bob", "Ty7e", "f", 0)


def test_virtual_id_allocator_survives(stored, registry):
    distributor, path, _ = stored
    fresh = CloudDataDistributor(registry, seed=1001)
    load_metadata(fresh, path)
    used = {entry.virtual_id for _, entry in fresh.chunk_table}
    # New uploads never collide with restored ids.
    fresh.upload_file("Bob", "Ty7e", "g", b"x" * 600, PrivacyLevel.PRIVATE)
    new_ids = {entry.virtual_id for _, entry in fresh.chunk_table} - used
    assert new_ids and not (new_ids & used)


def test_corruption_detected(stored, registry, tmp_path):
    _, path, _ = stored
    document = json.loads(path.read_text())
    document["metadata"]["ids"]["used"] = []
    path.write_text(json.dumps(document))
    fresh = CloudDataDistributor(registry, seed=1)
    with pytest.raises(MetadataCorruptedError):
        load_metadata(fresh, path)


def test_version_check(stored, registry):
    _, path, _ = stored
    document = json.loads(path.read_text())
    document["version"] = 99
    path.write_text(json.dumps(document))
    with pytest.raises(MetadataCorruptedError):
        load_metadata(CloudDataDistributor(registry, seed=1), path)


def test_save_creates_parent_dirs(distributor, bob, tmp_path):
    path = tmp_path / "deep" / "nested" / "meta.json"
    save_metadata(distributor, path)
    assert path.exists()


def test_truncated_file_reports_corruption(stored, registry):
    _, path, _ = stored
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(MetadataCorruptedError, match="truncated"):
        load_metadata(CloudDataDistributor(registry, seed=1), path)


def test_empty_file_reports_corruption(stored, registry):
    _, path, _ = stored
    path.write_bytes(b"")
    with pytest.raises(MetadataCorruptedError):
        load_metadata(CloudDataDistributor(registry, seed=1), path)


def test_checksum_field_corruption_detected(stored, registry):
    _, path, _ = stored
    document = json.loads(path.read_text())
    document["sha256"] = "0" * 64
    path.write_text(json.dumps(document))
    with pytest.raises(MetadataCorruptedError, match="checksum"):
        load_metadata(CloudDataDistributor(registry, seed=1), path)


def test_crashed_save_leaves_previous_snapshot_readable(stored, registry):
    from repro.util.crash import CrashPoint, crashing_at

    distributor, path, _ = stored
    before = path.read_bytes()
    distributor.register_client("Carol")  # make the next save differ
    with crashing_at("atomic.tmp_written"):
        with pytest.raises(CrashPoint):
            save_metadata(distributor, path)
    # The interrupted save never replaced the file: the previous snapshot
    # is byte-identical and still loads.
    assert path.read_bytes() == before
    fresh = CloudDataDistributor(registry, seed=2)
    load_metadata(fresh, path)
    expected = distributor.get_file("Bob", "Ty7e", "f")
    assert fresh.get_file("Bob", "Ty7e", "f") == expected


# -- rows that contradict their own stripe ------------------------------------
#
# Regressions: a snapshot whose digest is right but whose chunk rows are not
# (bit rot before the save, or an edited file re-sealed) used to load, and
# fail -- or worse, not fail -- at read time.


def _reseal(path, edit):
    """Apply *edit* to the saved snapshot and recompute its digest."""
    import hashlib

    from repro.core.persistence import _canonical

    document = json.loads(path.read_text())
    edit(document["metadata"])
    document["sha256"] = hashlib.sha256(
        _canonical(document["metadata"]).encode("utf-8")
    ).hexdigest()
    path.write_text(json.dumps(document))


def _first_row_with_positions(metadata):
    for row in metadata["chunk_table"]["entries"].values():
        if len(row[4]) >= 2:
            return row
    raise AssertionError("fixture stores misleading bytes")


def test_duplicated_misleading_position_is_refused_at_load(stored, registry):
    # At the parent this loaded, and get_file returned one byte too many:
    # a misleading byte handed to the client as plaintext.
    _, path, _ = stored

    def edit(metadata):
        row = _first_row_with_positions(metadata)
        row[4][1] = row[4][0]
        edit.vid = row[0]

    _reseal(path, edit)
    fresh = CloudDataDistributor(registry, seed=5)
    with pytest.raises(MetadataCorruptedError, match=f"chunk {edit.vid}:"):
        load_metadata(fresh, path)


@pytest.mark.parametrize(
    "position", [-1, 10**6, 2**32, 2**32 + 5, 2**70, 2.5, "7", True, [3], None]
)
def test_misleading_position_outside_the_chunk_is_refused_at_load(
    stored, registry, position
):
    # Once a bare numpy IndexError in the middle of a read; and packing a
    # row must not answer OverflowError or TypeError in its place.  2**32
    # + 5 would wrap to an in-range 5 in a uint32.
    _, path, _ = stored

    def edit(metadata):
        row = _first_row_with_positions(metadata)
        row[4][0 if position in (-1, True) else -1] = position
        edit.vid = row[0]

    _reseal(path, edit)
    fresh = CloudDataDistributor(registry, seed=6)
    with pytest.raises(MetadataCorruptedError, match=f"chunk {edit.vid}:"):
        load_metadata(fresh, path)


@pytest.mark.parametrize(
    "shape",
    [
        lambda m: m[::-1],  # descending
        lambda m: m[:1] + m,  # repeated, at the front
        lambda m: [m],  # nested one level down
        lambda m: 7,  # not a sequence at all
        lambda m: {"0": m[0]},
        lambda m: "".join(map(str, m)),
    ],
    ids=["descending", "repeated", "nested", "scalar", "object", "string"],
)
def test_a_row_of_the_wrong_shape_is_refused_at_load(stored, registry, shape):
    _, path, _ = stored

    def edit(metadata):
        row = _first_row_with_positions(metadata)
        row[4] = shape(row[4])
        edit.vid = row[0]

    _reseal(path, edit)
    fresh = CloudDataDistributor(registry, seed=6)
    with pytest.raises(MetadataCorruptedError, match=f"chunk {edit.vid}:"):
        load_metadata(fresh, path)
    assert len(fresh.chunk_table) == 0


def test_loaded_rows_are_the_rows_an_upload_tables(stored, registry):
    # One row type however it arrived; and a chunk stored without
    # misleading bytes shares the one empty row.
    from repro.core.misleading import NO_POSITIONS
    from tests.core.test_misleading import is_row

    distributor, path, _ = stored
    distributor.upload_file("Bob", "Ty7e", "plain", b"p" * 900, PrivacyLevel.PRIVATE)
    save_metadata(distributor, path)
    fresh = CloudDataDistributor(registry, seed=6)
    load_metadata(fresh, path)
    for (_, loaded), (_, tabled) in zip(fresh.chunk_table, distributor.chunk_table):
        row = loaded.misleading_positions
        assert loaded == tabled
        assert is_row(row) and is_row(tabled.misleading_positions)
        assert (len(row) == 0) == (row is NO_POSITIONS)
    plain = fresh.client_table.get("Bob").refs_for_file("plain")
    assert all(
        fresh.chunk_table.get(ref.chunk_index).misleading_positions is NO_POSITIONS
        for ref in plain
    )
    assert fresh.export_metadata() == distributor.export_metadata()
    assert fresh.get_file("Bob", "Ty7e", "plain") == b"p" * 900


def test_short_shard_checksum_tuple_is_refused_at_load(stored, registry):
    # At the parent: "IndexError: tuple index out of range" in _check_shard.
    _, path, _ = stored

    def edit(metadata):
        vid, packed = next(iter(metadata["chunk_state"].items()))
        packed[7] = packed[7][:-1]
        edit.vid = vid

    _reseal(path, edit)
    fresh = CloudDataDistributor(registry, seed=7)
    with pytest.raises(MetadataCorruptedError, match=f"chunk {edit.vid}:"):
        load_metadata(fresh, path)


# -- rows that contradict the other tables, or have no other half ------------
#
# At 107f412 every one of these loaded -- the pairing of a chunk row with its
# chunk_state row was a .get() that skipped the check when it found nothing --
# or left import_metadata as a bare TypeError / ValueError; the reads, repairs
# and scrubber passes after a load that "worked" died with a bare KeyError.


def _row_and_state(metadata):
    """The updated chunk's row (it has a snapshot) and its chunk_state row."""
    (row,) = [
        row
        for row in metadata["chunk_table"]["entries"].values()
        if row[3] is not None
    ]
    return row, metadata["chunk_state"][str(row[0])]


def _repeat_a_position(metadata):
    row = _first_row_with_positions(metadata)
    row[4][1] = row[4][0]
    return row[0]


def _contradiction(change):
    def edit(metadata):
        row, state = _row_and_state(metadata)
        change(row, state, metadata)
        return row[0]

    return edit


CONTRADICTIONS = {
    "repeated-position": _repeat_a_position,
    "no-chunk-state-row": _contradiction(
        lambda row, state, metadata: metadata["chunk_state"].pop(str(row[0]))
    ),
    "provider-index-99": _contradiction(lambda row, s, m: row[2].__setitem__(0, 99)),
    "snapshot-index-99": _contradiction(lambda row, s, m: row.__setitem__(3, 99)),
    "three-providers-for-four-shards": _contradiction(lambda row, s, m: row[2].pop()),
    "five-providers-for-four-shards": _contradiction(lambda row, s, m: row[2].append(0)),
    "provider-index-not-an-integer": _contradiction(
        lambda row, s, m: row[2].__setitem__(0, "x")
    ),
    "level-99": _contradiction(lambda row, s, m: row.__setitem__(1, 99)),
    "three-field-chunk-state": _contradiction(
        lambda row, state, m: state.__delitem__(slice(3, None))
    ),
    "nine-field-chunk-state": _contradiction(lambda row, state, m: state.append(0)),
    "chunk-state-not-integers": _contradiction(lambda row, state, m: state.__setitem__(2, "x")),
    "chunk-state-not-a-row": _contradiction(
        lambda row, s, metadata: metadata["chunk_state"].__setitem__(str(row[0]), 7)
    ),
    "rotation-not-an-integer": _contradiction(lambda row, state, m: state.__setitem__(6, "x")),
    "checksums-not-a-sequence": _contradiction(lambda row, state, m: state.__setitem__(7, 7)),
    "four-field-chunk-row": _contradiction(lambda row, s, m: row.pop()),
}


def _section(name, change):
    """An edit of one section that must be refused naming *name*."""

    def edit(metadata):
        change(metadata)
        return name

    return edit


def _provider_row(change):
    return _section(
        "provider table",
        lambda metadata: change(metadata["provider_table"]["entries"]["1"]),
    )


def _unlist(key_of):
    """Take the key *key_of* picks off its provider's id list."""

    def change(metadata):
        row, _ = _row_and_state(metadata)
        key, index = key_of(row)
        metadata["provider_table"]["entries"][str(index)][3].remove(key)

    return _section("provider table", change)


# Found at f1432f1: each of these escaped ``import_metadata`` as a bare
# TypeError, ValueError or KeyError -- the last three after the tables had
# been swapped in, leaving a file uploaded since the snapshot untabled --
# or, two rows under one name, was accepted.  The last two the parent
# loaded: it read a provider's keys from its list, not from the rows.
CONTRADICTIONS |= {
    "provider-level-99": _provider_row(lambda row: row.__setitem__(1, 99)),
    "provider-next-index-not-an-integer": _section(
        "provider table",
        lambda m: m["provider_table"].__setitem__("next_index", "x"),
    ),
    "provider-id-list-not-a-list": _provider_row(lambda row: row.__setitem__(3, 7)),
    "provider-id-list-nested": _provider_row(lambda row: row.__setitem__(3, [[1]])),
    "three-field-provider-row": _provider_row(lambda row: row.pop()),
    "two-providers-one-name": _section(
        "provider table",
        lambda m: m["provider_table"]["entries"]["1"].__setitem__(
            0, m["provider_table"]["entries"]["0"][0]
        ),
    ),
    "no-provider-table": _section("provider table", lambda m: m.pop("provider_table")),
    "id-space-not-an-integer": _section(
        "ids", lambda m: m["ids"].__setitem__("id_space", "x")
    ),
    "used-ids-not-a-list": _section("ids", lambda m: m["ids"].__setitem__("used", 7)),
    "shard-key-not-listed": _unlist(lambda row: (f"{row[0]}.0", row[2][0])),
    "snapshot-key-not-listed": _unlist(lambda row: (f"S{row[0]}", row[3])),
}

# The Chunk Table holds a shard's checksum as its 32 raw bytes and places
# rows by index: a checksum that is no SHA-256 hex digest, a row index at
# or past next_index, and a virtual id two rows name are refused, not
# loaded (the parent loaded each: the first failed every read of its
# shard, the other two let one row overwrite another).
CONTRADICTIONS |= {
    "checksum-not-a-hex-digest": _contradiction(
        lambda row, state, m: state[7].__setitem__(0, "z" * 64)
    ),
    "checksum-in-capitals": _contradiction(
        lambda row, state, m: state[7].__setitem__(0, state[7][0].upper())
    ),
    "row-index-past-next-index": lambda m: (
        m["chunk_table"].__setitem__("next_index", 1),
        min(m["chunk_table"]["entries"].items(), key=lambda item: int(item[0]))[1][0],
    )[1],
    "one-vid-two-rows": _section(
        "chunk table",
        lambda m: [
            row.__setitem__(0, first[0])
            for first, row in [list(m["chunk_table"]["entries"].values())[:2]]
        ],
    ),
}


def test_a_tabled_id_the_document_does_not_list_is_reserved(stored, registry):
    # A commit tables the ids the allocator draws without looking them up
    # in the table again, so no tabled id may be free to draw.
    _, path, _ = stored

    def edit(metadata):
        edit.vid = metadata["ids"]["used"].pop(0)

    _reseal(path, edit)
    fresh = CloudDataDistributor(registry, seed=7)
    load_metadata(fresh, path)
    assert edit.vid in fresh.ids


@pytest.mark.parametrize("edit", CONTRADICTIONS.values(), ids=CONTRADICTIONS.keys())
def test_refused_snapshot_leaves_a_serving_distributor_as_it_was(stored, edit):
    # The refusal comes before the first table is replaced: a peer that is
    # handed a bad snapshot keeps serving what it had, tables in step.
    distributor, path, _ = stored
    extra = os.urandom(700)
    distributor.upload_file("Bob", "Ty7e", "later", extra, PrivacyLevel.PRIVATE)
    before = distributor.export_metadata()
    expected = distributor.get_file("Bob", "Ty7e", "f")

    def named(metadata):
        named.what = edit(metadata)

    _reseal(path, named)
    with pytest.raises(
        MetadataCorruptedError,
        match=f"chunk {named.what}\\b|chunk table|^{named.what}: ",
    ):
        load_metadata(distributor, path)
    assert distributor.export_metadata() == before
    assert distributor.get_file("Bob", "Ty7e", "f") == expected
    assert distributor.get_file("Bob", "Ty7e", "later") == extra


def test_a_chunk_state_row_no_chunk_row_names_is_dropped_with_a_warning(
    stored, registry
):
    # The reverse orphan is not refused: builds up to 107f412 wrote such
    # files (a journal purge left a quarantined chunk's row behind).
    from repro.obs.events import EventLog

    distributor, path, _ = stored

    def edit(metadata):
        row = next(iter(metadata["chunk_state"].values()))
        metadata["chunk_state"]["424242"] = ["bogus"] + row[1:]
        metadata["chunk_state"]["7"] = list(row)

    _reseal(path, edit)
    events = EventLog()
    fresh = CloudDataDistributor(registry, seed=8, events=events)
    load_metadata(fresh, path)
    (warning,) = events.named("chunk_state_orphans_dropped")
    assert warning["level"] == "warning" and warning["vids"] == [7, 424242]
    assert fresh.export_metadata() == distributor.export_metadata()
    assert fresh.get_file("Bob", "Ty7e", "f") == distributor.get_file("Bob", "Ty7e", "f")
    from repro.health.fsck import run_fsck

    assert run_fsck(fresh).clean


def test_a_listed_key_no_row_places_is_dropped_with_a_warning():
    # What f1432f1 wrote after a recovered remove whose chunks had been
    # repaired off P0 (tests/core/test_journal_recovery.py): five keys
    # listed under P0 that no chunk row places.
    from repro.core.tables import CloudProviderTable
    from repro.obs.events import EventLog
    from tests.core.test_journal_recovery import recounted_loads

    registry = ProviderRegistry()
    for i in range(6):
        registry.register(InMemoryProvider(f"P{i}"), PrivacyLevel.PRIVATE, 1)

    path = Path(__file__).parent / "data" / "f1432f1_unplaced_keys_metadata.json"
    stated = json.loads(path.read_text())["metadata"]["provider_table"]
    events = EventLog()
    fresh = CloudDataDistributor(registry, seed=8, events=events)
    load_metadata(fresh, path)
    (warning,) = events.named("provider_keys_dropped")
    assert warning["level"] == "warning"
    dropped = ["1736229.0", "2752575.1", "7306210.1", "8360109.2", "899813.0"]
    assert warning["keys"] == {"P0": dropped}
    assert fresh.provider_loads() == recounted_loads(fresh) == {
        "P0": 3, "P1": 2, "P2": 2, "P3": 1, "P4": 2, "P5": 2
    }
    exported = fresh.export_metadata()["provider_table"]
    listed = exported["entries"][0][3]
    assert listed == sorted(set(stated["entries"]["0"][3]) - set(dropped))
    # Everything else of the section is as stated; the next load is quiet.
    exported["entries"][0] = (*exported["entries"][0][:3], stated["entries"]["0"][3])
    assert json.loads(json.dumps(exported)) == stated
    again = CloudDataDistributor(registry, seed=9, events=(quiet := EventLog()))
    again.import_metadata(fresh.export_metadata())
    assert quiet.named("provider_keys_dropped") == []
    assert CloudProviderTable().import_state(stated)[0] == stated["entries"]["0"][3]


def test_rows_without_checksums_or_positions_still_load(stored, registry):
    # Legacy snapshots: no checksum tracking, no misleading bytes.
    distributor, path, _ = stored
    expected = distributor.get_file("Bob", "Ty7e", "f")

    def edit(metadata):
        for packed in metadata["chunk_state"].values():
            packed[7] = None

    _reseal(path, edit)
    fresh = CloudDataDistributor(registry, seed=8)
    load_metadata(fresh, path)
    assert fresh.get_file("Bob", "Ty7e", "f") == expected


def test_metadata_corrupted_error_is_one_type_in_the_library_hierarchy():
    from repro.core import errors

    assert MetadataCorruptedError is errors.MetadataCorruptedError
    assert issubclass(MetadataCorruptedError, errors.ReproError)
    assert issubclass(MetadataCorruptedError, RuntimeError)  # as before


def test_digests_are_raw_in_the_process_and_hex_in_the_file(stored, registry):
    # A shard's checksum is its 32 raw bytes in the Chunk Table, before the
    # save and after the load; metadata.json spells each as 64 lowercase
    # hex characters, as it always did.
    distributor, path, _ = stored
    before = {
        entry.virtual_id: entry.record.shard_checksums for _, entry in distributor.chunk_table
    }
    fresh = CloudDataDistributor(registry, seed=1002)
    load_metadata(fresh, path)
    after = {entry.virtual_id: entry.record.shard_checksums for _, entry in fresh.chunk_table}
    assert after == before
    assert all(
        type(digest) is bytes and len(digest) == 32
        for digests in after.values() for digest in digests
    )
    written = json.loads(path.read_text())["metadata"]["chunk_state"]
    assert {int(vid): tuple(bytes.fromhex(h) for h in row[7]) for vid, row in written.items()} == after
    assert all(
        type(h) is str and len(h) == 64 and h == h.lower()
        for row in written.values() for h in row[7]
    )
