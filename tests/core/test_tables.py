import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    MetadataCorruptedError,
    UnknownChunkError,
    UnknownClientError,
    UnknownCodecError,
    UnknownFileError,
)
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.core.tables import (
    ChunkEntry,
    ChunkTable,
    ClientEntry,
    ClientTable,
    CloudProviderTable,
    FileChunkRef,
)
from repro.raid.codecs import ChunkState
from repro.raid.striping import StripeMeta


# -- Cloud Provider Table (Table I) -----------------------------------------


def test_provider_table_add_and_index():
    table = CloudProviderTable()
    i0 = table.add("CP1", PrivacyLevel.PRIVATE, CostLevel.PREMIUM)
    i1 = table.add("CP2", PrivacyLevel.LOW, CostLevel.CHEAP)
    assert (i0, i1) == (0, 1)
    assert table.get(i0).name == "CP1"
    assert table.index_of("CP2") == i1
    assert len(table) == 2


def test_provider_table_duplicate_name():
    table = CloudProviderTable()
    table.add("CP1", 0, 0)
    with pytest.raises(ValueError):
        table.add("CP1", 1, 1)


def test_provider_table_unknown_lookups():
    table = CloudProviderTable()
    with pytest.raises(KeyError):
        table.get(5)
    with pytest.raises(KeyError):
        table.index_of("ghost")


def test_provider_table_rows_render_like_paper():
    table = CloudProviderTable()
    table.add("CP1", 3, 3)
    table.add("CP2", 3, 3)
    chunks = ChunkTable()
    chunks.add(_entry(41367, cps=(0,)))
    rows = table.rows(chunks.provider_keys())
    assert rows[0][:4] == ["CP1", 3, 3, 1]
    assert "41367.0" in rows[0][4]
    assert rows[1] == ["CP2", 3, 3, 0, "{}"]


# -- Chunk Table (Table III) --------------------------------------------------


def _record(n=1, rotation=0, checksums=None):
    """A stripe record for a row with *n* members."""
    return ChunkState(StripeMeta("raid1", n, 1, n - 1, 100_000, 100_000), rotation, checksums)


def _entry(vid, pl=3, cps=(0,), sp=None, m=(), record=None):
    return ChunkEntry(
        virtual_id=vid,
        privacy_level=PrivacyLevel.coerce(pl),
        provider_indices=list(cps),
        snapshot_index=sp,
        misleading_positions=tuple(m),
        record=record or _record(len(cps)),
    )


def _providers(n=4):
    table = CloudProviderTable()
    for i in range(n):
        table.add(f"CP{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    return table


def _reloaded(table):
    restored = ChunkTable()
    assert restored.import_state(
        table.export_state(), table.export_records(), _providers()
    ) == []
    return restored


def test_chunk_table_add_get_by_vid():
    table = ChunkTable()
    index = table.add(_entry(41367, m=(12, 90)))
    assert table.get(index).virtual_id == 41367
    assert table.find_index(41367) == index
    assert table.get(index).misleading_positions.tolist() == [12, 90]


def test_chunk_table_duplicate_vid():
    table = ChunkTable()
    table.add(_entry(1))
    with pytest.raises(ValueError):
        table.add(_entry(1))


def test_chunk_table_requires_provider():
    table = ChunkTable()
    with pytest.raises(ValueError):
        table.add(_entry(1, cps=()))


@pytest.mark.parametrize(
    "bad", [_entry(1), _entry(3), _entry(4, cps=())], ids=["tabled", "twice", "no-cp"]
)
def test_chunk_table_add_many_tables_all_or_none(bad):
    table = ChunkTable()
    table.add(_entry(1))
    with pytest.raises(ValueError):
        table.add_many([_entry(2), _entry(3), bad, _entry(5)])
    assert [e.virtual_id for _, e in table] == [1]
    assert table.find_index(2) is None and table.find_index(3) is None
    assert table.add_many([_entry(2), _entry(3)]) == range(1, 3)
    assert table.find_index(3) == 2


def test_chunk_table_remove_keeps_indices_stable():
    table = ChunkTable()
    i0 = table.add(_entry(1))
    i1 = table.add(_entry(2))
    table.remove(i0)
    assert table.get(i1).virtual_id == 2
    with pytest.raises(UnknownChunkError):
        table.get(i0)
    i2 = table.add(_entry(3))
    assert i2 != i0 and i2 != i1  # indices never reused


def test_chunk_table_unknown_vid():
    assert ChunkTable().find_index(404) is None


def test_chunk_table_counts_provider_loads():
    # Table I's Count column, kept as rows come, move and go: never a
    # recount, and always what a recount would say.
    table = ChunkTable()

    def recount():
        keys = table.provider_keys()
        return {p: table.load(p) for p in range(4)} == {
            p: len(keys.get(p, [])) for p in range(4)
        }

    i0, i1 = table.add_many([_entry(1, cps=(0, 1, 2)), _entry(2, cps=(1, 2, 3))])
    assert [table.load(p) for p in range(4)] == [1, 2, 2, 1] and recount()
    row = table.get(i0)
    table.move_shard(row, 1, 3)
    table.set_snapshot(row, 0)
    assert row.provider_indices == [0, 3, 2] and row.snapshot_index == 0
    assert [table.load(p) for p in range(4)] == [2, 1, 2, 2] and recount()
    table.set_snapshot(row, 1)
    assert [table.load(p) for p in range(4)] == [1, 2, 2, 2] and recount()
    assert table.provider_keys() == {
        0: ["1.0"], 1: ["2.0", "S1"], 2: ["1.2", "2.1"], 3: ["1.1", "2.2"]
    }
    table.remove(i1)
    assert [table.load(p) for p in range(4)] == [1, 1, 1, 1] and recount()
    assert [_reloaded(table).load(p) for p in range(4)] == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        table.add_many([_entry(3, cps=(0,)), _entry(1)])
    assert [table.load(p) for p in range(4)] == [1, 1, 1, 1]
    table.remove(i0)
    assert [table.load(p) for p in range(4)] == [0, 0, 0, 0]
    assert table.provider_keys() == {}


def test_a_view_taken_before_a_move_reads_the_new_placement():
    table = ChunkTable()
    index = table.add(_entry(5, cps=(0, 1, 2)))
    early, twin = table.get(index), table.get(index)
    table.move_shard(twin, 2, 3)
    table.set_snapshot(twin, 1)
    assert early.provider_indices == [0, 1, 3] and early.snapshot_index == 1
    assert early == twin and early.provider_index == 0
    # A row handed to add_many becomes a view of what it tabled.
    row = _entry(6, cps=(2,))
    table.add(row)
    table.move_shard(table.get(table.find_index(6)), 0, 0)
    assert row.provider_indices == [0]
    with pytest.raises(ValueError):
        table.move_shard(_entry(7), 0, 1)  # not a row of this table


def test_chunk_table_rows_na_rendering():
    table = ChunkTable()
    table.add(_entry(41367, sp=None, m=()))
    table.add(_entry(16948, sp=1, m=(12, 14, 90)))
    rows = table.rows()
    assert rows[0][3] == "NA" and rows[0][4] == "NA"
    assert rows[1][3] == 1 and rows[1][4].startswith("{12, 14")


def test_the_m_column_is_one_row_type_and_a_list_only_in_exported_state():
    import json

    from repro.core.misleading import NO_POSITIONS, position_row
    from tests.core.test_misleading import is_row

    table = ChunkTable()
    drawn = position_row([4, 9, 70_000])
    indices = [
        table.add(_entry(1, m=(4, 9, 70_000))),
        table.add(ChunkEntry(2, PrivacyLevel.PRIVATE, [0], None, [4, 9, 70_000], record=_record())),
        table.add(ChunkEntry(3, PrivacyLevel.PRIVATE, [0], None, drawn, record=_record())),
        table.add(_entry(4)),
    ]
    rows = [table.get(index).misleading_positions for index in indices]
    for row in rows[:3]:
        assert is_row(row) and row.tolist() == [4, 9, 70_000]
    # The column keeps the positions, not the row they came in: each read
    # is a row of its own, over 4 bytes a position.
    assert rows[2] is not drawn and rows[2].base is not drawn.base
    assert rows[3] is NO_POSITIONS
    state = table.export_state()
    assert [state["entries"][i][4] for i in indices] == [[4, 9, 70_000]] * 3 + [[]]
    assert all(type(p) is int for p in state["entries"][indices[0]][4])
    restored = ChunkTable()
    restored.import_state(
        json.loads(json.dumps(state)),
        json.loads(json.dumps(table.export_records())),
        _providers(),
    )
    assert restored.export_state() == state
    assert [entry for _, entry in restored] == [entry for _, entry in table]
    assert restored.get(indices[3]).misleading_positions is NO_POSITIONS


def test_chunk_entries_compare_whatever_their_rows_hold():
    # A dataclass's own __eq__ would ask a 3-element array for one truth
    # value and raise.
    same = [_entry(7, cps=(1, 2), sp=0, m=(4, 5, 6)) for _ in range(2)]
    assert same[0] == same[1] and not same[0] != same[1]
    assert _entry(7, m=(4, 5, 6)) != _entry(7, m=(4, 5, 7))
    assert _entry(7, m=(4, 5, 6)) != _entry(7, m=(4, 5))
    assert _entry(7, m=(4, 5, 6)) != _entry(7)
    assert _entry(7) == _entry(7) and _entry(7) != _entry(8)
    assert _entry(7, cps=(1,)) != _entry(7, cps=(2,))
    assert _entry(7) != "a chunk entry" and _entry(7) in [_entry(6), _entry(7)]


def test_positions_that_cannot_make_a_row_name_their_chunk():
    for bad in ([1.5], [True, 3], ["7"], [[1]], [-1], [1 << 32], 7, None):
        with pytest.raises(MetadataCorruptedError, match="chunk 77: "):
            ChunkEntry(77, PrivacyLevel.PRIVATE, [0], None, bad, record=_record())


# -- Client Table (Table II) ----------------------------------------------------


def test_client_table_basic():
    table = ClientTable()
    entry = table.add("Bob")
    entry.add_refs([FileChunkRef("file1", 0, PrivacyLevel.LOW, 0)])
    entry.add_refs([FileChunkRef("file1", 1, PrivacyLevel.LOW, 1)])
    entry.add_refs([FileChunkRef("file2", 0, PrivacyLevel.MODERATE, 2)])
    assert entry.count == 3
    assert table.get("Bob").filenames() == ["file1", "file2"]
    assert "Bob" in table
    assert len(table) == 1


def test_client_refs_for_file_sorted():
    table = ClientTable()
    entry = table.add("Bob")
    entry.add_refs([FileChunkRef("f", 1, PrivacyLevel.LOW, 5)])
    entry.add_refs([FileChunkRef("f", 0, PrivacyLevel.LOW, 4)])
    serials = [r.serial for r in entry.refs_for_file("f")]
    assert serials == [0, 1]


def test_client_missing_file_vs_missing_chunk():
    table = ClientTable()
    entry = table.add("Bob")
    entry.add_refs([FileChunkRef("f", 0, PrivacyLevel.LOW, 0)])
    with pytest.raises(UnknownFileError):
        entry.refs_for_file("ghost")
    with pytest.raises(UnknownFileError):
        entry.ref_for_chunk("ghost", 0)
    with pytest.raises(UnknownChunkError):
        entry.ref_for_chunk("f", 7)


def test_client_table_unknown_client():
    with pytest.raises(UnknownClientError):
        ClientTable().get("ghost")


def test_client_table_duplicate():
    table = ClientTable()
    table.add("Bob")
    with pytest.raises(ValueError):
        table.add("Bob")


def test_client_rows_hide_passwords():
    table = ClientTable()
    entry = table.add("Bob")
    entry.password_levels.append(PrivacyLevel.PRIVATE)
    rows = table.rows()
    assert "****" in rows[0][1]
    assert "3" in rows[0][1]


# -- export / import round trips ------------------------------------------------


def test_provider_table_state_roundtrip():
    table = CloudProviderTable()
    index = table.add("CP1", 3, 2)
    table.add("CP2", 1, 0)
    state = table.export_state({index: ["k1"]})
    assert state["entries"][index + 1] == ("CP2", 1, 0, [])
    restored = CloudProviderTable()
    # The id lists come back as stated, for the caller to check; the
    # table itself keeps none.
    assert restored.import_state(state) == {index: ["k1"], index + 1: []}
    assert restored.get(index) == table.get(index)
    assert restored.index_of("CP1") == index
    assert restored.export_state({}) == table.export_state({})


def test_chunk_table_state_roundtrip():
    table = ChunkTable()
    index = table.add(_entry(99, pl=2, cps=(1, 2, 3), sp=0, m=(4, 5)))
    entry = _reloaded(table).get(index)
    assert entry.virtual_id == 99
    assert entry.provider_indices == [1, 2, 3]
    assert entry.snapshot_index == 0
    assert entry.misleading_positions.tolist() == [4, 5]


# One table holding, for every codec family, parsed rows (with and without
# checksums) and quarantined ones (in both layouts a row was ever written in).
FAMILY_ROWS = [
    ("raid0", 2, 2, 0), ("raid1", 3, 1, 2), ("raid5", 4, 3, 1),
    ("raid6", 4, 2, 2), ("rs(6,3)", 9, 6, 3), ("aont-rs(4,2)", 6, 4, 2),
]


def _family_table(rotations):
    table = ChunkTable()
    for i, ((codec, width, k, m), rotation) in enumerate(zip(FAMILY_ROWS, rotations)):
        cps = [(i + j) % 4 for j in range(width)]
        checksums = tuple(f"{i}{j}" * 32 for j in range(width))
        for j, record in enumerate([
            ChunkState(
                StripeMeta(codec, width, k, m, 128, 500), rotation,
                tuple(map(bytes.fromhex, checksums)),
            ),
            ChunkState(StripeMeta(codec, width, k, m, 128, 500), rotation, None),
            (f"zfec-{codec}", width, k, m, 128, 500, rotation, list(checksums)),
            (f"zfec-{codec}", width, k, m, 128, 500, rotation),
        ]):
            table.add(_entry(100 * i + j, cps=cps, sp=j or None, m=(3, 40 + j), record=record))
    return table


@given(st.lists(st.integers(0, 8), min_size=6, max_size=6), st.data())
@settings(max_examples=20, deadline=None)
def test_a_row_carries_its_stripe_record_out_and_back_and_away(rotations, data):
    import json

    table = _family_table(rotations)
    assert sum(entry.quarantined for _, entry in table) == 12
    # export -> import -> export, through JSON as persistence sends it.
    state, records = table.export_state(), table.export_records()
    restored = ChunkTable()
    assert restored.import_state(
        json.loads(json.dumps(state)), json.loads(json.dumps(records)), _providers()
    ) == []
    assert json.dumps(restored.export_state()) == json.dumps(state)
    assert json.dumps(restored.export_records()) == json.dumps(records)
    assert [e.quarantined for _, e in restored] == [e.quarantined for _, e in table]
    assert [e.packed for _, e in restored] == [e.packed for _, e in table]
    for _, entry in restored:
        if entry.quarantined:
            with pytest.raises(UnknownCodecError, match=f"chunk {entry.virtual_id} "):
                entry.state("f")
        else:
            assert entry.state() == entry.record

    # __eq__ sees the record: a changed checksum, a changed rotation.
    index = data.draw(st.sampled_from([i for i, _ in table]))
    entry, twin = table.get(index), restored.get(index)
    packed = entry.packed
    if not entry.quarantined:  # (a loaded raw row keeps its lists as loaded)
        assert twin == entry
    turned = packed._replace(rotation=packed.rotation + 1)
    rehashed = packed._replace(checksums=["f" * 64] * len(entry.provider_indices))
    for changed in (turned, rehashed):
        other = _entry(
            entry.virtual_id, cps=entry.provider_indices, sp=entry.snapshot_index,
            m=entry.misleading_positions.tolist(),
            record=tuple(changed) if entry.quarantined else changed.unpack(),
        )
        assert other != entry and other.packed == changed

    # remove leaves no trace of the vid; the row it returns is no view.
    vid = entry.virtual_id
    removed = table.remove(index)
    assert removed == twin
    with pytest.raises(UnknownChunkError):
        entry.virtual_id  # a view of a removed row
    assert table.find_index(vid) is None
    assert vid not in table.export_records()
    assert all(row[0] != vid for row in table.export_state()["entries"].values())
    assert len(table.export_records()) == len(table) == 23
    assert table.add(removed) != index  # and the vid is free to be tabled again
    assert table.get(table.find_index(vid)) == removed


def test_a_chunk_state_row_without_a_chunk_row_is_left_out_not_loaded():
    table = _family_table([0] * 6)
    records = table.export_records()
    records[9999] = records[0]
    restored = ChunkTable()
    assert restored.import_state(table.export_state(), records, _providers()) == [9999]
    assert restored.export_records() == table.export_records()
    del records[0]
    with pytest.raises(MetadataCorruptedError, match="chunk 0: no chunk_state row"):
        restored.import_state(table.export_state(), records, _providers())
    assert len(restored) == 24  # a refusal leaves the table as it was


def test_client_table_state_roundtrip():
    table = ClientTable()
    entry = table.add("Bob")
    entry.password_levels.append(PrivacyLevel.LOW)
    entry.add_refs([FileChunkRef("f", 0, PrivacyLevel.LOW, 7)])
    restored = ClientTable()
    restored.import_state(table.export_state())
    assert restored.get("Bob").chunk_refs[0].chunk_index == 7
    assert restored.get("Bob").password_levels == [PrivacyLevel.LOW]


# -- ClientEntry against the flat list it used to be -------------------------

NAMES = ["a", "b", "ab", "c"]
MAX_SERIAL = 6


class ListModel:
    """Table II as one flat list of quadruples, scanned on every question:
    the lookups ``ClientEntry`` had before it held its refs by name."""

    def __init__(self):
        self.refs = []

    def refs_for_file(self, filename):
        refs = sorted(
            (r for r in self.refs if r.filename == filename),
            key=lambda r: r.serial,
        )
        if not refs:
            raise UnknownFileError(filename)
        return refs

    def ref_for_chunk(self, filename, serial):
        for ref in self.refs:
            if ref.filename == filename and ref.serial == serial:
                return ref
        if not any(r.filename == filename for r in self.refs):
            raise UnknownFileError(filename)
        raise UnknownChunkError(filename)

    def filenames(self):
        return list(dict.fromkeys(r.filename for r in self.refs))

    def file_by_file(self):
        """Is the list already file by file, each file's serials ascending?
        It is, until a ref is re-added to a file after the fact."""
        return self.refs == [
            ref for name in self.filenames() for ref in self.refs_for_file(name)
        ]


def answer(fn, *args):
    try:
        return fn(*args)
    except (UnknownFileError, UnknownChunkError) as exc:
        return type(exc)


def assert_same_answers(entry: ClientEntry, model: ListModel, in_list_order):
    assert entry.count == len(model.refs)
    assert sorted(entry.filenames()) == sorted(model.filenames())
    # The view goes file by file, a file's serials ascending ...
    assert entry.chunk_refs == [
        ref for name in entry.filenames() for ref in model.refs_for_file(name)
    ]
    if in_list_order:  # ... which is the list itself, order and all.
        assert entry.filenames() == model.filenames()
        assert entry.chunk_refs == model.refs
    for name in NAMES:
        assert entry.has_file(name) == (name in model.filenames())
        assert answer(entry.refs_for_file, name) == answer(
            model.refs_for_file, name
        )
        for serial in range(MAX_SERIAL + 1):
            assert answer(entry.ref_for_chunk, name, serial) == answer(
                model.ref_for_chunk, name, serial
            )


OPS = st.one_of(
    st.tuples(st.just("upload"), st.sampled_from(NAMES), st.integers(1, MAX_SERIAL)),
    st.tuples(st.just("replace"), st.integers(0), st.integers(100, 10_000)),
    st.tuples(st.just("remove_chunk"), st.integers(0), st.none()),
    st.tuples(st.just("remove_file"), st.integers(0), st.none()),
)
READD = st.tuples(
    st.just("readd"), st.sampled_from(NAMES), st.integers(0, MAX_SERIAL)
)


def run_ops(ops):
    entry, model = ClientEntry(name="C"), ListModel()
    in_list_order = True
    next_index = 0
    for kind, which, arg in ops:
        if kind == "upload":  # a new file's refs, serials 0..n-1, at once
            refs = [
                FileChunkRef(which, serial, PrivacyLevel.LOW, next_index + serial)
                for serial in range(arg)
            ]
            next_index += arg
            if which in model.filenames():
                # _upload_windows refuses this before the tables see
                # it; if they do see it, a clash changes nothing.
                if isinstance(
                    answer(model.ref_for_chunk, which, arg - 1), FileChunkRef
                ):
                    with pytest.raises(ValueError):
                        entry.add_refs(refs)
                    assert_same_answers(entry, model, in_list_order)
                continue
            entry.add_refs(refs)
            model.refs.extend(refs)
        elif kind == "readd":  # journal recovery: one ref, any serial
            ref = FileChunkRef(which, arg, PrivacyLevel.LOW, next_index)
            next_index += 1
            if isinstance(answer(model.ref_for_chunk, which, arg), FileChunkRef):
                with pytest.raises(ValueError):
                    entry.add_refs([ref])
                continue
            entry.add_refs([ref])
            model.refs.append(ref)
            in_list_order = in_list_order and model.file_by_file()
        elif not model.refs:
            with pytest.raises(ValueError):
                entry.remove_refs([FileChunkRef("a", 0, PrivacyLevel.LOW, 0)])
            with pytest.raises(UnknownFileError):
                entry.replace_ref(FileChunkRef("a", 0, PrivacyLevel.LOW, 0))
        else:
            old = model.refs[which % len(model.refs)]
            if kind == "replace":  # update_chunk: same slot, new chunk index
                new = FileChunkRef(old.filename, old.serial, old.privacy_level, arg)
                entry.replace_ref(new)
                model.refs[model.refs.index(old)] = new
            elif kind == "remove_chunk":
                entry.remove_refs([old])
                model.refs.remove(old)
                with pytest.raises(ValueError):
                    entry.remove_refs([old])
            else:
                gone = model.refs_for_file(old.filename)
                entry.remove_refs(gone)
                for ref in gone:
                    model.refs.remove(ref)
        assert_same_answers(entry, model, in_list_order)
    # What persistence writes is the view, and it round-trips.
    table = ClientTable()
    table._entries["C"] = entry
    restored = ClientTable()
    restored.import_state(table.export_state())
    assert restored.export_state() == table.export_state()
    return entry, model


@settings(max_examples=200, deadline=None)
@given(st.lists(OPS, max_size=30))
def test_client_entry_matches_flat_list_on_what_the_distributor_does(ops):
    """upload / update / remove histories: every answer, and the order of
    the exported quadruples, are the flat list's own."""
    entry, model = run_ops(ops)
    assert entry.chunk_refs == model.refs


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(OPS, READD), max_size=30))
def test_client_entry_matches_flat_list_with_recovery_re_adds(ops):
    """A ref re-added on its own (journal recovery) lands inside its
    file's run where the list had it at the end; every lookup agrees."""
    run_ops(ops)


def test_add_refs_is_all_or_none_across_the_one_pass_and_the_loop():
    # A new file in serial order is tabled in one pass, anything else ref
    # by ref; a clash in either undoes both.
    entry = ClientEntry(name="C")
    kept = [FileChunkRef("kept", s, PrivacyLevel.LOW, s) for s in range(3)]
    entry.add_refs(kept)
    fresh = [FileChunkRef("fresh", s, PrivacyLevel.LOW, 10 + s) for s in range(4)]
    clash = FileChunkRef("kept", 1, PrivacyLevel.LOW, 99)
    with pytest.raises(
        ValueError, match="client 'C' already tables chunk 1 of 'kept'"
    ):
        entry.add_refs(fresh + [clash])
    assert entry.chunk_refs == kept and entry.filenames() == ["kept"]
    twice = fresh[:2] + [fresh[1]]  # a new file naming one serial twice
    with pytest.raises(
        ValueError, match="client 'C' already tables chunk 1 of 'fresh'"
    ):
        entry.add_refs(twice)
    assert entry.chunk_refs == kept and entry.filenames() == ["kept"]
    entry.add_refs(reversed(fresh))  # new, but not in order: sorted into place
    assert entry.refs_for_file("fresh") == fresh
    assert entry.chunk_refs == kept + fresh


def test_replace_ref_needs_the_slot():
    entry = ClientEntry(name="C")
    entry.add_refs([FileChunkRef("f", 0, PrivacyLevel.LOW, 1)])
    with pytest.raises(UnknownFileError):
        entry.replace_ref(FileChunkRef("g", 0, PrivacyLevel.LOW, 2))
    with pytest.raises(UnknownChunkError):
        entry.replace_ref(FileChunkRef("f", 1, PrivacyLevel.LOW, 2))
    with pytest.raises(ValueError):  # tabled under that name, but not this ref
        entry.remove_refs([FileChunkRef("f", 0, PrivacyLevel.LOW, 2)])
    assert entry.chunk_refs == [FileChunkRef("f", 0, PrivacyLevel.LOW, 1)]
