"""The distributor's three metadata tables (Tables I, II, III).

"To perform distribution and retrieval of data (chunks), the Cloud Data
Distributor needs to maintain information regarding providers, clients and
chunks.  Hence, it maintains three types of tables describing the providers,
the clients and the chunks."

Entries cross-reference each other by *table index*, exactly as the paper's
application-architecture walk-through does: Client Table row -> Chunk Table
index -> Cloud Provider Table index -> provider.  Indices are stable for
the lifetime of an entry (removals leave holes rather than renumbering).

The Chunk Table and the Client Table hold their rows as columns -- one
array per field, and for the per-shard and per-position fields one heap
each, a row's part of it found by offset -- so a resident chunk costs its
bytes in a few arrays and no Python object of its own.  A row is read as
a :class:`ChunkEntry` view, a quadruple as a :class:`FileChunkRef`, each
built when asked; the data path indexes the columns a window at a time.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.errors import (
    MetadataCorruptedError,
    UnknownChunkError,
    UnknownClientError,
    UnknownCodecError,
    UnknownFileError,
)
from repro.core.misleading import NO_POSITIONS, position_row
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.core.virtual_id import member_keys, snapshot_key, stripe_keys
from repro.raid.codecs import ChunkState, PackedChunk
from repro.raid.striping import StripeMeta

#: The SP column's ``NA``: one past the last provider index a table takes.
NO_SNAPSHOT = 0xFFFF

#: A privacy level by its value: a column's byte back to its enum member
#: without a call into the enum machinery.
_LEVELS = tuple(sorted(PrivacyLevel, key=int))


# ---------------------------------------------------------------------------
# Table I — Cloud Provider Table
# ---------------------------------------------------------------------------


@dataclass
class ProviderEntry:
    """One row of the Cloud Provider Table: the provider's identity and
    trust/price buckets.  Table I's id list and count are derived from the
    Chunk Table (:meth:`ChunkTable.provider_keys`, :meth:`ChunkTable.load`).
    """

    name: str
    privacy_level: PrivacyLevel
    cost_level: CostLevel


class CloudProviderTable:
    """Index-addressable registry of providers (Table I's first columns)."""

    def __init__(self) -> None:
        self._entries: dict[int, ProviderEntry] = {}
        self._by_name: dict[str, int] = {}
        self._next_index = 0

    def add(
        self,
        name: str,
        privacy_level: PrivacyLevel | int,
        cost_level: CostLevel | int,
    ) -> int:
        """Register a provider; returns its stable table index."""
        if name in self._by_name:
            raise ValueError(f"provider {name!r} already registered")
        index = self._next_index
        if index >= NO_SNAPSHOT:
            raise ValueError(f"the provider table holds at most {NO_SNAPSHOT} rows")
        self._next_index += 1
        self._entries[index] = ProviderEntry(
            name=name,
            privacy_level=PrivacyLevel.coerce(privacy_level),
            cost_level=CostLevel.coerce(cost_level),
        )
        self._by_name[name] = index
        return index

    def get(self, index: int) -> ProviderEntry:
        try:
            return self._entries[index]
        except KeyError:
            raise KeyError(f"no provider at table index {index}") from None

    def names(self, indices: Iterable[int]) -> list[str]:
        """The name at each of *indices*, in order: a stripe's members in
        one pass, without a :meth:`get` per index."""
        entries = self._entries
        try:
            return [entries[index].name for index in indices]
        except KeyError as exc:
            raise KeyError(f"no provider at table index {exc.args[0]}") from None

    def index_of(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no provider named {name!r}") from None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[int, ProviderEntry]]:
        return iter(sorted(self._entries.items()))

    def export_state(self, keys: Mapping[int, list[str]]) -> dict:
        """Serializable snapshot for replication/persistence, each row with
        its id list from *keys* (:meth:`ChunkTable.provider_keys`)."""
        return {
            "next_index": self._next_index,
            "entries": {
                index: (e.name, int(e.privacy_level), int(e.cost_level), keys.get(index, []))
                for index, e in self._entries.items()
            },
        }

    def import_state(self, state: dict) -> dict[int, list[str]]:
        """Rebuild from :meth:`export_state` output, or raise
        :class:`MetadataCorruptedError` and leave the table as it was;
        returns each row's id list as stated, for the caller to check."""
        entries: dict[int, ProviderEntry] = {}
        by_name, listed = {}, {}
        try:
            next_index = int(state["next_index"])
            for index, (name, pl, cl, keys) in state["entries"].items():
                index = int(index)
                if not (isinstance(name, str) and name not in by_name):
                    raise ValueError(f"row {index}: {name!r} is not a new name")
                if not 0 <= index < min(next_index, NO_SNAPSHOT):
                    raise ValueError(f"row {index}: not below next_index {next_index}")
                if not (isinstance(keys, list) and all(isinstance(k, str) for k in keys)):
                    raise ValueError(f"row {index}: the id list is not a list of keys")
                entries[index] = ProviderEntry(name, PrivacyLevel.coerce(pl), CostLevel.coerce(cl))
                by_name[name], listed[index] = index, keys
        except (LookupError, TypeError, ValueError) as exc:
            raise MetadataCorruptedError(f"provider table: {exc}") from None
        self._entries, self._by_name, self._next_index = entries, by_name, next_index
        return listed

    def rows(self, keys: Mapping[int, list[str]], id_preview: int = 1) -> list[list[object]]:
        """Render rows shaped like the paper's Table I, each provider's id
        list from *keys* (:meth:`ChunkTable.provider_keys`)."""
        out: list[list[object]] = []
        for index, e in self:
            ids = keys.get(index, [])
            out.append([e.name, int(e.privacy_level), int(e.cost_level), len(ids),
                        _braced(ids, id_preview)])
        return out


def _braced(items, preview: int) -> str:
    """``{a, b, ...}``: the first *preview* of *items*, and a mark if more follow."""
    more = ", ..." if len(items) > preview else ""
    return "{" + ", ".join(map(str, items[:preview])) + more + "}"


# ---------------------------------------------------------------------------
# Table III — Chunk Table (defined before the Client Table so the latter can
# reference chunk indices)
# ---------------------------------------------------------------------------

#: A slot's ``_shape``: a row removed and not yet compacted away, and a row
#: under a codec this build cannot parse (its stripe record kept verbatim).
_GONE = -1
_QUARANTINED = -2

def _raw(digests: np.ndarray) -> list[bytes]:
    """Rows of 32 digest bytes as :func:`~repro.providers.base.blob_checksum`
    returns them, one ``bytes`` a row, in one pass for the lot."""
    return digests.view("V32").reshape(-1).tolist()


def _fit(column: np.ndarray, size: int) -> np.ndarray:
    """*column* with room for *size* entries: itself, or a copy with room
    for at least half as many again (exactly *size* when it was empty)."""
    if len(column) >= size:
        return column
    grown = np.empty((max(size, len(column) * 3 // 2),) + column.shape[1:], column.dtype)
    grown[: len(column)] = column
    return grown


#: A window of at most this many rows is indexed row by row, and a run of
#: at most ``_FEW_SLOTS`` heap entries in a Python loop: for so few a scalar
#: read costs less than the fixed cost of an array operation (the 1-3 chunk
#: requests: an update, a small file, one chunk).
_FEW = 8
_FEW_SLOTS = 8 * _FEW


def _segments(ptr: np.ndarray, slots: np.ndarray) -> "tuple[slice | np.ndarray, list[int]]":
    """Where the rows in *slots* keep their heap entries, by the offsets
    *ptr*: ``(heap entries, row by row; each row's count)``.  Rows in
    consecutive slots -- one row, or a file read as it was uploaded --
    are one slice of the heap."""
    if not len(slots):
        return slice(0, 0), []
    starts = ptr[slots].astype(np.int64)
    lengths = ptr[slots + 1].astype(np.int64) - starts
    if np.logical_and.reduce(slots[1:] - slots[:-1] == 1):
        return slice(int(starts[0]), int(starts[-1] + lengths[-1])), lengths.tolist()
    offsets = lengths.cumsum() - lengths
    where = np.arange(int(np.add.reduce(lengths))) + (starts - offsets).repeat(lengths)
    return where, lengths.tolist()


def _within(lengths: list[int]) -> tuple[list[int], list[int]]:
    """``(row, index within the row)`` of each entry of rows *lengths* long."""
    counts = np.array(lengths, np.int64)
    owner = np.arange(len(counts)).repeat(counts)
    return owner.tolist(), (np.arange(len(owner)) - (counts.cumsum() - counts)[owner]).tolist()


class _Views:
    """Plain ``memoryview``s of a Chunk Table's columns, for reading and
    storing one row: a scalar through a memoryview costs a fraction of one
    through numpy's dispatch.  The digests view is flat, 32 bytes a slot."""

    __slots__ = ("index", "vid", "level", "snap", "shape", "sptr", "mptr",
                 "members", "digests", "positions")

    def __init__(self, table: "ChunkTable") -> None:
        for name in self.__slots__:
            setattr(self, name, memoryview(getattr(table, "_" + name).reshape(-1)))


class ChunkEntry:
    """One row of the Chunk Table: everything the distributor knows of a
    chunk -- a view of the table's columns, or a row not yet tabled.

    ``virtual_id`` is the provider-facing key; ``privacy_level`` the chunk's
    sensitivity; ``provider_indices`` the Cloud Provider Table indices of
    the stripe members currently storing the chunk (the paper shows one
    ``CP index`` -- with RAID striping a chunk's stripe may span several
    providers, so we keep the full list with the primary first);
    ``snapshot_index`` the provider holding the pre-modification snapshot
    (``None`` -> the paper's ``NA``); ``misleading_positions`` the ``M``
    column, as one :func:`~repro.core.misleading.position_row`.  Positions
    that cannot make a row raise :class:`MetadataCorruptedError`.

    ``record`` is ours, not the paper's: the chunk's stripe record, a
    parsed :class:`~repro.raid.codecs.ChunkState` or, under a codec this
    build cannot parse, the packed ``chunk_state`` row exactly as loaded.
    That *is* the unknown-codec quarantine: the row exports those fields
    untouched (a newer build can still read them), answers for its
    geometry through :attr:`packed`, and refuses :meth:`state`.

    An entry built here or by :meth:`load` holds its fields until
    :meth:`ChunkTable.add_many` tables it; from then on -- and every entry
    :meth:`ChunkTable.get` returns -- it is a view: each field is read
    from the columns when asked, so a view taken before a shard moves
    reads the new placement after, and a view of a removed row raises
    :class:`UnknownChunkError`.  A tabled row's placement changes only
    through :meth:`ChunkTable.move_shard` and :meth:`ChunkTable.set_snapshot`.
    The cold paths read rows this way (fsck, repair and the scrubber,
    drain and rebalance, export, journal specs); the data path indexes the
    columns a window at a time.
    """

    # A view keeps its table, its table index and (in ``_row``) its slot;
    # a row not yet tabled keeps its fields in ``_row``.
    __slots__ = ("_table", "_index", "_row")

    def __init__(
        self,
        virtual_id: int,
        privacy_level: PrivacyLevel,
        provider_indices: Iterable[int],
        snapshot_index: int | None = None,
        misleading_positions: "np.ndarray | Sequence[int]" = (),
        *,
        record: "ChunkState | tuple",
    ) -> None:
        try:
            positions = position_row(misleading_positions)
        except ValueError as exc:
            raise MetadataCorruptedError(f"chunk {virtual_id}: {exc}") from None
        self._table: ChunkTable | None = None
        self._index = -1
        self._row = (
            virtual_id, privacy_level, list(provider_indices), snapshot_index,
            positions, record,
        )

    def _at(self) -> int:
        """A view's slot: the one it last found, while that still holds its
        row (a compaction moves rows down), else found again."""
        table, slot = self._table, self._row
        views = table._v
        if not (
            slot < table._used
            and views.index[slot] == self._index
            and views.shape[slot] != _GONE
        ):
            slot = self._row = table._slot(self._index)
        return slot

    def _fields(self) -> tuple:
        """(vid, level, members, snapshot, positions, record)."""
        table = self._table
        if table is None:
            return self._row
        return table._fields(self._at())

    @property
    def virtual_id(self) -> int:
        table = self._table
        if table is None:
            return self._row[0]
        return int(table._vid[self._at()])

    @property
    def privacy_level(self) -> PrivacyLevel:
        table = self._table
        if table is None:
            return self._row[1]
        return _LEVELS[table._level[self._at()]]

    @property
    def provider_indices(self) -> list[int]:
        table = self._table
        if table is None:
            return self._row[2]
        return table._members_of(self._at())

    @property
    def provider_index(self) -> int:
        """Primary provider index (the paper's ``CP index`` column)."""
        return self.provider_indices[0]

    @property
    def snapshot_index(self) -> int | None:
        table = self._table
        if table is None:
            return self._row[3]
        snapshot = int(table._snap[self._at()])
        return None if snapshot == NO_SNAPSHOT else snapshot

    @property
    def misleading_positions(self) -> np.ndarray:
        table = self._table
        if table is None:
            return self._row[4]
        return table._positions_of(self._at())

    @property
    def record(self) -> "ChunkState | tuple":
        table = self._table
        if table is None:
            return self._row[5]
        return table._record_of(self._at())

    @property
    def quarantined(self) -> bool:
        """Does the stripe record name a codec this build cannot parse?"""
        table = self._table
        if table is None:
            return not isinstance(self._row[5], ChunkState)
        return bool(table._shape[self._at()] == _QUARANTINED)

    @property
    def packed(self) -> PackedChunk:
        """The stripe record as a packed row, parsed or not: a journal
        spec carries it; exposure and quotas ask it for geometry."""
        record = self.record
        if isinstance(record, ChunkState):
            return PackedChunk.pack(record)
        return PackedChunk(*record)

    def state(self, filename: str | None = None) -> ChunkState:
        """The parsed stripe record; a quarantined row raises
        :class:`UnknownCodecError` (carrying *filename*)."""
        record = self.record
        if isinstance(record, ChunkState):
            return record
        label = PackedChunk(*record).codec
        raise UnknownCodecError(
            f"chunk {self.virtual_id} uses codec {label!r} "
            f"unknown to this build; quarantined at metadata load",
            spec=str(label),
            filename=filename,
            virtual_id=self.virtual_id,
        )

    def __eq__(self, other: object) -> bool:
        # Field by field: the M row is an array, with no single truth value.
        if not isinstance(other, ChunkEntry):
            return NotImplemented
        mine, theirs = self._fields(), other._fields()
        return mine[:4] == theirs[:4] and mine[5] == theirs[5] and np.array_equal(
            mine[4], theirs[4]
        )

    def __repr__(self) -> str:
        vid, level, members, snapshot, positions, _ = self._fields()
        return (
            f"ChunkEntry(virtual_id={vid}, privacy_level={int(level)}, "
            f"provider_indices={members}, snapshot_index={snapshot}, "
            f"misleading_positions=<{len(positions)}>)"
        )

    @classmethod
    def load(
        cls, vid, level, members, snapshot, positions, packed,
        provider_table: CloudProviderTable,
    ) -> "ChunkEntry":
        """The one door a row from disk comes in by, ``metadata.json`` or a
        journal record: its Table III fields and *packed*, the fields of
        its ``chunk_state`` row, as exported; a row under an unknown codec
        is quarantined, its stripe fields unjudged.  Raises
        :class:`MetadataCorruptedError` naming the chunk.

        The read path, repair and the scrubber trust every field: a
        repeated position would leave a misleading byte in the plaintext;
        one out of range, a short checksum tuple or a provider index the
        provider table lacks would be a bare ``IndexError`` or ``KeyError``
        mid-read; a shard beyond the recorded members is never audited; a
        checksum that is no SHA-256 hex digest could never match a shard
        (:meth:`PackedChunk.unpack` refuses it, as it turns the row's hex
        checksums into the raw digests the table keeps).
        """
        try:
            vid = int(vid)
            if not -(1 << 63) <= vid < 1 << 63:
                raise ValueError("the virtual id is out of range")
            try:
                record = PackedChunk(*packed).unpack()
            except UnknownCodecError:
                record = tuple(packed)
            entry = cls(
                vid, PrivacyLevel.coerce(level), [int(i) for i in members],
                None if snapshot is None else int(snapshot), positions,
                record=record,
            )
            _, _, members, snapshot, positions, _ = entry._row
            for index in (*members, snapshot):
                if index is not None:
                    provider_table.get(index)
        except KeyError as exc:
            raise MetadataCorruptedError(f"chunk {vid}: {exc.args[0]}") from None
        except (TypeError, ValueError) as exc:
            raise MetadataCorruptedError(f"chunk {vid}: {exc}") from None
        if not isinstance(record, ChunkState):
            return entry
        stripe, checksums = record.stripe, record.shard_checksums
        n = stripe.n
        # A row is unsigned integers by construction (position_row).
        problem = None
        if len(positions) and not (
            int(positions[-1]) < stripe.orig_len
            and (positions[:-1] < positions[1:]).all()
        ):
            problem = (
                f"misleading positions are not strictly ascending indices "
                f"into its {stripe.orig_len} stored bytes"
            )
        elif checksums is not None and len(checksums) != n:
            problem = f"{len(checksums)} shard checksums for a stripe of {n}"
        elif len(members) != n:
            problem = f"{len(members)} providers for a stripe of {n}"
        if problem is not None:
            raise MetadataCorruptedError(f"chunk {vid}: {problem}")
        return entry


class ChunkTable:
    """Index-addressable registry of chunk metadata (Table III), and the
    one record of where each shard and snapshot lives -- held as columns.

    Rows live in *slots*, in table-index order, one entry a slot in each
    fixed column: table index, virtual id, level, snapshot holder (SP), and
    a shape -- the interned ``(stripe geometry, rotation, digested)`` of
    the row.  A row's shard slots (its members and their digests, 32 raw
    bytes each) and its ``M`` positions lie in three heaps, found by two
    offset columns.  A removed row's slot is marked gone and reclaimed,
    with its heap entries, when gone slots outnumber the rest.  Beside the
    columns the table keeps Table I's Count column per provider index
    (:meth:`load`), which every change of a row's placement updates: no
    reader recounts.
    """

    def __init__(self) -> None:
        self._next_index = 0
        self._used = 0  # slots filled, gone ones included
        self._rows = 0  # rows tabled
        self._index = np.empty(0, np.int64)
        self._vid = np.empty(0, np.int64)
        self._level = np.empty(0, np.uint8)
        self._snap = np.empty(0, np.uint16)
        self._shape = np.empty(0, np.int32)
        self._sptr = np.zeros(1, np.uint32)  # slot s: shard slots [sptr[s], sptr[s+1])
        self._mptr = np.zeros(1, np.uint32)  # slot s: positions [mptr[s], mptr[s+1])
        self._members = np.empty(0, np.uint16)
        self._digests = np.empty((0, 32), np.uint8)
        self._positions = np.empty(0, np.uint32)
        self._shapes: list[tuple[StripeMeta, int, bool]] = []
        self._shape_ids: dict[tuple, int] = {}
        # One StripeMeta a geometry, whatever the rotation: a read's runs of
        # rows alike (ChunkWindow.runs) go by the stripe's identity.
        self._geometries: dict[tuple, StripeMeta] = {}
        self._verbatim: dict[int, tuple] = {}  # a quarantined row's packed fields
        self._loads: defaultdict[int, int] = defaultdict(int)
        self._v = _Views(self)

    # -- slots ---------------------------------------------------------------

    def _slot(self, index: int) -> int:
        """The slot of table index *index*'s row; :class:`UnknownChunkError`
        without one."""
        used, views = self._used, self._v
        try:
            # Rows tabled since the last compaction sit at their index less
            # the indices never or no longer slotted.
            slot = operator.index(index) - (self._next_index - used)
            if not (0 <= slot < used and views.index[slot] == index):
                slot = int(self._index[:used].searchsorted(index))
        except TypeError:
            slot = used
        if slot == used or views.index[slot] != index or views.shape[slot] == _GONE:
            raise UnknownChunkError(f"no chunk at table index {index}")
        return slot

    def _slots(self, indices: "Sequence[int] | np.ndarray") -> np.ndarray:
        """:meth:`_slot` of every one of *indices*, in one pass."""
        rows = np.asarray(indices, np.int64)
        used = self._used
        slots = np.minimum(self._index[:used].searchsorted(rows), max(used - 1, 0))
        if used:
            bad = (self._index[slots] != rows) | (self._shape[slots] == _GONE)
        else:
            bad = np.ones(len(rows), bool)
        if bad[first := int(bad.argmax())]:
            raise UnknownChunkError(f"no chunk at table index {int(rows[first])}")
        return slots

    def _live(self) -> np.ndarray:
        """The slots holding a row."""
        return (self._shape[: self._used] != _GONE).nonzero()[0]

    def _members_of(self, slot: int) -> list[int]:
        return self._members[self._sptr[slot] : self._sptr[slot + 1]].tolist()

    def _positions_of(self, slot: int) -> np.ndarray:
        positions = self._positions[self._mptr[slot] : self._mptr[slot + 1]]
        return position_row(positions) if len(positions) else NO_POSITIONS

    def _record_of(self, slot: int) -> "ChunkState | tuple":
        shape = int(self._shape[slot])
        if shape == _QUARANTINED:
            return self._verbatim[int(self._index[slot])]
        stripe, rotation, digested = self._shapes[shape]
        checksums = None
        if digested:
            checksums = tuple(_raw(self._digests[self._sptr[slot] : self._sptr[slot + 1]]))
        return ChunkState(stripe, rotation, checksums)

    def _fields(self, slot: int) -> tuple:
        snapshot = int(self._snap[slot])
        return (
            int(self._vid[slot]), _LEVELS[self._level[slot]], self._members_of(slot),
            None if snapshot == NO_SNAPSHOT else snapshot,
            self._positions_of(slot), self._record_of(slot),
        )

    # -- rows in -------------------------------------------------------------

    def add(self, entry: ChunkEntry) -> int:
        """Table *entry*; returns its index (:meth:`add_many` of one)."""
        return self.add_many([entry])[0]

    def add_many(self, entries: list[ChunkEntry]) -> range:
        """Table *entries*, all or none, at consecutive indices; returns
        them.  A virtual id tabled already (or twice in *entries*), or a
        row with no provider index, raises ``ValueError``.  An entry not
        yet tabled becomes a view of its row."""
        rows = [entry._fields() for entry in entries]
        if len(rows) <= _FEW:
            tabled = [vid for vid, *_ in rows if self.find_index(vid) is not None]
        else:
            tabled = set(self._vid[self._live()].tolist()).intersection(
                [vid for vid, *_ in rows]
            )
        added = self._append(*self._columns(rows, tabled))
        for entry, index in zip(entries, added):
            if entry._table is None:
                entry._table, entry._index, entry._row = self, index, 0
        return added

    def _columns(self, rows: list[tuple], tabled: Iterable[int] = ()) -> tuple:
        """:meth:`_append`'s arguments for *rows* (``ChunkEntry._fields``),
        after the checks :meth:`add_many` promises."""
        seen = set(tabled)
        shapes: list[int] = []
        digests: list[bytes] = []
        verbatim: dict[int, tuple] = {}
        for at, (vid, _, members, _, _, record) in enumerate(rows):
            if vid in seen:
                raise ValueError(f"virtual id {vid} already tabled")
            seen.add(vid)
            if not members:
                raise ValueError("chunk entry needs at least one provider index")
            if not isinstance(record, ChunkState):
                shapes.append(_QUARANTINED)
                verbatim[at] = record
                digests.append(bytes(32 * len(members)))
                continue
            checksums = record.shard_checksums
            digested = checksums is not None
            if digested and not (
                len(checksums) == len(members)
                and all(type(c) is bytes and len(c) == 32 for c in checksums)
            ):
                raise ValueError(
                    f"chunk {vid}: shard checksums are not one SHA-256 digest a member"
                )
            shapes += self._intern(
                [_shape_key(record.stripe, record.rotation, digested)], [record.stripe]
            )
            digests.append(b"".join(checksums) if digested else bytes(32 * len(members)))
        vids, levels, members, snapshots, positions, _ = zip(*rows) if rows else ((),) * 6
        return (
            list(vids), list(map(int, levels)), list(map(len, members)),
            list(itertools.chain.from_iterable(members)),
            [NO_SNAPSHOT if snapshot is None else snapshot for snapshot in snapshots],
            list(map(len, positions)), np.concatenate(positions) if rows else NO_POSITIONS,
            shapes, b"".join(digests), verbatim,
        )

    def add_window(
        self,
        vids: list[int],
        level: int,
        widths: list[int],
        members: list[int],
        snapshots: "list[int] | None",
        positions: list[np.ndarray],
        stripes: list[StripeMeta],
        rotations: list[int],
        digests: list[bytes],
    ) -> range:
        """Table a window of fresh rows of one privacy *level* in one pass
        -- the write engine's commit -- at consecutive indices; returns
        them.  The window comes as columns: row by row the ``vids``, the
        ``widths`` (how many of *members* are each row's), the
        ``snapshots`` holders (``None``: no row has one), the ``stripes``
        and ``rotations``; shard slot by shard slot, row after row, the
        provider ``members`` and the ``digests`` (32 raw bytes each, as
        :func:`~repro.providers.base.blob_checksum` returns them); and the
        ``M`` column as runs of rows, one 2-D ``uint32`` array a run (one
        row of positions a chunk).  Rows sharing a stripe object and a
        rotation share a shape found once, the digests reach their column
        as one join, and the positions reach the heap a run at a time.  The
        virtual ids are the allocator's, fresh by construction: not
        checked again here."""
        count = len(vids)
        pairs = list(zip(map(id, stripes), rotations))
        distinct = list(dict.fromkeys(pairs))
        of = dict(zip(map(id, stripes), stripes))
        shape_of = dict(zip(distinct, self._intern(
            [_shape_key(of[ident], rotation, True) for ident, rotation in distinct],
            [of[ident] for ident, _ in distinct],
        )))
        counts: list[int] = []
        for run in positions:
            counts += [run.shape[1]] * len(run)
        return self._append(
            vids, [level] * count, widths, members,
            [NO_SNAPSHOT] * count if snapshots is None else snapshots, counts,
            positions[0].reshape(-1) if len(positions) == 1
            else np.concatenate([run.reshape(-1) for run in positions]),
            list(map(shape_of.__getitem__, pairs)), b"".join(digests),
        )

    def _intern(self, keys: list[tuple], stripes: list[StripeMeta]) -> list[int]:
        """The shape id of each of *keys* (each of *stripes*' geometry, a
        rotation and whether digests are kept), a new shape for a new one."""
        ids = list(map(self._shape_ids.get, keys))
        if None in ids:
            for at, (key, found) in enumerate(zip(keys, ids)):
                if found is None:
                    found = self._shape_ids.get(key)
                    if found is None:
                        found = self._shape_ids[key] = len(self._shapes)
                        stripe = self._geometries.setdefault(key[:6], stripes[at])
                        self._shapes.append((stripe, key[6], key[7]))
                    ids[at] = found
        return ids

    def _append(
        self, vids, levels, widths, members, snapshots, counts, heap, shapes,
        digests: bytes, verbatim: "dict[int, tuple] | None" = None,
    ) -> range:
        """Append rows at the next indices, as columns: *counts* is how many
        of the positions in *heap* are each row's, and a row without a
        snapshot holder has ``NO_SNAPSHOT``."""
        count = len(vids)
        start, used = self._next_index, self._used
        if not count:
            return range(start, start)
        end = used + count
        s0, m0 = self._v.sptr[used], self._v.mptr[used]
        slot_ends = list(itertools.accumulate(widths, initial=s0))
        position_ends = list(itertools.accumulate(counts, initial=m0))
        s1, m1 = slot_ends[-1], position_ends[-1]
        if max(s1, m1) >= 1 << 32:
            raise OverflowError("the chunk table's heaps hold at most 2**32 entries")
        if not (
            end < len(self._index) and end < len(self._sptr) and end < len(self._mptr)
            and s1 <= len(self._members) and m1 <= len(self._positions)
        ):
            for name, size in (
                ("_index", end), ("_vid", end), ("_level", end), ("_snap", end),
                ("_shape", end), ("_sptr", end + 1), ("_mptr", end + 1),
                ("_members", s1), ("_digests", s1), ("_positions", m1),
            ):
                setattr(self, name, _fit(getattr(self, name), size))
            self._v = _Views(self)
        if count <= _FEW:  # (a few rows: scalar stores)
            views = self._v
            for at, slot in enumerate(range(used, end)):
                views.index[slot], views.vid[slot], views.level[slot] = start + at, vids[at], levels[at]
                views.snap[slot], views.shape[slot] = snapshots[at], shapes[at]
                views.sptr[slot + 1], views.mptr[slot + 1] = slot_ends[at + 1], position_ends[at + 1]
        else:
            members = np.array(members, np.uint16)  # (once, for the heap and the loads)
            self._index[used:end] = np.arange(start, start + count)
            self._vid[used:end] = vids
            self._level[used:end] = levels
            self._snap[used:end] = snapshots
            self._shape[used:end] = shapes
            self._sptr[used + 1 : end + 1] = slot_ends[1:]
            self._mptr[used + 1 : end + 1] = position_ends[1:]
        self._members[s0:s1] = members
        self._v.digests[32 * s0 : 32 * s1] = digests
        if m1 > m0:
            self._positions[m0:m1] = heap
        if verbatim:
            self._verbatim.update(
                {start + at: record for at, record in verbatim.items()}
            )
        self._used, self._next_index, self._rows = end, start + count, self._rows + count
        self._count(members, 1)
        self._count(snapshots, 1)
        return range(start, start + count)

    def _count(self, providers: "list[int] | np.ndarray", step: int) -> None:
        """Add *step* to the load of each provider index in *providers*
        (``NO_SNAPSHOT`` aside): a window of rows in one call."""
        loads = self._loads
        if len(providers) <= _FEW_SLOTS:
            for provider in (providers if isinstance(providers, list) else providers.tolist()):
                loads[provider] += step
        else:
            providers = np.asarray(providers)
            counts = np.bincount(providers[providers != NO_SNAPSHOT])
            placed = counts.nonzero()[0]
            for provider, count in zip(placed.tolist(), counts[placed].tolist()):
                loads[provider] += step * count
        loads.pop(NO_SNAPSHOT, None)

    # -- rows read -----------------------------------------------------------

    def get(self, index: int) -> ChunkEntry:
        """A view of the row at *index*."""
        entry = ChunkEntry.__new__(ChunkEntry)
        entry._table, entry._index, entry._row = self, index, self._slot(index)
        return entry

    def find_index(self, vid: int) -> int | None:
        """The table index of virtual id *vid*'s row; ``None`` without one."""
        used = self._used
        try:
            hits = (self._vid[:used] == vid) & (self._shape[:used] != _GONE)
        except (TypeError, OverflowError):
            return None
        slot = int(hits.argmax()) if used else 0
        return int(self._index[slot]) if used and hits[slot] else None

    def check(self, indices: "Sequence[int] | np.ndarray", filename: str | None = None) -> None:
        """Raise what a read of the rows at *indices* would: an index with
        no row (:class:`UnknownChunkError`), a row quarantined under an
        unknown codec (:class:`UnknownCodecError`, carrying *filename*)."""
        slots = self._slots(indices)
        if self._verbatim:
            quarantined = self._shape[slots] == _QUARANTINED
            if len(slots) and quarantined[first := int(quarantined.argmax())]:
                self.get(int(self._index[slots[first]])).state(filename)

    def window(self, indices: "Sequence[int] | np.ndarray", filename: str | None = None) -> "ChunkWindow":
        """The read path's copy of the rows at *indices*, one gather a column
        (a few rows: read one by one, into plain lists); raises what
        :meth:`check` raises."""
        if len(indices) <= _FEW:
            vids, stripes, first, members, digests, marks = [], [], [], [], [], [0]
            views, heap, runs, last = self._v, [], [], None
            for index in (indices.tolist() if isinstance(indices, np.ndarray) else indices):
                slot = self._slot(index)
                shape = views.shape[slot]
                if shape == _QUARANTINED:
                    self.get(index).state(filename)
                stripe, _, digested = self._shapes[shape]
                a, b = views.sptr[slot], views.sptr[slot + 1]
                c, e = views.mptr[slot], views.mptr[slot + 1]
                vids.append(views.vid[slot])
                stripes.append(stripe)
                first.append(len(members))
                members += views.members[a:b].tolist()
                if digested:
                    raw = views.digests[32 * a : 32 * b].tobytes()
                    digests += [raw[at : at + 32] for at in range(0, len(raw), 32)]
                else:
                    digests += [None] * (b - a)
                if e > c:
                    heap.append(self._positions[c:e])
                marks.append(marks[-1] + e - c)
                if stripe is last and e - c == runs[-1][3]:
                    runs[-1][0] += 1
                else:
                    runs.append([1, stripe.k * stripe.shard_size, stripe.orig_len, e - c])
                    last = stripe
            if len(heap) == 1:  # (one copy: cheaper than concatenating one)
                positions = heap[0].copy()
            else:
                positions = np.concatenate(heap) if heap else NO_POSITIONS
            return ChunkWindow(vids, stripes, first, members, digests, positions, marks, runs)
        slots = self._slots(indices)
        if self._verbatim:
            self.check(indices, filename)
        shapes = [self._shapes[shape] for shape in self._shape[slots].tolist()]
        stripes = [shape[0] for shape in shapes]
        digested = [shape[2] for shape in shapes]
        shards, widths = _segments(self._sptr, slots)
        marks, counts = _segments(self._mptr, slots)
        raw = self._digests[shards].copy()
        if not all(digested):
            raw = (raw, np.array(digested).repeat(widths))
        # Runs of rows alike: one (interned) stripe and one M count.
        alike = np.fromiter(map(id, stripes), np.int64, len(stripes))
        held = np.asarray(counts)
        cuts = ((alike[1:] != alike[:-1]) | (held[1:] != held[:-1])).nonzero()[0] + 1
        bounds = [0, *cuts.tolist(), len(slots)]
        return ChunkWindow(
            self._vid[slots].tolist(), stripes,
            np.array(list(itertools.accumulate(widths, initial=0))[:-1], np.int64),
            self._members[shards].copy(), raw,
            self._positions[marks].copy(), list(itertools.accumulate(counts, initial=0)),
            [
                [b - a, stripes[a].k * stripes[a].shard_size, stripes[a].orig_len, counts[a]]
                for a, b in zip(bounds, bounds[1:])
            ],
        )

    def _objects(self, slots: "np.ndarray | list[int]") -> tuple[list[int], list[int], list[str]]:
        """``(vids, providers, keys)`` of the rows in *slots* (an array, or
        a few as a list): every shard and snapshot they place, each
        provider index beside its key."""
        if isinstance(slots, list):  # a few rows, read one by one
            views = self._v
            vids = [views.vid[slot] for slot in slots]
            snapshots = [views.snap[slot] for slot in slots]
            providers, keys = [], []
            for vid, slot in zip(vids, slots):
                a, b = views.sptr[slot], views.sptr[slot + 1]
                providers += views.members[a:b].tolist()
                keys += stripe_keys((vid,), b - a)
        else:
            vids, snapshots = self._vid[slots].tolist(), self._snap[slots].tolist()
            shards, widths = _segments(self._sptr, slots)
            providers = self._members[shards].tolist()
            owner, within = _within(widths)
            keys = member_keys(list(map(str, vids)), owner, within)
        for vid, snapshot in zip(vids, snapshots):
            if snapshot != NO_SNAPSHOT:
                providers.append(snapshot)
                keys.append(snapshot_key(vid))
        return vids, providers, keys

    def tabled_vids(self) -> list[int]:
        """Every tabled virtual id, in table-index order."""
        return self._vid[self._live()].tolist()

    def nbytes(self, indices: "Sequence[int] | np.ndarray") -> int:
        """What the rows at *indices* hold in the columns: each row's
        fixed fields, its shard slots (member and raw digest) and its
        positions -- entries in use, not the arrays' spare capacity."""
        slots = self._slots(indices)
        fixed = (self._index, self._vid, self._level, self._snap, self._shape,
                 self._sptr, self._mptr)
        shards = int((self._sptr[slots + 1] - self._sptr[slots]).sum())
        positions = int((self._mptr[slots + 1] - self._mptr[slots]).sum())
        return (
            len(slots) * sum(column.itemsize for column in fixed)
            + shards * (self._members.itemsize + self._digests.shape[1])
            + positions * self._positions.itemsize
        )

    def __len__(self) -> int:
        return self._rows

    def __iter__(self) -> Iterator[tuple[int, ChunkEntry]]:
        for index in self._index[self._live()].tolist():
            yield index, self.get(index)

    # -- rows out ------------------------------------------------------------

    def remove(self, index: int) -> ChunkEntry:
        """Untable the row at *index*; returns it, no longer tabled."""
        vid, level, members, snapshot, positions, record = self._fields(self._slot(index))
        self.remove_many([index])
        return ChunkEntry(vid, level, members, snapshot, positions, record=record)

    def remove_many(self, indices: "Sequence[int] | np.ndarray") -> tuple[list[int], list[int], list[str]]:
        """Untable the rows at *indices* (distinct), in one pass; returns
        what they placed, as ``(vids, providers, keys)``: each virtual id,
        and every shard and snapshot, its provider index beside its key."""
        if len(indices) <= _FEW:  # (row by row: an update's retired chunk)
            rows = indices.tolist() if isinstance(indices, np.ndarray) else indices
            slots = [self._slot(index) for index in rows]
        else:
            slots = self._slots(indices)
        placed = self._objects(slots)
        self._count(placed[1], -1)
        for slot in slots if self._verbatim else ():
            if self._shape[slot] == _QUARANTINED:
                del self._verbatim[self._index.item(slot)]
        if isinstance(slots, list):
            for slot in slots:
                self._v.shape[slot] = _GONE
        else:
            self._shape[slots] = _GONE
        self._rows -= len(slots)
        if self._used - self._rows > max(self._rows, 1024):
            self._compact()
        return placed

    def _compact(self) -> None:
        """Reclaim gone slots and their heap entries: every column rewritten
        in place to the rows it holds, in order (the capacity stays, for
        the rows to come)."""
        live = self._live()
        shards, widths = _segments(self._sptr, live)
        marks, counts = _segments(self._mptr, live)
        rows, slots, marked = len(live), sum(widths), sum(counts)
        for name in ("_index", "_vid", "_level", "_snap", "_shape"):
            column = getattr(self, name)
            column[:rows] = column[live]
        self._members[:slots] = self._members[shards]
        self._digests[:slots] = self._digests[shards]
        self._positions[:marked] = self._positions[marks]
        self._sptr[: rows + 1] = list(itertools.accumulate(widths, initial=0))
        self._mptr[: rows + 1] = list(itertools.accumulate(counts, initial=0))
        self._used = rows

    # -- placement -----------------------------------------------------------

    def _tabled_slot(self, entry: ChunkEntry) -> int:
        if entry._table is not self:
            raise ValueError(f"{entry!r} is not a row of this table")
        return self._slot(entry._index)

    def move_shard(self, entry: ChunkEntry, shard_index: int, provider: int) -> None:
        """Place shard *shard_index* of the tabled row *entry* at provider
        index *provider*: the only change of a row's CP column."""
        slot = self._tabled_slot(entry)
        at = int(self._sptr[slot]) + shard_index
        if not 0 <= shard_index < int(self._sptr[slot + 1]) - int(self._sptr[slot]):
            raise IndexError(f"shard {shard_index} is not a member of {entry!r}")
        self._loads[int(self._members[at])] -= 1
        self._loads[provider] += 1
        self._members[at] = provider

    def set_snapshot(self, entry: ChunkEntry, provider: int) -> None:
        """Place the tabled row *entry*'s snapshot at provider index
        *provider*: the only change of a row's SP column."""
        slot = self._tabled_slot(entry)
        if (old := int(self._snap[slot])) != NO_SNAPSHOT:
            self._loads[old] -= 1
        self._loads[provider] += 1
        self._snap[slot] = provider

    def load(self, provider: int) -> int:
        """How many shards and snapshots the rows place at provider index
        *provider*: Table I's Count column, kept, not recounted."""
        return self._loads.get(provider, 0)

    def provider_keys(self) -> dict[int, list[str]]:
        """Table I's id lists: each provider index's shard and snapshot
        keys, sorted, from one pass over the columns."""
        keys: defaultdict[int, list[str]] = defaultdict(list)
        _, providers, placed = self._objects(self._live())
        for provider, key in zip(providers, placed):
            keys[provider].append(key)
        return {provider: sorted(listed) for provider, listed in keys.items()}

    # -- persistence ---------------------------------------------------------

    def export_state(self) -> dict:
        """Serializable snapshot for replication/persistence."""
        live = self._live()
        snapshots = self._snap[live].tolist()
        return {
            "next_index": self._next_index,
            "entries": {
                index: (
                    vid, level, self._members_of(slot),
                    None if snapshot == NO_SNAPSHOT else snapshot,
                    self._positions[self._mptr[slot] : self._mptr[slot + 1]].tolist(),
                )
                for slot, index, vid, level, snapshot in zip(
                    live.tolist(), self._index[live].tolist(),
                    self._vid[live].tolist(), self._level[live].tolist(), snapshots,
                )
            },
        }

    def export_records(self) -> dict:
        """``metadata.json``'s ``chunk_state``: virtual id -> packed stripe
        record (:class:`PackedChunk`'s fields, the digests spelled in hex:
        this and :meth:`ChunkEntry.load` are the format's edge), a
        quarantined one with its fields as loaded."""
        live = self._live()
        shards, widths = _segments(self._sptr, live)
        digests = iter(_raw(self._digests[shards]))
        out = {}
        for index, vid, shape, width in zip(
            self._index[live].tolist(), self._vid[live].tolist(),
            self._shape[live].tolist(), widths,
        ):
            checksums = list(map(bytes.hex, itertools.islice(digests, width)))
            if shape == _QUARANTINED:
                out[vid] = tuple(self._verbatim[index])
                continue
            stripe, rotation, digested = self._shapes[shape]
            out[vid] = (
                stripe.codec, stripe.width, stripe.k, stripe.m,
                stripe.shard_size, stripe.orig_len, rotation,
                checksums if digested else None,
            )
        return out

    def import_state(
        self, state: dict, records: dict, provider_table: CloudProviderTable
    ) -> list[int]:
        """Rebuild from :meth:`export_state` and :meth:`export_records`
        output together, each row through :meth:`ChunkEntry.load`; a refusal
        leaves the table as it was.  The only code that pairs a chunk row
        with its ``chunk_state`` row: a chunk row without one is refused, as
        is a virtual id two rows name or a row index not below
        ``next_index``; ``chunk_state`` rows no chunk row names are left
        out, their virtual ids returned."""
        loaded: dict[int, ChunkEntry] = {}
        try:
            records = {int(vid): packed for vid, packed in records.items()}
            next_index = int(state["next_index"])
            for index, (vid, pl, cps, sp, m) in state["entries"].items():
                if (vid := int(vid)) not in records:
                    raise MetadataCorruptedError(f"chunk {vid}: no chunk_state row")
                if not 0 <= (index := int(index)) < next_index or index in loaded:
                    raise MetadataCorruptedError(
                        f"chunk {vid}: row index {index} is not a free one below "
                        f"next_index {next_index}"
                    )
                loaded[index] = ChunkEntry.load(
                    vid, pl, cps, sp, m, records[vid], provider_table
                )
            table = ChunkTable()
            indices = sorted(loaded)
            rows = [loaded[index]._row for index in indices]
            columns = table._columns(rows)
            # Rows land at their own indices, a run of consecutive ones at a
            # time: the holes stay holes.
            for _, run in itertools.groupby(
                range(len(indices)), lambda i: indices[i] - i
            ):
                run = list(run)
                table._next_index = indices[run[0]]
                table._append(*_run_of(columns, run[0], run[-1] + 1))
            table._next_index = next_index
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise MetadataCorruptedError(f"chunk table: {exc}") from None
        self.__dict__.update(table.__dict__)
        return sorted(records.keys() - {vid for vid, *_ in rows})

    def rows(self, m_preview: int = 2) -> list[list[object]]:
        """Render rows shaped like the paper's Table III."""
        return [
            [
                e.virtual_id,
                int(e.privacy_level),
                e.provider_index,
                "NA" if e.snapshot_index is None else e.snapshot_index,
                _braced(e.misleading_positions, m_preview)
                if len(e.misleading_positions) else "NA",
            ]
            for _, e in self
        ]


def _run_of(columns: tuple, start: int, stop: int) -> tuple:
    """:meth:`ChunkTable._columns` output cut to rows *start*..*stop*."""
    vids, levels, widths, members, snapshots, counts, heap, shapes, digests, verbatim = columns
    first, last = sum(widths[:start]), sum(widths[:stop])
    low, high = sum(counts[:start]), sum(counts[:stop])
    return (
        vids[start:stop], levels[start:stop], widths[start:stop],
        members[first:last], snapshots[start:stop], counts[start:stop],
        heap[low:high], shapes[start:stop], digests[32 * first : 32 * last],
        {at - start: record for at, record in verbatim.items() if start <= at < stop},
    )


def _shape_key(stripe: StripeMeta, rotation: int, digested: bool) -> tuple:
    """A row's shape as a plain tuple: hashed and compared in C (the commit
    builds the same tuple inline)."""
    return (
        stripe.codec, stripe.width, stripe.k, stripe.m, stripe.shard_size,
        stripe.orig_len, rotation, digested,
    )


@dataclass(slots=True)
class ChunkWindow:
    """The read path's copy of a window of Chunk Table rows, gathered under
    the op lock and read without it: row by row the ``vids``, ``stripes``
    and the ``first`` of each row's shard slots; shard slot by shard slot,
    row after row, the provider ``members`` and the recorded ``digests``;
    the rows' ``M`` as one heap of ``positions``, row *r*'s
    ``positions[marks[r]:marks[r + 1]]``; and the ``runs`` of rows alike
    once decoded, ``[rows, width, length, count]`` -- rows of one interned
    stripe (k shard sizes, the first *length* bytes the stored chunk) and
    one ``M`` count -- as :func:`repro.core.misleading.strip` reads them.
    A digest is its 32 raw bytes, as the table keeps it.  A window of a
    few rows holds plain lists, its digests one ``bytes`` a slot (``None``
    for a row without checksums); a larger one arrays, its digests one
    ``(slots, 32)`` array (with a mask of the slots that have them when
    some do not), cut into ``bytes`` a round at a time.
    """

    vids: list[int]
    stripes: list[StripeMeta]
    first: "list[int] | np.ndarray"
    members: "list[int] | np.ndarray"
    digests: "list[bytes | None] | np.ndarray | tuple[np.ndarray, np.ndarray]"
    positions: np.ndarray
    marks: list[int]
    runs: list[list[int]]
    #: Each row's virtual id as a string, formatted by the first round.
    prefixes: "list[str] | None" = None

    def providers(self) -> list[int]:
        """The provider index of every member, each once."""
        if isinstance(self.members, list):
            return list(set(self.members))
        return np.bincount(self.members).nonzero()[0].tolist()

    def plan(
        self, numbers: np.ndarray, indices: np.ndarray
    ) -> tuple[list[str], list, list[int], list[tuple[int, int, int]], list[int]]:
        """One round of requests -- stripe *numbers* and member *indices* --
        grouped by the provider each goes to: ``(keys, expected digests,
        stripe numbers)`` in that order, each provider's run ``(provider,
        start, stop)`` in the order the round first names the providers,
        and where each request landed (``back``).  A few rows plan in
        Python; more plan in one sort, one key list and one cut of the
        round's digests into ``bytes``.  A key is its row's virtual id,
        formatted once a window, and the member's suffix
        (:func:`member_keys`)."""
        if self.prefixes is None:
            self.prefixes = list(map(str, self.vids))
        if isinstance(self.members, list):
            stripes, wanted = numbers.tolist(), indices.tolist()
            first, members, digests = self.first, self.members, self.digests
            # One pass: each provider's requests in the order asked, the
            # providers in the order the round first names them.
            columns: dict[int, tuple[list, list, list]] = {}
            for at, number, index in zip(range(len(stripes)), stripes, wanted):
                slot = first[number] + index
                column = columns.get(members[slot])
                if column is None:
                    column = columns[members[slot]] = ([], [], [])
                column[0].append(at)
                column[1].append(index)
                column[2].append(slot)
            order: list[int] = []
            picked: list[int] = []
            keyed: list[int] = []
            runs = []
            for home, (asked, at_index, at_slot) in columns.items():
                runs.append((home, len(order), len(order) + len(asked)))
                order += asked
                keyed += at_index
                picked += at_slot
            back = [0] * len(order)
            for landed, at in enumerate(order):
                back[at] = landed
            rows = [stripes[at] for at in order]
            return (
                member_keys(self.prefixes, rows, keyed),
                [digests[slot] for slot in picked], rows, runs, back,
            )
        slots = self.first[numbers] + indices
        homes = self.members[slots]
        ordered = homes.argsort(kind="stable")
        by = homes[ordered]
        starts = [0, *((by[1:] != by[:-1]).nonzero()[0] + 1).tolist()]
        runs = [run[1:] for run in sorted(zip(
            ordered[starts].tolist(), by[starts].tolist(), starts,
            [*starts[1:], len(ordered)],
        ))]
        rows = numbers[ordered].tolist()
        keys = member_keys(self.prefixes, rows, indices[ordered].tolist())
        picked = slots[ordered]
        if isinstance(self.digests, tuple):
            raw, bare = self.digests
            expected = _raw(raw[picked])
            for at in (~bare[picked]).nonzero()[0].tolist():
                expected[at] = None
        else:
            expected = _raw(self.digests[picked])
        back = np.empty(len(ordered), np.int64)
        back[ordered] = np.arange(len(ordered))
        return keys, expected, rows, runs, back.tolist()

    def budgets(self) -> list[tuple[StripeMeta, float]]:
        """Each row's stripe and misleading bytes per genuine byte, as
        stored: what an update or a migration keeps of a chunk."""
        counts = map(operator.sub, self.marks[1:], self.marks)
        return [
            (stripe, count / max(1, stripe.orig_len - count))
            for stripe, count in zip(self.stripes, counts)
        ]


# ---------------------------------------------------------------------------
# Table II — Client Table
# ---------------------------------------------------------------------------


class FileChunkRef(NamedTuple):
    """One (filename, sl, PL, chunk-table-index) quadruple from Table II."""

    filename: str
    serial: int
    privacy_level: PrivacyLevel
    chunk_index: int


#: A quadruple from a 4-tuple, with no Python call (so a map of it makes a
#: file's quadruples in one C loop).
_REF = partial(tuple.__new__, FileChunkRef)
_FILENAME, _SERIAL, _LEVEL, _CHUNK = map(operator.itemgetter, range(4))


class FileRefs:
    """One file's quadruples as columns, serials ascending: ``serials``,
    the Chunk Table ``chunks`` they resolve to and their ``levels``.  Read
    them under the op lock; only :class:`ClientEntry` changes them."""

    __slots__ = ("serials", "chunks", "levels")

    def __init__(self, serials, chunks, levels) -> None:
        self.serials = np.asarray(serials, np.int32)
        self.chunks = np.asarray(chunks, np.int64)
        self.levels = np.asarray(levels, np.uint8)

    def __len__(self) -> int:
        return len(self.serials)

    @property
    def level(self) -> PrivacyLevel:
        """The first quadruple's level: the file's, as a read checks it."""
        return _LEVELS[self.levels.item(0)]

    def find(self, serial: int) -> int:
        """The position of *serial*, or ``-1``."""
        serials = self.serials
        try:
            # A file no chunk was removed from keeps serial s at position s.
            if 0 <= serial < len(serials) and serials.item(serial) == serial:
                return serial
            at = int(serials.searchsorted(np.int32(operator.index(serial))))
        except (TypeError, OverflowError):
            return -1
        return at if at < len(serials) and serials.item(at) == serial else -1

    def refs(self, filename: str) -> list[FileChunkRef]:
        return list(map(_REF, zip(
            itertools.repeat(filename), self.serials.tolist(),
            map(_LEVELS.__getitem__, self.levels.tolist()), self.chunks.tolist(),
        )))


@dataclass
class ClientEntry:
    """One row of the Client Table.

    Passwords live in :class:`repro.core.access_control.AccessController`
    (hashed); this entry records the password *levels* for rendering plus
    the client's chunk quadruples, held by name -- filename -> the file's
    :class:`FileRefs` columns, files in first-stored order and a file's
    serials ascending -- so that finding a file costs the same whatever
    else the client stores.  :attr:`chunk_refs` is the flat Table II view
    of them.
    """

    name: str
    password_levels: list[PrivacyLevel] = field(default_factory=list)
    _files: dict[str, FileRefs] = field(default_factory=dict, repr=False)

    @property
    def chunk_refs(self) -> list[FileChunkRef]:
        """Every quadruple, file by file: a fresh list, for reading only
        (the tables change through :meth:`add_refs`, :meth:`replace_ref`
        and :meth:`remove_refs`)."""
        return [ref for name, refs in self._files.items() for ref in refs.refs(name)]

    @property
    def count(self) -> int:
        return sum(map(len, self._files.values()))

    def file(self, filename: str) -> FileRefs:
        """*filename*'s quadruples as columns (:class:`UnknownFileError`
        without it)."""
        try:
            return self._files[filename]
        except KeyError:
            raise UnknownFileError(
                f"client {self.name!r} has no file {filename!r}"
            ) from None

    def refs_for_file(self, filename: str) -> list[FileChunkRef]:
        return self.file(filename).refs(filename)

    def ref_for_chunk(self, filename: str, serial: int) -> FileChunkRef:
        # Distinguish "no such file" from "no such serial".
        refs = self.file(filename)
        at = refs.find(serial)
        if at < 0:
            raise UnknownChunkError(
                f"file {filename!r} of client {self.name!r} has no chunk {serial}"
            )
        return _REF((filename, serial, _LEVELS[refs.levels.item(at)], refs.chunks.item(at)))

    def has_file(self, filename: str) -> bool:
        return filename in self._files

    def filenames(self) -> list[str]:
        return list(self._files)

    def add_file(self, filename: str, serials: list[int], level: PrivacyLevel,
                 chunks: "Sequence[int]") -> None:
        """Table a new file's quadruples, *serials* ascending, all at
        *level*: an upload's, in one pass.  A filename already tabled
        raises ``ValueError``."""
        if filename in self._files:
            raise ValueError(
                f"client {self.name!r} already tables chunk {serials[0]} of {filename!r}"
            )
        self._files[filename] = FileRefs(serials, chunks, [int(level)] * len(serials))

    def add_refs(self, refs: Iterable[FileChunkRef]) -> None:
        """Table *refs*, all or none: a (filename, serial) already tabled
        raises ``ValueError``.  A new file goes after the stored ones; a
        serial below its file's last one (journal recovery re-adding a
        chunk) is sorted into place.  Each file's refs are tabled in one
        pass, whatever their number."""
        staged: dict[str, FileRefs] = {}
        files = self._files
        for filename, run in itertools.groupby(refs, _FILENAME):
            # Column by column, each one C loop: no call and no object a ref.
            run = list(run)
            serials = list(map(_SERIAL, run))
            levels = list(map(_LEVEL, run))
            chunks = list(map(_CHUNK, run))
            old = staged[filename] if filename in staged else (
                files[filename] if filename in files else None
            )
            if old is not None:
                serials = old.serials.tolist() + serials
                levels = old.levels.tolist() + levels
                chunks = old.chunks.tolist() + chunks
            ordered = sorted(set(serials))
            if ordered != serials:
                if len(ordered) < len(serials):
                    twice = next(s for at, s in enumerate(serials) if s in serials[:at])
                    raise ValueError(
                        f"client {self.name!r} already tables chunk {twice} of "
                        f"{filename!r}"
                    )
                order = sorted(range(len(serials)), key=serials.__getitem__)
                serials, levels, chunks = (
                    [column[i] for i in order] for column in (serials, levels, chunks)
                )
            if not (-1 << 31 <= ordered[0] and ordered[-1] < 1 << 31):
                raise ValueError(f"a serial of {filename!r} is out of range")
            staged[filename] = FileRefs(serials, chunks, levels)
        files.update(staged)

    def replace_ref(self, ref: FileChunkRef) -> None:
        """Table *ref* in place of the quadruple with its filename and
        serial (which must exist: the two errors of :meth:`ref_for_chunk`)."""
        refs = self.file(ref.filename)
        at = refs.find(ref.serial)
        if at < 0:
            self.ref_for_chunk(ref.filename, ref.serial)  # raises
        refs.chunks[at], refs.levels[at] = ref.chunk_index, ref.privacy_level

    def remove_refs(self, refs: Iterable[FileChunkRef]) -> None:
        """Untable *refs*, all or none; one that is not tabled raises
        ``ValueError``.  A file's name goes with its last quadruple."""
        doomed: dict[str, set[int]] = {}
        for ref in refs:
            held = self._files.get(ref.filename)
            at = -1 if held is None else held.find(ref.serial)
            if at < 0 or (
                held.levels.item(at), held.chunks.item(at)
            ) != (ref.privacy_level, ref.chunk_index) or at in doomed.get(ref.filename, ()):
                raise ValueError(f"client {self.name!r} does not table {ref!r}")
            doomed.setdefault(ref.filename, set()).add(at)
        for filename, positions in doomed.items():
            held = self._files[filename]
            if len(positions) == len(held):
                del self._files[filename]
                continue
            kept = np.ones(len(held), bool)
            kept[list(positions)] = False
            self._files[filename] = FileRefs(
                held.serials[kept], held.chunks[kept], held.levels[kept]
            )


class ClientTable:
    """Registry of client metadata (Table II), keyed by client name."""

    def __init__(self) -> None:
        self._entries: dict[str, ClientEntry] = {}

    def add(self, name: str) -> ClientEntry:
        if name in self._entries:
            raise ValueError(f"client {name!r} already tabled")
        entry = ClientEntry(name=name)
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> ClientEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownClientError(f"no client named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ClientEntry]:
        return iter(self._entries.values())

    def export_state(self) -> dict:
        """Serializable snapshot for replication/persistence."""
        return {
            name: (
                [int(pl) for pl in e.password_levels],
                [
                    (filename, serial, level, chunk)
                    for filename, refs in e._files.items()
                    for serial, level, chunk in zip(
                        refs.serials.tolist(), refs.levels.tolist(),
                        refs.chunks.tolist(),
                    )
                ],
            )
            for name, e in self._entries.items()
        }

    def import_state(self, state: dict) -> None:
        entries: dict[str, ClientEntry] = {}
        for name, (levels, refs) in state.items():
            entry = entries[name] = ClientEntry(
                name=name,
                password_levels=[PrivacyLevel.coerce(pl) for pl in levels],
            )
            entry.add_refs(
                FileChunkRef(
                    filename=f,
                    serial=int(sl),
                    privacy_level=PrivacyLevel.coerce(pl),
                    chunk_index=int(idx),
                )
                for f, sl, pl, idx in refs
            )
        self._entries = entries

    def rows(self, ref_preview: int = 2) -> list[list[object]]:
        """Render rows shaped like the paper's Table II."""
        out: list[list[object]] = []
        for entry in self:
            pls = ", ".join(f"(****, {int(pl)})" for pl in entry.password_levels)
            refs = entry.chunk_refs
            quad = "; ".join(
                f"({r.filename}, {r.serial}, {int(r.privacy_level)}, {r.chunk_index})"
                for r in refs[:ref_preview]
            )
            if len(refs) > ref_preview:
                quad += "; ..."
            out.append([entry.name, pls, len(refs), quad])
        return out
