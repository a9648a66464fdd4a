"""The distributor's three metadata tables (Tables I, II, III).

"To perform distribution and retrieval of data (chunks), the Cloud Data
Distributor needs to maintain information regarding providers, clients and
chunks.  Hence, it maintains three types of tables describing the providers,
the clients and the chunks."

Entries cross-reference each other by *table index*, exactly as the paper's
application-architecture walk-through does: Client Table row -> Chunk Table
index -> Cloud Provider Table index -> provider.  Indices are stable for
the lifetime of an entry (removals leave holes rather than renumbering).
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.core.errors import (
    MetadataCorruptedError,
    UnknownChunkError,
    UnknownClientError,
    UnknownCodecError,
    UnknownFileError,
)
from repro.core.misleading import position_row
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.core.virtual_id import shard_key, snapshot_key
from repro.raid.codecs import ChunkState, PackedChunk


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
                if not 0 <= index < next_index:
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


@dataclass
class ChunkEntry:
    """One row of the Chunk Table: everything the distributor knows of a
    chunk.

    ``virtual_id`` is the provider-facing key; ``privacy_level`` the chunk's
    sensitivity; ``provider_indices`` the Cloud Provider Table indices of
    the stripe members currently storing the chunk (the paper shows one
    ``CP index`` -- with RAID striping a chunk's stripe may span several
    providers, so we keep the full list with the primary first);
    ``snapshot_index`` the provider holding the pre-modification snapshot
    (``None`` -> the paper's ``NA``) -- once tabled, these two change only
    through the table, which counts them; ``misleading_positions`` the ``M``
    column, held as one :func:`~repro.core.misleading.position_row`
    whatever sequence the entry was built from (a list of ints is its
    form in exported state only).  Positions that cannot make a row raise
    :class:`MetadataCorruptedError`.

    ``record`` is ours, not the paper's: the chunk's stripe record, a
    parsed :class:`~repro.raid.codecs.ChunkState` or, under a codec this
    build cannot parse, the packed ``chunk_state`` row exactly as loaded.
    That *is* the unknown-codec quarantine: the row exports those fields
    untouched (a newer build can still read them), answers for its
    geometry through :attr:`packed`, and refuses :meth:`state`.
    """

    virtual_id: int
    privacy_level: PrivacyLevel
    provider_indices: list[int]
    snapshot_index: int | None = None
    misleading_positions: np.ndarray = ()
    record: "ChunkState | tuple" = field(kw_only=True)

    def __post_init__(self) -> None:
        try:
            self.misleading_positions = position_row(self.misleading_positions)
        except ValueError as exc:
            raise MetadataCorruptedError(
                f"chunk {self.virtual_id}: {exc}"
            ) from None

    def __eq__(self, other: object) -> bool:
        # The generated one would compare the rows with ==, and an array
        # has no single truth value to answer with.
        if not isinstance(other, ChunkEntry):
            return NotImplemented
        return (
            self.virtual_id == other.virtual_id
            and self.privacy_level == other.privacy_level
            and self.provider_indices == other.provider_indices
            and self.snapshot_index == other.snapshot_index
            and self.record == other.record
            and np.array_equal(
                self.misleading_positions, other.misleading_positions
            )
        )

    @property
    def provider_index(self) -> int:
        """Primary provider index (the paper's ``CP index`` column)."""
        return self.provider_indices[0]

    @property
    def quarantined(self) -> bool:
        """Does the stripe record name a codec this build cannot parse?"""
        return not isinstance(self.record, ChunkState)

    @property
    def packed(self) -> PackedChunk:
        """The stripe record as a packed row, parsed or not: a journal
        spec carries it; exposure and quotas ask it for geometry."""
        if self.quarantined:
            return PackedChunk(*self.record)
        return PackedChunk.pack(self.record)

    def state(self, filename: str | None = None) -> ChunkState:
        """The parsed stripe record; a quarantined row raises
        :class:`UnknownCodecError` (carrying *filename*)."""
        record = self.record
        if isinstance(record, ChunkState):  # (no property call: the read path)
            return record
        label = self.packed.codec
        raise UnknownCodecError(
            f"chunk {self.virtual_id} uses codec {label!r} "
            f"unknown to this build; quarantined at metadata load",
            spec=str(label),
            filename=filename,
            virtual_id=self.virtual_id,
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
        mid-read; a shard beyond the recorded members is never audited.
        """
        try:
            vid = int(vid)
            try:
                record = PackedChunk(*packed).unpack()
            except UnknownCodecError:
                record = tuple(packed)
            entry = cls(
                vid, PrivacyLevel.coerce(level), [int(i) for i in members],
                None if snapshot is None else int(snapshot), positions,
                record=record,
            )
            for index in (*entry.provider_indices, entry.snapshot_index):
                if index is not None:
                    provider_table.get(index)
        except KeyError as exc:
            raise MetadataCorruptedError(f"chunk {vid}: {exc.args[0]}") from None
        except (TypeError, ValueError) as exc:
            raise MetadataCorruptedError(f"chunk {vid}: {exc}") from None
        if entry.quarantined:
            return entry
        stripe, checksums = record.stripe, record.shard_checksums
        n = stripe.n
        # A row is unsigned integers by construction (__post_init__).
        positions = entry.misleading_positions
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
        elif len(entry.provider_indices) != n:
            problem = f"{len(entry.provider_indices)} providers for a stripe of {n}"
        if problem is not None:
            raise MetadataCorruptedError(f"chunk {vid}: {problem}")
        return entry


class ChunkTable:
    """Index-addressable registry of chunk metadata (Table III), and the
    one record of where each shard and snapshot lives.  Beside the rows it
    keeps Table I's Count column per provider index (:meth:`load`), which
    every change of a row's placement updates: no reader recounts."""

    def __init__(self) -> None:
        self._entries: dict[int, ChunkEntry] = {}
        self._by_vid: dict[int, int] = {}
        self._next_index = 0
        self._loads: defaultdict[int, int] = defaultdict(int)

    def add(self, entry: ChunkEntry) -> int:
        """Table *entry*; returns its index (:meth:`add_many` of one)."""
        return self.add_many([entry])[0]

    def add_many(self, entries: list[ChunkEntry]) -> range:
        """Table *entries*, all or none, at consecutive indices; returns
        them.  A virtual id tabled already (or twice in *entries*), or a
        row with no provider index, raises ``ValueError``."""
        by_vid, rows = self._by_vid, self._entries
        start = index = self._next_index
        try:
            for entry in entries:
                if entry.virtual_id in by_vid:
                    raise ValueError(f"virtual id {entry.virtual_id} already tabled")
                if not entry.provider_indices:
                    raise ValueError("chunk entry needs at least one provider index")
                rows[index] = entry
                by_vid[entry.virtual_id] = index
                index += 1
        except ValueError:
            for tabled in range(start, index):
                del by_vid[rows.pop(tabled).virtual_id]
            raise
        self._next_index = index
        self._count(entries, 1)
        return range(start, index)

    def _count(self, entries: Iterable[ChunkEntry], step: int) -> None:
        """Add *step* to the load of each provider index *entries* place a
        shard or a snapshot at: a window of rows in one call."""
        loads = self._loads
        for entry in entries:
            for provider in entry.provider_indices:
                loads[provider] += step
            if entry.snapshot_index is not None:
                loads[entry.snapshot_index] += step

    def get(self, index: int) -> ChunkEntry:
        try:
            return self._entries[index]
        except KeyError:
            raise UnknownChunkError(f"no chunk at table index {index}") from None

    def find_index(self, vid: int) -> int | None:
        """The table index of virtual id *vid*'s row; ``None`` without one."""
        return self._by_vid.get(vid)

    def remove(self, index: int) -> ChunkEntry:
        entry = self.get(index)
        del self._entries[index]
        del self._by_vid[entry.virtual_id]
        self._count((entry,), -1)
        return entry

    def move_shard(self, entry: ChunkEntry, shard_index: int, provider: int) -> None:
        """Place shard *shard_index* of the tabled row *entry* at provider
        index *provider*: the only change of a row's CP column."""
        members = entry.provider_indices
        self._loads[members[shard_index]] -= 1
        self._loads[provider] += 1
        members[shard_index] = provider

    def set_snapshot(self, entry: ChunkEntry, provider: int) -> None:
        """Place the tabled row *entry*'s snapshot at provider index
        *provider*: the only change of a row's SP column."""
        if entry.snapshot_index is not None:
            self._loads[entry.snapshot_index] -= 1
        self._loads[provider] += 1
        entry.snapshot_index = provider

    def load(self, provider: int) -> int:
        """How many shards and snapshots the rows place at provider index
        *provider*: Table I's Count column, kept, not recounted."""
        return self._loads.get(provider, 0)

    def provider_keys(self) -> dict[int, list[str]]:
        """Table I's id lists: each provider index's shard and snapshot
        keys, sorted, from one pass over the rows."""
        keys: defaultdict[int, list[str]] = defaultdict(list)
        for e in self._entries.values():
            vid = e.virtual_id
            for shard_index, provider in enumerate(e.provider_indices):
                keys[provider].append(shard_key(vid, shard_index))
            if e.snapshot_index is not None:
                keys[e.snapshot_index].append(snapshot_key(vid))
        return {provider: sorted(listed) for provider, listed in keys.items()}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[int, ChunkEntry]]:
        return iter(sorted(self._entries.items()))

    def export_state(self) -> dict:
        """Serializable snapshot for replication/persistence."""
        return {
            "next_index": self._next_index,
            "entries": {
                index: (
                    e.virtual_id,
                    int(e.privacy_level),
                    list(e.provider_indices),
                    e.snapshot_index,
                    e.misleading_positions.tolist(),
                )
                for index, e in self._entries.items()
            },
        }

    def export_records(self) -> dict:
        """``metadata.json``'s ``chunk_state``: virtual id -> packed stripe
        record, a quarantined one with its fields as loaded."""
        return {
            e.virtual_id: tuple(e.record if e.quarantined else e.packed)
            for e in self._entries.values()
        }

    def import_state(
        self, state: dict, records: dict, provider_table: CloudProviderTable
    ) -> list[int]:
        """Rebuild from :meth:`export_state` and :meth:`export_records`
        output together, each row through :meth:`ChunkEntry.load`; a refusal
        leaves the table as it was.  The only code that pairs a chunk row
        with its ``chunk_state`` row: a chunk row without one is refused;
        ``chunk_state`` rows no chunk row names are left out, their virtual
        ids returned."""
        entries: dict[int, ChunkEntry] = {}
        try:
            records = {int(vid): packed for vid, packed in records.items()}
            for index, (vid, pl, cps, sp, m) in state["entries"].items():
                if (vid := int(vid)) not in records:
                    raise MetadataCorruptedError(f"chunk {vid}: no chunk_state row")
                entries[int(index)] = ChunkEntry.load(
                    vid, pl, cps, sp, m, records[vid], provider_table
                )
            next_index = int(state["next_index"])
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise MetadataCorruptedError(f"chunk table: {exc}") from None
        self._entries = entries
        self._by_vid = {e.virtual_id: i for i, e in entries.items()}
        self._next_index = next_index
        self._loads = defaultdict(int)
        self._count(entries.values(), 1)
        return sorted(records.keys() - self._by_vid.keys())

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


# ---------------------------------------------------------------------------
# Table II — Client Table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FileChunkRef:
    """One (filename, sl, PL, chunk-table-index) quadruple from Table II."""

    filename: str
    serial: int
    privacy_level: PrivacyLevel
    chunk_index: int


_FILENAME = operator.attrgetter("filename")


@dataclass
class ClientEntry:
    """One row of the Client Table.

    Passwords live in :class:`repro.core.access_control.AccessController`
    (hashed); this entry records the password *levels* for rendering plus
    the client's chunk quadruples, held by name -- filename -> serial ->
    quadruple, files in first-stored order and a file's serials ascending
    -- so that finding a file costs the same whatever else the client
    stores.  :attr:`chunk_refs` is the flat Table II view of them.
    """

    name: str
    password_levels: list[PrivacyLevel] = field(default_factory=list)
    _files: dict[str, dict[int, FileChunkRef]] = field(
        default_factory=dict, repr=False
    )

    @property
    def chunk_refs(self) -> list[FileChunkRef]:
        """Every quadruple, file by file: a fresh list, for reading only
        (the tables change through :meth:`add_refs`, :meth:`replace_ref`
        and :meth:`remove_refs`)."""
        return [ref for refs in self._files.values() for ref in refs.values()]

    @property
    def count(self) -> int:
        return sum(map(len, self._files.values()))

    def _file(self, filename: str) -> dict[int, FileChunkRef]:
        try:
            return self._files[filename]
        except KeyError:
            raise UnknownFileError(
                f"client {self.name!r} has no file {filename!r}"
            ) from None

    def refs_for_file(self, filename: str) -> list[FileChunkRef]:
        return list(self._file(filename).values())

    def ref_for_chunk(self, filename: str, serial: int) -> FileChunkRef:
        # Distinguish "no such file" from "no such serial".
        try:
            return self._file(filename)[serial]
        except KeyError:
            raise UnknownChunkError(
                f"file {filename!r} of client {self.name!r} has no chunk {serial}"
            ) from None

    def has_file(self, filename: str) -> bool:
        return filename in self._files

    def filenames(self) -> list[str]:
        return list(self._files)

    def add_refs(self, refs: Iterable[FileChunkRef]) -> None:
        """Table *refs*, all or none: a (filename, serial) already tabled
        raises ``ValueError``.  A new file goes after the stored ones; a
        serial below its file's last one (journal recovery re-adding a
        chunk) is sorted into place.  A new file's refs with serials
        ascending -- an upload, a loaded table -- are tabled in one pass,
        whatever their number."""
        added: list[FileChunkRef] = []
        for filename, run in itertools.groupby(refs, _FILENAME):
            run = list(run)
            new = {ref.serial: ref for ref in run}
            if (
                filename not in self._files
                and len(new) == len(run)
                and list(new) == sorted(new)
            ):
                self._files[filename] = new
                added += run
                continue
            for ref in run:
                serials = self._files.setdefault(filename, {})
                if ref.serial in serials:
                    self.remove_refs(added)
                    raise ValueError(
                        f"client {self.name!r} already tables chunk "
                        f"{ref.serial} of {filename!r}"
                    )
                in_order = not serials or next(reversed(serials)) < ref.serial
                serials[ref.serial] = ref
                added.append(ref)
                if not in_order:
                    self._files[filename] = dict(sorted(serials.items()))

    def replace_ref(self, ref: FileChunkRef) -> None:
        """Table *ref* in place of the quadruple with its filename and
        serial (which must exist: the two errors of :meth:`ref_for_chunk`)."""
        self.ref_for_chunk(ref.filename, ref.serial)
        self._files[ref.filename][ref.serial] = ref

    def remove_refs(self, refs: Iterable[FileChunkRef]) -> None:
        """Untable *refs*; one that is not tabled raises ``ValueError``.
        A file's name goes with its last quadruple."""
        for ref in refs:
            serials = self._files.get(ref.filename, {})
            if serials.get(ref.serial) != ref:
                raise ValueError(
                    f"client {self.name!r} does not table {ref!r}"
                )
            del serials[ref.serial]
            if not serials:
                del self._files[ref.filename]


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
                    (r.filename, r.serial, int(r.privacy_level), r.chunk_index)
                    for r in e.chunk_refs
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
