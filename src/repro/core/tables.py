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
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.core.errors import (
    MetadataCorruptedError,
    UnknownChunkError,
    UnknownClientError,
    UnknownFileError,
)
from repro.core.misleading import position_row
from repro.core.privacy import CostLevel, PrivacyLevel


# ---------------------------------------------------------------------------
# Table I — Cloud Provider Table
# ---------------------------------------------------------------------------


@dataclass
class ProviderEntry:
    """One row of the Cloud Provider Table.

    ``name``/``privacy_level``/``cost_level`` are the provider's identity
    and trust/price buckets; ``virtual_ids`` is "the list of ids
    corresponding to the chunks given to this provider" and ``count`` is
    its length (kept explicit to match Table I).
    """

    name: str
    privacy_level: PrivacyLevel
    cost_level: CostLevel
    virtual_ids: set[str] = field(default_factory=set)

    @property
    def count(self) -> int:
        return len(self.virtual_ids)


class CloudProviderTable:
    """Index-addressable registry of providers (Table I)."""

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

    def index_of(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no provider named {name!r}") from None

    def record_store(self, index: int, key: str) -> None:
        """Note that object *key* now lives at provider *index*."""
        self.get(index).virtual_ids.add(key)

    def record_remove(self, index: int, key: str) -> None:
        self.get(index).virtual_ids.discard(key)

    def indices(self) -> list[int]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[int, ProviderEntry]]:
        return iter(sorted(self._entries.items()))

    def export_state(self) -> dict:
        """Serializable snapshot for replication/persistence."""
        return {
            "next_index": self._next_index,
            "entries": {
                index: (
                    e.name,
                    int(e.privacy_level),
                    int(e.cost_level),
                    sorted(e.virtual_ids),
                )
                for index, e in self._entries.items()
            },
        }

    def import_state(self, state: dict) -> None:
        self._entries = {
            int(index): ProviderEntry(
                name=name,
                privacy_level=PrivacyLevel.coerce(pl),
                cost_level=CostLevel.coerce(cl),
                virtual_ids=set(vids),
            )
            for index, (name, pl, cl, vids) in state["entries"].items()
        }
        self._by_name = {e.name: i for i, e in self._entries.items()}
        self._next_index = int(state["next_index"])

    def rows(self, id_preview: int = 1) -> list[list[object]]:
        """Render rows shaped like the paper's Table I."""
        out: list[list[object]] = []
        for _, entry in self:
            ids = sorted(entry.virtual_ids)
            preview = ", ".join(str(v) for v in ids[:id_preview])
            suffix = ", ..." if len(ids) > id_preview else ""
            out.append(
                [
                    entry.name,
                    int(entry.privacy_level),
                    int(entry.cost_level),
                    entry.count,
                    "{" + preview + suffix + "}",
                ]
            )
        return out


# ---------------------------------------------------------------------------
# Table III — Chunk Table (defined before the Client Table so the latter can
# reference chunk indices)
# ---------------------------------------------------------------------------


@dataclass
class ChunkEntry:
    """One row of the Chunk Table.

    ``virtual_id`` is the provider-facing key; ``privacy_level`` the chunk's
    sensitivity; ``provider_indices`` the Cloud Provider Table indices of
    the stripe members currently storing the chunk (the paper shows one
    ``CP index`` -- with RAID striping a chunk's stripe may span several
    providers, so we keep the full list with the primary first);
    ``snapshot_index`` the provider holding the pre-modification snapshot
    (``None`` -> the paper's ``NA``); ``misleading_positions`` the ``M``
    column, held as one :func:`~repro.core.misleading.position_row`
    whatever sequence the entry was built from (a list of ints is its
    form in exported state only).  Positions that cannot make a row raise
    :class:`MetadataCorruptedError`.
    """

    virtual_id: int
    privacy_level: PrivacyLevel
    provider_indices: list[int]
    snapshot_index: int | None = None
    misleading_positions: np.ndarray = ()

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
            and np.array_equal(
                self.misleading_positions, other.misleading_positions
            )
        )

    @property
    def provider_index(self) -> int:
        """Primary provider index (the paper's ``CP index`` column)."""
        return self.provider_indices[0]


class ChunkTable:
    """Index-addressable registry of chunk metadata (Table III)."""

    def __init__(self) -> None:
        self._entries: dict[int, ChunkEntry] = {}
        self._by_vid: dict[int, int] = {}
        self._next_index = 0

    def add(self, entry: ChunkEntry) -> int:
        if entry.virtual_id in self._by_vid:
            raise ValueError(f"virtual id {entry.virtual_id} already tabled")
        if not entry.provider_indices:
            raise ValueError("chunk entry needs at least one provider index")
        index = self._next_index
        self._next_index += 1
        self._entries[index] = entry
        self._by_vid[entry.virtual_id] = index
        return index

    def get(self, index: int) -> ChunkEntry:
        try:
            return self._entries[index]
        except KeyError:
            raise UnknownChunkError(f"no chunk at table index {index}") from None

    def by_virtual_id(self, vid: int) -> ChunkEntry:
        try:
            return self._entries[self._by_vid[vid]]
        except KeyError:
            raise UnknownChunkError(f"no chunk with virtual id {vid}") from None

    def remove(self, index: int) -> ChunkEntry:
        entry = self.get(index)
        del self._entries[index]
        del self._by_vid[entry.virtual_id]
        return entry

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

    def import_state(self, state: dict) -> None:
        self._entries = {
            int(index): ChunkEntry(
                virtual_id=int(vid),
                privacy_level=PrivacyLevel.coerce(pl),
                provider_indices=list(cps),
                snapshot_index=sp,
                misleading_positions=m,
            )
            for index, (vid, pl, cps, sp, m) in state["entries"].items()
        }
        self._by_vid = {e.virtual_id: i for i, e in self._entries.items()}
        self._next_index = int(state["next_index"])

    def rows(self, m_preview: int = 2) -> list[list[object]]:
        """Render rows shaped like the paper's Table III."""
        out: list[list[object]] = []
        for _, e in self:
            if len(e.misleading_positions):
                mm = ", ".join(map(str, e.misleading_positions[:m_preview]))
                m_cell = "{" + mm + (", ...}" if len(e.misleading_positions) > m_preview else "}")
            else:
                m_cell = "NA"
            out.append(
                [
                    e.virtual_id,
                    int(e.privacy_level),
                    e.provider_index,
                    "NA" if e.snapshot_index is None else e.snapshot_index,
                    m_cell,
                ]
            )
        return out


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
