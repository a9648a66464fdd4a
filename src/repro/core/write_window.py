"""One window of the write engine, as columns (Sections IV-A and VI).

Every write -- an upload, a streamed upload, an update, a fleet import --
goes through one engine (``CloudDataDistributor._write_windows``): a
window of chunks is planned under the op lock, its shards move lock-free,
and its rows are tabled.  A :class:`WriteWindow` is what the plan hands
the later stages, the write-side twin of the read engine's
:class:`~repro.core.tables.ChunkWindow`: columns, so each stage is a few
passes over lists and no loop over per-chunk objects.  A
:class:`FailedChunk` is the one per-chunk view a window makes, and only
for a chunk whose put failed: what write failover works on.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.core.errors import ProviderError
from repro.core.privacy import PrivacyLevel
from repro.core.virtual_id import snapshot_key
from repro.raid.codecs import ChunkState
from repro.raid.striping import StripeMeta


@dataclass(slots=True)
class WriteWindow:
    """A window of chunks, planned before any bytes move.

    Row by row (a chunk a row, in serial order): ``serials``, ``vids``,
    ``widths`` (the row's shard count), ``stripes``, ``rotations`` and,
    for an update, ``snapshots`` -- each ``(provider, pre-state)``, one
    more object of the write set.  Shard slot by shard slot, row after
    row, in member order: the ``shards``, the provider each is assigned
    to (``names``), their ``keys``, formatted once for the journal, the
    transfer and the commit, and the ``digests`` the transfer computes --
    the value every later stage uses (the provider records it, the wire
    compares its echo with it), so a shard is hashed once per process on
    its way in.  The ``M`` column is ``positions``: a 2-D ``uint32`` array
    a run of rows, one row of positions a chunk
    (:func:`~repro.core.misleading.inject_runs`'s).  ``moved`` collects
    the ``(provider, key)`` of each shard write failover re-homed, for the
    journal.  The commit drops ``shards``, so a committed window's bytes
    do not outlive it.
    """

    level: PrivacyLevel
    serials: list[int]
    vids: list[int]
    widths: list[int]
    stripes: list[StripeMeta]
    rotations: list[int]
    positions: list[np.ndarray]
    shards: list[bytes]
    names: list[str]
    keys: list[str]
    snapshots: "list[tuple[str, bytes]] | None" = None
    digests: list[bytes] = field(default_factory=list)
    moved: list[tuple[str, str]] = field(default_factory=list)

    def writes(self) -> list[tuple[str, str]]:
        """Every ``(provider, key)`` the window stores: row by row, its
        shards, then its snapshot."""
        pairs = list(zip(self.names, self.keys))
        if self.snapshots is None:
            return pairs
        rows: list[tuple[str, str]] = []
        at = 0
        for vid, width, (home, _) in zip(self.vids, self.widths, self.snapshots):
            rows += pairs[at : at + width]
            rows.append((home, snapshot_key(vid)))
            at += width
        return rows

    def extend(self, other: "WriteWindow") -> None:
        """Append *other*'s rows (an update is planned a run of one codec
        at a time)."""
        for column in (
            "serials", "vids", "widths", "stripes", "rotations", "positions",
            "shards", "names", "keys", "snapshots",
        ):
            getattr(self, column).extend(getattr(other, column))

    def failures(self, refused: "dict[int, ProviderError]") -> "list[FailedChunk]":
        """A :class:`FailedChunk` for each row a slot of *refused* belongs
        to, in the order their first refusals came.  *refused* maps a slot
        -- a shard slot, or past them one snapshot slot a row -- to its
        error, in the order the refusals came."""
        starts = list(itertools.accumulate(self.widths, initial=0))
        rows: dict[int, FailedChunk] = {}
        for slot, exc in refused.items():
            shard = slot < starts[-1]
            row = bisect.bisect_right(starts, slot) - 1 if shard else slot - starts[-1]
            first, stop = starts[row], starts[row + 1]
            if row not in rows:
                rows[row] = FailedChunk(
                    first, self.vids[row], self.level,
                    ChunkState(
                        self.stripes[row], self.rotations[row],
                        tuple(self.digests[first:stop]),
                    ),
                    self.shards[first:stop], self.names[first:stop],
                    None if self.snapshots is None else self.snapshots[row], exc,
                )
            rows[row].failed.append(slot - first if shard else stop - first)
        for chunk in rows.values():
            chunk.failed.sort()
        return list(rows.values())

    def rehome(self, failed: "list[FailedChunk]") -> None:
        """Take back failover's homes for the *failed* rows: into ``names``,
        and each shard that changed provider into ``moved``, row by row."""
        names, keys = self.names, self.keys
        for chunk in sorted(failed, key=attrgetter("first")):
            first = chunk.first
            self.moved += [
                (name, keys[first + index])
                for index, name in enumerate(chunk.assigned)
                if name != names[first + index]
            ]
            names[first : first + len(chunk.assigned)] = chunk.assigned


@dataclass(slots=True)
class FailedChunk:
    """A row of a window whose put failed, as the one chunk write failover
    works on.

    ``failed`` lists, sorted, the shard indices that did not land anywhere
    (``len(assigned)`` for the snapshot) and ``first_error`` is the first
    refusal.  Failover updates ``assigned`` in place; the window takes it
    back from the chunk's ``first`` shard slot (:meth:`WriteWindow.rehome`).
    """

    first: int
    vid: int
    level: PrivacyLevel
    state: ChunkState
    shards: list[bytes]
    assigned: list[str]
    snapshot: "tuple[str, bytes] | None"
    first_error: ProviderError
    failed: list[int] = field(default_factory=list)
