"""Write-ahead intent journal for the distributor's mutating ops.

The metadata snapshot (:mod:`repro.core.persistence`) makes the tables
durable *between* operations; this journal makes the operations themselves
crash-consistent.  Before an upload/update/remove moves any bytes, the
distributor appends a fsynced *intent* record naming every provider object
the operation is about to create (and, for removes, the full description of
every chunk it is about to destroy).  After the tables are updated, a
*commit* record carries the table delta.  Startup recovery then resolves
every transaction the previous process left behind:

* **intent without commit** -- the op died mid-flight.  Uploads and the
  staged half of updates are rolled *back*: every object named by the
  intent is deleted, so no shard survives that no table entry remembers.
  Removes are rolled *forward* (shards cannot be un-deleted, so the only
  consistent end state is the delete completed).
* **commit present** -- the op finished but the metadata snapshot on disk
  may predate it.  The commit's delta is re-applied: removed chunks are
  purged from providers and tables, added chunks are re-inserted -- but
  only when enough of their shards actually survive (``>= k``); otherwise
  the remnants are deleted, because resurrecting an unreadable chunk would
  punch a hole in the table.

Records are JSON lines, each flushed and fsynced before the operation
proceeds.  A torn tail line (power cut mid-append) is expected and ignored;
everything before it was durable by construction.  ``checkpoint()`` --
called right after a successful metadata save -- drops resolved
transactions, so the journal stays tiny.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.errors import (
    MetadataCorruptedError,
    ProviderError,
    UnknownChunkError,
    UnknownFileError,
)
from repro.core.tables import ChunkEntry, ClientEntry, FileChunkRef
from repro.core.virtual_id import shard_key, snapshot_key
from repro.raid.codecs import PackedChunk
from repro.util.atomic import atomic_write_bytes, fsync_dir
from repro.util.crash import crashpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.distributor import CloudDataDistributor


@dataclass
class JournalTxn:
    """One journaled operation, assembled from its records."""

    txn: int
    op: str  # "upload" | "update" | "remove"
    client: str
    filename: str | None
    put_keys: list[tuple[str, str]] = field(default_factory=list)
    remove_specs: list[dict] = field(default_factory=list)
    state: str = "open"  # "open" | "committed" | "aborted"
    delta: dict | None = None


class IntentJournal:
    """Append-only, fsynced journal of in-flight distributor operations."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._trim_torn_tail()
        self._next_txn = 1 + max(
            (t.txn for t in self.replay()), default=0
        )

    def _trim_torn_tail(self) -> None:
        """Truncate a torn (newline-less) final record left by a crash.

        Replay already ignores it, but the *next* ``O_APPEND`` write would
        glue its record onto the torn half-line and lose both; trimming at
        open time keeps the file record-aligned forever after.
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return
        if not raw or raw.endswith(b"\n"):
            return
        keep = raw.rfind(b"\n") + 1
        with open(self.path, "rb+") as fh:
            fh.truncate(keep)
            fh.flush()
            os.fsync(fh.fileno())

    # -- appending ---------------------------------------------------------

    def _append(self, record: dict) -> None:
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            created = not self.path.exists()
            fd = os.open(
                str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                # Two writes with a kill point in between model the torn
                # tail a real power cut can leave; replay tolerates it.
                half = len(line) // 2
                os.write(fd, line[:half])
                crashpoint("journal.append.torn")
                os.write(fd, line[half:])
                os.fsync(fd)
            finally:
                os.close(fd)
            if created:
                fsync_dir(self.path.parent)
        crashpoint("journal.appended")

    def begin(
        self,
        op: str,
        client: str,
        filename: str | None,
        *,
        put_keys: list[tuple[str, str]] | None = None,
        remove_specs: list[dict] | None = None,
    ) -> int:
        """Durably record intent; returns the transaction id."""
        with self._lock:
            txn = self._next_txn
            self._next_txn += 1
        self._append(
            {
                "rec": "intent",
                "txn": txn,
                "op": op,
                "client": client,
                "filename": filename,
                "put_keys": [list(pair) for pair in (put_keys or [])],
                "remove": remove_specs or [],
            }
        )
        return txn

    def extend(self, txn: int, put_keys: list[tuple[str, str]]) -> None:
        """Durably add more to-be-written keys to an open transaction."""
        self._append(
            {
                "rec": "extend",
                "txn": txn,
                "put_keys": [list(pair) for pair in put_keys],
            }
        )

    def commit(self, txn: int, delta: dict) -> None:
        """Durably mark *txn* finished, carrying its table delta."""
        self._append({"rec": "commit", "txn": txn, "delta": delta})

    def abort(self, txn: int) -> None:
        """Durably mark *txn* rolled back by the live process."""
        self._append({"rec": "abort", "txn": txn})

    # -- reading -----------------------------------------------------------

    def replay(self) -> list[JournalTxn]:
        """Reassemble every transaction on disk, in append order.

        Unparseable lines are skipped: with per-record fsync only the tail
        can be torn, and a torn record belongs to an operation that never
        proceeded past it.
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return []
        txns: dict[int, JournalTxn] = {}
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                kind, txn_id = record["rec"], int(record["txn"])
            except (ValueError, KeyError, TypeError):
                continue  # torn or foreign line
            if kind == "intent":
                txns[txn_id] = JournalTxn(
                    txn=txn_id,
                    op=str(record.get("op", "")),
                    client=str(record.get("client", "")),
                    filename=record.get("filename"),
                    put_keys=[tuple(p) for p in record.get("put_keys", [])],
                    remove_specs=list(record.get("remove", [])),
                )
            elif txn_id in txns:
                txn = txns[txn_id]
                if kind == "extend":
                    txn.put_keys.extend(
                        tuple(p) for p in record.get("put_keys", [])
                    )
                elif kind == "commit":
                    txn.state = "committed"
                    txn.delta = record.get("delta")
                elif kind == "abort":
                    txn.state = "aborted"
        return [txns[t] for t in sorted(txns)]

    def pending(self) -> list[JournalTxn]:
        """Transactions needing recovery (anything not checkpointed away)."""
        return self.replay()

    def checkpoint(self) -> None:
        """Drop resolved transactions; call right after a metadata save.

        Only still-open transactions survive (none, in the single-process
        CLI flow).  The rewrite is atomic and fsynced.
        """
        with self._lock:
            open_txns = [t for t in self.replay() if t.state == "open"]
            lines = []
            for t in open_txns:
                lines.append(
                    json.dumps(
                        {
                            "rec": "intent",
                            "txn": t.txn,
                            "op": t.op,
                            "client": t.client,
                            "filename": t.filename,
                            "put_keys": [list(p) for p in t.put_keys],
                            "remove": t.remove_specs,
                        },
                        sort_keys=True,
                    )
                )
            atomic_write_bytes(
                self.path, ("\n".join(lines) + "\n" if lines else "").encode()
            )


# ---------------------------------------------------------------------------
# startup recovery
# ---------------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What startup recovery did with the journal it found."""

    txns_seen: int = 0
    rolled_back: int = 0
    rolled_forward: int = 0
    objects_deleted: int = 0
    chunks_restored: int = 0
    chunks_dropped: int = 0

    @property
    def acted(self) -> bool:
        return self.txns_seen > 0

    def summary(self) -> str:
        return (
            f"journal recovery: {self.txns_seen} txn(s) -- "
            f"{self.rolled_back} rolled back, {self.rolled_forward} rolled "
            f"forward, {self.objects_deleted} object(s) deleted, "
            f"{self.chunks_restored} chunk(s) restored, "
            f"{self.chunks_dropped} dropped"
        )


def _registered(
    distributor: "CloudDataDistributor", pairs
) -> list[tuple[str, str]]:
    """The ``(provider, key)`` pairs whose provider is still registered;
    what a provider since removed holds is out of reach."""
    return [pair for pair in pairs if pair[0] in distributor.registry]


def _owned(txn: JournalTxn, specs) -> list[dict]:
    """*specs*, each naming the transaction's client and holding what
    recovery reads of a spec without a default -- ``vid`` and ``serial``
    integers, ``filename``, ``stripe``, ``providers`` a list of names --
    or :class:`MetadataCorruptedError`."""
    specs = list(specs)
    for spec in specs:
        spec.setdefault("client", txn.client)
        lacks = {"vid", "filename", "serial", "providers", "stripe"} - spec.keys()
        names = spec.get("providers")
        try:
            if lacks:
                raise ValueError(f"lacks {', '.join(sorted(lacks))}")
            spec["vid"], spec["serial"] = int(spec["vid"]), int(spec["serial"])
            if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
                raise ValueError(f"providers {names!r} are not a list of names")
        except (TypeError, ValueError) as exc:
            raise MetadataCorruptedError(
                f"chunk spec {spec.get('vid', '?')}: {exc}"
            ) from None
    return specs


def _spec_keys(spec: dict) -> list[tuple[str, str]]:
    """Every (provider, key) pair a chunk spec occupies."""
    vid = spec["vid"]
    pairs = [
        (name, shard_key(vid, i)) for i, name in enumerate(spec["providers"])
    ]
    if spec.get("snapshot"):
        pairs.append((spec["snapshot"], snapshot_key(vid)))
    return pairs


def _purge_specs(
    distributor: "CloudDataDistributor",
    specs: list[dict],
    report: RecoveryReport,
) -> None:
    """Roll chunk specs forward out of existence: objects (one batch per
    provider), tables, refs.  A chunk's row is all the tables know of it,
    so nothing of a purged chunk stays behind."""
    doomed = _registered(
        distributor, (pair for spec in specs for pair in _spec_keys(spec))
    )
    report.objects_deleted += distributor._delete_objects(doomed)
    for spec in specs:
        vid = spec["vid"]
        index = distributor.chunk_table.find_index(vid)
        if index is None:
            continue
        distributor.chunk_table.remove(index)
        distributor.ids.release(vid)
        if distributor.cache is not None:
            distributor.cache.invalidate(vid)
        client_entry = _client_of(distributor, spec)
        if client_entry is not None:
            ref = _tabled_ref(client_entry, spec)
            if ref is not None and ref.chunk_index == index:
                client_entry.remove_refs([ref])


def _client_of(distributor: "CloudDataDistributor", spec: dict) -> ClientEntry | None:
    """The Client Table row a spec's chunk belongs to, if one is tabled."""
    clients, name = distributor.client_table, spec.get("client", "")
    return clients.get(name) if name in clients else None


def _tabled_ref(client_entry: ClientEntry, spec: dict) -> FileChunkRef | None:
    """The quadruple tabled under a spec's (filename, serial), if any."""
    try:
        return client_entry.ref_for_chunk(spec["filename"], spec["serial"])
    except (UnknownFileError, UnknownChunkError):
        return None


def _shards_surviving(distributor: "CloudDataDistributor", spec: dict) -> int:
    """How many of a spec's shards demonstrably still exist."""
    vid = spec["vid"]
    present = 0
    for i, name in enumerate(spec["providers"]):
        if name not in distributor.registry:
            continue
        try:
            if distributor.registry.get(name).provider.contains(
                shard_key(vid, i)
            ):
                present += 1
        except ProviderError:
            # Unreachable provider: assume the shard survived; the
            # scrubber rebuilds it later if it did not.
            present += 1
    return present


def _restore_spec(
    distributor: "CloudDataDistributor", spec: dict, report: RecoveryReport
) -> None:
    """Roll a committed chunk spec forward into the tables (if viable),
    its row through the door a row of ``metadata.json`` comes in by: the
    same refusals, the same quarantine of a codec this build cannot parse."""
    vid = spec["vid"]
    provider_table = distributor.provider_table
    if distributor.chunk_table.find_index(vid) is not None:
        return
    try:
        members = [provider_table.index_of(name) for name in spec["providers"]]
        snapshot = provider_table.index_of(spec["snapshot"]) if spec.get("snapshot") else None
        packed = PackedChunk.from_journal(spec)
    except KeyError as exc:  # a provider that is not registered
        raise MetadataCorruptedError(f"chunk {vid}: {exc.args[0]}") from None
    except (TypeError, ValueError) as exc:
        raise MetadataCorruptedError(f"chunk {vid}: {exc}") from None
    entry = ChunkEntry.load(
        vid, spec.get("level"), members, snapshot,
        spec.get("positions", ()), packed, provider_table,
    )
    client_entry = _client_of(distributor, spec)
    # No client row to hang the chunk on: unreachable data.  Too few shards
    # on disk: resurrecting the entry would be a permanent table hole, and
    # the upload never finished from the client's point of view.  Purge.
    if client_entry is None or (
        _shards_surviving(distributor, spec) < int(entry.packed.k)
    ):
        _purge_specs(distributor, [spec], report)
        report.chunks_dropped += 1
        return
    index = distributor.chunk_table.add(entry)
    if vid not in distributor.ids:
        distributor.ids.reserve(vid)
    ref = FileChunkRef(
        filename=spec["filename"],
        serial=spec["serial"],
        privacy_level=entry.privacy_level,
        chunk_index=index,
    )
    if _tabled_ref(client_entry, spec) is not None:
        client_entry.replace_ref(ref)
    else:
        client_entry.add_refs([ref])
    report.chunks_restored += 1


def recover_from_journal(
    distributor: "CloudDataDistributor", journal: IntentJournal
) -> RecoveryReport:
    """Resolve every transaction the previous process left in *journal*.

    Call once at startup, after :func:`~repro.core.persistence.load_metadata`
    (or on a fresh distributor when no snapshot exists).  Idempotent: every
    action is a conditional delete or a presence-checked insert, so running
    recovery twice converges to the same state.  The caller should save the
    metadata snapshot and :meth:`IntentJournal.checkpoint` afterwards.
    """
    report = RecoveryReport()
    with distributor.op_lock:
        for txn in journal.replay():
            report.txns_seen += 1
            try:
                if txn.state == "committed" and txn.delta is not None:
                    _purge_specs(
                        distributor, _owned(txn, txn.delta.get("remove", ())), report
                    )
                    for spec in _owned(txn, txn.delta.get("add", ())):
                        _restore_spec(distributor, spec, report)
                    report.rolled_forward += 1
                    continue
                # Open or aborted: the op never (durably) finished.
                if txn.op == "remove":
                    # Shards cannot be un-deleted; completing the remove
                    # is the only consistent end state.
                    _purge_specs(
                        distributor, _owned(txn, txn.remove_specs), report
                    )
                    report.rolled_forward += 1
                else:
                    report.rolled_back += 1
            except MetadataCorruptedError as exc:
                raise MetadataCorruptedError(
                    f"journal transaction {txn.txn} ({txn.op} of "
                    f"{txn.filename!r}): {exc}"
                ) from exc
            report.objects_deleted += distributor._delete_objects(
                _registered(distributor, txn.put_keys)
            )
            if txn.state == "open":
                # Durably mark the txn resolved, or it would outlive the
                # next checkpoint (which preserves open transactions) and
                # be re-rolled-back on every boot.
                journal.abort(txn.txn)
    if report.acted:
        distributor.metrics.counter(
            "journal_recovery_txns_total"
        ).inc(report.txns_seen)
        distributor.events.emit(
            "journal_recovery",
            rolled_back=report.rolled_back,
            rolled_forward=report.rolled_forward,
            objects_deleted=report.objects_deleted,
        )
    return report
