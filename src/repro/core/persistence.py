"""Distributor metadata persistence.

The distributor's metadata (the three tables, hashed credentials, stripe
geometry) is the only state that lives outside the providers; losing it
orphans every chunk.  This module owns the shape of that document: its
six keys (:func:`export_metadata` / :func:`import_metadata`, behind the
:class:`CloudDataDistributor` methods of the same names) and the JSON file
-- with integrity checksums -- a distributor restarts, or a secondary
bootstraps, from.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core.access_control import AccessController
from repro.core.distributor import CloudDataDistributor
from repro.core.errors import MetadataCorruptedError
from repro.core.tables import ChunkTable, ClientTable, CloudProviderTable
from repro.util.atomic import atomic_write_text

FORMAT_VERSION = 1


def export_metadata(distributor: CloudDataDistributor) -> dict:
    """The snapshot :meth:`CloudDataDistributor.export_metadata` returns."""
    with distributor.op_lock:
        return {
            "access": distributor.access.export_state(),
            "provider_table": distributor.provider_table.export_state(
                distributor.chunk_table.provider_keys()
            ),
            "client_table": distributor.client_table.export_state(),
            "chunk_table": distributor.chunk_table.export_state(),
            "ids": distributor.ids.export_state(),
            # In memory a stripe record rides its Chunk Table row; here it
            # is a column of its own, keyed by virtual id.
            "chunk_state": distributor.chunk_table.export_records(),
        }


def import_metadata(distributor: CloudDataDistributor, snapshot: dict) -> None:
    """Replace *distributor*'s metadata with an exported snapshot.

    Every section is parsed and checked into a fresh object before any is
    replaced, so a refused snapshot (:class:`MetadataCorruptedError`, naming
    its section) leaves the distributor serving what it had.  A codec this
    build cannot parse (a newer build's, or corruption) quarantines the one
    chunk rather than failing the load.  Provider id lists are checked
    against the rows, not loaded.  A ``chunk_state`` row no chunk row names,
    or a listed key no row places, is dropped with a warning, since builds
    that leaked such rows and keys wrote such files.
    """
    with distributor.op_lock:
        provider_table = CloudProviderTable()
        listed = provider_table.import_state(snapshot.get("provider_table"))
        chunk_table = ChunkTable()
        orphans = chunk_table.import_state(
            snapshot.get("chunk_table"), snapshot.get("chunk_state"), provider_table
        )
        dropped = _unplaced_keys(provider_table, listed, chunk_table)
        client_table = ClientTable()
        access = AccessController(metrics=distributor.metrics)
        section = "client table"
        try:
            client_table.import_state(snapshot.get("client_table"))
            section = "access"
            access.import_state(snapshot.get("access"))
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise MetadataCorruptedError(f"{section}: {exc}") from None
        # The allocator keeps its draw stream: refilled, not replaced, and
        # checked whole first -- the last step that may refuse.  A tabled id
        # the document's set lacks is reserved: a commit tables the ids the
        # allocator draws without looking them up again.
        distributor.ids.import_state(snapshot.get("ids"))
        for vid in chunk_table.tabled_vids():
            if vid not in distributor.ids:
                distributor.ids.reserve(vid)
        if distributor.cache is not None:
            # Chunks may have been updated at the snapshot's source; a
            # stale local cache must not outlive the old metadata.
            distributor.cache.clear()
        distributor.access = access
        distributor.provider_table = provider_table
        distributor.client_table = client_table
        distributor.chunk_table = chunk_table
        if orphans:
            distributor.events.emit(
                "chunk_state_orphans_dropped", level="warning", vids=orphans
            )
        if dropped:
            distributor.events.emit("provider_keys_dropped", level="warning", keys=dropped)
        for _, entry in chunk_table:
            if entry.quarantined:
                distributor.metrics.counter("distributor_codec_quarantined_total").inc()
                distributor.events.emit(
                    "codec_quarantined", level="warning",
                    vid=entry.virtual_id, spec=str(entry.packed.codec),
                )


def _unplaced_keys(
    provider_table: CloudProviderTable, listed: dict, chunk_table: ChunkTable
) -> dict[str, list[str]]:
    """The keys each provider lists that no chunk row places there, sorted,
    by provider name; a key a row places that its provider does not list
    refuses the snapshot."""
    placed, unplaced = chunk_table.provider_keys(), {}
    for index, entry in provider_table:
        stated, keys = set(listed[index]), placed.get(index, [])
        if missing := [key for key in keys if key not in stated]:
            raise MetadataCorruptedError(
                f"provider table: {entry.name!r} does not list {missing[0]!r}, "
                f"which a chunk row places there"
            )
        if unlisted := stated.difference(keys):
            unplaced[entry.name] = sorted(unlisted)
    return unplaced


def _canonical(snapshot) -> str:
    """Canonical JSON text of a snapshot, stable across save/load.

    A round-trip through JSON first so int dict keys become strings (as
    they will be after loading) before sorted serialization -- otherwise
    key order differs between the in-memory and reloaded forms.
    """
    return json.dumps(json.loads(json.dumps(snapshot)), sort_keys=True)


def save_metadata(distributor: CloudDataDistributor, path: str | Path) -> None:
    """Atomically and durably write the distributor's metadata to *path*.

    Routed through :func:`repro.util.atomic.atomic_write_text`: the
    snapshot is fsynced before the rename and the directory entry after
    it, so a power cut leaves either the previous snapshot or the new one
    -- never an empty or torn file under the final name.
    """
    snapshot = distributor.export_metadata()
    digest = hashlib.sha256(_canonical(snapshot).encode("utf-8")).hexdigest()
    document = {"version": FORMAT_VERSION, "sha256": digest, "metadata": snapshot}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, json.dumps(document, sort_keys=True))


def load_metadata(distributor: CloudDataDistributor, path: str | Path) -> None:
    """Restore a distributor's metadata from a file written by
    :func:`save_metadata`.

    Verifies the integrity checksum and format version.  (JSON stringified
    the int keys of the tables; their ``import_state`` takes them back.)
    """
    try:
        document = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # Truncated or garbage file: surface it as corruption, not as a
        # parser traceback -- the operator's next stop is the .tmp/backup.
        raise MetadataCorruptedError(
            f"metadata file {path} is not valid JSON (truncated?): {exc}"
        ) from exc
    if not isinstance(document, dict):
        raise MetadataCorruptedError(
            f"metadata file {path} does not hold a JSON object"
        )
    if document.get("version") != FORMAT_VERSION:
        raise MetadataCorruptedError(
            f"unsupported metadata format version {document.get('version')!r}"
        )
    snapshot = document["metadata"]
    digest = hashlib.sha256(_canonical(snapshot).encode("utf-8")).hexdigest()
    if digest != document.get("sha256"):
        raise MetadataCorruptedError(f"metadata checksum mismatch in {path}")
    distributor.import_metadata(snapshot)
