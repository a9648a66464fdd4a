"""Distributor metadata persistence.

The distributor's metadata (the three tables, hashed credentials, stripe
geometry) is the only state that lives outside the providers; losing it
orphans every chunk.  This module serializes
:meth:`CloudDataDistributor.export_metadata` snapshots to JSON on disk --
with integrity checksums -- so a distributor can restart, or a secondary
can bootstrap, from a file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import MetadataCorruptedError  # noqa: F401 - re-exported
from repro.util.atomic import atomic_write_text

FORMAT_VERSION = 1


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


def _intify_keys(mapping: dict) -> dict:
    return {int(k): v for k, v in mapping.items()}


def load_metadata(distributor: CloudDataDistributor, path: str | Path) -> None:
    """Restore a distributor's metadata from a file written by
    :func:`save_metadata`.

    Verifies the integrity checksum and format version, then rebuilds the
    int-keyed structures JSON stringified.
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

    # JSON stringified the int keys; coerce them back before import.
    snapshot["provider_table"]["entries"] = _intify_keys(
        snapshot["provider_table"]["entries"]
    )
    snapshot["chunk_table"]["entries"] = _intify_keys(
        snapshot["chunk_table"]["entries"]
    )
    snapshot["chunk_state"] = _intify_keys(snapshot["chunk_state"])
    distributor.import_metadata(snapshot)
