"""One metadata shard: a full distributor scoped to a key range.

A :class:`FleetShard` owns everything the monolithic deployment owned --
chunk table, client table, write-ahead intent journal, metadata snapshot,
metrics registry -- but sees the shared provider fleet only through a
:class:`~repro.fleet.namespace.NamespacedProvider` view keyed by its shard
id, and stores only the tenant files whose fleet key hashes into its ring
range.  Boot follows the same durability discipline as the CLI: load the
metadata snapshot, replay the intent journal, re-snapshot, checkpoint.
"""

from __future__ import annotations

from pathlib import Path

from repro.core import chunking
from repro.core.distributor import CloudDataDistributor
from repro.core.journal import IntentJournal, RecoveryReport, recover_from_journal
from repro.core.persistence import load_metadata, save_metadata
from repro.core.privacy import ChunkSizePolicy, PrivacyLevel
from repro.fleet.namespace import shard_registry
from repro.fleet.router import split_fleet_key
from repro.health.fsck import FsckReport, run_fsck
from repro.obs.metrics import MetricsRegistry
from repro.providers.registry import ProviderRegistry
from repro.dht.hashing import stable_hash
from repro.util.rng import SeedLike, spawn_seeds

METADATA_FILE = "metadata.json"
JOURNAL_FILE = "journal.jsonl"


def _shard_seed(fleet_seed: SeedLike, shard_id: str) -> int:
    """A per-shard seed derived deterministically from the fleet seed.

    Folding in the shard id keeps sibling shards' placement/rng streams
    independent while the whole fleet stays reproducible from one seed.
    """
    base = spawn_seeds(fleet_seed, 1)[0]
    return (base ^ stable_hash(f"fleet-shard/{shard_id}", 63)) & ((1 << 63) - 1)


class FleetShard:
    """A distributor shard plus its durability and telemetry state."""

    def __init__(
        self,
        shard_id: str,
        base_registry: ProviderRegistry,
        state_dir: str | Path | None = None,
        *,
        seed: SeedLike = None,
        chunk_policy: ChunkSizePolicy | None = None,
        max_transport_workers: int | None = None,
    ) -> None:
        if "/" in shard_id or not shard_id:
            raise ValueError(f"shard id must be a non-empty path segment, got {shard_id!r}")
        self.shard_id = shard_id
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.metrics = MetricsRegistry()
        self.registry = shard_registry(base_registry, shard_id)

        journal = None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            journal = IntentJournal(self.state_dir / JOURNAL_FILE)
        self.journal = journal
        self.distributor = CloudDataDistributor(
            self.registry,
            chunk_policy=chunk_policy,
            seed=_shard_seed(seed, shard_id),
            max_transport_workers=max_transport_workers,
            metrics=self.metrics,
            journal=journal,
        )
        self.recovery: RecoveryReport | None = None
        if self.state_dir is not None:
            meta = self.state_dir / METADATA_FILE
            if meta.exists():
                load_metadata(self.distributor, meta)
            self.recovery = recover_from_journal(self.distributor, journal)
            self.save()

    # -- durability --------------------------------------------------------

    def save(self) -> None:
        """Snapshot metadata and checkpoint the journal (no-op in-memory)."""
        if self.state_dir is None:
            return
        save_metadata(self.distributor, self.state_dir / METADATA_FILE)
        self.journal.checkpoint()

    def fsck(self, repair: bool = False) -> FsckReport:
        return run_fsck(self.distributor, repair=repair)

    def close(self) -> None:
        self.distributor.close()

    # -- tenant state ------------------------------------------------------

    def sync_access(self, access_state: dict) -> None:
        """Install the gateway's credential snapshot on this shard.

        Every shard authenticates the requests it serves locally (for a
        get, update or remove it is the only check; the gateway just
        routes).  ``import_state`` also empties the shard's table of
        verified pairs, so a rotated or revoked password is refused here
        on the very next call.  Client-table entries are created for
        tenants this shard has not seen yet, and the display
        password-level list is rebuilt from the snapshot.
        """
        d = self.distributor
        with d.op_lock:
            d.access.import_state(access_state)
            for tenant, creds in access_state.items():
                if tenant not in d.client_table:
                    d.client_table.add(tenant)
                entry = d.client_table.get(tenant)
                entry.password_levels = [
                    PrivacyLevel.coerce(level) for _, _, level in creds
                ]

    def tenants(self) -> list[str]:
        return [entry.name for entry in self.distributor.client_table]

    # -- shard inventory ---------------------------------------------------

    def files(self) -> list[str]:
        """Every fleet key (``tenant/filename``) stored on this shard."""
        d = self.distributor
        with d.op_lock:
            out: list[str] = []
            for entry in d.client_table:
                out.extend(entry.filenames())
            return sorted(out)

    def file_bytes(self, refs) -> int:
        """Logical byte count of one file from its chunk refs."""
        d = self.distributor
        total = 0
        for ref in refs:
            entry = d.chunk_table.get(ref.chunk_index)
            # A quarantined chunk's (unknown codec) raw row still records
            # orig_len: quota math stays alive.
            total += int(entry.packed.orig_len) - len(entry.misleading_positions)
        return total

    def tenant_usage(self) -> dict[str, dict[str, int]]:
        """Per-tenant ``{"files": n, "bytes": n}`` for quota accounting."""
        d = self.distributor
        with d.op_lock:
            usage: dict[str, dict[str, int]] = {}
            for entry in d.client_table:
                names = entry.filenames()
                usage[entry.name] = {
                    "files": len(names),
                    "bytes": sum(
                        self.file_bytes(entry.refs_for_file(name))
                        for name in names
                    ),
                }
            return usage

    def stats(self) -> dict[str, int]:
        d = self.distributor
        with d.op_lock:
            return {
                "files": sum(len(e.filenames()) for e in d.client_table),
                "chunks": len(d.chunk_table),
                "tenants": len(d.client_table),
            }

    def has_file(self, key: str) -> bool:
        tenant, _ = split_fleet_key(key)
        d = self.distributor
        with d.op_lock:
            if tenant not in d.client_table:
                return False
            return d.client_table.get(tenant).has_file(key)

    # -- migration service ops (no tenant password involved) ----------------

    def export_file(self, key: str) -> tuple[bytes, PrivacyLevel, float, str]:
        """Read one file out for migration: (data, level, fraction, codec).

        The file is read as one window of the distributor's read engine,
        the path ``get_file`` takes (RAID failover included, one batched
        call per provider per round), and its misleading budget comes from
        the Chunk Table's columns the way ``update_chunks`` takes it, so
        the re-upload at the destination carries the same privacy posture.
        The codec label travels too, so a migrated file keeps its erasure
        codec (raid-family files re-pick a stripe width from the
        destination's fleet).
        """
        tenant, _ = split_fleet_key(key)
        d = self.distributor
        with d.op_lock:
            reads, level = d._reads_of(tenant, key)
            payloads, rows = d._read_window(reads.chunks, key)
            budgets = rows.budgets()
            data = b"".join(payloads)
            return (
                data, level, max(fraction for _, fraction in budgets),
                budgets[0][0].codec,
            )

    def import_file(
        self,
        key: str,
        data: bytes,
        level: PrivacyLevel,
        misleading_fraction: float = 0.0,
        codec: str | None = None,
    ) -> None:
        """Store a migrated file (journaled via the shard's own journal)."""
        tenant, _ = split_fleet_key(key)
        d = self.distributor
        pl = PrivacyLevel.coerce(level)
        payloads = chunking.cut(data, d.chunk_policy.chunk_size(pl))
        d._upload_windows(
            tenant, pl, key, [(payloads, True)],
            codec=codec or None, misleading_fraction=misleading_fraction,
        )

    def service_remove(self, key: str) -> None:
        """Remove a migrated-away file (journaled, no password)."""
        tenant, _ = split_fleet_key(key)
        d = self.distributor
        with d.op_lock:
            entry = d.client_table.get(tenant)
            refs = entry.refs_for_file(key)
            d._remove_refs(tenant, entry, key, refs)
