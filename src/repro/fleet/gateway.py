"""Stateless multi-tenant gateway in front of the shard fleet.

The gateway holds no file metadata at all: only ring membership, tenant
credentials and quotas.  Any number of gateway processes over the same
membership route identically (consistent hashing), which is what lets the
metadata plane scale horizontally while each shard stays a small,
crash-consistent distributor.

``upload_file`` and ``list_files`` are authenticated here (the paper's
⟨password, PL⟩ check via
:class:`~repro.core.access_control.AccessController`) before the quota
check and the fan-out, which act on the tenant's behalf, and again by
each shard they reach.  ``get_file``, ``update_chunk`` and
``remove_file`` are only routed here: the owning shard authenticates
them against its synced credential copy, before it looks the file up,
so what a refusal says does not depend on whether the file exists.
Cross-shard operations (list, fsck, stats, usage) fan out and merge.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.access_control import AccessController
from repro.core.errors import (
    DeadlineExceeded,
    DistributorUnavailableError,
    FleetError,
    PlacementError,
    ProviderError,
    QuotaExceededError,
    ReconstructionError,
    ShardUnavailable,
    UnknownFileError,
)
from repro.core.privacy import ChunkSizePolicy, PrivacyLevel
from repro.fleet.health import ShardHealthTracker
from repro.fleet.router import FleetRouter, fleet_key, validate_tenant
from repro.fleet.shard import FleetShard
from repro.health.fsck import FsckReport
from repro.health.monitor import HealthState
from repro.net.resilience import LatencyTracker, hedged_call
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.providers.registry import ProviderRegistry
from repro.util.atomic import atomic_write_text
from repro.util.deadline import current_deadline, deadline_scope
from repro.util.rng import SeedLike

#: Exception types that count as *shard* failure evidence: the shard's data
#: path (providers, transport, reconstruction, placement) misbehaved.  A
#: PlacementError counts because a shard whose own health monitor has
#: condemned too many providers to place a write is exactly as unavailable
#: as one whose puts fail outright.  Auth, quota and unknown-file verdicts
#: are correct answers from a healthy shard, and ``DeadlineExceeded`` --
#: though a ``ProviderError`` subclass -- is carved out by
#: ``_record_shard_outcome`` because an expired caller budget says nothing
#: about the shard.
SHARD_FAILURE_ERRORS = (
    ProviderError,
    ReconstructionError,
    DistributorUnavailableError,
    PlacementError,
)

#: Hedge delay used until enough read latencies have been observed to
#: derive a p95.
DEFAULT_HEDGE_DELAY = 0.05

FLEET_STATE_FILE = "fleet-state.json"
MIGRATION_JOURNAL_FILE = "migration.jsonl"


class TenantQuota:
    """Per-tenant ceilings; ``None`` means unlimited."""

    def __init__(
        self, max_bytes: int | None = None, max_files: int | None = None
    ) -> None:
        self.max_bytes = max_bytes
        self.max_files = max_files

    def to_dict(self) -> dict:
        return {"max_bytes": self.max_bytes, "max_files": self.max_files}

    @classmethod
    def from_dict(cls, data: dict) -> "TenantQuota":
        return cls(
            max_bytes=data.get("max_bytes"), max_files=data.get("max_files")
        )


class FleetGateway:
    """Routes tenant requests to DHT-owned shards; fans out the rest."""

    def __init__(
        self,
        base_registry: ProviderRegistry,
        state_dir: str | Path | None = None,
        *,
        m_bits: int = 32,
        seed: SeedLike = None,
        chunk_policy: ChunkSizePolicy | None = None,
        max_transport_workers: int | None = None,
        metrics: MetricsRegistry | None = None,
        shard_health: ShardHealthTracker | None = None,
        hedge_delay: float | None = None,
        hedge_reads: bool = True,
    ) -> None:
        self.base_registry = base_registry
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.seed = seed
        self.chunk_policy = chunk_policy
        self.max_transport_workers = max_transport_workers
        self.metrics = metrics if metrics is not None else get_metrics()
        self.router = FleetRouter(m_bits=m_bits, metrics=self.metrics)
        self.access = AccessController(metrics=self.metrics)
        self.quotas: dict[str, TenantQuota] = {}
        self.shards: dict[str, FleetShard] = {}
        # Degraded fleet mode: per-shard verdicts from live data-path
        # outcomes; writes to a degraded shard fail fast, reads fan out.
        self.shard_health = (
            shard_health
            if shard_health is not None
            else ShardHealthTracker(metrics=self.metrics)
        )
        # Hedged reads: a fixed override, or a p95 derived from recent
        # read latencies once enough samples exist.
        self.hedge_reads = hedge_reads
        self.hedge_delay = hedge_delay
        self._read_latency = LatencyTracker()
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)

    # -- construction / persistence ----------------------------------------

    @classmethod
    def open(
        cls,
        base_registry: ProviderRegistry,
        state_dir: str | Path,
        **kwargs,
    ) -> "FleetGateway":
        """Reopen a persisted fleet: membership, tenants, then shard boot.

        Each shard replays its own intent journal during construction.
        Pending cross-shard migrations are NOT resumed here -- call
        :meth:`repro.fleet.rebalance.ShardRebalancer.resume` next, the way
        the CLI does.
        """
        state_path = Path(state_dir) / FLEET_STATE_FILE
        state = json.loads(state_path.read_text(encoding="utf-8"))
        gateway = cls(
            base_registry,
            state_dir,
            m_bits=int(state.get("m_bits", 32)),
            seed=state.get("seed"),
            **kwargs,
        )
        gateway.access.import_state(state.get("tenants", {}))
        gateway.quotas = {
            name: TenantQuota.from_dict(q)
            for name, q in state.get("quotas", {}).items()
        }
        for shard_id in state.get("shards", []):
            gateway._attach_shard(shard_id)
        return gateway

    def shard_state_dir(self, shard_id: str) -> Path | None:
        if self.state_dir is None:
            return None
        return self.state_dir / "shards" / shard_id

    @property
    def migration_journal_path(self) -> Path | None:
        if self.state_dir is None:
            return None
        return self.state_dir / MIGRATION_JOURNAL_FILE

    def save_state(self) -> None:
        """Persist the control plane (membership, tenants, quotas)."""
        if self.state_dir is None:
            return
        state = {
            "m_bits": self.router.ring.m_bits,
            "seed": self.seed if isinstance(self.seed, int) else None,
            "shards": sorted(self.shards),
            "tenants": self.access.export_state(),
            "quotas": {n: q.to_dict() for n, q in self.quotas.items()},
        }
        atomic_write_text(
            self.state_dir / FLEET_STATE_FILE,
            json.dumps(state, indent=2, sort_keys=True),
        )

    def save(self) -> None:
        """Persist control plane plus every shard's metadata snapshot."""
        self.save_state()
        for shard in self.shards.values():
            shard.save()

    def close(self) -> None:
        for shard in self.shards.values():
            shard.close()

    # -- shard membership --------------------------------------------------

    def _build_shard(self, shard_id: str) -> FleetShard:
        return FleetShard(
            shard_id,
            self.base_registry,
            self.shard_state_dir(shard_id),
            seed=self.seed,
            chunk_policy=self.chunk_policy,
            max_transport_workers=self.max_transport_workers,
        )

    def _attach_shard(self, shard_id: str) -> FleetShard:
        if shard_id in self.shards:
            raise FleetError(f"shard {shard_id!r} already in the fleet")
        shard = self._build_shard(shard_id)
        shard.sync_access(self.access.export_state())
        # Snapshot immediately: journal recovery purges committed chunks
        # whose client row is missing from the snapshot, so the tenant
        # roster must be durable on a shard BEFORE any data can land on it
        # (e.g. a migration that crashes right after the copy).
        shard.save()
        self.shards[shard_id] = shard
        self.router.add_shard(shard_id)
        return shard

    def add_shard(self, shard_id: str) -> FleetShard:
        """Join a shard to the ring (membership only -- no data moves).

        Use :class:`~repro.fleet.rebalance.ShardRebalancer` to join *and*
        migrate the affected key ranges on a fleet that already holds data.
        """
        shard = self._attach_shard(shard_id)
        self.save_state()
        return shard

    def detach_shard(self, shard_id: str) -> FleetShard:
        """Remove a (drained) shard from the ring and the fleet."""
        if shard_id not in self.shards:
            raise FleetError(f"no shard {shard_id!r} in the fleet")
        self.router.remove_shard(shard_id)
        shard = self.shards.pop(shard_id)
        self.save_state()
        return shard

    @property
    def shard_ids(self) -> list[str]:
        return sorted(self.shards)

    # -- tenant management -------------------------------------------------

    def _sync_tenants(self) -> None:
        state = self.access.export_state()
        for shard in self.shards.values():
            shard.sync_access(state)
            shard.save()  # roster must be durable before tenant data lands
        self.save_state()

    def register_tenant(self, tenant: str) -> None:
        validate_tenant(tenant)
        self.access.register_client(tenant)
        self._sync_tenants()

    def add_tenant_password(
        self, tenant: str, password: str, level: PrivacyLevel | int
    ) -> None:
        self.access.add_password(tenant, password, level)
        self._sync_tenants()

    def rotate_tenant_password(
        self, tenant: str, old_password: str, new_password: str
    ) -> PrivacyLevel:
        level = self.access.rotate_password(tenant, old_password, new_password)
        self._sync_tenants()
        return level

    def remove_tenant(self, tenant: str) -> None:
        """Deprovision a tenant; refuses while it still stores data."""
        usage = self.tenant_usage(tenant)
        if usage["files"]:
            raise FleetError(
                f"tenant {tenant!r} still stores {usage['files']} file(s); "
                f"remove them before deprovisioning"
            )
        self.access.remove_client(tenant)
        self.quotas.pop(tenant, None)
        self._sync_tenants()

    def set_quota(
        self,
        tenant: str,
        max_bytes: int | None = None,
        max_files: int | None = None,
    ) -> None:
        if not self.access.knows_client(tenant):
            validate_tenant(tenant)
            raise FleetError(f"unknown tenant {tenant!r}")
        self.quotas[tenant] = TenantQuota(max_bytes, max_files)
        self.save_state()

    def tenants(self) -> list[str]:
        return sorted(self.access.export_state())

    # -- routing helpers ---------------------------------------------------

    def _owner_shard(self, key: str, op: str) -> FleetShard:
        shard_id = self.router.route(key)
        self.metrics.counter("fleet_ops_total", op=op, shard=shard_id).inc()
        return self.shards[shard_id]

    def _locate(self, key: str, op: str) -> FleetShard:
        """Owner shard, falling back to a fan-out scan mid-migration.

        While a migration is in flight a file can briefly live on its old
        shard although the ring already routes to the new one; the scan
        keeps reads available through that window (and counts how often it
        was needed).
        """
        shard = self._owner_shard(key, op)
        if shard.has_file(key):
            return shard
        for other in self.shards.values():
            if other is not shard and other.has_file(key):
                self.metrics.counter("fleet_route_misses_total", op=op).inc()
                return other
        return shard  # let the owner raise its UnknownFileError

    def _holders(self, key: str, op: str) -> list[FleetShard]:
        """Every shard holding *key*, owner first; ``[owner]`` if none do.

        More than one holder exists only in the copy->verify->remove window
        of a migration -- exactly when a hedged read has somewhere to go.
        When the first-choice holder is degraded and another holder exists,
        the healthy one is promoted to primary (degraded-mode read routing).
        """
        owner = self._owner_shard(key, op)
        holders = [owner] if owner.has_file(key) else []
        for other in self.shards.values():
            if other is not owner and other.has_file(key):
                if not holders:
                    self.metrics.counter(
                        "fleet_route_misses_total", op=op
                    ).inc()
                holders.append(other)
        if not holders:
            return [owner]  # let the owner raise its UnknownFileError
        if (
            len(holders) > 1
            and self.shard_health.state(holders[0].shard_id)
            is not HealthState.HEALTHY
        ):
            for i, shard in enumerate(holders[1:], start=1):
                if (
                    self.shard_health.state(shard.shard_id)
                    is HealthState.HEALTHY
                ):
                    self.metrics.counter(
                        "fleet_degraded_reads_total",
                        shard=holders[0].shard_id,
                    ).inc()
                    holders[0], holders[i] = holders[i], holders[0]
                    break
        return holders

    # -- degraded fleet mode ------------------------------------------------

    def _admit_write(self, shard: FleetShard, op: str) -> None:
        """Fail fast (typed) instead of timing out against a sick shard."""
        if self.shard_health.allow_write(shard.shard_id):
            return
        state = self.shard_health.state(shard.shard_id)
        self.metrics.counter(
            "fleet_writes_failed_fast_total", shard=shard.shard_id, op=op
        ).inc()
        raise ShardUnavailable(
            f"shard {shard.shard_id!r} is {state.value}; {op} refused "
            f"(reads stay available via fan-out)",
            retry_after=self.shard_health.retry_interval,
        )

    def _record_shard_outcome(self, shard: FleetShard, exc: Exception | None) -> None:
        """Fold one data-path outcome into the shard's health record.

        ``DeadlineExceeded`` is excluded even though it subclasses
        ``ProviderError``: an expired caller budget is the caller's
        verdict, not provider evidence -- a client issuing tiny deadlines
        must not be able to mark a healthy shard DOWN for everyone.
        """
        if exc is None:
            self.shard_health.record_success(shard.shard_id)
        elif isinstance(exc, SHARD_FAILURE_ERRORS) and not isinstance(
            exc, DeadlineExceeded
        ):
            self.shard_health.record_failure(shard.shard_id)

    def shard_health_states(self) -> dict[str, str]:
        """``shard_id -> verdict`` for every shard (HEALTHY when unseen)."""
        return {
            shard_id: self.shard_health.state(shard_id).value
            for shard_id in sorted(self.shards)
        }

    # -- tenant data path --------------------------------------------------

    def upload_file(
        self,
        tenant: str,
        password: str,
        filename: str,
        data: bytes,
        level: PrivacyLevel | int,
        misleading_fraction: float = 0.0,
        codec: str | None = None,
    ):
        key = fleet_key(tenant, filename)
        self.access.authenticate(tenant, password)
        self._check_quota(tenant, len(data))
        shard = self._owner_shard(key, "upload")
        self._admit_write(shard, "upload")
        for other_id, other in self.shards.items():
            if other is not shard and other.has_file(key):
                raise ValueError(
                    f"file {filename!r} of tenant {tenant!r} already exists "
                    f"(on shard {other_id!r})"
                )
        try:
            receipt = shard.distributor.upload_file(
                tenant, password, key, data, level,
                codec=codec,
                misleading_fraction=misleading_fraction,
            )
        except Exception as exc:
            self._record_shard_outcome(shard, exc)
            raise
        self._record_shard_outcome(shard, None)
        return receipt

    def get_file(self, tenant: str, password: str, filename: str) -> bytes:
        key = fleet_key(tenant, filename)
        holders = self._holders(key, "get")
        t0 = time.perf_counter()
        if len(holders) == 1 or not self.hedge_reads:
            data = self._read_from(holders[0], tenant, password, key)
        else:
            data = self._hedged_read(holders, tenant, password, key)
        self._read_latency.observe(time.perf_counter() - t0)
        return data

    def _read_from(
        self, shard: FleetShard, tenant: str, password: str, key: str
    ) -> bytes:
        try:
            data = shard.distributor.get_file(tenant, password, key)
        except Exception as exc:
            self._record_shard_outcome(shard, exc)
            raise
        self._record_shard_outcome(shard, None)
        return data

    def _hedged_read(
        self, holders: list[FleetShard], tenant: str, password: str, key: str
    ) -> bytes:
        """Race the primary holder against a backup after a p95 delay.

        Only reachable mid-migration, when two shards hold the file.  The
        hedge fires once the primary is slower than the fleet's recent p95
        read latency (or the configured fixed delay); first response wins
        and the loser's outcome is discarded.  The ambient deadline is
        re-entered inside each thunk because hedge threads are new threads.
        """
        deadline = current_deadline()

        def read_thunk(shard: FleetShard):
            def thunk() -> bytes:
                with deadline_scope(deadline):
                    return self._read_from(shard, tenant, password, key)

            return thunk

        delay = (
            self.hedge_delay
            if self.hedge_delay is not None
            else self._read_latency.percentile(95.0, DEFAULT_HEDGE_DELAY)
        )
        primary, backup = holders[0], holders[1]
        return hedged_call(
            read_thunk(primary),
            read_thunk(backup),
            delay,
            on_hedge=lambda: self.metrics.counter(
                "fleet_hedged_reads_total", shard=backup.shard_id
            ).inc(),
        )

    def update_chunk(
        self,
        tenant: str,
        password: str,
        filename: str,
        serial: int,
        new_payload: bytes,
    ) -> None:
        key = fleet_key(tenant, filename)
        shard = self._locate(key, "update")
        self._admit_write(shard, "update")
        try:
            shard.distributor.update_chunk(
                tenant, password, key, serial, new_payload
            )
        except Exception as exc:
            self._record_shard_outcome(shard, exc)
            raise
        self._record_shard_outcome(shard, None)

    def remove_file(self, tenant: str, password: str, filename: str) -> None:
        # Removal is deliberately NOT gated by _admit_write: a degraded
        # fleet must still let tenants shed data (it frees the very
        # resources that may be causing the degradation), and a failed
        # remove is evidence like any other write.
        key = fleet_key(tenant, filename)
        shard = self._locate(key, "remove")
        try:
            shard.distributor.remove_file(tenant, password, key)
        except Exception as exc:
            self._record_shard_outcome(shard, exc)
            raise
        self._record_shard_outcome(shard, None)

    def list_files(self, tenant: str, password: str) -> list[str]:
        """All of the tenant's visible filenames, fanned out and merged."""
        self.access.authenticate(tenant, password)
        prefix = f"{tenant}/"
        names: list[str] = []
        for shard in self.shards.values():
            for key in shard.distributor.list_files(tenant, password):
                if key.startswith(prefix):
                    names.append(key[len(prefix):])
        self.metrics.counter("fleet_ops_total", op="list", shard="*").inc()
        return sorted(names)

    # -- quotas ------------------------------------------------------------

    def tenant_usage(self, tenant: str) -> dict[str, int]:
        """Fleet-wide ``{"files": n, "bytes": n}`` for one tenant."""
        files = 0
        nbytes = 0
        for shard in self.shards.values():
            usage = shard.tenant_usage().get(tenant)
            if usage:
                files += usage["files"]
                nbytes += usage["bytes"]
        self.metrics.gauge("fleet_tenant_used_bytes", tenant=tenant).set(nbytes)
        self.metrics.gauge("fleet_tenant_used_files", tenant=tenant).set(files)
        return {"files": files, "bytes": nbytes}

    def _check_quota(self, tenant: str, incoming_bytes: int) -> None:
        quota = self.quotas.get(tenant)
        if quota is None or (quota.max_bytes is None and quota.max_files is None):
            return
        usage = self.tenant_usage(tenant)
        over_bytes = (
            quota.max_bytes is not None
            and usage["bytes"] + incoming_bytes > quota.max_bytes
        )
        over_files = (
            quota.max_files is not None and usage["files"] + 1 > quota.max_files
        )
        if over_bytes or over_files:
            self.metrics.counter(
                "fleet_quota_rejections_total", tenant=tenant
            ).inc()
            what = "byte" if over_bytes else "file"
            raise QuotaExceededError(
                f"tenant {tenant!r} would exceed its {what} quota "
                f"(used {usage['bytes']} B in {usage['files']} files)"
            )

    # -- fleet-wide fan-out ------------------------------------------------

    def fsck(self, repair: bool = False) -> dict[str, FsckReport]:
        """Run the cross-audit on every shard."""
        return {
            shard_id: shard.fsck(repair=repair)
            for shard_id, shard in sorted(self.shards.items())
        }

    def merged_metrics(self) -> MetricsRegistry:
        """Gateway metrics plus every shard's registry, merged."""
        merged = MetricsRegistry()
        merged.import_state(self.metrics.export_state())
        for shard in self.shards.values():
            merged.import_state(shard.metrics.export_state())
        return merged

    def shard_rows(self) -> list[dict]:
        """Per-shard status for ``repro shards``."""
        rows = []
        for shard_id in sorted(self.shards):
            shard = self.shards[shard_id]
            stats = shard.stats()
            rows.append(
                {
                    "shard": shard_id,
                    "node_id": self.router.ring.node_id_for(shard_id),
                    "files": stats["files"],
                    "chunks": stats["chunks"],
                    "tenants": stats["tenants"],
                    "health": self.shard_health.state(shard_id).value,
                }
            )
        return rows

    def status(self) -> dict:
        """Fleet-level view: membership, shard stats, tenant usage."""
        usage = {
            tenant: dict(
                self.tenant_usage(tenant),
                quota=self.quotas.get(tenant, TenantQuota()).to_dict(),
            )
            for tenant in self.tenants()
        }
        return {
            "m_bits": self.router.ring.m_bits,
            "shards": self.shard_rows(),
            "tenants": usage,
        }
