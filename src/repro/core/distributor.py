"""The Cloud Data Distributor (Sections IV-A, V and VI).

"Cloud Data Distributor is the entity that receives data (files) from
clients, performs fragmentation of data (splits files into chunks) and
distributes these fragments (chunks) among Cloud Providers.  It also
participates in data retrieving procedure...  Clients do not interact with
Cloud Providers directly rather via Cloud Data Distributor."

This module implements the abstract functions of Section VI --
``split``/``distribute`` for upload, ``get_chunk``/``get_file``/``get`` for
retrieval, ``remove_chunk``/``remove_file``/``remove`` for deletion -- plus
chunk modification with snapshotting, RAID repair, and the bookkeeping of
the three metadata tables.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence,
)

import numpy as np

from repro.core import chunking
from repro.core.access_control import AccessController
from repro.core.audit import AuditLog
from repro.core.cache import ChunkCache
from repro.core.errors import (
    AuthorizationError,
    BlobCorruptedError,
    BlobNotFoundError,
    DeadlineExceeded,
    ProviderError,
    ReproError,
    UnknownChunkError,
)
from repro.health.monitor import HealthMonitor
from repro.core.misleading import (  # noqa: F401
    InjectionRng,
    check_fraction,
    inject_runs,
    # Unused here: benchmarks/e2e/test_harness.py pins the alias (ROADMAP item 1).
    remove as remove_misleading,
    row_payloads,
    strip,
)
from repro.obs.events import EventLog, get_events
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.trace import Tracer, get_tracer
from repro.core.placement import PlacementPolicy
from repro.core.privacy import ChunkSizePolicy, PrivacyLevel
from repro.core.snapshots import SnapshotManager
from repro.core.tables import (
    ChunkEntry,
    ChunkTable,
    ChunkWindow,
    ClientTable,
    CloudProviderTable,
    FileChunkRef,
)
from repro.core.virtual_id import (
    VirtualIdAllocator, shard_key, snapshot_key, stripe_keys,
)
from repro.core.write_window import FailedChunk, WriteWindow
from repro.providers.base import blob_checksum, check_answers
from repro.providers.registry import ProviderRegistry
from repro.raid.codecs import CodecSpec, ErasureCodec, codec_for_meta
from repro.raid.reconstruct import read_slabs, rebuild_shard
from repro.raid.striping import RaidLevel, StripeMeta
from repro.net.resilience import current_retry_budget, retry_budget_scope
from repro.util.crash import crashpoint
from repro.util.deadline import check_deadline, current_deadline, deadline_scope
from repro.util.rng import SeedLike, spawn_seeds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.journal import IntentJournal
    from repro.crypto.stream import StreamCipher

#: Mean segment size (bytes) above which a window's per-provider shard
#: batch travels over STREAM_PUT/STREAM_GET instead of a MULTI_PUT/
#: MULTI_GET frame.  Both move exactly one window's shards -- O(window)
#: memory either way -- but the stream ops pay per-segment framing (and an
#: ack per uploaded segment), which dominates shards much smaller than
#: this, while large segments win from zero-copy framing (the MULTI ops
#: materialize the aggregate payload on one side or the other).
STREAM_SEGMENT_THRESHOLD = 64 * 1024

#: Chunks a remove erases per window (shards in one batch per provider,
#: then rows and refs): bounds the batch it holds -- 2 MiB at PL-3 is 8,192
#: shards -- and keeps "half removed" a state a crash can leave.
REMOVE_WINDOW_CHUNKS = 256


def _failure_kind(kind: type) -> bool | None:
    """``None`` for an outcome *kind* that is no failure, else whether it is a
    transport one (a missing or corrupt blob is not: the provider answered)."""
    if not issubclass(kind, ProviderError):
        return None
    return not issubclass(kind, (BlobNotFoundError, BlobCorruptedError))


@dataclass(frozen=True)
class FileReceipt:
    """Returned to the client after upload: "The total number of chunks for
    each file is notified to the client so that any chunk can be asked by
    the client by mentioning the filename and serial no."""

    filename: str
    privacy_level: PrivacyLevel
    chunk_count: int
    file_size: int
    raid_level: RaidLevel | None
    stripe_width: int
    # Codec family label ("raid5", "rs(6,3)", "aont-rs(4,2)").  For the
    # raid families ``raid_level`` is also set; for the general codecs it
    # is None and ``codec`` is the only authoritative description.
    codec: str = ""


class _Reads(NamedTuple):
    """A resolved read: a file's chunks in serial order, as their
    ``serials`` and their Chunk Table indices (``chunks``)."""

    filename: str
    serials: list[int]
    chunks: list[int]


@dataclass(frozen=True)
class RepairReport:
    """Outcome of a repair pass over one file."""

    filename: str
    chunks_checked: int
    shards_missing: int
    shards_rebuilt: int
    chunks_unrecoverable: int
    relocations: list[tuple[int, int, str, str]] = field(default_factory=list)
    # (virtual_id, shard_index, old_provider, new_provider)


class _WindowTransfer(threading.Thread):
    """One upload window's transfer phase, running beside the next plan.

    The engine overlaps window N's (lock-free) wire transfer with reading
    and planning window N+1.  :meth:`settle` blocks until the wire is
    quiet and re-raises whatever the transfer raised -- a transport
    failure, the first unrecoverable shard loss, or a simulated crash.
    """

    def __init__(
        self, transfer: "Callable[[WriteWindow], None]", window: WriteWindow
    ) -> None:
        super().__init__(name="upload-window-transfer", daemon=True)
        self._transfer = transfer
        self.window = window
        self._error: BaseException | None = None
        self.start()

    def run(self) -> None:
        try:
            self._transfer(self.window)
        except BaseException as exc:  # noqa: BLE001 - re-raised by settle()
            self._error = exc

    def settle(self) -> None:
        self.join()
        if self._error is not None:
            raise self._error


class _Phase:
    """One timed data-path phase: a trace span (a no-op outside a trace)
    and, always, an observation of the phase's latency histogram."""

    __slots__ = ("_span", "_seconds", "_t0")

    def __init__(self, span, seconds) -> None:
        self._span, self._seconds = span, seconds

    def __enter__(self) -> None:
        self._t0 = time.perf_counter()
        self._span.__enter__()

    def __exit__(self, *exc) -> None:
        self._seconds.observe(time.perf_counter() - self._t0)
        self._span.__exit__(*exc)


class CloudDataDistributor:
    """The agent of clients toward the provider fleet."""

    def __init__(
        self,
        registry: ProviderRegistry,
        chunk_policy: ChunkSizePolicy | None = None,
        placement: PlacementPolicy | None = None,
        codec: "CodecSpec | RaidLevel | str | None" = None,
        seed: SeedLike = None,
        audit: "AuditLog | None" = None,
        cache: "ChunkCache | None" = None,
        max_transport_workers: int | None = None,
        health: "HealthMonitor | None" = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
        journal: "IntentJournal | None" = None,
    ) -> None:
        seeds = spawn_seeds(seed, 3)
        self.audit = audit
        self.cache = cache
        # Optional write-ahead intent journal: upload/update/remove become
        # recoverable transactions (see repro.core.journal).  None keeps
        # the historical fire-and-forget behaviour.
        self.journal = journal
        self.registry = registry
        # Telemetry sinks default to the process-wide singletons so every
        # component reports into the same registry; tests inject their own.
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.events = events if events is not None else get_events()
        # Every distributor tracks fleet health from its own traffic; pass
        # a shared monitor to pool evidence across distributors.
        self.health = health or HealthMonitor(registry, metrics=self.metrics)
        # Serializes table mutation between client ops and the background
        # scrubber; provider I/O inside an op may still fan out.
        self.op_lock = threading.RLock()
        self.chunk_policy = chunk_policy or ChunkSizePolicy()
        self.placement = placement or PlacementPolicy(seed=seeds[0])
        # The codec of an upload that names none.
        self.default_codec = CodecSpec.coerce(
            codec if codec is not None else RaidLevel.RAID5
        )
        self.ids = VirtualIdAllocator(seed=seeds[1])
        self._misleading_rng = InjectionRng.spawn(seeds[2])

        self.access = AccessController(metrics=self.metrics)
        self.provider_table = CloudProviderTable()
        self.client_table = ClientTable()
        self.chunk_table = ChunkTable()
        self.snapshots = SnapshotManager(registry, self.placement)
        if max_transport_workers is not None and max_transport_workers < 1:
            raise ValueError(
                f"max_transport_workers must be >= 1, got {max_transport_workers}"
            )
        self.max_transport_workers = max_transport_workers
        self._transport_pool: ThreadPoolExecutor | None = None
        self._legs_on_caller, self._legs_on_pool, self._legs_on_wire = (
            self.metrics.counter(
                "distributor_transport_legs_total",
                "Provider requests of the data path by where they ran: on "
                "the calling thread, handed to a transport pool thread, or "
                "sent and read back by the calling thread on its socket.",
                where=where,
            )
            for where in ("caller", "pool", "wire")
        )
        # Filenames with an upload in flight per client: the duplicate-name
        # check must hold across the lock-free transfer phases.
        self._inflight_uploads: dict[str, set[str]] = {}
        self._phase_seconds: dict[tuple[str, str], object] = {}
        # Per-thread scratch pad for the virtual ids / providers an op
        # touches, drained into its audit record (the provider-sweep
        # anomaly queries key on them).
        self._audit_note = threading.local()

        for entry in registry.all():
            self.provider_table.add(
                entry.name, entry.privacy_level, entry.cost_level
            )

    # ------------------------------------------------------------------
    # client management
    # ------------------------------------------------------------------

    def register_client(self, name: str) -> None:
        """Create a client account (no credentials yet)."""
        self.access.register_client(name)
        self.client_table.add(name)

    def add_password(
        self, client: str, password: str, level: PrivacyLevel | int
    ) -> None:
        """Attach a ⟨password, PL⟩ pair to an existing client."""
        pl = PrivacyLevel.coerce(level)
        self.access.add_password(client, password, pl)
        self.client_table.get(client).password_levels.append(pl)

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _require_level(
        client: str, granted: PrivacyLevel, level: PrivacyLevel | int
    ) -> None:
        """The Section V rule: *granted*, the level ``access.authenticate``
        returned for the caller's password, must reach *level*.

        A request that names a stored file authenticates first, resolves
        second and comes here third, so a caller without a valid password
        learns nothing from the tables -- not even whether the file
        exists.
        """
        if int(granted) < int(PrivacyLevel.coerce(level)):
            raise AuthorizationError(
                f"password of client {client!r} is not privileged enough for "
                f"PL {int(PrivacyLevel.coerce(level))} data"
            )

    def provider_loads(self) -> dict[str, int]:
        """Shards plus snapshots per provider (Table I's Count column)."""
        load = self.chunk_table.load
        return {entry.name: load(index) for index, entry in self.provider_table}

    def _provider_batch(
        self,
        method: str,
        name: str,
        items: list,
        checksums: list[bytes] | None = None,
        feed: bool = True,
    ) -> list:
        """One batched provider call (a round of one leg), its outcomes fed
        to the health monitor (:meth:`_hear`) unless *feed* is false.

        *method* is ``put_many``/``put_stream`` (items are ``(key, data)``
        pairs, *checksums* their digests when the caller holds them, an
        outcome is ``None`` when stored), ``get_many``/``get_stream``
        (items are keys, an outcome is the bytes) or ``delete_many``
        (items are keys, an outcome is ``None`` when gone); a failed
        item's outcome is its :class:`ProviderError` either way.  A
        transport-level batch failure (the provider raised instead of
        answering per item) condemns every item -- each failed shard is a
        real failed request, so each feeds the monitor, exactly as the
        equivalent run of individual calls would have.  So does an answer
        with more or fewer outcomes than items: which item an outcome
        belongs to is no longer known, and an unanswered item must not
        pass for stored.
        """
        return self._transport_map([(method, name, items, checksums, feed, None)])[0]

    def _hear(self, name: str, outcomes: list) -> None:
        """Feed provider *name*'s request *outcomes* to the health monitor,
        in order: each run of consecutive successes is one
        ``record_success(name, count)``, and each run of failures of one
        kind (transport or data, :func:`_failure_kind`) one
        ``record_failure(name, transport=..., count=...)``, so a batch
        with no failure is one call."""
        if name not in self.registry or not outcomes:
            return
        kinds = set(map(type, outcomes))
        if not any(issubclass(kind, ProviderError) for kind in kinds):
            self.health.record_success(name, len(outcomes))
            return
        kind_of = {kind: _failure_kind(kind) for kind in kinds}
        for transport, run in itertools.groupby(map(kind_of.__getitem__, map(type, outcomes))):
            count = len(list(run))
            if transport is None:
                self.health.record_success(name, count)
            else:
                self.health.record_failure(name, transport=transport, count=count)

    def _provider_usable(self, name: str) -> bool:
        """Is *name* currently a sane target for new shard bytes?

        The simulated ``available`` flag is authoritative when present;
        otherwise the health monitor's evidence-based verdict decides
        (with an active probe when the monitor has marked the provider
        DOWN, so recovered providers come back without manual action).
        """
        provider = self.registry.get(name).provider
        available = getattr(provider, "available", True)
        if not callable(available) and not available:
            return False
        return self.health.is_usable(name)

    def _phase(self, op: str, phase: str) -> _Phase:
        """Time one data-path phase; its histogram handle is resolved once."""
        seconds = self._phase_seconds.get((op, phase))
        if seconds is None:
            seconds = self._phase_seconds[op, phase] = self.metrics.histogram(
                "distributor_phase_seconds", op=op, phase=phase
            )
        return _Phase(self.tracer.span(f"{op}.{phase}"), seconds)

    def _note_audit(self, vids=(), providers=()) -> None:
        """Remember virtual ids / provider names the current op touched."""
        cell = self._audit_note
        if not hasattr(cell, "vids"):
            cell.vids, cell.providers = set(), set()
        cell.vids.update(vids)
        cell.providers.update(providers)

    def _drain_audit_note(self) -> tuple[tuple[int, ...], tuple[str, ...]]:
        cell = self._audit_note
        vids = tuple(sorted(getattr(cell, "vids", ())))
        providers = tuple(sorted(getattr(cell, "providers", ())))
        cell.vids, cell.providers = set(), set()
        return vids, providers

    def _record_op(
        self,
        operation: str,
        client: str,
        filename: str | None,
        serial: int | None,
        ok: bool,
        detail: str = "",
    ) -> None:
        """Count one finished client op and (if attached) audit it."""
        vids, providers = self._drain_audit_note()
        self.metrics.counter(
            "distributor_ops_total",
            op=operation,
            status="ok" if ok else "error",
        ).inc()
        if self.audit is not None:
            self.audit.record(
                operation, client, filename, serial,
                ok=ok, detail=detail,
                virtual_ids=vids, providers=providers,
            )

    def _audited(self, operation, client, filename, serial, fn):
        """Run *fn*, counting the outcome and recording it in the audit log."""
        with self.tracer.span(f"distributor.{operation}", client=client):
            try:
                result = fn()
            except ReproError as exc:
                self._record_op(
                    operation, client, filename, serial,
                    ok=False, detail=type(exc).__name__,
                )
                raise
            self._record_op(operation, client, filename, serial, ok=True)
        return result

    # ------------------------------------------------------------------
    # transport rounds (one thread for sockets, a pool for the rest)
    # ------------------------------------------------------------------

    def _transport_workers(self) -> int:
        """How many provider requests of one round may be in flight.

        One per provider by default, capped at 8 (the transport pool's
        threads); ``max_transport_workers=1`` runs every request in order
        on the calling thread.
        """
        if self.max_transport_workers is not None:
            return self.max_transport_workers
        return min(8, max(1, len(self.registry)))

    def _executor(self) -> ThreadPoolExecutor:
        if self._transport_pool is None:
            self._transport_pool = ThreadPoolExecutor(
                max_workers=self._transport_workers(),
                thread_name_prefix="repro-transport",
            )
        return self._transport_pool

    def close(self) -> None:
        """Release the transport executor (idle fleets need no cleanup)."""
        if self._transport_pool is not None:
            self._transport_pool.shutdown(wait=True)
            self._transport_pool = None

    def __enter__(self) -> "CloudDataDistributor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _transport_map(self, legs: list[tuple]) -> list[list]:
        """Make one round of provider calls; returns each leg's outcomes.

        A leg is one provider's batch of the round -- a window's puts, a
        round of gets (:meth:`_fetch`), a delete batch -- given as
        :meth:`_provider_batch`'s arguments and the digests its answers
        must match, ``(method, name, items, checksums, feed, expected)``,
        and its outcomes follow that method's contract.  Every leg is
        attempted (a read, a repair or a failover needs the full damage at
        once).  The round is two passes over its legs, both in leg order
        on the calling thread: the first starts every leg, the second
        finishes every leg (:meth:`_start`, :meth:`_finish`).  A call the
        provider can split
        (:attr:`CloudProvider.splits`: a socket's request windows) starts
        by sending its frames and finishes by reading the answers, so a
        round to n chunk servers costs one thread and about one round
        trip; a call that cannot be split but can wait
        (:attr:`CloudProvider.waits`: a stream session, a disk, a sleep)
        starts on a transport thread and finishes when that returns; the
        others -- dict lookups, simulated time -- run when finished, since
        a hand-off buys a request that only computes nothing.  A lone
        leg, or ``max_transport_workers=1``, is never handed off, and
        with one worker each leg finishes before the next starts.
        """
        try:
            check_deadline(f"a round of {len(legs)} provider call(s)")
        except DeadlineExceeded as exc:  # asks nobody, so nobody is heard
            return [[exc] * len(leg[2]) for leg in legs]
        together = len(legs) > 1 and self._transport_workers() > 1
        started = [self._start(leg, True) for leg in legs] if together else []
        outcomes = []
        for i, leg in enumerate(legs):
            if not together:  # one leg at a time
                started.append(self._start(leg, False))
            outcomes.append(self._finish(leg, started[i][1]))
        # Counted once a round: a counter takes a lock an increment.
        wheres = [where for where, _ in started]
        for where in set(wheres):
            where.inc(wheres.count(where))
        return outcomes

    def _start(self, leg: tuple, hand_off: bool) -> tuple:
        """Start one leg of a round: ``(where, answer)``, *where* the leg
        counter it ran under and *answer* the call that returns its
        outcomes (or the outcomes, when starting failed)."""
        method, name, items, checksums, _, _ = leg
        provider = self.registry.get(name).provider
        split = method in provider.splits
        call = getattr(provider, "start_" + method if split else method)
        call = functools.partial(call, items)
        if checksums is not None:
            call = functools.partial(call, checksums=checksums)
        if split:
            try:
                return self._legs_on_wire, call()  # sent; it returns the reader
            except ProviderError as exc:
                return self._legs_on_wire, [exc] * len(items)
        if hand_off and provider.waits:
            # Pool workers have no active span; hand them the dispatching
            # thread's context so their net spans (and TRACED wire
            # contexts) stay inside this request's trace.  The ambient
            # deadline and retry budget are thread-local for the same
            # reason: every leg races the *same* clock and spends from the
            # *same* budget as the dispatching thread would.
            context = (self.tracer.capture(), current_deadline(), current_retry_budget())
            return self._legs_on_pool, self._executor().submit(
                self._adopted, context, call
            ).result
        # Runs when finished, so its answers are checked while still warm.
        return self._legs_on_caller, call

    def _adopted(self, context: tuple, call: Callable):
        """*call* on a transport thread, under the dispatching thread's
        trace, deadline and retry budget (*context*)."""
        captured, deadline, budget = context
        with self.tracer.adopt(captured), deadline_scope(deadline):
            with retry_budget_scope(budget):
                return call()

    def _finish(self, leg: tuple, outcomes) -> list:
        """Finish one started leg: its outcomes, one an item, heard by the
        monitor if the leg feeds it, and each arrival checked against its
        expected digest when the leg has them (:func:`check_answers`; the
        monitor hears each mismatch too)."""
        method, name, items, _, feed, expected = leg
        if callable(outcomes):
            try:
                outcomes = outcomes()
            except ProviderError as exc:
                outcomes = [exc] * len(items)
        if len(outcomes) != len(items):
            outcomes = [
                ProviderError(
                    f"provider {name!r} answered {len(outcomes)} outcomes "
                    f"to a {method} of {len(items)} items"
                )
            ] * len(items)
        if feed:
            self._hear(name, outcomes)
        if expected is None:
            return outcomes
        checked = check_answers(name, items, expected, outcomes)
        if feed and checked is not outcomes:
            self._hear(name, [
                after for before, after in zip(outcomes, checked) if after is not before
            ])
        return checked

    def _delete_objects(self, pairs: Iterable[tuple[str, str]]) -> int:
        """Best-effort removal of ``(provider, key)`` objects; returns how
        many went.  One ``delete_many`` per provider, the providers one
        round (:meth:`_transport_map`).  A :class:`ProviderError`, of a
        key or a provider, is swallowed (the orphan is ``fsck``'s to
        collect); deletes do not feed the health monitor."""
        by_provider: dict[str, list[str]] = {}
        for name, key in pairs:
            by_provider.setdefault(name, []).append(key)
        return sum(
            outcome is None
            for outcomes in self._transport_map([
                ("delete_many", name, keys, None, False, None)
                for name, keys in by_provider.items()
            ])
            for outcome in outcomes
        )

    def _resolve_codec(
        self, level: PrivacyLevel, codec: "CodecSpec | RaidLevel | str | None"
    ) -> ErasureCodec:
        """The codec of one upload: *codec* (anything
        :meth:`CodecSpec.coerce` takes), else the distributor's default.

        A raid-family spec that leaves its width open spreads as wide as
        the paper intends (more targets for the attacker), capped at 4 so
        huge fleets don't shred tiny chunks.  Must run inside the critical
        section: that width comes from fleet state.
        """
        spec = self.default_codec if codec is None else CodecSpec.coerce(codec)
        if spec.fixed_width is not None:
            return spec.instantiate()
        available = self.placement.max_stripe_width(
            self.registry, level, health=self.health
        )
        return spec.instantiate(max(spec.min_width, min(available, 4)))

    def _plan_window(
        self,
        payloads: "list[bytes | memoryview]",
        filename: str,
        level: PrivacyLevel,
        serials: "Sequence[int]",
        codec: ErasureCodec,
        misleading_fraction: float,
        load: dict[str, int],
        snapshots: "list[bytes] | None" = None,
    ) -> WriteWindow:
        """Encode and place one window's chunks without moving any bytes.

        Must run inside the critical section: it consumes rng draws
        (misleading injection, placement) and allocates virtual ids, and
        the order of those draws across a file's chunks is what the pinned
        placement digests in tier-1 hold constant.  Each step is one pass
        over the window, building its columns: the misleading draw (a run
        of stored chunks goes to the encoder as one array), the encode, the
        placement of every chunk, by *filename* and serial, against one
        registry snapshot, a home for each of an update's *snapshots*
        (pre-states) from the same snapshot (:meth:`SnapshotManager.homes`),
        one draw of virtual ids (last, so a placement refusal leaves none to
        give back), the shard keys; a chunk's shards rotate by its serial.
        *load* is the caller's working copy of the per-provider shard
        counts; each planned shard or snapshot advances it, so later chunks
        of the same write see the loads the earlier ones will have produced
        once they commit.  The window never aliases *payloads*.
        """
        runs = (
            inject_runs(payloads, misleading_fraction, rng=self._misleading_rng)
            if misleading_fraction > 0
            else [(payloads, np.empty((len(payloads), 0), np.uint32))]
        )
        stripes: list[StripeMeta] = []
        shards: list[bytes] = []
        positions: list[np.ndarray] = []
        for stored, rows in runs:
            metas, encoded = codec.encode_window(stored)
            stripes += metas
            shards += encoded
            positions.append(rows)
        count, width = len(stripes), codec.n
        placed = self.placement.snapshot(self.registry, level, self.health)
        groups = self.placement.stripe_groups(
            placed, width, count, load, filename=filename, serials=serials,
        )
        kept = None
        if snapshots is not None:
            kept = list(zip(self.snapshots.homes(placed, groups, load), snapshots))
        vids = self.ids.allocate_many(count)
        # Rotate the shard->provider assignment by serial so parity
        # cycles around the group, RAID-5 style.
        rotations = [serial % width for serial in serials]
        names: list[str] = []
        for group, turn in zip(groups, rotations):
            names += group[turn:]
            names += group[:turn]
        return WriteWindow(
            level, list(serials), vids, [width] * count, stripes, rotations,
            positions, shards, names, stripe_keys(vids, width), kept,
        )

    def _transfer_window(self, window: WriteWindow) -> "list[FailedChunk]":
        """Upload one window's shards, one batched request per provider;
        returns its rows with shards that did not land, to recover.

        Every shard is hashed once (the window's ``digests``), an update's
        snapshots after them, and each slot sorted to its provider; each
        provider's slots are one call, the calls one round
        (:meth:`_transport_map`), with no per-chunk barrier.  The framing
        follows the batch's mean shard size: at or above
        ``STREAM_SEGMENT_THRESHOLD`` a STREAM_PUT session (one frame per
        shard, no aggregate payload), below it one MULTI_PUT frame
        (per-segment stream acks would dominate shard bytes this small).
        """
        window.digests = digests = list(map(blob_checksum, window.shards))
        shards, keys, names = window.shards, window.keys, window.names
        if window.snapshots is not None:
            kept = [pre_state for _, pre_state in window.snapshots]
            shards = shards + kept
            keys = keys + [snapshot_key(vid) for vid in window.vids]
            digests = digests + list(map(blob_checksum, kept))
            names = names + [home for home, _ in window.snapshots]
        slots: defaultdict[str, list[int]] = defaultdict(list)
        for slot, name in enumerate(names):
            slots[name].append(slot)
        legs = []
        for name, picked in slots.items():
            datas = list(map(shards.__getitem__, picked))
            streamed = sum(map(len, datas)) >= STREAM_SEGMENT_THRESHOLD * len(datas)
            legs.append((
                "put_stream" if streamed else "put_many", name,
                list(zip(map(keys.__getitem__, picked), datas)),
                list(map(digests.__getitem__, picked)), True, None,
            ))
        refused: dict[int, ProviderError] = {}
        for picked, outcomes in zip(slots.values(), self._transport_map(legs)):
            if any(outcomes):
                refused.update(
                    (slot, exc) for slot, exc in zip(picked, outcomes) if exc is not None
                )
        return window.failures(refused) if refused else []

    def _recover_plan(self, chunk: FailedChunk) -> bool:
        """Failover a chunk's failed shards; returns True if it is lost.

        Write-path failover re-places only the failed shards instead of
        aborting the whole chunk.  What finds no taker stays failed:
        accepted degraded if >= k landed, else the chunk is lost -- the
        terminal case, reported, not raised: the caller rolls the whole
        write back.  An update's snapshot that did not land loses its
        chunk too: a new version is not kept without its pre-state.
        """
        if chunk.failed[-1] == len(chunk.assigned):
            return True
        moves, _ = self._replace_shards(chunk, chunk.failed)
        placed = {shard_index for _, shard_index, _, _ in moves}
        chunk.failed = [i for i in chunk.failed if i not in placed]
        return bool(chunk.failed) and (
            len(chunk.assigned) - len(chunk.failed) < chunk.state.stripe.k
        )

    def _commit_window(self, window: WriteWindow) -> range:
        """Table a transferred window; returns its chunk indices.

        Must run inside the critical section.  One audit note and one
        Provider Table lookup per distinct provider, the window's columns
        appended (and counted) to the Chunk Table's in one pass.
        Failed-but-accepted shards are recorded too: the table is the
        scrubber's work list, and the next scrub cycle rebuilds them from
        the >= k members that did land.  The checksums on record are the
        ones the transfer computed; the window's shard bytes are released
        here.
        """
        index_of = self.provider_table.index_of
        homes = {name: index_of(name) for name in set(window.names)}
        added = self.chunk_table.add_window(
            window.vids, int(window.level), window.widths,
            list(map(homes.__getitem__, window.names)),
            None if window.snapshots is None
            else [index_of(home) for home, _ in window.snapshots],
            window.positions, window.stripes, window.rotations, window.digests,
        )
        window.shards = []
        self._note_audit(vids=window.vids, providers=homes)
        return added

    def _chunk_spec(self, client: str, ref: FileChunkRef) -> dict:
        """Self-contained description of one stored chunk for the journal.

        Everything recovery needs to re-create (or finish destroying) the
        chunk without the in-memory tables: provider names instead of
        table indices, the stripe geometry, and the write-time checksums.
        Must run inside the critical section.
        """
        entry = self.chunk_table.get(ref.chunk_index)
        return {
            "vid": entry.virtual_id,
            "client": client,
            "filename": ref.filename,
            "serial": ref.serial,
            "level": int(entry.privacy_level),
            "providers": self._members(entry),
            "snapshot": (
                None
                if entry.snapshot_index is None
                else self.provider_table.get(entry.snapshot_index).name
            ),
            "positions": entry.misleading_positions.tolist(),
            **entry.packed.journal_fields(),
        }

    def _members(self, entry: ChunkEntry) -> list[str]:
        """The provider holding each shard of *entry*, by shard index."""
        return self.provider_table.names(entry.provider_indices)

    def _fetch(
        self,
        keys: list[str],
        expected: list,
        runs: list[tuple[str, int, int]],
        sizes: "list[int] | None" = None,
        feed: bool = True,
    ) -> list["bytes | ProviderError"]:
        """One round of shard reads, the one way a shard is read: each run
        ``(provider, start, stop)`` of *keys* one batched get, the runs one
        round (:meth:`_transport_map`), each answer checked against its
        *expected* digest (:func:`check_answers`; ``None`` is not judged).
        The monitor hears each batch and each mismatch (a rotten shard, a
        data failure), unless *feed* is false, for a caller that feeds the
        outcomes itself.  The framing follows the batch's mean shard size
        (per key, *sizes*; ``None`` when none is large), as on upload:
        STREAM_GET (one frame per shard) at or above
        ``STREAM_SEGMENT_THRESHOLD``, else one MULTI_GET payload.  Returns
        each key's bytes or its :class:`ProviderError` (a failed member,
        for the caller to rebuild from parity), in key order."""
        legs = [
            (
                "get_stream"
                if sizes is not None
                and sum(sizes[a:b]) >= STREAM_SEGMENT_THRESHOLD * (b - a)
                else "get_many",
                name, keys[a:b], None, feed, expected[a:b],
            )
            for name, a, b in runs
        ]
        answers: list = [None] * len(keys)
        for (_, a, b), checked in zip(runs, self._transport_map(legs)):
            answers[a:b] = checked
        return answers

    def _fetch_round(
        self, window: ChunkWindow, numbers: np.ndarray, indices: np.ndarray,
        feed: bool = True,
    ) -> list["bytes | ProviderError"]:
        """:meth:`_fetch` of members *indices* of the *window*'s rows
        *numbers*, each provider's requests one batch
        (:meth:`ChunkWindow.plan`); outcomes in request order."""
        keys, expected, rows, runs, back = window.plan(numbers, indices)
        names = self.provider_table.names([provider for provider, _, _ in runs])
        sizes = [stripe.shard_size for stripe in window.stripes]
        answers = self._fetch(
            keys, expected,
            [(name, a, b) for name, (_, a, b) in zip(names, runs)],
            [sizes[row] for row in rows]
            if max(sizes, default=0) >= STREAM_SEGMENT_THRESHOLD else None,
            feed,
        )
        return list(map(answers.__getitem__, back))

    def _replace_shards(
        self,
        chunk: "ChunkEntry | FailedChunk",
        displaced: list[int],
        answers: "dict[int, bytes | ProviderError] | None" = None,
        targets: list[str] | None = None,
    ) -> "tuple[list[tuple[int, int, str, str]], int] | None":
        """Give each *displaced* shard of *chunk* a new home: the one way
        a shard moves, for write failover (*chunk* a plan in flight, its
        shards in hand), repair (so the scrubber), ``decommission_provider``
        and ``rebalance`` (a tabled row, its caller holding the op lock).

        *answers* is what a read of the row's members answered, each
        verified bytes or the member's :class:`ProviderError` (a repair's
        round).  Without it -- a move of shards that may be healthy -- the
        displaced members are read (:meth:`_fetch`), and the rest of the
        stripe only if one of them fails.  A displaced shard without bytes
        is rebuilt from >= k members that have them; with fewer, or under
        an unknown codec, nothing can move: ``None``.  Each shard is offered, a
        one-item ``put_many`` under its *recorded* checksum, to *targets*
        in turn, by default
        :meth:`_replacement_candidates` outside the stripe and the home of
        the chunk's snapshot (Table III: no provider holds both states) or,
        with none,
        its own provider if the shard was rebuilt (the old copy is lost
        anyway) and the provider is usable again.  Where it lands the old
        twin is deleted -- unless its read answered that it is not there
        (:class:`BlobNotFoundError`) -- one event and counter tell, and the plan's
        assignment, or the row and both provider counts, are swapped; a
        shard nobody takes stays where it was.  Returns the ``(vid, shard,
        old, new)`` of each shard that changed provider and how many
        shards were rebuilt and stored.
        """
        entry = chunk if isinstance(chunk, ChunkEntry) else None
        if entry is not None:
            vid, level = entry.virtual_id, entry.privacy_level
            # No state: an unknown-codec quarantine, copied unjudged.
            state = None if entry.quarantined else entry.record
            names, kept = self._members(entry), set()
            if entry.snapshot_index is not None:
                kept.add(self.provider_table.get(entry.snapshot_index).name)
        else:
            vid, level, state = chunk.vid, chunk.level, chunk.state
            names, answers = chunk.assigned, dict(enumerate(chunk.shards))
            kept = {chunk.snapshot[0]} if chunk.snapshot is not None else set()
        if answers is None:
            # A stripe's members sit at distinct providers: a run a member
            # is one batch a provider.
            digests = (state and state.shard_checksums) or (None,) * len(names)
            answers = {}
            for wanted in (displaced, [i for i in range(len(names)) if i not in displaced]):
                answers.update(zip(wanted, self._fetch(
                    [shard_key(vid, i) for i in wanted], [digests[i] for i in wanted],
                    [(names[i], at, at + 1) for at, i in enumerate(wanted)],
                )))
                if not any(isinstance(answers[i], ProviderError) for i in displaced):
                    break
        good = {
            i: data for i, data in answers.items() if not isinstance(data, ProviderError)
        }
        if any(i not in good for i in displaced) and (
            state is None or len(good) < state.stripe.k
        ):
            return None
        checksums = state.shard_checksums if state is not None else None
        event, counter = (
            ("write_failover", "distributor_failover_shards_total")
            if entry is None
            else ("shard_relocated", "distributor_shards_relocated_total")
        )
        moves: list[tuple[int, int, str, str]] = []
        rebuilt = 0
        for shard_index in displaced:
            key, old = shard_key(vid, shard_index), names[shard_index]
            fresh = shard_index not in good
            if fresh:
                good[shard_index] = rebuild_shard(state.stripe, shard_index, good)
            offers = targets
            if offers is None:
                offers = self._replacement_candidates(level, {*names, *kept})
                if not offers and fresh and self._provider_usable(old):
                    offers = [old]
            for new in offers:
                (refused,) = self._provider_batch(
                    "put_many", new, [(key, good[shard_index])],
                    [checksums[shard_index]] if checksums else None,
                )
                if refused is None:
                    break
                # The refusal may be a torn write (stored, ack lost).
                self._delete_objects([(new, key)])
            else:
                self.metrics.counter("distributor_failover_failed_total").inc()
                self.events.emit(
                    "failover_exhausted", level="warning",
                    vid=vid, shard=shard_index, src=old,
                )
                continue
            if new != old:
                if not isinstance(answers.get(shard_index), BlobNotFoundError):
                    self._delete_objects([(old, key)])
                self.metrics.counter(counter).inc()
                self.events.emit(
                    event, vid=vid, shard=shard_index, src=old, dst=new
                )
                moves.append((vid, shard_index, old, new))
            if entry is not None:
                self.chunk_table.move_shard(
                    entry, shard_index, self.provider_table.index_of(new)
                )
            names[shard_index] = new
            rebuilt += fresh
        return moves, rebuilt

    def _replacement_candidates(
        self, level: PrivacyLevel, exclude: set[str]
    ) -> list[str]:
        """Usable eligible providers outside *exclude*, best first.

        Preference mirrors placement: suspect providers last, then
        cheaper cost tier, then least loaded.  Takes the op lock for its
        table reads -- write-path failover calls it from the transfer
        phase, outside the critical section.
        """
        with self.op_lock:
            candidates = [
                c
                for c in self.placement.candidates(
                    self.registry, level, health=self.health
                )
                if c.name not in exclude and self._provider_usable(c.name)
            ]
            load = self.provider_loads()

        candidates.sort(
            key=lambda c: (
                self.health.suspect(c.name), int(c.cost_level),
                load.get(c.name, 0),
            )
        )
        return [c.name for c in candidates]

    # ------------------------------------------------------------------
    # upload path: split() + distribute()          (Section VI)
    # ------------------------------------------------------------------

    def _authorize_upload(
        self, client: str, password: str, filename: str, level: PrivacyLevel
    ) -> None:
        """Authorize an upload at *level*; a refusal is an audited op."""
        try:
            self._require_level(
                client, self.access.authenticate(client, password), level
            )
        except ReproError as exc:
            self._record_op("upload", client, filename, None,
                            ok=False, detail=type(exc).__name__)
            raise

    def upload_file(
        self,
        client: str,
        password: str,
        filename: str,
        data: bytes,
        level: PrivacyLevel | int,
        codec: "CodecSpec | RaidLevel | str | None" = None,
        misleading_fraction: float = 0.0,
    ) -> FileReceipt:
        """Receive a file, split it, and distribute the chunks.

        The client's password must be privileged for the file's privacy
        level.  Chunk size follows the PL schedule; each chunk is
        erasure-coded over a freshly chosen provider group -- by default
        with the distributor's configured codec, overridable per call
        with ``codec=`` (a :class:`CodecSpec`, a spec string like
        ``"rs(6,3)"`` or ``"raid6@5"``, or a :class:`RaidLevel`).

        The whole file is one window of the upload engine
        (:meth:`_upload_windows`): the op lock is held only to plan and to
        commit, the transfer in between batches every shard bound for one
        provider into a single provider call, and the upload is atomic --
        a chunk that cannot reach k shards rolls the entire file back.
        """
        pl = PrivacyLevel.coerce(level)
        self._authorize_upload(client, password, filename, pl)
        payloads = chunking.cut(data, self.chunk_policy.chunk_size(pl))
        with self.tracer.span("distributor.upload", client=client):
            return self._upload_windows(
                client, pl, filename, [(payloads, True)],
                codec=codec, misleading_fraction=misleading_fraction,
            )

    def _upload_windows(
        self,
        client: str,
        pl: PrivacyLevel,
        filename: str,
        windows: "Iterable[tuple[list[bytes | memoryview], bool]]",
        *,
        codec: "CodecSpec | RaidLevel | str | None" = None,
        misleading_fraction: float = 0.0,
        cipher: "StreamCipher | None" = None,
    ) -> FileReceipt:
        """A new file through the write engine (:meth:`_write_windows`),
        chunks numbered from 0 and encrypted with *cipher* (``nonce=serial``)
        if given, audited as an ``upload``.  The filename is reserved in
        ``_inflight_uploads`` throughout, so a racing duplicate is refused
        up front -- after :func:`check_fraction`, so a refused fraction
        reserves nothing and opens no journal transaction."""
        misleading_fraction = check_fraction(misleading_fraction)
        with self.op_lock:
            if filename in self._inflight_uploads.get(client, ()) or (
                self.client_table.get(client).has_file(filename)
            ):
                raise ValueError(
                    f"client {client!r} already stores a file named {filename!r}"
                )
            codec_obj = self._resolve_codec(pl, codec)
            self._inflight_uploads.setdefault(client, set()).add(filename)
        serial = total_bytes = 0

        def plan(payloads: list, load: dict[str, int]) -> WriteWindow:
            nonlocal serial, total_bytes
            window = self._plan_window(
                payloads
                if cipher is None
                else [
                    cipher.encrypt(payload, nonce=serial + i)
                    for i, payload in enumerate(payloads)
                ],
                filename, pl, range(serial, serial + len(payloads)), codec_obj,
                misleading_fraction, load,
            )
            serial += len(window.vids)
            total_bytes += sum(map(len, payloads))
            return window

        try:
            self._write_windows(client, filename, windows, plan)
        except Exception as exc:
            self._record_op("upload", client, filename, None,
                            ok=False, detail=type(exc).__name__)
            raise
        finally:
            with self.op_lock:
                inflight = self._inflight_uploads.get(client, set())
                inflight.discard(filename)
                if not inflight:
                    self._inflight_uploads.pop(client, None)
        self._record_op("upload", client, filename, None, ok=True)
        return FileReceipt(
            filename=filename,
            privacy_level=pl,
            chunk_count=serial,
            file_size=total_bytes,
            raid_level=codec_obj.raid_level,
            stripe_width=codec_obj.n,
            codec=codec_obj.label,
        )

    def _write_windows(
        self,
        client: str,
        filename: str,
        windows: "Iterable[tuple[list[bytes | memoryview], bool]]",
        plan: "Callable[[list, dict[str, int]], WriteWindow]",
        retiring: "list[FileChunkRef] | None" = None,
    ) -> None:
        """The write engine: plan -> transfer -> commit, window by window.

        *windows* yields ``(payloads, last)``: a window's chunk payloads in
        serial order, and whether nothing follows.  Per window, *plan* runs
        under the op lock (draws, placement against loads carried across
        windows, ids) and returns the window as columns (:class:`WriteWindow`);
        the keys about to exist are journaled, the shards move lock-free
        (one batch per provider; write failover, with a per-chunk view only
        for a chunk whose put failed), and the columns are tabled: each
        stage one pass over the window, with no object per chunk.  A window
        transfers on its own thread while the next is read and planned,
        except a last one, which transfers inline (a whole-file upload or an
        update never leaves the caller's thread).  Planning copies what it
        keeps: a payload may view a buffer the source refills.

        Committed windows stay invisible until the final commit publishes
        them with the journal commit.  An update (*retiring*: the quadruples
        it replaces) swaps its quadruples in; its commit record names the
        chunks the caller retires after it.  Any ``Exception`` before the
        publish aborts the transaction and erases every chunk the write
        created; a simulated crash (a ``BaseException``) tears through.
        """
        op = "upload" if retiring is None else "update"
        txn: int | None = None
        # Committed windows, not yet visible: serials and chunk indices.
        serials: list[int] = []
        indices: list[int] = []
        pending: list[WriteWindow] = []  # planned, not yet committed
        flight: _WindowTransfer | None = None  # the window on the wire
        load: dict[str, int] | None = None

        def transfer(window: WriteWindow) -> None:
            with self._phase(op, "transfer"):
                failed = self._transfer_window(window)
                lost = [chunk for chunk in failed if self._recover_plan(chunk)]
                window.rehome(failed)
            if lost:
                # Atomicity: one unrecoverable chunk aborts the whole write.
                raise lost[0].first_error

        def commit(window: WriteWindow, last: bool) -> None:
            if txn is not None and window.moved:
                # Failover relocated shards; log the new homes.
                self.journal.extend(txn, window.moved)
            crashpoint("upload.transferred" if retiring is None else "update.staged")
            with self.op_lock, self._phase(op, "commit"):
                indices.extend(self._commit_window(window))
                serials.extend(window.serials)
                del pending[0]
                if not last:
                    return
                # Publish, in the same critical section as the last
                # window's rows.  The journal commit goes first: should it
                # fail, the abort below still finds the write invisible.
                level = window.level
                refs = [
                    FileChunkRef(filename, serial, level, index)
                    for serial, index in zip(serials, indices)
                ] if txn is not None or retiring is not None else ()
                if txn is not None:
                    self.journal.commit(txn, {
                        "client": client,
                        "filename": filename,
                        "remove": [self._chunk_spec(client, r) for r in retiring or ()],
                        "add": [self._chunk_spec(client, r) for r in refs],
                    })
                client_entry = self.client_table.get(client)
                if retiring is None:
                    client_entry.add_file(filename, serials, level, indices)
                else:
                    for ref in refs:
                        client_entry.replace_ref(ref)

        try:
            for payloads, last in windows:
                # -- plan (critical section) -------------------------------
                with self.op_lock, self._phase(op, "plan"):
                    if load is None:
                        load = self.provider_loads()
                    window = plan(payloads, load)
                pending.append(window)
                # -- intent (durable): every key this window creates -------
                if self.journal is not None:
                    keys = window.writes()
                    if txn is None:
                        # The first window rides the begin record, so a
                        # one-window write costs begin + commit.
                        txn = self.journal.begin(op, client, filename, put_keys=keys)
                    else:
                        self.journal.extend(txn, keys)
                    crashpoint(f"{op}.intent_logged")
                # -- transfer (lock-free) and commit -----------------------
                # The previous window's wire phase ran beside the read and
                # plan above; settle and commit it before this one takes
                # its place (bounds memory to two windows' shards and keeps
                # commits in serial order).
                if flight is not None:
                    flight.settle()
                    commit(flight.window, last=False)
                    flight = None
                if last:
                    transfer(window)
                    commit(window, last=True)
                else:
                    flight = _WindowTransfer(transfer, window)
            if flight is not None:
                # The source ended on a window it could not call last.
                flight.settle()
                commit(flight.window, last=True)
                flight = None
            crashpoint(f"{op}.committed")
        except BaseException as exc:
            if flight is not None:
                # Never leave a transfer running behind the caller -- and
                # settle the wire before erasing it.
                flight.join()
            if isinstance(exc, Exception):
                with self.op_lock:
                    self._delete_chunks(indices, rolled_back=pending)
                if txn is not None:
                    self.journal.abort(txn)
            raise

    def put_stream(
        self,
        client: str,
        password: str,
        filename: str,
        fileobj,
        level: "PrivacyLevel | int",
        **options,
    ) -> FileReceipt:
        """Upload from a binary file object with O(window) memory.

        Thin veneer over :func:`repro.core.streaming.put_stream` (lazy
        import keeps the module dependency one-way); see there for the
        windowing model and keyword options.
        """
        from repro.core.streaming import put_stream

        return put_stream(self, client, password, filename, fileobj, level,
                          **options)

    # ------------------------------------------------------------------
    # retrieval path: get_chunk() / get_file()      (Sections V and VI)
    # ------------------------------------------------------------------

    def _resolve_read(
        self, op: "tuple[str, str, str, int | None]", password: str,
        eager: bool = False,
    ) -> _Reads:
        """Resolve and authorize the read *op* -- ``(operation, client,
        filename, serial)``, the whole file when *serial* is ``None`` --
        into the chunks to read, in serial order.

        The password is checked before any table is read (Section V: the
        distributor checks the ⟨password, PL⟩ pair, then resolves), so
        what a refusal says does not depend on whether the file exists;
        then Client Table quadruples -> Chunk Table rows, under the op
        lock, as one index array.  A refusal (wrong password, unknown
        file) is recorded as a failed *operation*, so the audit log's
        ``auth_failure_streak`` sees it whichever read asked.  With *eager*
        (a stream, read window by window later) what a window would refuse
        -- a chunk row gone, a chunk quarantined under an unknown codec --
        is refused here too.
        """
        _, client, filename, serial = op
        try:
            granted = self.access.authenticate(client, password)
            with self.op_lock, self._phase("get_file", "resolve"):
                if serial is None:
                    reads, level = self._reads_of(client, filename)
                else:
                    ref = self.client_table.get(client).ref_for_chunk(filename, serial)
                    level = ref.privacy_level
                    reads = _Reads(filename, [serial], [ref.chunk_index])
                self._require_level(client, granted, level)
                if eager:
                    self.chunk_table.check(reads.chunks, filename)
                return reads
        except ReproError as exc:
            self._record_op(*op, ok=False, detail=type(exc).__name__)
            raise

    def _reads_of(self, client: str, filename: str) -> tuple[_Reads, PrivacyLevel]:
        """*client*'s file *filename* as a read of all its chunks, and its
        level (op lock held; the caller authorizes)."""
        refs = self.client_table.get(client).file(filename)
        return _Reads(filename, refs.serials.tolist(), refs.chunks.tolist()), refs.level

    def _read_rows(
        self,
        reads: _Reads,
        window_chunks: int,
        *,
        cipher: "StreamCipher | None" = None,
        op: "tuple[str, str, str, int | None] | None" = None,
    ) -> "Iterator[tuple[int, bytes | bytearray | memoryview]]":
        """The read engine: yield the plaintext, window by window, in
        :func:`strip`'s pieces of whole chunks, ``(chunks, bytes)``.

        Per window of *window_chunks* chunks, lock-free but for the copy
        of its Chunk Table rows: the shards fetched in rounds, one batched
        call per provider per round, then decoded and stripped a slab at a
        time (:meth:`_read_window`), then the cache fill.  A window's shard
        bytes are released before its pieces are yielded (the generator
        may be held open for a long time), so memory is O(window).  With
        *cipher* each chunk is decrypted with ``nonce=serial`` and yielded
        alone (the cache keeps what is stored).

        On the way out -- exhausted, failed, or closed early by the
        consumer -- the audit record has the chunks actually fetched
        (each window notes its own), and with *op* (``operation, client,
        filename, serial``) that record is written here: ``ok`` only if
        every chunk was yielded, otherwise naming the error or the
        abandonment.
        """
        chunks = reads.chunks
        fetched = 0  # chunks[:fetched] went to the providers
        ok, detail = False, ""
        try:
            for start in range(0, len(chunks), window_chunks):
                batch = chunks[start : start + window_chunks]
                fetched = start + len(batch)
                with self._phase("get_file", "fetch"):
                    pieces = self._read_window(batch, reads.filename)[0]
                if cipher is not None:
                    pieces = [(1, cipher.decrypt(payload, nonce=serial)) for payload, serial
                              in zip(row_payloads(pieces), reads.serials[start:fetched])]
                yield from pieces
                del pieces  # (before the next window is fetched)
            ok = True
        except GeneratorExit:
            detail = f"abandoned within {fetched} of {len(chunks)} chunks"
            raise
        except Exception as exc:
            detail = type(exc).__name__
            raise
        finally:
            if op is not None:
                self._record_op(*op, ok=ok, detail=detail)

    def _read_window(
        self, chunks: list[int], filename: str
    ) -> "tuple[list[tuple[int, bytes | bytearray | memoryview]], ChunkWindow]":
        """Fetch, decode and strip the chunks at table indices *chunks*;
        returns their plaintext (:meth:`_read_rows`' pieces) and the copy
        of their rows it read.

        Under the op lock, their rows are copied out of the Chunk Table's
        columns (:meth:`ChunkTable.window`) and noted for the audit record,
        and the cache is asked for each; the rest runs without it.
        :func:`read_slabs` asks in rounds -- every stripe's data members
        first, parity for those on a provider the monitor distrusts, then
        only as much parity as a stripe is short of -- each round one
        :meth:`_fetch_round`: a batched, checked call a provider, the
        providers in flight concurrently; a mismatch is a failed member.
        Each slab is stripped as it is decoded; with a cache, pieces are
        one chunk each, misses filled after the strip.
        """
        table, distrusted = self.chunk_table, self.health.distrusted
        cached: "list[bytes | None] | None" = None
        with self.op_lock:
            window = rows = table.window(chunks, filename)
            self._note_audit(
                vids=window.vids,
                providers=self.provider_table.names(window.providers()),
            )
            if self.cache is not None:
                cached = [self.cache.get(vid) for vid in window.vids]
                if cached.count(None) < len(cached):
                    window = table.window(
                        [chunk for chunk, payload in zip(chunks, cached) if payload is None]
                    )
        if distrusted:  # by provider table index
            distrusted = {at: distrusted[entry.name]
                          for at, entry in self.provider_table if entry.name in distrusted}
        pieces = strip(read_slabs(
            window.stripes, functools.partial(self._fetch_round, window),
            (window.first, window.members, distrusted) if distrusted else None,
        ), window.runs, window.positions)
        if cached is None:
            return pieces, rows
        fresh = row_payloads(pieces)
        if fresh:
            with self.op_lock, self._phase("get_file", "cache_fill"):
                for vid, payload in zip(window.vids, fresh):
                    self.cache.put(vid, payload)
        stripped = iter(fresh)
        return [(1, next(stripped) if payload is None else payload) for payload in cached], rows

    def get_chunk(
        self, client: str, password: str, filename: str, serial: int
    ) -> bytes:
        """Fetch one chunk by (client name, password, filename, sl no.).

        Reproduces the paper's resolution chain: Client Table quadruple ->
        Chunk Table entry -> Cloud Provider Table row -> provider ``get``.
        """
        op = ("get_chunk", client, filename, serial)
        with self.tracer.span("distributor.get_chunk", client=client):
            (payload,) = row_payloads(self._read_rows(self._resolve_read(op, password), 1, op=op))
        return payload

    def get_file(self, client: str, password: str, filename: str) -> bytes:
        """Fetch and reassemble every chunk of *filename*.

        Every chunk's metadata is resolved under the op lock; the data
        shards of *all* chunks are then fetched as one window of the read
        engine (:meth:`_read_rows`) -- batched per provider, providers in
        flight concurrently -- and its pieces joined once.
        """
        op = ("get_file", client, filename, None)
        with self.tracer.span("distributor.get_file", client=client):
            reads = self._resolve_read(op, password)
            return b"".join([part for _, part in self._read_rows(reads, len(reads.chunks), op=op)])

    def get_stream(
        self, client: str, password: str, filename: str, **options
    ) -> Iterator[bytes]:
        """Iterate *filename*'s plaintext in chunk-sized segments.

        Thin veneer over :func:`repro.core.streaming.get_stream`;
        authorization happens eagerly, shard traffic lazily per window.
        """
        from repro.core.streaming import get_stream

        return get_stream(self, client, password, filename, **options)

    def chunk_count(self, client: str, filename: str) -> int:
        """How many chunks *filename* was split into (told to the client)."""
        return len(self.client_table.get(client).refs_for_file(filename))

    def list_files(self, client: str, password: str) -> list[str]:
        """Filenames the password may see (PL of file <= password PL)."""
        granted = self.access.authenticate(client, password)
        entry = self.client_table.get(client)
        return [
            name
            for name in entry.filenames()
            if int(entry.refs_for_file(name)[0].privacy_level) <= int(granted)
        ]

    # ------------------------------------------------------------------
    # removal path: remove_chunk() / remove_file()   (Section VI)
    # ------------------------------------------------------------------

    def _delete_chunks(self, chunks: "Sequence[int]", rolled_back=()) -> None:
        """Erase, lock held, the tabled chunks at Chunk Table indices
        *chunks* and whatever the *rolled_back* windows (transferred, never
        tabled) left: the rows untabled in one pass over the columns, then
        every shard and snapshot they placed in one :meth:`_delete_objects`
        batch, then the ids."""
        doomed = [pair for window in rolled_back for pair in window.writes()]
        vids: list[int] = []
        if len(chunks):
            vids, providers, keys = self.chunk_table.remove_many(chunks)
            names = self.provider_table.names(providers)
            self._note_audit(vids=vids, providers=names)
            doomed += zip(names, keys)
        self._delete_objects(doomed)
        for vid in (vid for window in rolled_back for vid in window.vids):
            self.metrics.counter("distributor_rollbacks_total").inc()
            self.events.emit("upload_rollback", level="warning", vid=vid)
            self.ids.release(vid)
        for vid in vids:
            if self.cache is not None:
                self.cache.invalidate(vid)
            self.ids.release(vid)

    def remove_chunk(
        self, client: str, password: str, filename: str, serial: int
    ) -> None:
        """Remove one chunk; forwarded to every stripe member."""

        def work() -> None:
            granted = self.access.authenticate(client, password)
            with self.op_lock:
                client_entry = self.client_table.get(client)
                ref = client_entry.ref_for_chunk(filename, serial)
                self._require_level(client, granted, ref.privacy_level)
                self._remove_refs(client, client_entry, filename, [ref])

        self._audited("remove_chunk", client, filename, serial, work)

    def remove_file(self, client: str, password: str, filename: str) -> None:
        """Remove every chunk of *filename*."""

        def work() -> None:
            granted = self.access.authenticate(client, password)
            with self.op_lock:
                client_entry = self.client_table.get(client)
                refs = client_entry.refs_for_file(filename)
                self._require_level(client, granted, refs[0].privacy_level)
                self._remove_refs(client, client_entry, filename, refs)

        self._audited("remove_file", client, filename, None, work)

    def _remove_refs(
        self, client, client_entry, filename: str, refs: list[FileChunkRef]
    ) -> None:
        """Journalled deletion of *refs* (already authorized, lock held).

        The intent record carries the full chunk specs: a remove that
        crashes half-done can only roll *forward* (shards cannot be
        un-deleted), so recovery needs enough to finish the job.  Chunks
        go :data:`REMOVE_WINDOW_CHUNKS` at a time, shards then rows and
        refs: a crash between windows leaves each chunk gone or tabled.
        """
        txn = None
        if self.journal is not None:
            specs = [self._chunk_spec(client, ref) for ref in refs]
            txn = self.journal.begin(
                "remove", client, filename, remove_specs=specs
            )
            crashpoint("remove.intent_logged")
        for start in range(0, len(refs), REMOVE_WINDOW_CHUNKS):
            window = refs[start : start + REMOVE_WINDOW_CHUNKS]
            self._delete_chunks([ref.chunk_index for ref in window])
            client_entry.remove_refs(window)
            crashpoint("remove.partial")
        if txn is not None:
            self.journal.commit(
                txn,
                {
                    "client": client,
                    "filename": filename,
                    "remove": specs,
                    "add": [],
                },
            )
            crashpoint("remove.committed")

    # ------------------------------------------------------------------
    # modification with snapshotting                (Table III's SP column)
    # ------------------------------------------------------------------

    def update_chunk(
        self, client: str, password: str, filename: str, serial: int,
        new_payload: bytes,
    ) -> None:
        """Replace a chunk's contents, snapshotting the pre-state first:
        :meth:`update_chunks` of one chunk."""
        self.update_chunks(client, password, filename, {serial: new_payload})

    def update_chunks(
        self, client: str, password: str, filename: str,
        updates: "Mapping[int, bytes]",
    ) -> None:
        """Replace chunks of *filename*, ``{serial: new payload}``, all or
        none; each pre-modification payload is kept at a snapshot provider
        outside its new stripe group (Table III's SP column).  Audited as
        one ``update_chunk``, naming its serial if it has one.

        Copy-on-write, one last window of the write engine under the op
        lock: each new version a fresh stripe keeping its chunk's codec and
        misleading-byte budget, its pre-state (read as one window) its
        snapshot.  The old chunks are retired after the commit record.
        """
        serials = sorted(updates)
        if not serials:
            raise ValueError(f"an update of {filename!r} names no chunk")

        def work() -> None:
            granted = self.access.authenticate(client, password)
            with self.op_lock:
                client_entry = self.client_table.get(client)
                refs = [client_entry.ref_for_chunk(filename, s) for s in serials]
                self._require_level(client, granted, refs[0].privacy_level)
                chunks = [ref.chunk_index for ref in refs]
                pieces, rows = self._read_window(chunks, filename)
                pre_states = row_payloads(pieces)
                # The codec comes back from the stripe metadata (so across
                # codec generations), the misleading bytes at the budget
                # the chunk had; chunks alike are planned together.
                recipes = [
                    (codec_for_meta(stripe), fraction)
                    for stripe, fraction in rows.budgets()
                ]

                def plan(payloads: list, load: dict[str, int]) -> WriteWindow:
                    window = None
                    for (codec, fraction), run in itertools.groupby(
                        range(len(chunks)), recipes.__getitem__
                    ):
                        run = list(run)
                        planned = self._plan_window(
                            [payloads[i] for i in run], filename, refs[0].privacy_level,
                            [serials[i] for i in run], codec, fraction, load,
                            snapshots=[pre_states[i] for i in run],
                        )
                        if window is None:
                            window = planned
                        else:
                            window.extend(planned)
                    return window

                self._write_windows(
                    client, filename, [([updates[s] for s in serials], True)],
                    plan, retiring=refs,
                )
                self._delete_chunks(chunks)

        one = serials[0] if len(serials) == 1 else None
        self._audited("update_chunk", client, filename, one, work)

    def get_snapshot(
        self, client: str, password: str, filename: str, serial: int
    ) -> bytes:
        """Read the pre-modification state of a chunk (if one exists)."""
        granted = self.access.authenticate(client, password)
        with self.op_lock:
            ref = self.client_table.get(client).ref_for_chunk(filename, serial)
            self._require_level(client, granted, ref.privacy_level)
            entry = self.chunk_table.get(ref.chunk_index)
            if entry.snapshot_index is None:
                raise UnknownChunkError(
                    f"chunk {serial} of {filename!r} has never been modified"
                )
            name = self.provider_table.get(entry.snapshot_index).name
            return self.snapshots.read(name, entry.virtual_id)

    # ------------------------------------------------------------------
    # RAID repair
    # ------------------------------------------------------------------

    def repair_file(self, client: str, password: str, filename: str) -> RepairReport:
        """Scrub every chunk of *filename*, rebuilding lost/corrupt shards.

        The file's chunks are one :meth:`_repair_window`, under the op
        lock: shards on unavailable or damaged providers are regenerated
        from the surviving stripe members and relocated to a healthy
        eligible provider outside the current group.
        """

        def work() -> RepairReport:
            granted = self.access.authenticate(client, password)
            with self.op_lock:
                refs = self.client_table.get(client).refs_for_file(filename)
                self._require_level(client, granted, refs[0].privacy_level)
                _, missing, rebuilt, unrecoverable, relocations = self._repair_window(
                    [ref.chunk_index for ref in refs], filename
                )
            return RepairReport(
                filename=filename,
                chunks_checked=len(refs),
                shards_missing=missing,
                shards_rebuilt=rebuilt,
                chunks_unrecoverable=unrecoverable,
                relocations=relocations,
            )

        return self._audited("repair_file", client, filename, None, work)

    def _repair_window(
        self, chunks: list[int], filename: str | None = None
    ) -> tuple[int, int, int, int, list[tuple[int, int, str, str]]]:
        """Audit and heal the stripes of the rows at table indices
        *chunks* (op lock held).

        Every member of every row is read in one round, one batched get a
        provider (:meth:`_fetch_round`), each shard checked against its
        recorded checksum; what is lost or rotten is rebuilt from >= k
        survivors and re-placed by :meth:`_replace_shards`.  The monitor
        hears the reads row by row, each damaged row's before its shards
        are re-placed, so a target is chosen on the evidence a repair a
        row at a time would have had, whatever the window.  Returns
        ``(shards checked, missing, rebuilt, unrecoverable, relocations)``.
        """
        window = self.chunk_table.window(chunks, filename)
        first = np.asarray(window.first, np.int64)
        widths = np.diff(first, append=len(window.members))
        outcomes = self._fetch_round(
            window,
            np.repeat(np.arange(len(first)), widths),
            np.arange(len(window.members)) - np.repeat(first, widths),
            feed=False,
        )
        names = self.provider_table.names(window.members)
        heard = 0  # outcomes the monitor has heard

        def hear(stop: int) -> None:
            runs: defaultdict[str, list] = defaultdict(list)
            for name, outcome in zip(names[heard:stop], outcomes[heard:stop]):
                runs[name].append(outcome)
            for name, run in runs.items():
                self._hear(name, run)

        missing = rebuilt = unrecoverable = 0
        relocations: list[tuple[int, int, str, str]] = []
        for chunk, stripe, at, width in zip(
            chunks, window.stripes, first.tolist(), widths.tolist()
        ):
            answers = dict(enumerate(outcomes[at : at + width]))
            bad = [i for i, data in answers.items() if isinstance(data, ProviderError)]
            if not bad:
                continue
            hear(at + width)
            heard = at + width
            missing += len(bad)
            if width - len(bad) < stripe.k:
                unrecoverable += 1
                continue
            moves, fresh = self._replace_shards(self.chunk_table.get(chunk), bad, answers)
            rebuilt += fresh
            relocations += moves
        hear(len(outcomes))
        return len(outcomes), missing, rebuilt, unrecoverable, relocations

    # ------------------------------------------------------------------
    # metadata replication (Fig. 2 secondaries) and persistence
    # ------------------------------------------------------------------

    def export_metadata(self) -> dict:
        """Serializable snapshot of all distributor metadata.

        Covers the three tables, hashed credentials, virtual-id state and
        per-chunk stripe geometry -- everything a secondary distributor
        needs to serve retrievals, and everything persistence needs to
        survive a restart.  Provider *data* stays at the providers.  Thin
        veneer over :mod:`repro.core.persistence`, which owns the
        document's shape (lazy import keeps the dependency one-way).
        """
        from repro.core.persistence import export_metadata

        return export_metadata(self)

    def import_metadata(self, snapshot: dict) -> None:
        """Replace this distributor's metadata with an exported snapshot; a
        refused one (:class:`MetadataCorruptedError`) leaves it serving
        what it had.  Thin veneer over :mod:`repro.core.persistence`."""
        from repro.core.persistence import import_metadata

        import_metadata(self, snapshot)

    def stripe_meta(self, client: str, filename: str, serial: int) -> StripeMeta:
        with self.op_lock:
            ref = self.client_table.get(client).ref_for_chunk(filename, serial)
            entry = self.chunk_table.get(ref.chunk_index)
            return entry.state(filename).stripe
