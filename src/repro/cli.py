"""Command-line interface: a disk-backed deployment of the distributor.

Runs the full categorize/fragment/distribute pipeline against real files,
with providers persisted as directories and distributor metadata saved as
checksummed JSON -- a working miniature of the paper's system::

    python -m repro init --state ./cloud --providers 6
    python -m repro register-client --state ./cloud Bob
    python -m repro add-password --state ./cloud Bob s3cret 3
    python -m repro put --state ./cloud Bob s3cret report.csv --level 3
    python -m repro ls --state ./cloud Bob s3cret
    python -m repro get --state ./cloud Bob s3cret report.csv -o out.csv
    python -m repro status --state ./cloud
    python -m repro suggest-level report.csv
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

from repro.core.cache import ChunkCache
from repro.core.categorize import check_level, suggest_level
from repro.core.distributor import CloudDataDistributor
from repro.core.errors import UnknownCodecError
from repro.core.persistence import load_metadata, save_metadata
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.obs.events import EventLog, set_events
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.trace import Tracer, get_tracer, set_tracer
from repro.providers.disk import DiskProvider
from repro.providers.registry import ProviderRegistry, provider_from_url
from repro.util.tables import render_table
from repro.util.units import format_bytes

FLEET_FILE = "fleet.json"
METADATA_FILE = "metadata.json"
METRICS_FILE = "metrics.json"
JOURNAL_FILE = "journal.jsonl"

#: Chunk-cache budget for CLI deployments; enough to keep a whole file
#: hot across a get + verify pass without growing unbounded.
CACHE_BYTES = 64 << 20

# The registry installed by the current invocation's ``_open``; metrics
# are persisted only when this matches the live registry, so commands
# that never opened a deployment don't write stale process-wide state.
_installed_registry: MetricsRegistry | None = None


def _state_dir(args) -> Path:
    return Path(args.state)


def _init(args) -> int:
    state = _state_dir(args)
    if (state / FLEET_FILE).exists():
        print(f"error: {state} already initialized", file=sys.stderr)
        return 1
    state.mkdir(parents=True, exist_ok=True)
    fleet = []
    for i in range(args.providers):
        # Ladder the trust levels so every PL has somewhere to go.
        pl = 3 if i < max(4, args.providers // 2) else (i % 4)
        fleet.append(
            {"name": f"P{i}", "privacy_level": pl, "cost_level": i % 4,
             "region": "default"}
        )
    (state / FLEET_FILE).write_text(json.dumps(fleet, indent=2))
    for spec in fleet:
        (state / "providers" / spec["name"]).mkdir(parents=True, exist_ok=True)
    print(f"initialized {args.providers} disk providers under {state}")
    return 0


def _build_registry(state: Path) -> ProviderRegistry:
    """Provider registry from the deployment's ``fleet.json``."""
    fleet_path = state / FLEET_FILE
    registry = ProviderRegistry()
    for spec in json.loads(fleet_path.read_text()):
        # A fleet entry may point at any provider URL (e.g. a
        # remote://host:port chunk server); bare entries stay disk-backed.
        if "url" in spec:
            try:
                provider = provider_from_url(spec["name"], spec["url"])
            except ValueError as exc:
                raise SystemExit(
                    f"error: bad fleet entry {spec['name']!r} in {fleet_path}: {exc}"
                )
        else:
            provider = DiskProvider(
                spec["name"], state / "providers" / spec["name"]
            )
        registry.register(
            provider,
            PrivacyLevel.coerce(spec["privacy_level"]),
            CostLevel.coerce(spec["cost_level"]),
            region=spec.get("region", "default"),
        )
    return registry


def _open(args) -> tuple[CloudDataDistributor, Path]:
    global _installed_registry
    state = _state_dir(args)
    fleet_path = state / FLEET_FILE
    if not fleet_path.exists():
        raise SystemExit(f"error: {state} is not initialized (run `init` first)")
    if (state / FLEET_STATE_FILE).exists():
        raise SystemExit(
            f"error: {state} is a sharded fleet deployment "
            f"(use the fleet-*/shard-* commands)"
        )
    # Fresh telemetry per invocation: this run's counts merge into the
    # deployment's persisted totals on exit (see ``_persist_metrics``),
    # and a fresh registry keeps repeated in-process invocations from
    # double-counting older runs.
    _installed_registry = MetricsRegistry()
    set_metrics(_installed_registry)
    set_tracer(Tracer())
    set_events(EventLog())
    registry = _build_registry(state)
    from repro.core.journal import IntentJournal, recover_from_journal

    journal = IntentJournal(state / JOURNAL_FILE)
    distributor = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy(),
        seed=0xC11,
        cache=ChunkCache(CACHE_BYTES),
        journal=journal,
    )
    metadata_path = state / METADATA_FILE
    if metadata_path.exists():
        load_metadata(distributor, metadata_path)
    # Resolve whatever a crashed previous invocation left in flight before
    # this one touches anything; a no-op when the journal is empty.
    report = recover_from_journal(distributor, journal)
    if report.acted:
        save_metadata(distributor, metadata_path)
        journal.checkpoint()
        print(report.summary(), file=sys.stderr)
    return distributor, metadata_path


def _persist_metrics(state: Path) -> None:
    """Fold this invocation's metrics into the deployment's running totals.

    Order matters: the persisted file is imported into a scratch registry
    *before* this run's counts, so counters/histograms add while gauges
    (last-writer-wins on merge) keep this run's live level instead of
    being clobbered by a stale snapshot.
    """
    registry = get_metrics()
    if registry is not _installed_registry or _installed_registry is None:
        return
    path = state / METRICS_FILE
    scratch = MetricsRegistry()
    if path.exists():
        with contextlib.suppress(ValueError, KeyError, TypeError):
            scratch.import_state(json.loads(path.read_text()))
    scratch.import_state(registry.export_state())
    path.write_text(json.dumps(scratch.export_state()))


def _commit(distributor: CloudDataDistributor, metadata_path: Path) -> None:
    save_metadata(distributor, metadata_path)
    if distributor.journal is not None:
        # The snapshot now covers every finished transaction; drop them.
        distributor.journal.checkpoint()


def _register_client(args) -> int:
    distributor, meta = _open(args)
    distributor.register_client(args.client)
    _commit(distributor, meta)
    print(f"registered client {args.client!r}")
    return 0


def _add_password(args) -> int:
    distributor, meta = _open(args)
    distributor.add_password(args.client, args.password, int(args.level))
    _commit(distributor, meta)
    print(f"added PL-{args.level} password for {args.client!r}")
    return 0


#: How much of the file the streaming ``put`` samples for the PL advisory
#: check.  Reading the whole file would defeat constant-memory streaming;
#: the categorizer's signals (entropy, token patterns) stabilize well
#: within the first 64 KiB.
_CHECK_SAMPLE_BYTES = 64 * 1024


def _put(args) -> int:
    distributor, meta = _open(args)
    path = Path(args.file)
    filename = args.name or path.name
    level = PrivacyLevel.coerce(args.level)
    with path.open("rb") as fh:
        sample = fh.read(_CHECK_SAMPLE_BYTES)
        ok, suggestion = check_level(sample, level)
        if not ok:
            print(
                f"warning: content looks like {suggestion} but stored at PL "
                f"{int(level)}",
                file=sys.stderr,
            )
            if args.strict:
                return 1
        fh.seek(0)
        receipt = distributor.put_stream(
            args.client, args.password, filename, fh, level,
            codec=args.codec,
            misleading_fraction=args.misleading,
        )
    _commit(distributor, meta)
    print(
        f"stored {filename!r}: {format_bytes(receipt.file_size)} in "
        f"{receipt.chunk_count} chunks ({receipt.codec}, "
        f"width {receipt.stripe_width})"
    )
    return 0


def _get(args) -> int:
    distributor, _ = _open(args)
    to_stdout = args.output == "-"
    # Status lines go to stderr when the payload itself rides stdout.
    info = sys.stderr if to_stdout else sys.stdout

    def read_into(sink) -> "tuple[hashlib._Hash, int]":
        """Stream the file out, hashing it (and writing it to *sink*)."""
        digest = hashlib.sha256()
        total = 0
        for segment in distributor.get_stream(
            args.client, args.password, args.filename
        ):
            if sink is not None:
                sink.write(segment)
            digest.update(segment)
            total += len(segment)
        return digest, total

    if to_stdout:
        out = None
        digest, total = read_into(sys.stdout.buffer)
    else:
        out = Path(args.output) if args.output else Path(args.filename)
        with out.open("wb") as sink:
            digest, total = read_into(sink)
    print(
        f"retrieved {format_bytes(total)} -> {out if out else 'stdout'}",
        file=info,
    )
    if args.verify:
        # Second read: chunks come from the warm cache, and any mismatch
        # means the fleet returned unstable bytes.
        again, _ = read_into(None)
        if again.digest() != digest.digest():
            print("error: re-read returned different bytes", file=sys.stderr)
            return 2
        print("verified: re-read matches", file=info)
    return 0


def _rm(args) -> int:
    distributor, meta = _open(args)
    distributor.remove_file(args.client, args.password, args.filename)
    _commit(distributor, meta)
    print(f"removed {args.filename!r}")
    return 0


def _ls(args) -> int:
    distributor, _ = _open(args)
    names = distributor.list_files(args.client, args.password)
    entry = distributor.client_table.get(args.client)
    rows = []
    for name in names:
        refs = entry.refs_for_file(name)
        try:
            codec = distributor.stripe_meta(
                args.client, name, refs[0].serial
            ).codec
        except UnknownCodecError:
            codec = "?"  # quarantined: spec unreadable by this build
        rows.append([name, int(refs[0].privacy_level), len(refs), codec])
    print(render_table(["file", "PL", "chunks", "codec"], rows))
    return 0


def _status(args) -> int:
    distributor, _ = _open(args)
    print(
        render_table(
            ["Cloud Provider", "PL", "CL", "Count", "Virtual id list"],
            distributor.provider_table.rows(distributor.chunk_table.provider_keys()),
            title="Cloud Provider Table",
        )
    )
    print(f"clients: {len(distributor.client_table)}  chunks: {len(distributor.chunk_table)}")
    return 0


def _repair(args) -> int:
    distributor, meta = _open(args)
    if args.auto:
        from repro.health.scrubber import Scrubber

        report = Scrubber(distributor).run_once()
        _commit(distributor, meta)
        print(report.summary())
        for vid, shard, old, new in report.relocations:
            print(f"  relocated chunk {vid} shard {shard}: {old} -> {new}")
        return 0 if report.chunks_unrecoverable == 0 else 2
    if not (args.client and args.password and args.filename):
        print(
            "error: repair needs CLIENT PASSWORD FILENAME (or --auto)",
            file=sys.stderr,
        )
        return 1
    report = distributor.repair_file(args.client, args.password, args.filename)
    _commit(distributor, meta)
    print(
        f"checked {report.chunks_checked} chunks: {report.shards_missing} "
        f"shards missing, {report.shards_rebuilt} rebuilt, "
        f"{report.chunks_unrecoverable} unrecoverable"
    )
    return 0 if report.chunks_unrecoverable == 0 else 2


def _health(args) -> int:
    distributor, _ = _open(args)
    monitor = distributor.health
    if args.probe:
        monitor.probe_all()
    print(
        render_table(
            ["provider", "state", "error EWMA", "consec fails", "ops", "probe"],
            monitor.report_rows(),
            title="Provider health",
        )
    )
    down = [name for name in distributor.registry.names() if monitor.down(name)]
    if down:
        print(f"down: {', '.join(down)}")
        return 2
    return 0


def _scrub(args) -> int:
    from repro.analysis.consistency import collect_garbage, verify_deployment

    distributor, meta = _open(args)
    report = verify_deployment(distributor)
    print(report.summary())
    for issue in report.missing:
        where = "snapshot" if issue.shard_index < 0 else f"shard {issue.shard_index}"
        print(f"  missing: chunk {issue.virtual_id} {where} at {issue.provider}")
    for name, keys in report.orphans.items():
        print(f"  orphans at {name}: {', '.join(keys[:5])}"
              + (" ..." if len(keys) > 5 else ""))
    if args.gc and report.orphans:
        removed = collect_garbage(distributor, report)
        print(f"garbage-collected {removed} orphan object(s)")
    return 0 if report.clean else 2


def _fsck(args) -> int:
    from repro.health.fsck import run_fsck

    distributor, meta = _open(args)
    report = run_fsck(distributor, repair=args.repair)
    if args.repair:
        _commit(distributor, meta)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.clean else 2


def _exposure(args) -> int:
    from repro.analysis.exposure import client_exposure, collusion_exposure, exposure_rows

    distributor, _ = _open(args)
    report = client_exposure(distributor, args.client)
    print(
        render_table(
            ["provider", "shards", "bytes", "chunk coverage", "byte share"],
            exposure_rows(report),
            title=f"Exposure of client {args.client!r}",
        )
    )
    print(
        f"max single-provider byte share: {report.max_byte_share:.1%}; "
        f"best {args.collusion}-provider collusion: "
        f"{collusion_exposure(distributor, args.client, args.collusion):.1%}"
    )
    return 0


def _suggest(args) -> int:
    data = Path(args.file).read_bytes()
    print(suggest_level(data))
    return 0


def _stats(args) -> int:
    """Render the deployment's accumulated metrics (see ``_persist_metrics``)."""
    state = _state_dir(args)
    path = state / METRICS_FILE
    registry = MetricsRegistry()
    if path.exists():
        registry.import_state(json.loads(path.read_text()))
    elif not (state / FLEET_FILE).exists():
        raise SystemExit(f"error: {state} is not initialized (run `init` first)")
    if args.format == "prom":
        print(registry.render(), end="")
        return 0
    if args.format == "json":
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
        return 0
    snapshot = registry.snapshot()
    rows = []
    for name, series in sorted(snapshot["counters"].items()):
        for labels, value in sorted(series.items()):
            rows.append([name, labels, int(value)])
    for name, series in sorted(snapshot["gauges"].items()):
        for labels, value in sorted(series.items()):
            rows.append([name, labels, int(value)])
    print(render_table(["metric", "labels", "value"], rows, title="Counters"))
    rows = []
    for name, series in sorted(snapshot["histograms"].items()):
        for labels, summary in sorted(series.items()):
            count = summary["count"]
            mean = summary["sum"] / count if count else 0.0
            rows.append([
                name, labels, count, f"{mean * 1e3:.3f}",
                f"{summary.get('p50', 0.0) * 1e3:.3f}",
                f"{summary.get('p95', 0.0) * 1e3:.3f}",
                f"{summary.get('p99', 0.0) * 1e3:.3f}",
            ])
    print(
        render_table(
            ["histogram", "labels", "count", "mean ms", "p50 ms", "p95 ms",
             "p99 ms"],
            rows,
            title="Latencies",
        )
    )
    return 0


def _trace(args) -> int:
    """Run one traced download and print the joined span tree."""
    distributor, _ = _open(args)
    tracer = get_tracer()
    with tracer.trace(f"get {args.filename}", client=args.client):
        data = distributor.get_file(
            args.client, args.password, args.filename
        )
    trace = tracer.last_trace()
    print(trace.render_tree())
    print(
        f"retrieved {format_bytes(len(data))}; "
        f"{len(trace.spans)} spans recorded"
    )
    return 0


def _serve(args) -> int:
    """Run one chunk server fronting a memory or disk backend.

    Blocks until interrupted; a distributor reaches it via a fleet entry
    ``{"name": ..., "url": "remote://HOST:PORT", ...}`` or
    ``ProviderRegistry.register_url``.
    """
    from repro.net.server import ChunkServer
    from repro.providers.memory import InMemoryProvider

    if args.backend == "disk":
        root = args.root or f"./chunks-{args.name}"
        backend = DiskProvider(args.name, root)
    else:
        backend = InMemoryProvider(args.name)
    server = ChunkServer(
        backend,
        host=args.host,
        port=args.port,
        max_workers=args.max_workers,
        accept_queue=args.accept_queue,
        shed_retry_after=args.shed_retry_after,
    )
    try:
        server.start()
    except OSError as exc:
        print(
            f"error: cannot listen on {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    print(
        f"chunk server {args.name!r} ({args.backend}) listening on "
        f"remote://{server.host}:{server.port}",
        flush=True,
    )
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.stop()
    return 0


# ---------------------------------------------------------------------------
# sharded fleet commands (repro.fleet)
# ---------------------------------------------------------------------------

FLEET_STATE_FILE = "fleet-state.json"


def _open_fleet(args):
    """Open the sharded deployment under ``--state`` and resume migrations."""
    global _installed_registry
    state = _state_dir(args)
    if not (state / FLEET_FILE).exists():
        raise SystemExit(
            f"error: {state} is not initialized (run `fleet-init` first)"
        )
    if not (state / FLEET_STATE_FILE).exists():
        raise SystemExit(
            f"error: {state} has no shard fleet (run `fleet-init` first)"
        )
    from repro.fleet import FleetGateway, ShardRebalancer

    _installed_registry = MetricsRegistry()
    set_metrics(_installed_registry)
    gateway = FleetGateway.open(
        _build_registry(state), state, metrics=_installed_registry
    )
    rebalancer = ShardRebalancer(gateway)
    resumed = rebalancer.resume()
    for report in resumed:
        print(f"resumed interrupted migration: {report.summary()}", file=sys.stderr)
    return gateway, rebalancer


def _fleet_commit(gateway) -> None:
    """Persist fleet state and fold shard metrics into this run's registry."""
    gateway.save()
    registry = get_metrics()
    for shard in gateway.shards.values():
        registry.import_state(shard.metrics.export_state())


def _fleet_init(args) -> int:
    state = _state_dir(args)
    if (state / FLEET_STATE_FILE).exists():
        print(f"error: {state} already holds a shard fleet", file=sys.stderr)
        return 1
    if not (state / FLEET_FILE).exists():
        code = _init(args)
        if code != 0:
            return code
    from repro.fleet import FleetGateway

    gateway = FleetGateway(_build_registry(state), state, seed=0xC11)
    for i in range(args.shards):
        gateway.add_shard(f"s{i}")
    gateway.save()
    gateway.close()
    print(f"fleet of {args.shards} shards ready under {state}")
    return 0


def _tenant_add(args) -> int:
    gateway, _ = _open_fleet(args)
    gateway.register_tenant(args.tenant)
    _fleet_commit(gateway)
    print(f"registered tenant {args.tenant!r}")
    return 0


def _tenant_password(args) -> int:
    gateway, _ = _open_fleet(args)
    gateway.add_tenant_password(args.tenant, args.password, int(args.level))
    _fleet_commit(gateway)
    print(f"added PL-{args.level} password for tenant {args.tenant!r}")
    return 0


def _tenant_quota(args) -> int:
    gateway, _ = _open_fleet(args)
    gateway.set_quota(
        args.tenant, max_bytes=args.max_bytes, max_files=args.max_files
    )
    _fleet_commit(gateway)
    print(
        f"quota for {args.tenant!r}: "
        f"max_bytes={args.max_bytes} max_files={args.max_files}"
    )
    return 0


def _shard_add(args) -> int:
    gateway, rebalancer = _open_fleet(args)
    report = rebalancer.add_shard(args.shard)
    _fleet_commit(gateway)
    print(report.summary())
    return 0


def _shard_drain(args) -> int:
    gateway, rebalancer = _open_fleet(args)
    report = rebalancer.drain_shard(args.shard)
    _fleet_commit(gateway)
    print(report.summary())
    return 0


def _shards(args) -> int:
    """Fleet status: ring membership, per-shard load, tenant quota usage."""
    gateway, rebalancer = _open_fleet(args)
    status = gateway.status()
    merged = MetricsRegistry()
    # The deployment's running totals first, then this invocation's live
    # counts on top (counters add; gauges last-writer-wins to the live run).
    metrics_path = _state_dir(args) / METRICS_FILE
    if metrics_path.exists():
        with contextlib.suppress(ValueError, KeyError, TypeError):
            merged.import_state(json.loads(metrics_path.read_text()))
    merged.import_state(gateway.merged_metrics().export_state())
    pending = (
        sum(len(p.remaining) for p in rebalancer.journal.pending())
        if rebalancer.journal is not None
        else 0
    )
    if args.format == "json":
        status["pending_migration_files"] = pending
        status["quota_rejections"] = merged.sum_counter(
            "fleet_quota_rejections_total"
        )
        print(json.dumps(status, indent=2, sort_keys=True))
        _fleet_commit(gateway)
        return 0
    print(
        render_table(
            ["shard", "ring id", "files", "chunks", "tenants", "health"],
            [
                [r["shard"], f"{r['node_id']:#010x}", r["files"], r["chunks"],
                 r["tenants"], r["health"]]
                for r in status["shards"]
            ],
            title=f"Ring membership (m_bits={status['m_bits']})",
        )
    )
    rows = []
    for tenant, usage in sorted(status["tenants"].items()):
        quota = usage["quota"]
        rows.append(
            [
                tenant,
                usage["files"],
                format_bytes(usage["bytes"]),
                quota["max_files"] if quota["max_files"] is not None else "-",
                format_bytes(quota["max_bytes"])
                if quota["max_bytes"] is not None
                else "-",
            ]
        )
    print(
        render_table(
            ["tenant", "files", "used", "file quota", "byte quota"],
            rows,
            title="Tenant usage",
        )
    )
    rejections = merged.sum_counter("fleet_quota_rejections_total")
    print(
        f"pending migration files: {pending}  "
        f"quota rejections: {int(rejections)}"
    )
    _fleet_commit(gateway)
    return 0


def _fleet_put(args) -> int:
    gateway, _ = _open_fleet(args)
    data = Path(args.file).read_bytes()
    filename = args.name or Path(args.file).name
    receipt = gateway.upload_file(
        args.tenant, args.password, filename, data,
        PrivacyLevel.coerce(args.level),
        misleading_fraction=args.misleading,
        codec=args.codec,
    )
    _fleet_commit(gateway)
    print(
        f"stored {filename!r} for tenant {args.tenant!r}: "
        f"{format_bytes(receipt.file_size)} in {receipt.chunk_count} chunks"
    )
    return 0


def _fleet_get(args) -> int:
    gateway, _ = _open_fleet(args)
    data = gateway.get_file(args.tenant, args.password, args.filename)
    out = Path(args.output) if args.output else Path(args.filename)
    out.write_bytes(data)
    _fleet_commit(gateway)
    print(f"retrieved {format_bytes(len(data))} -> {out}")
    return 0


def _fleet_rm(args) -> int:
    gateway, _ = _open_fleet(args)
    gateway.remove_file(args.tenant, args.password, args.filename)
    _fleet_commit(gateway)
    print(f"removed {args.filename!r}")
    return 0


def _fleet_ls(args) -> int:
    gateway, _ = _open_fleet(args)
    for name in gateway.list_files(args.tenant, args.password):
        print(name)
    _fleet_commit(gateway)
    return 0


def _fleet_fsck(args) -> int:
    gateway, _ = _open_fleet(args)
    reports = gateway.fsck(repair=args.repair)
    _fleet_commit(gateway)
    dirty = 0
    for shard_id, report in reports.items():
        print(f"[{shard_id}] {report.summary()}")
        if not report.clean:
            dirty += 1
            print(report.render_text())
    return 0 if dirty == 0 else 2


def _serve_gateway(args) -> int:
    """Serve the fleet gateway over JSON-lines TCP (blocks until ^C)."""
    from repro.net.gateway import GatewayServer

    gateway, _ = _open_fleet(args)
    server = GatewayServer(
        gateway,
        host=args.host,
        port=args.port,
        max_workers=args.max_workers,
        accept_queue=args.accept_queue,
        shed_retry_after=args.shed_retry_after,
    )
    try:
        server.start()
    except OSError as exc:
        print(
            f"error: cannot listen on {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    print(
        f"fleet gateway ({len(gateway.shards)} shards) listening on "
        f"{server.host}:{server.port}",
        flush=True,
    )
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.stop()
        _fleet_commit(gateway)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy-preserving multi-cloud data distribution (Dev et al., 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_state(p):
        p.add_argument("--state", default="./repro-state",
                       help="deployment directory (default: ./repro-state)")
        return p

    p = with_state(sub.add_parser("init", help="create a disk-backed fleet"))
    p.add_argument("--providers", type=int, default=6)
    p.set_defaults(func=_init)

    p = with_state(sub.add_parser("register-client", help="create a client"))
    p.add_argument("client")
    p.set_defaults(func=_register_client)

    p = with_state(sub.add_parser("add-password", help="attach a ⟨password, PL⟩ pair"))
    p.add_argument("client")
    p.add_argument("password")
    p.add_argument("level", type=int, choices=[0, 1, 2, 3])
    p.set_defaults(func=_add_password)

    p = with_state(sub.add_parser("put", help="fragment + distribute a file"))
    p.add_argument("client")
    p.add_argument("password")
    p.add_argument("file")
    p.add_argument("--level", type=int, default=2, choices=[0, 1, 2, 3])
    p.add_argument("--name", help="stored filename (default: basename)")
    p.add_argument("--codec", default=None,
                   help="erasure codec spec: raid0|raid1|raid5|raid6[@WIDTH], "
                        "rs(K,M), or aont-rs(K,M) (default: raid by PL policy)")
    p.add_argument("--misleading", type=float, default=0.0,
                   help="misleading-byte fraction (Section VII-D)")
    p.add_argument("--strict", action="store_true",
                   help="refuse upload if content looks more sensitive than --level")
    p.set_defaults(func=_put)

    p = with_state(sub.add_parser("get", help="reassemble a file"))
    p.add_argument("client")
    p.add_argument("password")
    p.add_argument("filename")
    p.add_argument("-o", "--output",
                   help="output path ('-' streams to stdout)")
    p.add_argument("--verify", action="store_true",
                   help="re-read and compare SHA-256 digests")
    p.set_defaults(func=_get)

    p = with_state(sub.add_parser("rm", help="remove a file from all providers"))
    p.add_argument("client")
    p.add_argument("password")
    p.add_argument("filename")
    p.set_defaults(func=_rm)

    p = with_state(sub.add_parser("ls", help="list files this password may see"))
    p.add_argument("client")
    p.add_argument("password")
    p.set_defaults(func=_ls)

    p = with_state(sub.add_parser("status", help="render the Cloud Provider Table"))
    p.set_defaults(func=_status)

    p = with_state(sub.add_parser("repair", help="scrub + rebuild a file's stripes"))
    p.add_argument("client", nargs="?")
    p.add_argument("password", nargs="?")
    p.add_argument("filename", nargs="?")
    p.add_argument("--auto", action="store_true",
                   help="scrub every chunk of every client (one scrubber cycle)")
    p.set_defaults(func=_repair)

    p = with_state(sub.add_parser(
        "health", help="per-provider health verdicts (exit 2 if any down)"))
    p.add_argument("--probe", action="store_true",
                   help="actively probe every provider before reporting")
    p.set_defaults(func=_health)

    p = with_state(sub.add_parser(
        "exposure", help="per-provider exposure bound for a client"))
    p.add_argument("client")
    p.add_argument("--collusion", type=int, default=3)
    p.set_defaults(func=_exposure)

    p = with_state(sub.add_parser(
        "fsck",
        help="cross-audit chunk table vs providers: missing/corrupt shards, "
             "orphans, stale snapshots (exit 2 if not clean)"))
    p.add_argument("--repair", action="store_true",
                   help="rebuild damaged shards and delete loose objects")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_fsck)

    p = with_state(sub.add_parser(
        "scrub", help="cross-audit metadata vs providers; report drift"))
    p.add_argument("--gc", action="store_true",
                   help="delete orphan objects no table references")
    p.set_defaults(func=_scrub)

    p = with_state(sub.add_parser(
        "stats", help="accumulated telemetry for this deployment"))
    p.add_argument("--format", choices=["text", "prom", "json"],
                   default="text",
                   help="text tables, Prometheus exposition, or JSON")
    p.set_defaults(func=_stats)

    p = with_state(sub.add_parser(
        "trace", help="download a file with tracing on; print the span tree"))
    p.add_argument("client")
    p.add_argument("password")
    p.add_argument("filename")
    p.set_defaults(func=_trace)

    p = sub.add_parser("suggest-level", help="advisory mining-sensitivity score")
    p.add_argument("file")
    p.set_defaults(func=_suggest)

    p = sub.add_parser(
        "serve", help="run a chunk server exposing one provider over TCP")
    p.add_argument("name", help="provider name the server fronts")
    p.add_argument("--backend", choices=["memory", "disk"], default="disk")
    p.add_argument("--root", help="disk backend root (default: ./chunks-NAME)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default: ephemeral, printed at startup)")
    p.add_argument("--max-workers", type=int, default=32,
                   help="concurrent connection workers (default: 32)")
    p.add_argument("--accept-queue", type=int, default=64,
                   help="accepted connections waiting for a worker before "
                        "the server sheds load (default: 64)")
    p.add_argument("--shed-retry-after", type=float, default=0.1,
                   help="retry-after hint (seconds) sent with "
                        "RESOURCE_EXHAUSTED sheds (default: 0.1)")
    p.set_defaults(func=_serve)

    # -- sharded fleet -----------------------------------------------------

    p = with_state(sub.add_parser(
        "fleet-init",
        help="shard the deployment: DHT-routed distributor shards behind "
             "a stateless gateway"))
    p.add_argument("--providers", type=int, default=6)
    p.add_argument("--shards", type=int, default=3,
                   help="initial shard count (default: 3)")
    p.set_defaults(func=_fleet_init)

    p = with_state(sub.add_parser("tenant-add", help="register a tenant"))
    p.add_argument("tenant")
    p.set_defaults(func=_tenant_add)

    p = with_state(sub.add_parser(
        "tenant-password", help="attach a ⟨password, PL⟩ pair to a tenant"))
    p.add_argument("tenant")
    p.add_argument("password")
    p.add_argument("level", type=int, choices=[0, 1, 2, 3])
    p.set_defaults(func=_tenant_password)

    p = with_state(sub.add_parser(
        "tenant-quota", help="cap a tenant's stored bytes and/or file count"))
    p.add_argument("tenant")
    p.add_argument("--max-bytes", type=int, default=None)
    p.add_argument("--max-files", type=int, default=None)
    p.set_defaults(func=_tenant_quota)

    p = with_state(sub.add_parser(
        "shards", help="ring membership, per-shard load, tenant quota usage"))
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_shards)

    p = with_state(sub.add_parser(
        "shard-add",
        help="join a shard and migrate the key ranges it now owns"))
    p.add_argument("shard")
    p.set_defaults(func=_shard_add)

    p = with_state(sub.add_parser(
        "shard-drain",
        help="migrate a shard's files to the survivors, then remove it"))
    p.add_argument("shard")
    p.set_defaults(func=_shard_drain)

    p = with_state(sub.add_parser(
        "fleet-put", help="store a file for a tenant via the gateway"))
    p.add_argument("tenant")
    p.add_argument("password")
    p.add_argument("file")
    p.add_argument("--level", type=int, default=2, choices=[0, 1, 2, 3])
    p.add_argument("--name", help="stored filename (default: basename)")
    p.add_argument("--codec", default=None,
                   help="erasure codec spec: raid0|raid1|raid5|raid6[@WIDTH], "
                        "rs(K,M), or aont-rs(K,M) (default: raid by PL policy)")
    p.add_argument("--misleading", type=float, default=0.0,
                   help="misleading-byte fraction (Section VII-D)")
    p.set_defaults(func=_fleet_put)

    p = with_state(sub.add_parser(
        "fleet-get", help="retrieve a tenant's file via the gateway"))
    p.add_argument("tenant")
    p.add_argument("password")
    p.add_argument("filename")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_fleet_get)

    p = with_state(sub.add_parser(
        "fleet-rm", help="remove a tenant's file via the gateway"))
    p.add_argument("tenant")
    p.add_argument("password")
    p.add_argument("filename")
    p.set_defaults(func=_fleet_rm)

    p = with_state(sub.add_parser(
        "fleet-ls", help="list a tenant's files across all shards"))
    p.add_argument("tenant")
    p.add_argument("password")
    p.set_defaults(func=_fleet_ls)

    p = with_state(sub.add_parser(
        "fleet-fsck",
        help="run the cross-audit on every shard (exit 2 if any dirty)"))
    p.add_argument("--repair", action="store_true",
                   help="rebuild damaged shards and delete loose objects")
    p.set_defaults(func=_fleet_fsck)

    p = with_state(sub.add_parser(
        "serve-gateway",
        help="serve the fleet gateway over JSON-lines TCP"))
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default: ephemeral, printed at startup)")
    p.add_argument("--max-workers", type=int, default=16,
                   help="concurrent connection workers (default: 16)")
    p.add_argument("--accept-queue", type=int, default=32,
                   help="accepted connections waiting for a worker before "
                        "the gateway sheds load (default: 32)")
    p.add_argument("--shed-retry-after", type=float, default=0.1,
                   help="retry-after hint (seconds) sent with "
                        "resource_exhausted sheds (default: 0.1)")
    p.set_defaults(func=_serve_gateway)

    return parser


def main(argv: list[str] | None = None) -> int:
    global _installed_registry
    _installed_registry = None
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream reader (`head`, `grep -q`, ...) closed the pipe early;
        # the Unix convention is to exit quietly.  Point stdout at devnull
        # so interpreter shutdown doesn't trip over the dead descriptor.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        if hasattr(args, "state"):
            _persist_metrics(_state_dir(args))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
