"""Distributor telemetry: op counters, phase timings, spans, events.

The observability layer must see the data path as it actually ran --
phases of the upload and read engines, per-op outcome counters, failover and
rollback narrated as events, audit records carrying the virtual ids and
providers each op touched.
"""

import os

import pytest

from repro.core.audit import AuditLog
from repro.core.distributor import CloudDataDistributor
from repro.core.cache import ChunkCache
from repro.core.errors import AuthenticationError, ProviderUnavailableError
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.providers.registry import ProviderSpec, build_simulated_fleet


def make_world(n=6, width=4, cache=None, audit=None):
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
        for i in range(n)
    ]
    registry, providers, clock = build_simulated_fleet(specs, seed=71)
    metrics = MetricsRegistry()
    tracer = Tracer()
    events = EventLog(emit_logging=False)
    if audit is not None:
        audit.event_log = events
    d = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(512),
        codec=f"raid5@{width}",
        seed=72,
        cache=cache,
        audit=audit,
        metrics=metrics,
        tracer=tracer,
        events=events,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return providers, d, metrics, tracer, events


def test_round_trip_counts_ops_and_phases():
    _, d, metrics, _, _ = make_world()
    data = os.urandom(3000)
    d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
    assert d.get_file("C", "pw", "f") == data

    assert metrics.value("distributor_ops_total", op="upload", status="ok") == 1
    assert metrics.value("distributor_ops_total", op="get_file", status="ok") == 1
    for phase in ("plan", "transfer", "commit"):
        hist = metrics.histogram(
            "distributor_phase_seconds", op="upload", phase=phase
        )
        assert hist.count == 1, phase
    for phase in ("resolve", "fetch"):
        hist = metrics.histogram(
            "distributor_phase_seconds", op="get_file", phase=phase
        )
        assert hist.count == 1, phase


def test_denied_op_counts_as_error():
    _, d, metrics, _, _ = make_world()
    d.upload_file("C", "pw", "f", b"x" * 600, PrivacyLevel.PRIVATE)
    with pytest.raises(AuthenticationError):
        d.get_file("C", "wrong", "f")
    assert (
        metrics.value("distributor_ops_total", op="get_file", status="error")
        == 1
    )


def test_trace_spans_cover_upload_and_get():
    _, d, _, tracer, _ = make_world()
    data = os.urandom(2000)
    with tracer.trace("roundtrip"):
        d.upload_file("C", "pw", "f", data, PrivacyLevel.PRIVATE)
        d.get_file("C", "pw", "f")
    names = tracer.last_trace().span_names()
    assert "distributor.upload" in names
    for phase in ("upload.plan", "upload.transfer", "upload.commit"):
        assert phase in names
    assert "distributor.get_file" in names
    for phase in ("get_file.resolve", "get_file.fetch"):
        assert phase in names


def test_cache_fill_phase_runs_with_cache_attached():
    cache = ChunkCache(1 << 20, metrics=MetricsRegistry())
    _, d, metrics, _, _ = make_world(cache=cache)
    d.upload_file("C", "pw", "f", os.urandom(2000), PrivacyLevel.PRIVATE)
    d.get_file("C", "pw", "f")
    hist = metrics.histogram(
        "distributor_phase_seconds", op="get_file", phase="cache_fill"
    )
    assert hist.count == 1


def test_audit_records_carry_vids_and_providers():
    log = AuditLog()
    _, d, _, _, events = make_world(audit=log)
    d.upload_file("C", "pw", "f", os.urandom(2000), PrivacyLevel.PRIVATE)
    d.get_file("C", "pw", "f")

    upload, read = log.events[0], log.events[1]
    assert upload.operation == "upload" and upload.ok
    assert upload.virtual_ids and upload.providers
    assert read.operation == "get_file" and read.ok
    assert set(read.virtual_ids) == set(upload.virtual_ids)
    assert read.providers

    breadth = log.provider_sweep_breadth("C", window=1e9)
    assert breadth.virtual_ids == len(upload.virtual_ids)
    assert breadth.providers >= 4  # the whole stripe group was touched

    # Every record also landed on the structured-log feed.
    assert len(events.named("audit")) == len(log.events)


def test_write_failover_emits_event_and_counter():
    providers, d, metrics, _, events = make_world(n=6, width=4)
    victim = providers[0]

    def refuse(key, data, checksum=None):
        raise ProviderUnavailableError(f"{victim.name} refuses")

    victim.put = refuse
    d.upload_file("C", "pw", "f", os.urandom(3000), PrivacyLevel.PRIVATE)

    relocated = metrics.value("distributor_failover_shards_total")
    assert relocated >= 1
    event = events.last("write_failover")
    assert event is not None
    assert event["src"] == victim.name
    assert event["dst"] != victim.name


def test_total_write_failure_narrates_rollback():
    providers, d, metrics, _, events = make_world(n=4, width=4)

    def refuse(key, data, checksum=None):
        raise ProviderUnavailableError("fleet-wide outage")

    for provider in providers:
        provider.put = refuse
    with pytest.raises(ProviderUnavailableError):
        d.upload_file("C", "pw", "f", os.urandom(2000), PrivacyLevel.PRIVATE)

    assert metrics.value("distributor_rollbacks_total") >= 1
    assert events.last("upload_rollback") is not None
    assert (
        metrics.value("distributor_ops_total", op="upload", status="error")
        == 1
    )
