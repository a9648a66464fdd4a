"""MetricsRegistry: handles, exposition, persistence, disabled mode."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)

#: Geometric bounds 5% apart from 100 us to past 60 s: a caller-chosen
#: bucket set, fine enough that a percentile lands within 6% of a sample.
FINE_BUCKETS = tuple(1e-4 * 1.05**i for i in range(274))


def test_counter_inc_and_value():
    reg = MetricsRegistry()
    c = reg.counter("requests_total", op="put")
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert reg.value("requests_total", op="put") == 5
    assert reg.value("requests_total", op="get") == 0


def test_counter_rejects_negative():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("c").inc(-1)


def test_counter_handles_are_cached_per_label_set():
    reg = MetricsRegistry()
    assert reg.counter("x", a="1") is reg.counter("x", a="1")
    assert reg.counter("x", a="1") is not reg.counter("x", a="2")


def test_gauge_set_inc_dec():
    reg = MetricsRegistry()
    g = reg.gauge("pool_idle")
    g.set(4)
    g.dec()
    g.inc(2)
    assert g.value == 5


def test_histogram_observe_and_cumulative():
    h = Histogram(buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    assert h.count == 3
    assert h.sum == pytest.approx(5.55)
    assert h.cumulative() == [(0.1, 1), (1.0, 2), (float("inf"), 3)]


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        Histogram(buckets=(1.0, 0.5))


def test_sum_counter_across_labels():
    reg = MetricsRegistry()
    reg.counter("ops_total", op="put").inc(2)
    reg.counter("ops_total", op="get").inc(3)
    assert reg.sum_counter("ops_total") == 5


def test_render_prometheus_text():
    reg = MetricsRegistry()
    reg.counter("reqs_total", help="requests", op="put").inc(2)
    reg.gauge("idle").set(1.5)
    reg.histogram("lat_seconds", buckets=(0.1, 1.0)).observe(0.05)
    text = reg.render()
    assert "# HELP reqs_total requests" in text
    assert "# TYPE reqs_total counter" in text
    assert 'reqs_total{op="put"} 2' in text
    assert "# TYPE idle gauge" in text
    assert "idle 1.5" in text
    assert 'lat_seconds_bucket{le="0.1"} 1' in text
    assert 'lat_seconds_bucket{le="+Inf"} 1' in text
    assert "lat_seconds_count 1" in text


def test_snapshot_is_json_serializable():
    reg = MetricsRegistry()
    reg.counter("a_total", k="v").inc()
    reg.histogram("h_seconds").observe(0.2)
    snap = reg.snapshot()
    parsed = json.loads(json.dumps(snap))
    assert parsed["counters"]["a_total"]['{k="v"}'] == 1
    assert parsed["histograms"]["h_seconds"]["{}"]["count"] == 1


def test_export_import_merges_additively():
    a = MetricsRegistry()
    a.counter("ops_total", op="put").inc(2)
    a.histogram("lat_seconds", buckets=(0.1, 1.0)).observe(0.05)
    a.gauge("level").set(7)

    b = MetricsRegistry()
    b.counter("ops_total", op="put").inc(1)
    b.import_state(a.export_state())
    assert b.value("ops_total", op="put") == 3
    assert b.gauge("level").value == 7
    h = b.histogram("lat_seconds", buckets=(0.1, 1.0))
    assert h.count == 1
    # Round-tripping through JSON (the CLI persistence path) is lossless.
    c = MetricsRegistry()
    c.import_state(json.loads(json.dumps(b.export_state())))
    assert c.value("ops_total", op="put") == 3


def test_label_values_with_commas_survive_the_cli_persistence_path():
    a = MetricsRegistry()
    a.counter("raid_decode_matrix_cache_total", codec="rs(6,3)", result="miss").inc(4)
    b = MetricsRegistry()
    b.import_state(json.loads(json.dumps(a.export_state())))
    assert b.value("raid_decode_matrix_cache_total", codec="rs(6,3)", result="miss") == 4


def test_disabled_registry_is_a_noop():
    reg = MetricsRegistry(enabled=False)
    c = reg.counter("x")
    c.inc(10)
    reg.gauge("y").set(2)
    reg.histogram("z").observe(0.5)
    assert c.value == 0
    assert reg.render() == ""
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_concurrent_increments_do_not_lose_updates():
    reg = MetricsRegistry()
    c = reg.counter("hammer_total")
    h = reg.histogram("hammer_seconds", buckets=DEFAULT_BUCKETS)

    def work():
        for _ in range(1000):
            c.inc()
            h.observe(0.01)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert c.value == 8000
    assert h.count == 8000


def test_percentile_interpolates_within_bucket():
    h = Histogram(buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 1.5, 3.0):
        h.observe(v)
    # Rank 2 of 4 lands at the top of the (1.0, 2.0] bucket.
    assert h.percentile(75.0) == pytest.approx(2.0)
    # Rank 1 of 4: halfway through the first bucket (lower bound 0).
    assert h.percentile(25.0) == pytest.approx(1.0)


def test_percentile_empty_and_bounds():
    h = Histogram(buckets=(1.0, 2.0))
    assert h.percentile(99.0) == 0.0
    h.observe(0.5)
    with pytest.raises(ValueError):
        h.percentile(0.0)
    with pytest.raises(ValueError):
        h.percentile(100.5)


def test_percentile_clamps_overflow_to_top_finite_bound():
    h = Histogram(buckets=(1.0, 2.0))
    h.observe(50.0)  # +Inf overflow bucket
    assert h.percentile(99.0) == pytest.approx(2.0)
    assert h.percentile(50.0) == pytest.approx(2.0)


def test_registry_histogram_accepts_latency_buckets():
    reg = MetricsRegistry()
    h = reg.histogram("op_latency_seconds", buckets=FINE_BUCKETS)
    h.observe(0.002)
    assert h.percentile(50.0) == pytest.approx(0.002, rel=0.06)
    # Export/import keeps the fine-grained buckets intact.
    other = MetricsRegistry()
    other.import_state(reg.export_state())
    restored = other.histogram("op_latency_seconds", buckets=FINE_BUCKETS)
    assert restored.count == 1
    assert restored.percentile(99.0) == pytest.approx(0.002, rel=0.06)


def test_snapshot_includes_percentiles():
    reg = MetricsRegistry()
    reg.histogram("lat_seconds", buckets=FINE_BUCKETS).observe(0.05)
    summary = reg.snapshot()["histograms"]["lat_seconds"]["{}"]
    assert summary["p50"] == pytest.approx(0.05, rel=0.06)
    assert summary["p99"] == pytest.approx(0.05, rel=0.06)
    # Disabled registries stay no-op (and their null handles answer 0).
    assert MetricsRegistry(enabled=False).histogram("x").percentile(99.0) == 0.0


def test_process_wide_default_is_swappable():
    original = get_metrics()
    fresh = MetricsRegistry()
    try:
        previous = set_metrics(fresh)
        assert previous is original
        assert get_metrics() is fresh
    finally:
        set_metrics(original)
