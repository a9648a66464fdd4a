"""HealthMonitor verdicts: passive EWMA/consecutive-failure evidence plus
active probes, and the DOWN -> probe -> recovery loop."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import BlobNotFoundError, ProviderUnavailableError
from repro.health.monitor import (
    PROBE_KEY,
    HealthMonitor,
    HealthState,
    probe_provider,
)
from repro.net.remote import RemoteProvider, RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.net.server import ChunkServer
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry
from repro.providers.simulated import SimulatedProvider
from repro.util.clock import SimulatedClock


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make_registry(n=3):
    registry = ProviderRegistry()
    for i in range(n):
        registry.register(InMemoryProvider(f"P{i}"), 3, 0)
    return registry


def make_monitor(n=3, **kwargs):
    clock = FakeClock()
    registry = make_registry(n)
    kwargs.setdefault("time_fn", clock)
    return HealthMonitor(registry, **kwargs), registry, clock


def test_unknown_provider_defaults_healthy():
    monitor, _, _ = make_monitor()
    assert monitor.state("P0") is HealthState.HEALTHY
    assert monitor.is_usable("P0")


def test_consecutive_transport_failures_mark_down():
    monitor, _, _ = make_monitor(down_after=3)
    for _ in range(2):
        monitor.record_failure("P0")
    assert monitor.state("P0") is not HealthState.DOWN
    monitor.record_failure("P0")
    assert monitor.down("P0")


def test_success_resets_consecutive_count():
    monitor, _, _ = make_monitor(down_after=3)
    monitor.record_failure("P0")
    monitor.record_failure("P0")
    monitor.record_success("P0")
    monitor.record_failure("P0")
    monitor.record_failure("P0")
    assert not monitor.down("P0")


def test_application_failures_never_mark_down():
    # Missing/corrupt blobs prove the provider is answering; only
    # transport failures can take it DOWN.
    monitor, _, _ = make_monitor(down_after=2)
    for _ in range(10):
        monitor.record_failure("P0", transport=False)
    assert monitor.state("P0") is HealthState.SUSPECT  # elevated EWMA
    assert not monitor.down("P0")


def test_elevated_error_rate_turns_suspect_then_recovers():
    monitor, _, _ = make_monitor(ewma_alpha=0.5, suspect_threshold=0.5)
    monitor.record_failure("P0", transport=False)
    monitor.record_failure("P0", transport=False)
    assert monitor.suspect("P0")
    for _ in range(6):
        monitor.record_success("P0")
    assert monitor.healthy("P0")


def test_down_provider_reprobed_and_readmitted():
    monitor, registry, clock = make_monitor(down_after=1, probe_min_interval=5.0)
    monitor.record_failure("P0")
    assert monitor.down("P0")
    # First usability check probes (memory backend answers head) and the
    # provider is readmitted immediately.
    assert monitor.is_usable("P0")
    assert not monitor.down("P0")


def test_probe_rate_limit_caches_failed_verdict():
    registry = ProviderRegistry()
    clock = SimulatedClock()
    sim = SimulatedProvider(InMemoryProvider("S"), clock=clock, seed=1)
    registry.register(sim, 3, 0)
    fake = FakeClock()
    monitor = HealthMonitor(
        registry, down_after=1, probe_min_interval=10.0, time_fn=fake
    )
    sim.set_available(False)
    monitor.record_failure("S")
    assert not monitor.is_usable("S")  # probe ran, saw it down
    sim.set_available(True)
    # Inside the rate-limit window the cached DOWN verdict stands...
    assert not monitor.is_usable("S")
    # ...and after it expires a fresh probe readmits the provider.
    fake.t += 11.0
    assert monitor.is_usable("S")


def test_probe_all_reports_every_provider():
    monitor, registry, _ = make_monitor(n=4)
    results = monitor.probe_all()
    assert set(results) == set(registry.names())
    assert all(results.values())


def test_report_rows_cover_fleet():
    monitor, registry, _ = make_monitor(n=3)
    monitor.record_failure("P1")
    rows = monitor.report_rows()
    assert len(rows) == 3
    states = {row[0]: row[1] for row in rows}
    assert states["P0"] == "healthy"


def test_probe_provider_simulated_flag():
    clock = SimulatedClock()
    sim = SimulatedProvider(InMemoryProvider("S"), clock=clock, seed=1)
    assert probe_provider(sim)
    sim.set_available(False)
    assert not probe_provider(sim)


def test_probe_provider_memory_head_missing_key_is_success():
    provider = InMemoryProvider("M")
    with pytest.raises(BlobNotFoundError):
        provider.head(PROBE_KEY)
    assert probe_provider(provider)


def test_probe_provider_remote_ping_and_dead_server():
    inner = InMemoryProvider("R")
    server = ChunkServer(inner)
    server.start()
    provider = RemoteProvider(
        "R", server.host, server.port,
        retry=RetryPolicy(attempts=1, base_delay=0.01),
        connect_timeout=0.2, op_timeout=0.5,
    )
    try:
        assert probe_provider(provider)
        server.stop()
        assert not probe_provider(provider)
    finally:
        provider.close()
        server.stop()


# -- run-length success recording ---------------------------------------------

OUTCOMES = st.lists(
    st.sampled_from(["ok", "ok", "ok", "transport", "data"]), max_size=60
)


def _assert_distrust_agrees(monitor, names=("P0", "P1", "P2")):
    """``distrusted`` names exactly the providers not rated HEALTHY."""
    for name in names:
        assert (name in monitor.distrusted) is (monitor.state(name) is not HealthState.HEALTHY)


def _assert_same_evidence(folded, itemised, name="P0"):
    a, b = folded._record(name), itemised._record(name)
    assert folded.state(name) is itemised.state(name)
    _assert_distrust_agrees(folded)
    _assert_distrust_agrees(itemised)
    assert a.consecutive_failures == b.consecutive_failures
    assert a.marked_down == b.marked_down
    assert (a.successes, a.failures) == (b.successes, b.failures)
    # (1 - alpha) ** n against n multiplications: float64 rounds each
    # product, so the two agree to a few ulps per step, not bit for bit.
    assert a.error_ewma == pytest.approx(b.error_ewma, rel=1e-12, abs=1e-300)


@settings(max_examples=200, deadline=None)
@given(OUTCOMES, st.sampled_from([0.1, 0.3, 1.0]))
def test_property_run_length_successes_equal_one_by_one(outcomes, alpha):
    metrics_a, metrics_b = MetricsRegistry(), MetricsRegistry()
    folded, _, _ = make_monitor(ewma_alpha=alpha, metrics=metrics_a)
    itemised, _, _ = make_monitor(ewma_alpha=alpha, metrics=metrics_b)
    for outcome, run in itertools.groupby(outcomes):
        count = len(list(run))
        if outcome == "ok":
            folded.record_success("P0", count)
        for _ in range(count):
            if outcome == "ok":
                itemised.record_success("P0")
            else:
                for monitor in (folded, itemised):
                    monitor.record_failure(
                        "P0", transport=outcome == "transport"
                    )
        _assert_same_evidence(folded, itemised)


def test_record_success_rejects_an_empty_run():
    monitor, _, _ = make_monitor()
    with pytest.raises(ValueError):
        monitor.record_success("P0", 0)


# -- run-length failure recording ---------------------------------------------


@settings(max_examples=200, deadline=None)
@given(OUTCOMES, st.sampled_from([0.1, 0.3, 1.0]), st.sampled_from([1, 3]))
def test_property_run_length_failures_equal_one_by_one(outcomes, alpha, down_after):
    # A run of n failures is one record_failure(..., count=n); successes go
    # one by one on both sides, so every field -- the EWMA too -- is equal.
    folded, _, _ = make_monitor(
        ewma_alpha=alpha, down_after=down_after, metrics=MetricsRegistry()
    )
    itemised, _, _ = make_monitor(
        ewma_alpha=alpha, down_after=down_after, metrics=MetricsRegistry()
    )
    for outcome, run in itertools.groupby(outcomes):
        count = len(list(run))
        if outcome == "ok":
            for _ in range(count):
                folded.record_success("P0")
                itemised.record_success("P0")
            continue
        transport = outcome == "transport"
        folded.record_failure("P0", transport=transport, count=count)
        for _ in range(count):
            itemised.record_failure("P0", transport=transport)
        a, b = folded._record("P0"), itemised._record("P0")
        assert a.error_ewma == b.error_ewma
        assert a.consecutive_failures == b.consecutive_failures
        assert a.marked_down == b.marked_down
        assert (a.successes, a.failures) == (b.successes, b.failures)
        assert folded.state("P0") is itemised.state("P0")
        _assert_distrust_agrees(folded)


def test_record_failure_rejects_an_empty_run():
    monitor, _, _ = make_monitor()
    with pytest.raises(ValueError):
        monitor.record_failure("P0", count=0)


# -- the distrusted set a read consults ----------------------------------------


def test_distrusted_follows_every_verdict_change():
    # Each way a verdict moves -- failures, successes, a probe, and the
    # probe is_usable runs for a DOWN provider -- leaves ``distrusted``
    # naming exactly the providers that are not HEALTHY, each with its
    # held reroute counter.
    metrics = MetricsRegistry()
    monitor, _, clock = make_monitor(down_after=2, probe_min_interval=0.0, metrics=metrics)
    assert monitor.distrusted == {}
    monitor.record_failure("P0", transport=False, count=3)  # SUSPECT
    monitor.record_failure("P1", count=2)  # DOWN
    assert set(monitor.distrusted) == {"P0", "P1"}
    assert monitor.distrusted["P0"] is metrics.counter("read_members_rerouted_total", provider="P0")
    _assert_distrust_agrees(monitor)
    before = monitor.distrusted
    monitor.record_success("P2")  # a healthy provider's success: the same dict
    assert monitor.distrusted is before
    monitor.record_success("P0", 5)
    assert set(monitor.distrusted) == {"P1"}
    assert set(before) == {"P0", "P1"}  # replaced, never changed in place
    assert monitor.is_usable("P1")  # its probe answers: no longer DOWN...
    _assert_distrust_agrees(monitor)  # ...though its error rate may stay high
    monitor.record_success("P1", 10)
    assert monitor.distrusted == {}
    def unreachable(key):
        raise ProviderUnavailableError("P2 is gone")

    monitor.registry.get("P2").provider.head = unreachable
    assert not monitor.probe("P2")
    assert set(monitor.distrusted) == {"P2"}
    _assert_distrust_agrees(monitor)


def test_distrusted_stays_consistent_under_concurrent_verdicts():
    # More threads than cores flip verdicts while a reader walks the set
    # without the lock: a copy-on-write dict never changes under it, and
    # once the writers stop it agrees with every verdict.
    import random
    import sys
    import threading

    monitor, _, _ = make_monitor(n=3, down_after=2, metrics=MetricsRegistry())
    stop = threading.Event()
    errors: list[BaseException] = []

    def flip(seed: int) -> None:
        rng = random.Random(seed)
        try:
            while not stop.is_set():
                name = f"P{rng.randrange(3)}"
                if rng.random() < 0.5:
                    monitor.record_failure(name, transport=rng.random() < 0.5)
                else:
                    monitor.record_success(name, rng.randrange(1, 4))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    def walk() -> None:
        try:
            while not stop.is_set():
                for name, counter in monitor.distrusted.items():
                    assert name in ("P0", "P1", "P2") and counter is not None
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=flip, args=(i,)) for i in range(4)]
        threads.append(threading.Thread(target=walk))
        for thread in threads:
            thread.start()
        stop.wait(0.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    _assert_distrust_agrees(monitor)
