import pytest

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ProviderUnavailableError
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from repro.providers.simulated import LatencyModel, ParallelWindow, SimulatedProvider
from repro.util.clock import SimulatedClock
from repro.util.units import MiB


def make_pair():
    clock = SimulatedClock()
    latency = LatencyModel(rtt_s=0.1, jitter=0.0, upload_bw=MiB, download_bw=MiB)
    providers = [
        SimulatedProvider(InMemoryProvider(f"P{i}"), clock, latency, CostLevel.CHEAP, seed=i)
        for i in range(2)
    ]
    return clock, providers


def test_window_overlaps_distinct_providers():
    clock, (a, b) = make_pair()
    a.put("k", b"x")  # serial: 0.1 s RTT + ~0 transfer
    b.put("k", b"x")
    serial_elapsed = clock.now
    with ParallelWindow(clock):
        a.get("k")
        b.get("k")
    parallel_elapsed = clock.now - serial_elapsed
    # Two 0.1 s requests to distinct providers overlap: ~0.1 s, not 0.2 s.
    assert parallel_elapsed == pytest.approx(0.1, rel=0.01)


def test_window_serializes_same_provider():
    clock, (a, _) = make_pair()
    a.put("k1", b"x")
    a.put("k2", b"y")
    start = clock.now
    with ParallelWindow(clock):
        a.get("k1")
        a.get("k2")
    # Same provider: requests queue, ~0.2 s.
    assert clock.now - start == pytest.approx(0.2, rel=0.01)


def test_window_charges_timeouts_in_parallel():
    clock, (a, b) = make_pair()
    a.put("k", b"x")
    b.put("k", b"x")
    a.set_available(False)
    start = clock.now
    with ParallelWindow(clock):
        with pytest.raises(ProviderUnavailableError):
            a.get("k")
        b.get("k")
    # Timeout (5 s) overlaps the healthy read: critical path = 5 s.
    assert clock.now - start == pytest.approx(a.latency.timeout_s, rel=0.01)


def test_window_noop_when_empty():
    clock = SimulatedClock()
    with ParallelWindow(clock):
        pass
    assert clock.now == 0.0


def test_clock_frozen_inside_window():
    clock, (a, _) = make_pair()
    a.put("k", b"x")
    t0 = clock.now
    with ParallelWindow(clock):
        a.get("k")
        assert clock.now == t0  # no advancement until exit
    assert clock.now > t0


def test_distributor_parallel_read_faster():
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP) for i in range(6)
    ]
    registry, _, clock = build_simulated_fleet(specs, seed=1)
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(4096), codec="raid5@4", seed=2
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    payload = bytes(range(256)) * 256  # 64 KiB -> 16 chunks
    d.upload_file("C", "pw", "f", payload, PrivacyLevel.PRIVATE)

    t0 = clock.now
    assert d.get_file("C", "pw", "f") == payload
    serial_time = clock.now - t0

    t1 = clock.now
    with ParallelWindow(clock):
        assert d.get_file("C", "pw", "f") == payload
    parallel_time = clock.now - t1
    # 6 providers share the load: expect roughly a 4-6x speedup.
    assert parallel_time < serial_time / 3
    # What ``get_file`` with its ``parallel`` switch on read on this clock at e833a21,
    # before the window moved out of the read engine to the caller.
    assert serial_time == 3.7964727402898566
    assert parallel_time == 0.8359091465661077


def test_distributor_parallel_upload_faster():
    specs = [
        ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP) for i in range(6)
    ]
    registry, _, clock = build_simulated_fleet(specs, seed=3)
    d = CloudDataDistributor(
        registry, chunk_policy=ChunkSizePolicy.uniform(4096), codec="raid5@4", seed=4
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    payload = b"z" * (64 * 1024)

    t0 = clock.now
    d.upload_file("C", "pw", "serial.bin", payload, PrivacyLevel.PRIVATE)
    serial_time = clock.now - t0
    t1 = clock.now
    with ParallelWindow(clock):
        d.upload_file("C", "pw", "parallel.bin", payload, PrivacyLevel.PRIVATE)
    parallel_time = clock.now - t1
    assert parallel_time < serial_time / 3
    # What ``upload_file`` with its ``parallel`` switch on read at e833a21.
    assert serial_time == 5.132423015753215
    assert parallel_time == 0.92279036923237
    assert d.get_file("C", "pw", "parallel.bin") == payload
