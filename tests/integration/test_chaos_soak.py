"""Chaos soak: seeded mixed traffic over a half-faulty fleet.

Three plain in-memory providers and three :class:`ChaosProvider`-wrapped
ones take a scripted storm of uploads, reads, updates and removals.  The
contract under test is the distributor's *crash consistency*: every write
that COMPLETED (the call returned) must read back byte-exact once the
faults stop, every write that FAILED must have left no trace, and a scrub
plus garbage-collection pass must converge the fleet to a verifiably
clean state -- all deterministically, so a failing soak can be replayed
from its seed.

Marked ``chaos``: excluded from the tier-1 run, exercised by the
dedicated CI job (``pytest -m chaos``).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.consistency import collect_garbage, verify_deployment
from repro.core.distributor import CloudDataDistributor
from repro.core.errors import (
    PlacementError,
    ProviderError,
    ReconstructionError,
)
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.health.monitor import HealthMonitor
from repro.health.scrubber import Scrubber
from repro.providers.chaos import ChaosProvider, FaultPlan
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry

pytestmark = pytest.mark.chaos

CHUNK = 512
PLAN = FaultPlan(
    error_rate=0.06,
    partial_write_rate=0.05,
    corrupt_rate=0.05,
    silent_corrupt_rate=0.03,
    blackout_every=60,
    blackout_ops=3,
)
SOAK_OPS = 120
RECOVERABLE = (ProviderError, PlacementError, ReconstructionError)


class TickClock:
    """Deterministic monotonic 'time': advances one unit per reading, so
    health-probe rate limiting is a pure function of the op sequence."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def make_world(seed):
    registry = ProviderRegistry()
    chaotic = []
    for i in range(6):
        inner = InMemoryProvider(f"P{i}")
        if i % 2 == 0:
            provider = ChaosProvider(inner, PLAN, seed=(seed, i))
            chaotic.append(provider)
        else:
            provider = inner
        registry.register(provider, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    health = HealthMonitor(registry, time_fn=TickClock())
    d = CloudDataDistributor(
        registry,
        chunk_policy=ChunkSizePolicy.uniform(CHUNK),
        codec="raid5@4",
        seed=seed,
        max_transport_workers=1,  # serial I/O: one deterministic op order
        health=health,
    )
    d.register_client("C")
    d.add_password("C", "pw", PrivacyLevel.PRIVATE)
    return d, chaotic


def run_soak(seed):
    """Drive the scripted storm; returns (distributor, chaos providers,
    model of completed writes, op outcome trace)."""
    d, chaotic = make_world(seed)
    rng = random.Random(seed)
    model = {}  # filename -> bytes the caller was promised
    heads = {}  # filename -> current length of chunk 0's payload
    trace = []
    next_id = 0

    for _ in range(SOAK_OPS):
        op = rng.choice(["upload", "upload", "get", "get", "update", "remove"])
        if op == "upload" or not model:
            name = f"f{next_id}"
            next_id += 1
            data = bytes(rng.getrandbits(8) for _ in range(rng.randint(200, 2200)))
            try:
                d.upload_file("C", "pw", name, data, PrivacyLevel.PRIVATE)
                model[name] = data
                heads[name] = min(CHUNK, len(data))
                trace.append(("upload", name, "ok"))
            except RECOVERABLE as exc:
                trace.append(("upload", name, type(exc).__name__))
        elif op == "get":
            name = rng.choice(sorted(model))
            try:
                assert d.get_file("C", "pw", name) == model[name]
                trace.append(("get", name, "ok"))
            except RECOVERABLE as exc:
                trace.append(("get", name, type(exc).__name__))
        elif op == "update":
            name = rng.choice(sorted(model))
            payload = bytes(rng.getrandbits(8) for _ in range(rng.randint(64, 512)))
            try:
                d.update_chunk("C", "pw", name, 0, payload)
            except RECOVERABLE as exc:
                # Copy-on-write: a failed update leaves the old bytes.
                trace.append(("update", name, type(exc).__name__))
            else:
                # Chunk 0's payload is wholly replaced; its length is now
                # whatever the update wrote, not the original chunk size.
                model[name] = payload + model[name][heads[name]:]
                heads[name] = len(payload)
                trace.append(("update", name, "ok"))
        else:
            name = rng.choice(sorted(model))
            d.remove_file("C", "pw", name)  # removal never raises on faults
            del model[name]
            trace.append(("remove", name, "ok"))
    return d, chaotic, model, trace


def settle(d, chaotic):
    """Stop the faults, scrub until clean, and collect garbage."""
    for provider in chaotic:
        provider.disable()
    for _ in range(6):
        report = Scrubber(d).run_once()
        assert report.chunks_unrecoverable == 0
        if report.shards_missing == 0:
            break
    else:
        pytest.fail("scrubber did not converge in 6 cycles")
    collect_garbage(d)
    return report


def test_soak_completed_writes_survive_and_fleet_converges():
    d, chaotic, model, trace = run_soak(seed=2026)
    injected = {}
    for provider in chaotic:
        for kind, count in provider.fault_summary().items():
            injected[kind] = injected.get(kind, 0) + count
    # The storm must actually have been a storm.
    assert sum(injected.values()) > 20, injected
    assert model, "soak removed every file; widen the op mix"

    settle(d, chaotic)

    # Every completed write reads back byte-exact; failed ones left no
    # trace (their names resolve to nothing).
    for name, data in sorted(model.items()):
        assert d.get_file("C", "pw", name) == data
    assert sorted(d.list_files("C", "pw")) == sorted(model)
    # And the fleet's object stores agree with the tables exactly.
    assert verify_deployment(d).clean


def test_soak_is_reproducible_from_its_seed():
    first = run_soak(seed=7)
    second = run_soak(seed=7)
    assert first[3] == second[3]  # same op outcomes
    assert sorted(first[2]) == sorted(second[2])  # same surviving files
    for a, b in zip(first[1], second[1]):
        assert a.fault_log == b.fault_log


def test_soak_diverges_across_seeds():
    assert run_soak(seed=1)[3] != run_soak(seed=2)[3]
