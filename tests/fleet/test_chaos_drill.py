"""Gateway-level chaos drill: one shard stalled, one killed, under load.

A 3-shard fleet runs over six socket-backed providers.  Mid-drill, shard
``sB``'s traffic is stalled at the wire (every response delayed past the
client's op timeout) and shard ``sC``'s is killed at the client (every
provider op errors instantly) -- both scoped by the fleet's
``fleet/<shard>/`` key namespace, so the shared physical fleet keeps
serving ``sA`` untouched.  Concurrent tenant traffic keeps flowing with
per-request deadlines and retry budgets.

The drill gates the overload-protection stack end to end:

* bounded tail latency -- every request resolves within its deadline
  envelope (no request ever hangs);
* degraded fleet mode -- the sick shards get marked down from live
  evidence, writes to them fail fast with :class:`ShardUnavailable`;
* reads stay alive -- healthy-shard reads are unaffected and a
  dual-holder file survives its stalled owner via hedged/degraded reads;
* clean recovery -- once the faults stop, trial writes flip the shards
  back to healthy and the whole fleet serves again.

Marked ``chaos``: excluded from tier-1, run by the ``fleet-chaos-smoke``
CI job (``pytest -m chaos``).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.errors import (
    DeadlineExceeded,
    PlacementError,
    ProviderError,
    ReconstructionError,
    ShardUnavailable,
)
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.fleet import FleetGateway
from repro.fleet.health import ShardHealthTracker
from repro.fleet.router import fleet_key
from repro.net.remote import RemoteProvider, RetryPolicy
from repro.net.resilience import RetryBudget, retry_budget_scope
from repro.net.server import ChunkServer, WireFaults
from repro.obs.metrics import MetricsRegistry
from repro.providers.chaos import ChaosProvider, FaultPlan
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry
from repro.util.deadline import Deadline, deadline_scope

from tests.fleet.conftest import FLEET_SEED

pytestmark = pytest.mark.chaos

SHARDS = ("sA", "sB", "sC")
STALLED, KILLED = "sB", "sC"
OP_DEADLINE = 1.5  # seconds of budget per drill request
EXPECTED_ERRORS = (
    ProviderError,  # includes DeadlineExceeded and ResourceExhaustedError
    ReconstructionError,
    ShardUnavailable,
    PlacementError,  # the shard's own monitor condemned its providers
)
FAST_RETRY = RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.05)


class Drill:
    """The drill world: servers, scoped faults, gateway, bookkeeping."""

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.servers: list[ChunkServer] = []
        self.remotes: list[RemoteProvider] = []
        self.chaos: list[ChaosProvider] = []
        # Stall sB at the wire: rate 1.0, but scoped to sB's namespace and
        # initially toothless (stall_s grows when the drill starts).
        self.wire_faults = WireFaults(
            stall_rate=1.0, stall_s=0.0, seed=1, key_prefix=f"fleet/{STALLED}/"
        )
        registry = ProviderRegistry()
        for i in range(6):
            server = ChunkServer(
                InMemoryProvider(f"P{i}"),
                wire_faults=self.wire_faults,
                metrics=self.metrics,
            ).start()
            self.servers.append(server)
            remote = RemoteProvider(
                f"P{i}",
                server.host,
                server.port,
                op_timeout=0.2,
                retry=FAST_RETRY,
                metrics=self.metrics,
            )
            self.remotes.append(remote)
            # Kill sC at the client: instant errors, scoped to its keys,
            # disabled until the drill starts.
            chaotic = ChaosProvider(
                remote,
                FaultPlan(error_rate=1.0, key_prefix=f"fleet/{KILLED}/"),
                seed=(11, i),
            )
            chaotic.disable()
            self.chaos.append(chaotic)
            registry.register(chaotic, PrivacyLevel.PRIVATE, CostLevel(i % 4))
        self.gateway = FleetGateway(
            registry,
            seed=FLEET_SEED,
            metrics=self.metrics,
            shard_health=ShardHealthTracker(
                metrics=self.metrics, retry_interval=0.3
            ),
            hedge_delay=0.05,
        )
        for shard_id in SHARDS:
            self.gateway.add_shard(shard_id)
        self.gateway.register_tenant("t")
        self.gateway.add_tenant_password("t", "pw", PrivacyLevel.PRIVATE)

    def files_owned_by(self, shard_id: str, count: int) -> list[str]:
        names = []
        for i in range(200):
            name = f"{shard_id}-file-{i}"
            if self.gateway.router.route(fleet_key("t", name)) == shard_id:
                names.append(name)
                if len(names) == count:
                    return names
        raise AssertionError(f"could not find {count} keys routing to {shard_id}")

    def start_faults(self) -> None:
        self.wire_faults.stall_s = 0.45  # > op_timeout: every sB op times out
        for provider in self.chaos:
            provider.enable()

    def stop_faults(self) -> None:
        self.wire_faults.stall_s = 0.0
        for provider in self.chaos:
            provider.disable()

    def close(self) -> None:
        self.gateway.close()
        for remote in self.remotes:
            remote.close()
        for server in self.servers:
            server.stop()


@pytest.fixture
def drill():
    world = Drill()
    yield world
    world.close()


def test_chaos_drill_stall_kill_recover(drill):
    gw = drill.gateway
    payload = b"drill payload bytes " * 40

    # ---- phase 1: healthy seeding (2 files per shard) --------------------
    seeded: dict[str, list[str]] = {}
    for shard_id in SHARDS:
        seeded[shard_id] = drill.files_owned_by(shard_id, 2)
        for name in seeded[shard_id]:
            gw.upload_file("t", "pw", name, payload, 3)
    # One dual-holder file owned by the soon-to-be-stalled shard: import a
    # replica onto a healthy shard (the mid-migration window, held open).
    dual = drill.files_owned_by(STALLED, 3)[-1]
    gw.upload_file("t", "pw", dual, payload, 3)
    gw.shards["sA"].import_file(fleet_key("t", dual), payload, PrivacyLevel.PRIVATE)

    # ---- phase 2: faults on, concurrent traffic --------------------------
    drill.start_faults()
    durations: list[float] = []
    unexpected: list[BaseException] = []
    lock = threading.Lock()

    def run_op(fn) -> None:
        t0 = time.perf_counter()
        try:
            with deadline_scope(Deadline.after(OP_DEADLINE)):
                with retry_budget_scope(RetryBudget(2)):
                    fn()
        except EXPECTED_ERRORS:
            pass  # DeadlineExceeded is a ProviderError: also expected
        except Exception as exc:  # noqa: BLE001 - drill verdict, not crash
            with lock:
                unexpected.append(exc)
        finally:
            with lock:
                durations.append(time.perf_counter() - t0)

    def worker(idx: int) -> None:
        for i in range(3):
            for shard_id in SHARDS:
                name = seeded[shard_id][(idx + i) % 2]
                run_op(lambda n=name: gw.get_file("t", "pw", n))
            run_op(
                lambda: gw.upload_file(
                    "t", "pw", f"storm-{idx}-{i}", payload, 3
                )
            )
            run_op(lambda: gw.get_file("t", "pw", dual))

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"drill-{i}")
        for i in range(6)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    hung = [t.name for t in threads if t.is_alive()]
    assert not hung, f"hung drill workers: {hung}"  # zero hung requests
    assert not unexpected, f"unexpected error types: {unexpected!r}"

    # Bounded tail latency: every request resolved within its deadline
    # envelope plus one in-flight provider op of overhang.
    durations.sort()
    p99 = durations[int(len(durations) * 0.99) - 1]
    assert p99 < OP_DEADLINE + 1.5, f"p99 {p99:.2f}s; tail not bounded"

    # The wire stall actually fired, scoped to the stalled shard only.
    assert drill.wire_faults.injected["stall"] > 0

    # Healthy-shard reads were never in doubt; check once more mid-fault.
    assert gw.get_file("t", "pw", seeded["sA"][0]) == payload
    # The dual-holder file survives its stalled owner (hedged or promoted).
    assert gw.get_file("t", "pw", dual) == payload
    assert (
        drill.metrics.sum_counter("fleet_hedged_reads_total")
        + drill.metrics.sum_counter("fleet_degraded_reads_total")
    ) > 0

    # ---- phase 3: degraded mode verdicts ---------------------------------
    # The killed shard accumulated failure evidence under load; drive a few
    # more writes at it until the gateway's verdict lands, then prove the
    # fail-fast contract: a refused write resolves in microseconds.
    probes = drill.files_owned_by(KILLED, 8)[2:]
    verdict = None
    for name in probes:
        try:
            with deadline_scope(Deadline.after(OP_DEADLINE)):
                gw.upload_file("t", "pw", name, payload, 3)
        except ShardUnavailable as exc:
            verdict = exc
            break
        except EXPECTED_ERRORS:
            continue
    assert verdict is not None, "killed shard was never marked degraded"
    assert verdict.retry_after == pytest.approx(0.3)
    failfast_probe = drill.files_owned_by(KILLED, 9)[-1]
    t0 = time.perf_counter()
    with pytest.raises(ShardUnavailable):
        gw.upload_file("t", "pw", failfast_probe, b"x" * 64, 3)
    assert time.perf_counter() - t0 < 0.1  # typed verdict, not a timeout
    assert drill.metrics.sum_counter("fleet_shard_marked_down_total") >= 1
    assert drill.metrics.sum_counter("fleet_writes_failed_fast_total") >= 1
    assert drill.metrics.sum_counter("net_server_shed_total") >= 0  # observable

    # ---- phase 4: clean recovery -----------------------------------------
    drill.stop_faults()
    deadline = time.monotonic() + 30.0
    for shard_id in SHARDS:
        name = drill.files_owned_by(shard_id, 10)[-1]
        while True:
            assert time.monotonic() < deadline, f"{shard_id} never recovered"
            try:
                gw.upload_file("t", "pw", name, payload, 3)
                break
            except ShardUnavailable as exc:
                time.sleep(exc.retry_after or 0.1)  # honour the hint
            except EXPECTED_ERRORS:
                time.sleep(0.05)
        assert gw.get_file("t", "pw", name) == payload
    assert set(gw.shard_health_states().values()) == {"healthy"}
    # Every seeded file from before the storm still reads back byte-exact.
    for shard_id in SHARDS:
        for name in seeded[shard_id]:
            assert gw.get_file("t", "pw", name) == payload


def test_deadline_bounds_a_fully_stalled_fleet(drill):
    """With every shard stalled, requests still resolve by their deadline."""
    gw = drill.gateway
    name = drill.files_owned_by("sA", 1)[0]
    payload = b"bounded " * 16
    gw.upload_file("t", "pw", name, payload, 3)
    drill.wire_faults.key_prefix = ""  # stall everything
    drill.wire_faults.stall_s = 0.45
    t0 = time.perf_counter()
    with pytest.raises((DeadlineExceeded,) + EXPECTED_ERRORS):
        with deadline_scope(Deadline.after(0.8)):
            with retry_budget_scope(RetryBudget(1)):
                gw.get_file("t", "pw", name)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.5, f"stalled read took {elapsed:.2f}s; deadline leaked"
    drill.wire_faults.stall_s = 0.0
    assert gw.get_file("t", "pw", name) == payload
