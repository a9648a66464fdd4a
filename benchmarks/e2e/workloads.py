"""The five benchmark workloads: how each stack is built and driven.

Four are closed loops with one client (upload -> update chunks ->
download -> remove, and one degraded read on a second stack, per cycle);
the fifth is an open loop of small multi-tenant requests against a
sharded fleet.  Every workload records the same op kinds into an
:class:`~harness.OpLog`, so one set of end-to-end metrics is defined on
all of them.

Only the API that survives the ROADMAP's "one data path" item is used:
``codec=`` spec strings, ``LocalCluster``'s default server class, and
``put_stream``/``get_stream`` with their default window.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import persistence
from repro.core.distributor import CloudDataDistributor
from repro.core.journal import IntentJournal
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.fleet.gateway import FleetGateway
from repro.loadgen import OpMix, WorkloadSpec, synthesize
from repro.net.cluster import LocalCluster
from repro.providers.disk import DiskProvider
from repro.providers.memory import InMemoryProvider
from repro.providers.registry import ProviderRegistry

import harness
import openloop
from harness import MIB, OpLog, Timer

CLIENT = "bench"
PASSWORD = "bench-pw"

#: Files the degraded stack holds when its providers are lost; they are
#: read back round-robin, one read per cycle.
DEGRADED_FILES = 3

WARMUP_REPS = 2

#: Chunk updates per cycle.  An update is the shortest operation by far
#: (1.5 ms in process), so it takes several to give its median the
#: samples the longer operations get from their length.
UPDATES_PER_CYCLE = 4

#: The open loop alternates fixed-rate segments with degraded reads, so
#: both kinds of sample span the whole run: this share of ``--seconds``
#: is offered load, the rest degraded reads.
OPEN_SHARE = 0.8
OPEN_SEGMENTS = 3


@dataclass(frozen=True)
class ClosedLoop:
    """One single-client workload: deployment shape plus file shape."""

    name: str
    transport: str  # "inproc" | "wire" | "disk"
    providers: int
    level: int
    codec: str | None
    file_size: int
    smoke_file_size: int
    lose: int  # providers whose blobs the degraded phase drops
    misleading_fraction: float = 0.0
    stream: bool = False
    chunk_size: int | None = None  # None: the privacy level's default


@dataclass(frozen=True)
class OpenLoop:
    """The multi-tenant small-request workload."""

    name: str
    rate: float = 200.0
    providers: int = 6
    shards: int = 3
    lose: int = 1
    ladder: tuple[float, ...] = (400.0, 800.0, 1600.0)
    ladder_step_s: float = 3.0
    ladder_p95_ms: float = 10.0
    spec: WorkloadSpec = WorkloadSpec(
        tenants=4, files_per_tenant=12, mean_file_size=8192,
        zipf_alpha=1.2, privacy_level=2,
        mix=OpMix(get=70, put=15, update=10, delete=5),
    )


WORKLOADS = {
    w.name: w
    for w in (
        ClosedLoop(
            name="bulk_wire_raid5",
            transport="wire", providers=6, level=2, codec="raid5@4",
            file_size=2 * MIB, smoke_file_size=MIB // 4, lose=1,
        ),
        ClosedLoop(
            name="bulk_inproc_rs63",
            transport="inproc", providers=9, level=0, codec="rs(6,3)",
            file_size=8 * MIB, smoke_file_size=MIB, lose=3,
        ),
        ClosedLoop(
            name="sensitive_inproc_pl3",
            transport="inproc", providers=6, level=3, codec="raid5@4",
            file_size=2 * MIB, smoke_file_size=MIB // 8, lose=1,
            misleading_fraction=0.1,
        ),
        ClosedLoop(
            name="stream_disk",
            transport="disk", providers=4, level=0, codec=None,
            file_size=32 * MIB, smoke_file_size=4 * MIB, lose=1, stream=True,
            # 1 MiB chunks, as the BENCH_stream gate uses: shards of 341 KiB
            # ride the STREAM wire ops (64 KiB chunks would fall back to
            # MULTI frames), and 128 files per upload instead of 2048 keep
            # filesystem-journal noise out of the upload time.
            chunk_size=MIB,
        ),
        OpenLoop(
            name="mixed_fleet_openloop",
        ),
    )
}


# ---------------------------------------------------------------------------
# closed-loop stacks
# ---------------------------------------------------------------------------


def inproc_registry(backends) -> ProviderRegistry:
    """Backends registered directly: no sockets between them and the caller."""
    registry = ProviderRegistry()
    for backend in backends:
        registry.register(backend, PrivacyLevel.PRIVATE, CostLevel.CHEAP)
    return registry


class ClosedStack:
    """A built deployment for one :class:`ClosedLoop` workload."""

    def __init__(self, spec: ClosedLoop, seed: int, workdir: Path, size: int) -> None:
        self.spec = spec
        self.size = size
        self.workdir = workdir
        self.cluster = None
        self.journal = None
        self.metadata_path = None
        names = [f"node{i}" for i in range(spec.providers)]
        if spec.transport == "disk":
            workdir.mkdir(parents=True, exist_ok=True)
            self.backends = [DiskProvider(n, workdir / n) for n in names]
            self.journal = IntentJournal(workdir / "journal.jsonl")
            self.metadata_path = workdir / "metadata.json"
        else:
            self.backends = [InMemoryProvider(n) for n in names]
        if spec.transport == "inproc":
            registry = inproc_registry(self.backends)
        else:
            self.cluster = LocalCluster(backends=self.backends).start()
            registry = self.cluster.build_registry()
        self.dist = CloudDataDistributor(
            registry, codec=spec.codec, seed=seed, journal=self.journal
        )
        self.dist.register_client(CLIENT)
        self.dist.add_password(CLIENT, PASSWORD, spec.level)
        self.chunk_size = spec.chunk_size or ChunkSizePolicy().chunk_size(spec.level)

    def close(self) -> None:
        self.dist.close()
        if self.cluster is not None:
            self.cluster.stop()
        if self.spec.transport == "disk":
            shutil.rmtree(self.workdir, ignore_errors=True)

    # -- the four operations -------------------------------------------------

    def _commit(self) -> None:
        """What the CLI does after every mutating command on a durable
        deployment: snapshot the tables, then drop resolved intents."""
        if self.journal is not None:
            persistence.save_metadata(self.dist, self.metadata_path)
            self.journal.checkpoint()

    def put(self, name: str, source) -> None:
        d, s = self.dist, self.spec
        if s.stream:
            d.put_stream(
                CLIENT, PASSWORD, name, source, s.level, chunk_size=s.chunk_size
            )
        else:
            d.upload_file(
                CLIENT, PASSWORD, name, source, s.level,
                misleading_fraction=s.misleading_fraction,
            )
        self._commit()

    def get(self, name: str):
        """Download *name*: the bytes, or for a stream their SHA-256.

        A streamed download is hashed as it arrives (a streaming client
        consumes as it goes, and nothing O(file) may be held); a whole
        file comes back as bytes and is hashed after the clock stops.
        """
        if not self.spec.stream:
            return self.dist.get_file(CLIENT, PASSWORD, name)
        digest = hashlib.sha256()
        for segment in self.dist.get_stream(CLIENT, PASSWORD, name):
            digest.update(segment)
        return digest.hexdigest()

    def update(self, name: str, serial: int, payload: bytes) -> None:
        self.dist.update_chunk(CLIENT, PASSWORD, name, serial, payload)
        self._commit()

    def delete(self, name: str) -> None:
        self.dist.remove_file(CLIENT, PASSWORD, name)
        self._commit()

    # -- at-rest figures -----------------------------------------------------

    def stored_bytes(self) -> int:
        if self.spec.transport == "disk":
            return harness.directory_bytes([b.root for b in self.backends])
        return harness.stored_bytes(self.backends)


class FileMaker:
    """Seeded file contents for a closed-loop workload.

    Whole-file workloads get a fresh random payload per file; the
    streaming workload tiles one seeded pattern block so no O(file)
    buffer exists.  Either way ``expected`` yields the digest a download
    must match after the chunks in *patches* were replaced.
    """

    def __init__(self, stack: ClosedStack, rng: np.random.Generator) -> None:
        self.stack = stack
        self.rng = rng
        self.pattern = rng.bytes(256 * 1024) if stack.spec.stream else b""

    def new_file(self):
        """(source for ``put``, opaque content handle)."""
        size = self.stack.size
        if self.stack.spec.stream:
            return harness.PatternStream(self.pattern, size), None
        data = self.rng.bytes(size)
        return data, data

    def patches(self) -> dict[int, bytes]:
        """Chunk serial -> replacement payload, for one cycle's updates."""
        chunks = -(-self.stack.size // self.stack.chunk_size)
        serials = self.rng.choice(
            chunks, size=min(UPDATES_PER_CYCLE, chunks), replace=False
        )
        return {int(s): self.rng.bytes(self.stack.chunk_size) for s in serials}

    def expected(self, content, patches: dict[int, bytes] | None = None) -> str:
        cs = self.stack.chunk_size
        if self.stack.spec.stream:
            return harness.pattern_digest(self.pattern, self.stack.size, cs, patches)
        patched = bytearray(content)
        for serial, payload in (patches or {}).items():
            patched[serial * cs : (serial + 1) * cs] = payload
        return harness.sha256(patched)


def _digest(got) -> str:
    return got if isinstance(got, str) else harness.sha256(got)


def closed_rep(stack: ClosedStack, files: FileMaker, timer: Timer, name: str,
               keep: bool = False) -> None:
    """One cycle: upload -> update chunks -> download (verified) -> remove.

    With *keep* the file is left exactly as uploaded (no update, no
    remove): which chunks a seed picks to update would otherwise leak
    into the placement figures read from it.
    """
    size = stack.size
    source, content = files.new_file()
    patches = {} if keep else files.patches()
    want = files.expected(content, patches)
    timer.run("put", size, lambda: stack.put(name, source))
    for serial, payload in patches.items():
        timer.run("update", len(payload), lambda: stack.update(name, serial, payload))
    timer.run("get", size, lambda: stack.get(name), verify=lambda got: _digest(got) == want)
    if not keep:
        timer.run("delete", size, lambda: stack.delete(name))
    # Untimed: a full collection between cycles, so cyclic garbage holding
    # file-sized buffers neither inflates peak RSS by chance nor lands its
    # pause inside a later timed operation.  On disk, likewise, what the
    # kernel still owes the filesystem for this cycle's unlinks is flushed
    # here and not inside the next upload's fsyncs.
    gc.collect()
    if stack.spec.transport == "disk":
        os.sync()


def degraded_stack(spec: ClosedLoop, seed: int, workdir: Path,
                   size: int) -> tuple[ClosedStack, dict[str, str]]:
    """A second deployment after ``spec.lose`` providers lost everything.

    It is a stack of its own so the health verdicts the losses provoke
    never reach the healthy operations.  Returns it with the digest each
    of its :data:`DEGRADED_FILES` files must read back as.
    """
    stack = ClosedStack(spec, seed + 1, workdir / "degraded", size)
    try:
        files = FileMaker(stack, np.random.default_rng([seed, 2]))
        wants = {}
        for i in range(DEGRADED_FILES):
            source, content = files.new_file()
            stack.put(f"d{i}", source)
            wants[f"d{i}"] = files.expected(content)
        for backend in stack.backends[: spec.lose]:
            harness.drop_provider_blobs(backend)
    except BaseException:
        stack.close()
        raise
    return stack, wants


def degraded_read(stack: ClosedStack, wants: dict[str, str], i: int,
                  timer: Timer) -> None:
    """One verified read-back from the degraded stack (round-robin)."""
    name = list(wants)[i % len(wants)]
    timer.run(
        "degraded_get", stack.size, lambda: stack.get(name),
        verify=lambda got: _digest(got) == wants[name],
    )
    gc.collect()


@dataclass
class RunResult:
    """What one workload run hands back to the runner."""

    log: OpLog
    setup_seconds: list[float]  # one per set-up
    exposure: float
    stored_ratio: float
    nominal_bytes: int  # the file size throughput figures are quoted at
    speed: float  # median reference-loop reading over the run
    notes: dict


def timed_setups(count: int, build, keep_last: bool):
    """Run ``build()`` *count* times, closing each stack before the next.

    Returns ([seconds per set-up], last build or None).
    """
    calibrator = harness.Calibrator()
    seconds = []
    built = None
    for i in range(count):
        elapsed, built = harness.reference_seconds(calibrator, build)
        seconds.append(elapsed)
        if i < count - 1 or not keep_last:
            built[0].close()
    return seconds, built if keep_last else None


def setup_closed(spec: ClosedLoop, seed: int, workdir: Path, size: int):
    """Build the stack and warm it up; returns (stack, files)."""
    stack = ClosedStack(spec, seed, workdir / "healthy", size)
    files = FileMaker(stack, np.random.default_rng([seed, 1]))
    warm = Timer(OpLog())
    for i in range(WARMUP_REPS):
        closed_rep(stack, files, warm, f"warm{i}")
    if warm.log.failed:
        stack.close()
        raise RuntimeError(f"{spec.name}: warm-up operations failed")
    return stack, files


def run_closed(spec: ClosedLoop, seed: int, seconds: float, workdir: Path,
               smoke: bool, setups: int, tracer=None,
               reps: int | None = None) -> RunResult:
    """Set up *setups* times (timing each), then measure on the last stack.

    Every cycle is one healthy cycle plus one degraded read on the second
    stack, so each op kind's samples span the whole run and a slow spell
    of the box shorter than half of it cannot move a median.  With *reps*
    exactly that many cycles run (the traced pass: counts then repeat
    exactly); otherwise they are bounded by *seconds*.
    """
    size = spec.smoke_file_size if smoke else spec.file_size
    setup_seconds, (stack, files) = timed_setups(
        setups, lambda: setup_closed(spec, seed, workdir, size), keep_last=True
    )
    log = OpLog()
    timer = Timer(log, tracer)
    try:
        lost, wants = degraded_stack(spec, seed, workdir, size)
        try:
            def cycle(i: int) -> None:
                closed_rep(stack, files, timer, f"f{i}")
                degraded_read(lost, wants, i, timer)

            harness.run_reps(
                float("inf") if reps else seconds, cycle, max_reps=reps
            )
        finally:
            lost.close()
        # One more upload stays in place: exposure and bytes at rest are
        # read with exactly one file stored, before its remove.
        closed_rep(stack, files, timer, "last", keep=True)
        exposure = harness.exposure_max_share([stack.dist], [CLIENT])
        stored_ratio = stack.stored_bytes() / size
        timer.run("delete", size, lambda: stack.delete("last"))
    finally:
        stack.close()
    speed = statistics.median(timer.calibrator.readings)
    return RunResult(log, setup_seconds, exposure, stored_ratio, size, speed, {})


# ---------------------------------------------------------------------------
# the open-loop fleet workload
# ---------------------------------------------------------------------------


class FleetStack:
    """An in-process sharded fleet over in-memory providers."""

    def __init__(self, spec: OpenLoop, seed: int) -> None:
        self.backends = [InMemoryProvider(f"node{i}") for i in range(spec.providers)]
        self.gateway = FleetGateway(inproc_registry(self.backends), seed=seed)
        for i in range(spec.shards):
            self.gateway.add_shard(f"s{i}")

    def close(self) -> None:
        self.gateway.close()


def setup_fleet(spec: OpenLoop, model, seed: int):
    """Fleet + tenants + initial population + a short closed-loop warm-up."""
    stack = FleetStack(spec, seed)
    target = openloop.VerifyingTarget(stack.gateway, model)
    target.populate()
    warm = OpLog()
    target.replay(model.workload.operations[:50], warm)
    if warm.failed:
        stack.close()
        raise RuntimeError(f"{spec.name}: warm-up operations failed")
    return stack, target


def run_open(spec: OpenLoop, seed: int, seconds: float, setups: int,
             tracer=None, ops: int | None = None) -> RunResult:
    """The fixed-rate run, in segments, with degraded reads in between.

    The trace is offered in :data:`OPEN_SEGMENTS` stretches on one fleet;
    after each, files of a second fleet that lost a provider are read
    back closed-loop, so both kinds of sample span the whole run.  With
    *ops* the run offers exactly that many requests and a fixed number of
    degraded reads (the traced pass); otherwise both are sized by
    *seconds*.
    """
    n_ops = ops if ops is not None else int(spec.rate * seconds * OPEN_SHARE)
    workload = synthesize(spec.spec, n_ops, seed=seed)
    model = openloop.TraceModel(workload)
    setup_seconds, _ = timed_setups(
        setups, lambda: setup_fleet(spec, model, seed), keep_last=False
    )
    per_segment = -(-n_ops // OPEN_SEGMENTS)
    if ops is not None:
        reads_s, max_reads = float("inf"), per_segment // 4
    else:
        reads_s, max_reads = seconds * (1 - OPEN_SHARE) / OPEN_SEGMENTS, None
    # The warm-up replayed a prefix of the trace, so the measured run
    # starts over from the trace's own initial population.
    stack = FleetStack(spec, seed)
    lost = FleetStack(spec, seed + 1)
    try:
        target = openloop.VerifyingTarget(stack.gateway, model)
        target.populate()
        lost_target = openloop.VerifyingTarget(lost.gateway, model)
        lost_target.populate()
        for backend in lost.backends[: spec.lose]:
            harness.drop_provider_blobs(backend)
        outcome = openloop.OpenLoopOutcome()
        timer = Timer(outcome.log, tracer)
        reads = 0
        for k in range(OPEN_SEGMENTS):
            segment = workload.operations[k * per_segment : (k + 1) * per_segment]
            openloop.run_open_loop(target, segment, spec.rate, outcome, tracer)
            reads += harness.run_reps(
                reads_s, lambda i: degraded_fleet_read(lost_target, reads + i, timer),
                max_reps=max_reads,
            )
        shards = [s.distributor for s in stack.gateway.shards.values()]
        exposure = harness.exposure_max_share(shards, workload.tenants)
        stored_ratio = harness.stored_bytes(stack.backends) / model.final_bytes
    finally:
        lost.close()
        stack.close()
    notes = {
        "trace_digest": workload.trace_digest(),
        "lateness_p95_ms": harness.percentile(outcome.lateness, 95.0) * 1e3,
        "service_p50_ms": statistics.median(outcome.service) * 1e3,
        "achieved_ratio": outcome.achieved_ratio,
    }
    speed = statistics.median(outcome.calibrator.readings + timer.calibrator.readings)
    return RunResult(
        outcome.log, setup_seconds, exposure, stored_ratio,
        spec.spec.mean_file_size, speed, notes,
    )


def degraded_fleet_read(target, i: int, timer: Timer) -> None:
    """One verified closed-loop read of an initial file after provider loss."""
    setup = target.model.workload.setup
    op = setup[i % len(setup)]
    want = target.model.initial[op.tenant, op.filename]
    timer.run(
        "degraded_get", op.size,
        lambda: target.gateway.get_file(op.tenant, target.password, op.filename),
        verify=lambda got: harness.sha256(got) == want,
    )


def rate_ladder(spec: OpenLoop, seed: int, step_s: float | None = None):
    """Highest offered rate that holds p95 < limit at >= 95% achieved.

    Each step runs on a fresh fleet; the climb stops at the first step
    that fails.  Returns (highest passing rate or 0, per-step rows).
    """
    step_s = step_s if step_s is not None else spec.ladder_step_s
    best = 0.0
    rows = []
    for rate in spec.ladder:
        workload = synthesize(spec.spec, int(rate * step_s), seed=seed)
        stack = FleetStack(spec, seed)
        try:
            target = openloop.VerifyingTarget(stack.gateway, openloop.TraceModel(workload))
            target.populate()
            outcome = openloop.run_open_loop(target, workload.operations, rate)
        finally:
            stack.close()
        log = outcome.log
        every = [s for k in ("get", "put", "update", "delete") for s in log.seconds[k]]
        # A failed request misses any latency limit.
        p95_ms = (
            harness.percentile(every, 95.0) * 1e3
            if every and not log.failed else float("inf")
        )
        ok = p95_ms < spec.ladder_p95_ms and outcome.achieved_ratio >= 0.95
        rows.append({"rate": rate, "p95_ms": p95_ms,
                     "achieved_ratio": outcome.achieved_ratio, "ok": ok})
        if not ok:
            break
        best = rate
    return best, rows
