"""Raw-sample open-loop generator for the fleet workload.

``repro.loadgen.run_load`` folds latencies into histograms whose 5%
bucket error would eat half of a 10% regression bound, and runs a
dispatcher thread on top of its workers.  This generator keeps the parts
that matter -- the seeded ``synthesize`` trace, the ``GatewayTarget``
adapter, tenant-hash routing that preserves per-tenant order, latency
charged from the *intended* send time -- and records every sample in a
list.  Each of the two workers walks its own precomputed schedule and
sleeps to the intended time, so the generator adds no thread beyond the
two clients this 2-core box can carry.
"""

from __future__ import annotations

import contextlib
import threading
import time
import zlib
from dataclasses import dataclass, field

from repro.core.privacy import ChunkSizePolicy
from repro.loadgen import GatewayTarget, run_setup

import harness
from harness import Calibrator, OpLog

WORKERS = 2

#: Idle time a worker needs ahead of its next send to run the calibration
#: loop (about 1.5 ms) without being late for it.
CAL_GAP_S = 0.004

#: Lead before the first intended send, so both workers are parked on
#: their schedules when the clock starts.
START_LEAD_S = 0.05


class TraceModel:
    """What the fleet must hold and return, derived from the trace alone.

    A pure function of the workload: walking it once yields the SHA-256
    every get must return, so verification costs nothing inside a timed
    run and nothing in a timed set-up.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        chunk_size = ChunkSizePolicy().chunk_size(workload.spec.privacy_level)
        files: dict[tuple[str, str], list[bytes]] = {}

        def put(op) -> None:
            data = op.payload()
            files[op.tenant, op.filename] = [
                data[i : i + chunk_size] for i in range(0, len(data), chunk_size)
            ] or [b""]

        for op in workload.setup:
            put(op)
        #: (tenant, filename) -> digest of each initial file as first stored
        self.initial = {
            key: harness.sha256(b"".join(chunks)) for key, chunks in files.items()
        }
        #: op index -> digest that get must return
        self.expected: dict[int, str] = {}
        for op in workload.operations:
            key = (op.tenant, op.filename)
            if op.kind == "put":
                put(op)
            elif op.kind == "update":
                files[key][op.serial] = op.payload()
            elif op.kind == "delete":
                del files[key]
            else:
                self.expected[op.index] = harness.sha256(b"".join(files[key]))
        #: user bytes live once the whole trace has been applied
        self.final_bytes = sum(len(c) for chunks in files.values() for c in chunks)


class VerifyingTarget:
    """``GatewayTarget`` plus a :class:`TraceModel`: every read is checked."""

    def __init__(self, gateway, model: TraceModel) -> None:
        self.gateway = gateway
        self.model = model
        self.inner = GatewayTarget(gateway)
        self.password = self.inner.password

    def populate(self) -> None:
        """Register the tenants and store the initial files (untimed)."""
        run_setup(self.inner, self.model.workload)

    def apply(self, op) -> tuple[bool, int]:
        """Run one traced op; returns (byte-exact and error-free, bytes)."""
        if op.kind != "get":
            self.inner.apply(op)
            return True, op.size
        data = self.gateway.get_file(op.tenant, self.password, op.filename)
        return harness.sha256(data) == self.model.expected[op.index], len(data)

    def replay(self, ops, log: OpLog) -> None:
        """Apply *ops* back to back (closed loop), recording into *log*."""
        for op in ops:
            start = time.perf_counter()
            try:
                ok, nbytes = self.apply(op)
            except Exception:  # counted, not fatal: the caller checks log.failed
                ok, nbytes = False, 0
            log.record(op.kind, time.perf_counter() - start, nbytes, ok)


@dataclass
class OpenLoopOutcome:
    """Samples of one or more open-loop stretches (they accumulate)."""

    log: OpLog = field(default_factory=OpLog)
    lateness: list[float] = field(default_factory=list)  # start - intended
    service: list[float] = field(default_factory=list)  # done - start
    offered_s: float = 0.0  # what the schedules should have taken
    took_s: float = 0.0  # what they took, to the last completion
    # Shared by both workers and all stretches: one reading serves whoever
    # sends next, and two loops never run at once and slow each other down.
    calibrator: Calibrator = field(default_factory=Calibrator)

    @property
    def achieved_ratio(self) -> float:
        return self.offered_s / self.took_s if self.took_s > 0 else 0.0


class _Worker(threading.Thread):
    """Walks one precomputed schedule; keeps private raw samples."""

    def __init__(self, target: VerifyingTarget, schedule, t0: float, tracer,
                 calibrator: Calibrator) -> None:
        super().__init__(daemon=True)
        self.target = target
        self.schedule = schedule
        self.t0 = t0
        self.tracer = tracer
        self.log = OpLog()
        self.calibrator = calibrator
        self.lateness: list[float] = []
        self.service: list[float] = []
        self.last_completion = t0

    def run(self) -> None:
        target, tracer, t0 = self.target, self.tracer, self.t0
        calibrator = self.calibrator
        for offset, op in self.schedule:
            intended = t0 + offset
            # Re-read the box's speed only in an idle gap with room for the
            # loop, so this worker is never late because it calibrated.
            if intended - time.perf_counter() > CAL_GAP_S:
                calibrator.speed()
            delay = intended - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            span = tracer.op(op.kind) if tracer is not None else contextlib.nullcontext()
            with span:
                start = time.perf_counter()
                try:
                    ok, nbytes = target.apply(op)
                except Exception:  # a failed request is a sample of the run
                    ok, nbytes = False, 0
                done = time.perf_counter()
            speed = calibrator.last
            # Latency runs from the intended send, so a stall is charged
            # to every request it delayed, not only the one it hit.  No
            # device is on this path: the whole latency, queueing
            # included, is time the interpreter was busy, so all of it
            # is divided by the box's speed.
            self.log.record(op.kind, (done - intended) / speed, nbytes, ok)
            self.lateness.append(start - intended)
            self.service.append((done - start) / speed)
            self.last_completion = done


def run_open_loop(target: VerifyingTarget, ops, rate: float,
                  outcome: OpenLoopOutcome | None = None,
                  tracer=None) -> OpenLoopOutcome:
    """Offer *ops* at *rate* ops/s, uniform arrivals; add to *outcome*."""
    outcome = outcome if outcome is not None else OpenLoopOutcome()
    schedules = [[] for _ in range(WORKERS)]
    for i, op in enumerate(ops):
        # Multiplied, not accumulated, so the offered rate is exact; crc32
        # routing keeps each tenant's stream on one worker, in order.
        worker = zlib.crc32(op.tenant.encode()) % WORKERS
        schedules[worker].append(((i + 1) / rate, op))
    outcome.calibrator.speed()
    t0 = time.perf_counter() + START_LEAD_S
    workers = [_Worker(target, s, t0, tracer, outcome.calibrator) for s in schedules]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    for worker in workers:
        outcome.log.merge(worker.log)
        outcome.lateness.extend(worker.lateness)
        outcome.service.extend(worker.service)
    outcome.offered_s += len(ops) / rate
    outcome.took_s += max(w.last_completion for w in workers) - t0
    return outcome
