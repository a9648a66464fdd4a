"""Shared measurement plumbing for the end-to-end benchmark.

Everything here is workload-agnostic: the reference-speed reading, the
raw-sample operation log every workload records into, time-bounded rep
loops, the synthetic stream, and the figures (medians, percentiles,
storage overhead, exposure, RSS) the runner prints.  Nothing in this
file imports the program's internals beyond what a client of the public
API would touch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import statistics
import time
from pathlib import Path

MIB = 1024 * 1024

#: The reference loop, the seconds it takes on the reference machine
#: (about this box when its neighbours are quiet), and how long one
#: reading stays fresh.
CAL_LOOPS = 30000
CAL_REF_S = 1.0e-3
CAL_FRESH_S = 0.02

#: Op kinds every workload records.  ``degraded_get`` is a read issued
#: after the blobs of as many providers as the codec tolerates were lost.
OP_KINDS = ("put", "get", "update", "delete", "degraded_get")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Calibrator:
    """How much slower than the reference machine is this box right now?

    The interpreter's pace on this shared 2-vCPU guest moves by 30-45%
    for tens of seconds at a time, which no median inside one run
    removes.  ``speed()`` times a fixed pure-Python loop -- independent
    of the program under test, so a real gain can never hide in it -- and
    every timing sample is divided by the reading taken next to it.  A
    reading is reused while younger than :data:`CAL_FRESH_S`, so
    back-to-back short operations do not pay for a loop each.
    """

    def __init__(self) -> None:
        self.last = 1.0  # the latest reading, however old
        self.readings: list[float] = []
        self._at = float("-inf")

    def speed(self) -> float:
        if time.perf_counter() - self._at > CAL_FRESH_S:
            start = time.perf_counter()
            total = 0
            for i in range(CAL_LOOPS):
                total += i
            self._at = time.perf_counter()
            self.last = (self._at - start) / CAL_REF_S
            self.readings.append(self.last)
        return self.last


def reference_seconds(calibrator: Calibrator, call) -> tuple[float, object]:
    """Run ``call()``; return (its duration on the reference machine, result):
    wall seconds over the box's speed, read just before and just after."""
    before = calibrator.speed()
    start = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - start
    return elapsed / ((before + calibrator.speed()) / 2), result


def percentile(samples: list[float], q: float) -> float:
    """The *q*-th percentile (0..100) of raw samples, linear interpolation."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


class OpLog:
    """Per-operation samples by op kind: seconds and user bytes.

    A failed, refused or byte-mismatched operation is counted in
    ``failed`` and contributes no timing sample, so a fast wrong answer
    can never improve a median.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, list[float]] = {k: [] for k in OP_KINDS}
        self.nbytes: dict[str, list[int]] = {k: [] for k in OP_KINDS}
        self.attempted = 0
        self.failed = 0

    def record(self, kind: str, seconds: float, nbytes: int, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            return
        self.seconds[kind].append(seconds)
        self.nbytes[kind].append(nbytes)

    def merge(self, other: "OpLog") -> None:
        for kind in OP_KINDS:
            self.seconds[kind].extend(other.seconds[kind])
            self.nbytes[kind].extend(other.nbytes[kind])
        self.attempted += other.attempted
        self.failed += other.failed

    def count(self, kind: str) -> int:
        return len(self.seconds[kind])

    def median_ms(self, kind: str) -> float:
        return statistics.median(self.seconds[kind]) * 1e3

    def percentile_ms(self, kind: str, q: float) -> float:
        return percentile(self.seconds[kind], q) * 1e3


class Timer:
    """Runs one operation, times it, verifies it, records it.

    ``tracer`` (traced pass only) opens a root span around the timed
    region, so per-layer self times add up to the same wall the
    end-to-end metrics are computed from.
    """

    def __init__(self, log: OpLog, tracer=None) -> None:
        self.log = log
        self.tracer = tracer
        self.calibrator = Calibrator()

    def run(self, kind: str, nbytes: int, call, verify=None):
        """Time ``call()``; *verify* (untimed) maps its result to ok/not."""
        span = self.tracer.op(kind) if self.tracer is not None else contextlib.nullcontext()

        def guarded():
            with span:
                try:
                    return True, call()
                except Exception:  # the op failed; the run goes on and reports it
                    return False, None

        seconds, (ok, result) = reference_seconds(self.calibrator, guarded)
        if ok and verify is not None:
            ok = bool(verify(result))
        self.log.record(kind, seconds, nbytes, ok)
        return result if ok else None


def run_reps(budget_s: float, rep, min_reps: int = 3, max_reps: int | None = None) -> int:
    """Call ``rep(i)`` until the next one would overrun *budget_s*.

    The stop rule uses the slowest rep seen so far, so a run ends inside
    its budget instead of one rep past it.  Returns the rep count.
    """
    start = time.perf_counter()
    slowest = 0.0
    done = 0
    while max_reps is None or done < max_reps:
        now = time.perf_counter()
        if done >= min_reps and now - start + slowest > budget_s:
            break
        rep(done)
        slowest = max(slowest, time.perf_counter() - now)
        done += 1
    return done


class PatternStream(io.RawIOBase):
    """A *size*-byte readable stream tiled from one seeded pattern block.

    Never O(file) in memory: ``readinto`` copies out of the pattern, and
    :func:`pattern_digest` computes the SHA-256 the download must match
    without materialising the stream either.
    """

    def __init__(self, pattern: bytes, size: int) -> None:
        self.pattern = pattern
        self.size = size
        self.pos = 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        want = min(len(buffer), self.size - self.pos)
        if want <= 0:
            return 0
        src = self.pos % len(self.pattern)
        take = min(want, len(self.pattern) - src)
        buffer[:take] = self.pattern[src : src + take]
        self.pos += take
        return take


def pattern_digest(
    pattern: bytes, size: int, chunk_size: int, replaced: dict[int, bytes] | None = None
) -> str:
    """SHA-256 of a :class:`PatternStream`, with whole chunks overridden.

    ``replaced`` maps chunk serial -> the payload an ``update_chunk`` put
    there; the file is the concatenation of its chunks, so a replaced
    chunk contributes its own bytes (of whatever length).
    """
    replaced = replaced or {}
    digest = hashlib.sha256()
    stream = PatternStream(pattern, size)
    buf = bytearray(chunk_size)
    serial = 0
    while True:
        filled = 0
        while filled < chunk_size:
            n = stream.readinto(memoryview(buf)[filled:])
            if not n:
                break
            filled += n
        if not filled:
            break
        digest.update(replaced.get(serial, memoryview(buf)[:filled]))
        serial += 1
    return digest.hexdigest()


def stored_bytes(backends) -> int:
    """Payload bytes at rest across *backends* (their own accounting)."""
    return sum(b.stored_bytes for b in backends)


def directory_bytes(roots: list[Path]) -> int:
    """Bytes on disk under the provider directories *roots*."""
    total = 0
    for root in roots:
        with os.scandir(root) as entries:
            total += sum(e.stat().st_size for e in entries if e.is_file())
    return total


def drop_provider_blobs(backend) -> None:
    """Lose every object *backend* holds."""
    for key in backend.keys():
        backend.delete(key)


def rss_peak_mib() -> float:
    """This process's RSS high-water mark (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def exposure_max_share(distributors, clients) -> float:
    """Largest share of the stored shard bytes any one provider holds.

    Pools ``client_exposure`` over every (distributor, client) pair: for
    the single-client workloads that is exactly
    ``client_exposure(...).max_byte_share``; for the sharded fleet it is
    the share of all tenants' bytes one provider could mine.
    """
    from repro.analysis.exposure import client_exposure

    per_provider: dict[str, int] = {}
    total = 0
    for dist in distributors:
        for client in clients:
            if client not in dist.client_table:
                continue
            report = client_exposure(dist, client)
            total += report.total_shard_bytes
            for row in report.per_provider:
                per_provider[row.provider] = (
                    per_provider.get(row.provider, 0) + row.shard_bytes
                )
    return max(per_provider.values()) / total if total else 0.0
