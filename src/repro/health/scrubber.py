"""Background scrubber: continuous shard auditing and automatic repair.

"RAID-like striping... guarantees successful retrieval of data in case of a
cloud provider being blocked by any unlikely event or going out of
business" (Section III-B) -- but only while enough stripe members survive.
The scrubber turns the seed's manual, per-file ``repair_file`` pass into a
continuous background process: on every cycle it walks the distributor's
chunk table, fans out cheap ``head`` checks across the provider fleet via
the transport executor, compares the returned checksums against the
recorded shard checksums (catching silent at-rest corruption without
transferring payloads), and rebuilds anything missing or rotten onto
healthy providers.

Each cycle appends a :class:`ScrubReport` to :attr:`Scrubber.reports`; the
CLI's ``repair --auto`` runs a single cycle and renders the report.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.errors import BlobCorruptedError
from repro.core.virtual_id import shard_key
from repro.obs.metrics import MetricsRegistry, get_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.distributor import CloudDataDistributor

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScrubReport:
    """Outcome of one scrub cycle over the whole chunk table."""

    cycle: int
    duration_s: float
    chunks_checked: int
    shards_checked: int
    shards_missing: int
    shards_rebuilt: int
    chunks_unrecoverable: int
    relocations: tuple[tuple[int, int, str, str], ...] = ()
    # (virtual_id, shard_index, old_provider, new_provider)

    def summary(self) -> str:
        return (
            f"scrub #{self.cycle}: {self.chunks_checked} chunks / "
            f"{self.shards_checked} shards checked, "
            f"{self.shards_missing} bad, {self.shards_rebuilt} rebuilt, "
            f"{self.chunks_unrecoverable} unrecoverable "
            f"({self.duration_s:.3f}s)"
        )


class Scrubber:
    """Periodic shard audit + automatic rebuild over one distributor.

    ``interval_s`` is the wall-clock pause between background cycles;
    ``probe_fleet`` additionally runs one active probe sweep through the
    distributor's health monitor per cycle, so providers that died while
    idle are detected without waiting for live traffic to hit them.

    Usable as a context manager (``with Scrubber(d, interval_s=5): ...``)
    or one-shot via :meth:`run_once`.
    """

    def __init__(
        self,
        distributor: "CloudDataDistributor",
        *,
        interval_s: float = 30.0,
        probe_fleet: bool = True,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.distributor = distributor
        self.interval_s = interval_s
        self.probe_fleet = probe_fleet
        self.metrics = metrics if metrics is not None else get_metrics()
        self.reports: list[ScrubReport] = []
        self._cycle = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- one cycle ---------------------------------------------------------

    def run_once(self) -> ScrubReport:
        """Audit every chunk once, repairing damage; returns the report."""
        d = self.distributor
        started = time.perf_counter()
        if self.probe_fleet:
            d.health.probe_all()
        chunks_checked = shards_checked = 0
        shards_missing = shards_rebuilt = chunks_unrecoverable = 0
        relocations: list[tuple[int, int, str, str]] = []
        with d.op_lock:
            chunk_indices = [index for index, _ in d.chunk_table]
        for index in chunk_indices:
            with d.op_lock:
                try:
                    entry = d.chunk_table.get(index)
                except Exception:
                    continue  # removed since the snapshot of indices
                if entry.quarantined:
                    continue
                checked, bad = self._audit_chunk(entry)
                chunks_checked += 1
                shards_checked += checked
                if not bad:
                    continue
                missing, rebuilt, unrecoverable, moved = d._repair_chunk(
                    entry, suspect=bad
                )
                shards_missing += missing
                shards_rebuilt += rebuilt
                chunks_unrecoverable += unrecoverable
                relocations.extend(moved)
        self._cycle += 1
        duration = time.perf_counter() - started
        report = ScrubReport(
            cycle=self._cycle,
            duration_s=duration,
            chunks_checked=chunks_checked,
            shards_checked=shards_checked,
            shards_missing=shards_missing,
            shards_rebuilt=shards_rebuilt,
            chunks_unrecoverable=chunks_unrecoverable,
            relocations=tuple(relocations),
        )
        self.reports.append(report)
        # Same registry the rest of the data path reports into, so
        # ``repro stats`` shows scrub coverage next to live traffic.
        self.metrics.counter("scrub_cycles_total").inc()
        self.metrics.counter("scrub_chunks_checked_total").inc(chunks_checked)
        self.metrics.counter("scrub_shards_checked_total").inc(shards_checked)
        self.metrics.counter("scrub_shards_missing_total").inc(shards_missing)
        self.metrics.counter("scrub_shards_rebuilt_total").inc(shards_rebuilt)
        self.metrics.counter("scrub_chunks_unrecoverable_total").inc(
            chunks_unrecoverable
        )
        self.metrics.histogram("scrub_cycle_seconds").observe(duration)
        return report

    def _audit_chunk(self, entry) -> tuple[int, list[int]]:
        """Head-check one chunk's shards; returns (checked, bad indices).

        A shard is bad when its provider cannot answer the ``head``, the
        object is gone, or the stored checksum no longer matches the one
        recorded at write time (silent at-rest corruption).
        """
        d = self.distributor
        names = d._members(entry)
        expected = entry.record.shard_checksums

        def check(shard_index: int):
            name = names[shard_index]
            key = shard_key(entry.virtual_id, shard_index)
            stat = d._provider_call("head", name, key)
            if expected is not None and stat.checksum != expected[shard_index]:
                raise BlobCorruptedError(
                    f"shard {key!r} at provider {name!r} drifted from its "
                    f"recorded checksum"
                )
            return stat

        indices = list(range(len(names)))
        outcomes = d._transport_map(check, indices, names)
        bad = [i for i, (_, exc) in zip(indices, outcomes) if exc is not None]
        return len(indices), bad

    # -- background thread -------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "Scrubber":
        """Begin scrubbing every ``interval_s`` seconds in the background."""
        if self.running:
            raise RuntimeError("scrubber already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-scrubber", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the background thread (waits for the current cycle)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.run_once()
            except Exception:  # noqa: BLE001 - the scrubber must outlive bad cycles
                log.exception("scrub cycle failed; will retry next interval")

    def __enter__(self) -> "Scrubber":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
