"""Background scrubber: continuous shard auditing and automatic repair.

"RAID-like striping... guarantees successful retrieval of data in case of a
cloud provider being blocked by any unlikely event or going out of
business" (Section III-B) -- but only while enough stripe members survive.
The scrubber turns the seed's manual, per-file ``repair_file`` pass into a
continuous background process: on every cycle it probes the fleet, then
walks the distributor's chunk table a window of rows at a time and repairs
each window as ``repair_file`` repairs a file
(``CloudDataDistributor._repair_window``): every stored shard is read once,
one batched get per provider per window, and checked against the checksum
recorded at write time -- so rot the provider itself reports and rot only
the recorded checksums catch are both found -- and anything missing or
rotten is rebuilt onto healthy providers.  A cycle transfers every shard
it checks: that is the price of seeing the rot.

Each cycle appends a :class:`ScrubReport` to :attr:`Scrubber.reports`; the
CLI's ``repair --auto`` runs a single cycle and renders the report.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.errors import UnknownChunkError
from repro.obs.metrics import MetricsRegistry, get_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.distributor import CloudDataDistributor

log = logging.getLogger(__name__)


def _repairable(table, index: int) -> bool:
    """Is there still a row at *index*, under a codec this build knows?"""
    try:
        return not table.get(index).quarantined
    except UnknownChunkError:
        return False


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
        """Audit every chunk once, repairing damage; returns the report.

        The rows go :data:`REMOVE_WINDOW_CHUNKS` at a time, the op lock
        taken per window; a row removed since the cycle began, or
        quarantined under an unknown codec, is skipped.
        """
        # (Here, not at the top: the distributor imports repro.health.)
        from repro.core.distributor import REMOVE_WINDOW_CHUNKS

        d = self.distributor
        started = time.perf_counter()
        if self.probe_fleet:
            d.health.probe_all()
        chunks_checked = shards_checked = 0
        shards_missing = shards_rebuilt = chunks_unrecoverable = 0
        relocations: list[tuple[int, int, str, str]] = []
        with d.op_lock:
            indices = [index for index, _ in d.chunk_table]
        for start in range(0, len(indices), REMOVE_WINDOW_CHUNKS):
            with d.op_lock:
                window = [
                    index for index in indices[start : start + REMOVE_WINDOW_CHUNKS]
                    if _repairable(d.chunk_table, index)
                ]
                if not window:
                    continue
                checked, missing, rebuilt, unrecoverable, moved = d._repair_window(window)
            chunks_checked += len(window)
            shards_checked += checked
            shards_missing += missing
            shards_rebuilt += rebuilt
            chunks_unrecoverable += unrecoverable
            relocations += moved
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
