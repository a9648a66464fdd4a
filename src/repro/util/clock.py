"""Simulated wall clock.

All provider latency, transfer time and billing accrual in the simulator is
charged against a :class:`SimulatedClock` rather than real time, so large
experiments (terabyte uploads, month-long billing periods) run in
microseconds of host time while remaining exactly reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable


class SimulatedClock:
    """A monotonically advancing simulated clock measured in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        self._now = float(start)
        # The ``ParallelWindow``s open on this clock, innermost last.
        self.open_windows: list = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds since epoch 0."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by *seconds* (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds} s")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to *timestamp* (no-op if already past it)."""
        if timestamp > self._now:
            self._now = timestamp
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimulatedClock(now={self._now:.6f})"


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)


class EventScheduler:
    """Tiny discrete-event scheduler layered on a :class:`SimulatedClock`.

    Used by the fault-injection machinery to schedule provider outages and
    recoveries at deterministic simulated times.
    """

    def __init__(self, clock: SimulatedClock) -> None:
        self.clock = clock
        self._heap: list[_Event] = []
        self._counter = itertools.count()

    def schedule_at(self, timestamp: float, action: Callable[[], None]) -> None:
        """Run *action* when the clock reaches *timestamp*."""
        if timestamp < self.clock.now:
            raise ValueError(
                f"cannot schedule event in the past: {timestamp} < {self.clock.now}"
            )
        heapq.heappush(self._heap, _Event(timestamp, next(self._counter), action))

    def schedule_after(self, delay: float, action: Callable[[], None]) -> None:
        """Run *action* after *delay* simulated seconds."""
        self.schedule_at(self.clock.now + delay, action)

    @property
    def pending(self) -> int:
        return len(self._heap)

    def run_until(self, timestamp: float) -> int:
        """Fire all events with time <= *timestamp*; returns count fired.

        The clock is advanced to each event's time as it fires and finally
        to *timestamp*.
        """
        fired = 0
        while self._heap and self._heap[0].time <= timestamp:
            event = heapq.heappop(self._heap)
            self.clock.advance_to(event.time)
            event.action()
            fired += 1
        self.clock.advance_to(timestamp)
        return fired

    def run_all(self) -> int:
        """Fire every pending event in time order; returns count fired."""
        fired = 0
        while self._heap:
            event = heapq.heappop(self._heap)
            self.clock.advance_to(event.time)
            event.action()
            fired += 1
        return fired
