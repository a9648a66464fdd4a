"""Process-wide (but injectable) metrics: counters, gauges, histograms.

The paper's claims are quantitative (exposure per provider, distribution
time vs. chunk size) and the roadmap's north star is a system serving
heavy traffic -- both need always-on measurement, not one-off benches.
This module is the counting half of ``repro.obs``: a
:class:`MetricsRegistry` hands out :class:`Counter` / :class:`Gauge` /
:class:`Histogram` handles that hot paths keep and bump.

Design constraints, in order:

* **lock-cheap** -- one tiny critical section per observation (a plain
  ``threading.Lock`` around an int/float update; no global registry lock
  on the hot path);
* **allocation-free on the hot path** -- handles are resolved once (a
  dict hit keyed by name + label values) and observing allocates
  nothing; histogram buckets are fixed at creation;
* **injectable** -- every instrumented component takes an optional
  registry and falls back to the process-wide default
  (:func:`get_metrics`), so tests and benches can swap in a fresh or
  disabled registry without monkeypatching.

Exposition comes in two formats: :meth:`MetricsRegistry.render` emits
Prometheus text, :meth:`MetricsRegistry.snapshot` a JSON-ready dict.
Snapshots round-trip through :meth:`export_state` / :meth:`import_state`
(counters and histograms merge additively), which is how the CLI
accumulates one ops view across short-lived invocations.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_right

#: Latency buckets (seconds) covering sub-millisecond crypto transforms
#: through multi-second degraded reads.  Fixed at handle creation; a
#: cumulative ``+Inf`` bucket is implicit.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_LabelKey = tuple[tuple[str, str], ...]


class Counter:
    """Monotonically increasing count (requests, bytes, events)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _merge(self, value: float) -> None:
        with self._lock:
            self._value += value


class Gauge:
    """Point-in-time level (pool idle sockets, chunks tracked)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _merge(self, value: float) -> None:
        # A merged snapshot's gauge is "last writer wins": levels do not
        # add across process lifetimes the way counters do.
        self.set(value)


class Histogram:
    """Fixed-bucket distribution (latencies, batch sizes).

    ``observe`` is a bisect plus two adds under one lock -- no per-sample
    allocation.  Bucket counts are stored per-bucket and cumulated only
    at render time.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be non-empty and ascending")
        self._lock = threading.Lock()
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_right(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ending at +Inf."""
        with self._lock:
            counts = list(self._counts)
        total = 0
        out: list[tuple[float, int]] = []
        for bound, count in zip(self.buckets, counts):
            total += count
            out.append((bound, total))
        out.append((float("inf"), total + counts[-1]))
        return out

    def percentile(self, q: float) -> float:
        """Estimate the *q*-th percentile (``q`` in (0, 100]).

        The straddling bucket is found on the cumulative counts, then the
        value is linearly interpolated between the bucket's bounds by rank
        position.  Samples in the ``+Inf`` overflow bucket are clamped to
        the top finite bound -- the histogram cannot say more than "at
        least this".  Returns 0.0 for an empty histogram.
        """
        if not 0.0 < q <= 100.0:
            raise ValueError(f"q must be in (0, 100], got {q}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        target = q / 100.0 * total
        cum = 0
        for i, count in enumerate(counts):
            if count == 0:
                continue
            below, cum = cum, cum + count
            if cum >= target:
                if i == len(self.buckets):  # +Inf overflow
                    return self.buckets[-1]
                lo = self.buckets[i - 1] if i > 0 else 0.0
                hi = self.buckets[i]
                return lo + (hi - lo) * ((target - below) / count)
        return self.buckets[-1]

    def _state(self) -> tuple[list[int], float, int]:
        with self._lock:
            return list(self._counts), self._sum, self._count

    def _merge(self, counts: list[int], total: float, n: int) -> None:
        with self._lock:
            if len(counts) == len(self._counts):
                for i, c in enumerate(counts):
                    self._counts[i] += c
            self._sum += total
            self._count += n


class _Null:
    """Shared do-nothing handle a disabled registry hands out.

    Quacks like all three metric types so instrumented code needs no
    branches; every operation is one attribute lookup and a pass.
    """

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    value = 0.0
    count = 0
    sum = 0.0


_NULL = _Null()


class MetricsRegistry:
    """Names + labels -> metric handles, with two exposition formats.

    ``enabled=False`` turns every handle into a shared no-op -- the knob
    the overhead benchmark uses to price the instrumentation itself, and
    an escape hatch for deployments that want zero accounting.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, _LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, _LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, _LabelKey], Histogram] = {}
        self._help: dict[str, str] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}

    # -- handle resolution -------------------------------------------------

    @staticmethod
    def _key(name: str, labels: dict[str, str]) -> tuple[str, _LabelKey]:
        return name, tuple(sorted((k, str(v)) for k, v in labels.items()))

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        key = self._key(name, labels)
        # Lock-free fast path: dict reads are atomic under the GIL and
        # handles are never removed, so a hit needs no synchronization.
        # Call sites resolve handles per operation (RAID encodes a chunk
        # a thousand times per file), which makes this read the hot path.
        handle = self._counters.get(key)
        if handle is not None:
            return handle
        with self._lock:
            handle = self._counters.get(key)
            if handle is None:
                handle = self._counters[key] = Counter()
                if help:
                    self._help.setdefault(name, help)
            return handle

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        key = self._key(name, labels)
        handle = self._gauges.get(key)
        if handle is not None:
            return handle
        with self._lock:
            handle = self._gauges.get(key)
            if handle is None:
                handle = self._gauges[key] = Gauge()
                if help:
                    self._help.setdefault(name, help)
            return handle

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
        **labels: str,
    ) -> Histogram:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        key = self._key(name, labels)
        handle = self._histograms.get(key)
        if handle is not None:
            return handle
        with self._lock:
            handle = self._histograms.get(key)
            if handle is None:
                chosen = buckets or self._buckets.get(name) or DEFAULT_BUCKETS
                handle = self._histograms[key] = Histogram(chosen)
                self._buckets.setdefault(name, handle.buckets)
                if help:
                    self._help.setdefault(name, help)
            return handle

    # -- introspection -----------------------------------------------------

    def value(self, name: str, **labels: str) -> float:
        """Current value of one counter/gauge (0.0 if never touched)."""
        key = self._key(name, labels)
        with self._lock:
            handle = self._counters.get(key) or self._gauges.get(key)
        return handle.value if handle is not None else 0.0

    def sum_counter(self, name: str) -> float:
        """Total of one counter family across all label sets."""
        with self._lock:
            handles = [
                h for (n, _), h in self._counters.items() if n == name
            ]
        return sum(h.value for h in handles)

    # -- exposition --------------------------------------------------------

    @staticmethod
    def _labels_text(labels: _LabelKey) -> str:
        if not labels:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in labels)
        return "{" + inner + "}"

    @staticmethod
    def _number(value: float) -> str:
        return str(int(value)) if float(value).is_integer() else repr(value)

    def render(self) -> str:
        """Prometheus text exposition of every live handle."""
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
            helps = dict(self._help)
        lines: list[str] = []

        def header(name: str, kind: str, seen: set[str]) -> None:
            if name in seen:
                return
            seen.add(name)
            if name in helps:
                lines.append(f"# HELP {name} {helps[name]}")
            lines.append(f"# TYPE {name} {kind}")

        seen: set[str] = set()
        for (name, labels), handle in counters:
            header(name, "counter", seen)
            lines.append(
                f"{name}{self._labels_text(labels)} "
                f"{self._number(handle.value)}"
            )
        for (name, labels), handle in gauges:
            header(name, "gauge", seen)
            lines.append(
                f"{name}{self._labels_text(labels)} "
                f"{self._number(handle.value)}"
            )
        for (name, labels), handle in histograms:
            header(name, "histogram", seen)
            for bound, cumulative in handle.cumulative():
                le = "+Inf" if bound == float("inf") else self._number(bound)
                bucket_labels = labels + (("le", le),)
                lines.append(
                    f"{name}_bucket{self._labels_text(bucket_labels)} "
                    f"{cumulative}"
                )
            lines.append(
                f"{name}_sum{self._labels_text(labels)} "
                f"{self._number(handle.sum)}"
            )
            lines.append(
                f"{name}_count{self._labels_text(labels)} {handle.count}"
            )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """JSON-ready view: name -> {label text -> value/summary}."""
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, labels), handle in counters:
            out["counters"].setdefault(name, {})[
                self._labels_text(labels) or "{}"
            ] = handle.value
        for (name, labels), handle in gauges:
            out["gauges"].setdefault(name, {})[
                self._labels_text(labels) or "{}"
            ] = handle.value
        for (name, labels), handle in histograms:
            summary = {"count": handle.count, "sum": handle.sum}
            if summary["count"]:
                summary["p50"] = handle.percentile(50.0)
                summary["p95"] = handle.percentile(95.0)
                summary["p99"] = handle.percentile(99.0)
            out["histograms"].setdefault(name, {})[
                self._labels_text(labels) or "{}"
            ] = summary
        return out

    # -- persistence (CLI accumulates across invocations) ------------------

    @staticmethod
    def _pack_key(name: str, labels: _LabelKey) -> str:
        return name + "|" + ",".join(f"{k}={v}" for k, v in labels)

    @staticmethod
    def _unpack_key(packed: str) -> tuple[str, dict[str, str]]:
        name, _, label_text = packed.partition("|")
        labels: dict[str, str] = {}
        if label_text:
            # Values may hold commas (codec="rs(6,3)"); a new pair only
            # starts where a label name and "=" follow the comma.
            for pair in re.split(r",(?=\w+=)", label_text):
                k, _, v = pair.partition("=")
                labels[k] = v
        return name, labels

    def export_state(self) -> dict:
        """Serializable full state (exact, unlike :meth:`snapshot`)."""
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        return {
            "counters": {
                self._pack_key(n, ls): h.value for (n, ls), h in counters
            },
            "gauges": {
                self._pack_key(n, ls): h.value for (n, ls), h in gauges
            },
            "histograms": {
                self._pack_key(n, ls): {
                    "buckets": list(h.buckets),
                    "counts": h._state()[0],
                    "sum": h._state()[1],
                    "count": h._state()[2],
                }
                for (n, ls), h in histograms
            },
        }

    def import_state(self, state: dict) -> None:
        """Merge an exported state in (counters/histograms add up)."""
        for packed, value in state.get("counters", {}).items():
            name, labels = self._unpack_key(packed)
            self.counter(name, **labels)._merge(float(value))
        for packed, value in state.get("gauges", {}).items():
            name, labels = self._unpack_key(packed)
            self.gauge(name, **labels)._merge(float(value))
        for packed, payload in state.get("histograms", {}).items():
            name, labels = self._unpack_key(packed)
            handle = self.histogram(
                name, buckets=tuple(payload["buckets"]), **labels
            )
            handle._merge(
                list(payload["counts"]),
                float(payload["sum"]),
                int(payload["count"]),
            )


# ---------------------------------------------------------------------------
# process-wide default
# ---------------------------------------------------------------------------

_default = MetricsRegistry()
_default_lock = threading.Lock()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry instrumented code falls back to."""
    return _default


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one.

    Components resolve the default lazily at construction, so swap
    *before* building the distributor/providers under measurement.
    """
    global _default
    with _default_lock:
        previous, _default = _default, registry
    return previous
