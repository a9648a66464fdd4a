"""Simulated cloud provider: latency, bandwidth, availability, billing.

Wraps any :class:`CloudProvider` backend and charges every request against
a shared :class:`SimulatedClock` using a per-provider latency/bandwidth
model, so the paper's "distribution time" experiments run at laptop speed.
Availability is a simple up/down flag toggled by the fault injector; a
request against a down provider raises :class:`ProviderUnavailableError`
after charging a timeout, as a real client library would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ProviderUnavailableError
from repro.core.privacy import CostLevel
from repro.providers.base import BlobStat, CloudProvider
from repro.providers.billing import BillingMeter
from repro.util.clock import SimulatedClock
from repro.util.rng import SeedLike, derive_rng
from repro.util.units import MiB


@dataclass(frozen=True)
class LatencyModel:
    """Per-request service time model.

    Request time = base round-trip latency (lognormal jitter around
    ``rtt_s``) + payload size / bandwidth.  Defaults approximate a 2012-era
    WAN path to a storage service: ~80 ms RTT, ~20 MiB/s throughput.
    """

    rtt_s: float = 0.080
    jitter: float = 0.10
    upload_bw: float = 20 * MiB
    download_bw: float = 40 * MiB
    timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.rtt_s < 0 or self.jitter < 0:
            raise ValueError("rtt and jitter must be >= 0")
        if self.upload_bw <= 0 or self.download_bw <= 0:
            raise ValueError("bandwidths must be positive")

    def request_time(self, nbytes: int, upload: bool, rng) -> float:
        bw = self.upload_bw if upload else self.download_bw
        base = self.rtt_s
        if self.jitter > 0:
            base *= float(rng.lognormal(mean=0.0, sigma=self.jitter))
        return base + nbytes / bw


@dataclass
class RequestRecord:
    """One entry of the simulated provider's request log."""

    op: str
    key: str
    nbytes: int
    started_at: float
    duration: float
    ok: bool


class ParallelWindow:
    """Charge overlapping requests as concurrent instead of serial.

    The paper argues fragmentation "exploits the benefit of parallel query
    processing as various fragments can be accessed simultaneously"
    (Section VII-E).  Inside a ``with ParallelWindow(clock):`` block every
    simulated request records its duration against the window instead of
    advancing the shared clock; on exit the clock advances by the *longest
    per-provider serial chain* -- requests to distinct providers overlap,
    requests to the same provider queue.
    """

    def __init__(self, clock: SimulatedClock) -> None:
        self.clock = clock
        self._per_provider: dict[str, float] = {}

    # -- used by SimulatedProvider._charge ---------------------------------

    def record(self, provider_name: str, duration: float) -> None:
        self._per_provider[provider_name] = (
            self._per_provider.get(provider_name, 0.0) + duration
        )

    @property
    def elapsed(self) -> float:
        """The window's critical-path time so far."""
        return max(self._per_provider.values(), default=0.0)

    def __enter__(self) -> "ParallelWindow":
        self.clock.open_windows.append(self)
        return self

    def __exit__(self, *exc) -> None:
        if self in self.clock.open_windows:
            self.clock.open_windows.remove(self)
        self.clock.advance(self.elapsed)


class SimulatedProvider(CloudProvider):
    """Latency-and-billing wrapper over a concrete backend."""

    # Its time is simulated (ParallelWindow models the overlap) and the
    # shared clock is not thread-safe: every call stays on the caller.
    waits = False

    def __init__(
        self,
        backend: CloudProvider,
        clock: SimulatedClock,
        latency: LatencyModel | None = None,
        cost_level: CostLevel | int = CostLevel.CHEAP,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(backend.name)
        self.backend = backend
        self.clock = clock
        self.latency = latency or LatencyModel()
        self.cost_level = CostLevel.coerce(cost_level)
        self.meter = BillingMeter(clock=clock, cost_level=self.cost_level)
        self.available = True
        self.request_log: list[RequestRecord] = []
        self._rng = derive_rng(seed)

    # -- availability (toggled by repro.providers.failures) ----------------

    def set_available(self, up: bool) -> None:
        self.available = up

    def _spend(self, duration: float) -> None:
        """Charge *duration* to the active parallel window, else the clock."""
        if self.clock.open_windows:
            self.clock.open_windows[-1].record(self.name, duration)
        else:
            self.clock.advance(duration)

    def _charge(self, op: str, key: str, nbytes: int, upload: bool) -> None:
        """Charge time for one request; raise if the provider is down."""
        started = self.clock.now
        if not self.available:
            self._spend(self.latency.timeout_s)
            self.request_log.append(
                RequestRecord(op, key, nbytes, started, self.latency.timeout_s, False)
            )
            raise ProviderUnavailableError(
                f"provider {self.name!r} is unavailable"
            )
        duration = self.latency.request_time(nbytes, upload, self._rng)
        self._spend(duration)
        self.request_log.append(
            RequestRecord(op, key, nbytes, started, duration, True)
        )

    # -- CloudProvider interface -------------------------------------------

    def put(self, key: str, data: bytes, checksum: bytes | None = None) -> None:
        self._charge("put", key, len(data), upload=True)
        old = self.backend.head(key).size if self.backend.contains(key) else 0
        self.backend.put(key, data, checksum=checksum)
        self.meter.record_put(len(data))
        self.meter.record_bytes_delta(len(data) - old)

    def get(self, key: str) -> bytes:
        # Size known only after the fetch; charge RTT first, then transfer.
        self._charge("get", key, 0, upload=False)
        data = self.backend.get(key)
        self._spend(len(data) / self.latency.download_bw)
        self.meter.record_get(len(data))
        return data

    def delete(self, key: str) -> None:
        self._charge("delete", key, 0, upload=True)
        old = self.backend.head(key).size
        self.backend.delete(key)
        self.meter.record_bytes_delta(-old)

    def keys(self) -> list[str]:
        self._charge("list", "*", 0, upload=False)
        return self.backend.keys()

    def head(self, key: str) -> BlobStat:
        self._charge("head", key, 0, upload=False)
        return self.backend.head(key)

    def contains(self, key: str) -> bool:
        # Cheap metadata check; charged as a head request by base class.
        return super().contains(key)
