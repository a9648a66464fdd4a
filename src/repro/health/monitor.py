"""Per-provider health tracking from live traffic and active probes.

The paper's availability argument (Section III-A's outage/churn threat
catalogue) assumes the distributor *knows* which providers are serving.
The seed implementation inferred health from a simulated-only ``available``
attribute, which silently treats a dead :class:`RemoteProvider` or a broken
:class:`DiskProvider` as healthy.  The :class:`HealthMonitor` replaces that
with evidence:

* **passive signals** -- every provider request the distributor issues is
  recorded as a success or failure; failures feed an error-rate EWMA and a
  consecutive-transport-failure counter;
* **active probes** -- a cheap reachability check per backend flavour
  (``ping`` for socket providers, ``head`` of a sentinel key for disk and
  memory, the ``available`` flag for simulated providers).

A provider is ``DOWN`` after enough consecutive transport failures or a
failed probe, ``SUSPECT`` while its error EWMA is elevated, and ``HEALTHY``
otherwise.  Placement and repair consult these states instead of
``getattr(provider, "available", True)``; a ``DOWN`` verdict is re-checked
by probing (rate-limited by ``probe_min_interval``) so recovered providers
rejoin the fleet without a human marking them up.  Reads consult
:attr:`HealthMonitor.distrusted`, the providers not HEALTHY, kept current
as each verdict changes: a read asks parity before a member it holds.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from repro.core.errors import ProviderError, ProviderUnavailableError, ReproError
from repro.obs.metrics import Counter, MetricsRegistry, get_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.providers.base import CloudProvider
    from repro.providers.registry import ProviderRegistry

#: Sentinel key used for reachability probes; providers treat a missing key
#: as a *successful* probe (the backend answered), so the key never needs
#: to exist.
PROBE_KEY = "__health_probe__"


class HealthState(Enum):
    """Distributor-side verdict about one provider."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DOWN = "down"


def probe_provider(provider: "CloudProvider") -> bool:
    """One cheap active reachability check, True if the provider answered.

    Used directly by callers with no monitor attached, and by the monitor
    as its probe primitive.  Backend-not-found answers count as success:
    the probe asks "is anyone there?", not "is my key there?".
    """
    available = getattr(provider, "available", None)
    if available is not None and not callable(available):
        # Simulated providers publish their up/down flag; reading it costs
        # no simulated time, unlike issuing a request against a down node.
        return bool(available)
    ping = getattr(provider, "ping", None)
    if callable(ping):
        try:
            ping()
            return True
        except (ProviderError, ReproError, OSError):
            return False
    try:
        provider.head(PROBE_KEY)
        return True
    except ProviderUnavailableError:
        return False
    except ProviderError:
        return True  # BlobNotFound etc.: the backend answered
    except OSError:
        return False


@dataclass
class ProviderHealth:
    """Mutable health record for one provider.

    Success/failure totals live in the shared metrics registry (the
    ``health_provider_results_total`` counter, labelled by provider and
    outcome) rather than private integers, so the health report and
    ``repro stats`` count the very same traffic.  A record created
    outside a monitor (e.g. a placeholder row) reads zero.
    """

    name: str
    error_ewma: float = 0.0
    consecutive_failures: int = 0
    marked_down: bool = False
    last_probe_ok: bool | None = None
    last_probe_at: float = field(default=float("-inf"))
    metrics: MetricsRegistry | None = None

    def __post_init__(self) -> None:
        metrics = self.metrics if self.metrics is not None else get_metrics()
        self._success = metrics.counter(
            "health_provider_results_total",
            provider=self.name,
            outcome="success",
        )
        self._failure = metrics.counter(
            "health_provider_results_total",
            provider=self.name,
            outcome="failure",
        )
        # The registry counter is process-wide and outlives any one record
        # (several monitors may track the same provider name); baselines
        # keep this record's view scoped to traffic it witnessed itself.
        self._success_base = self._success.value
        self._failure_base = self._failure.value
        #: Members a read asked parity for instead, while this provider was
        #: distrusted (held here: a read resolves no label).
        self.rerouted = metrics.counter("read_members_rerouted_total", provider=self.name)

    @property
    def successes(self) -> int:
        return int(self._success.value - self._success_base)

    @property
    def failures(self) -> int:
        return int(self._failure.value - self._failure_base)

    def count_success(self, count: int = 1) -> None:
        self._success.inc(count)

    def count_failure(self, count: int = 1) -> None:
        self._failure.inc(count)


class HealthMonitor:
    """Track health states for every provider in a registry.

    ``ewma_alpha`` weights the newest observation in the error-rate EWMA;
    ``suspect_threshold`` is the EWMA level at which a provider turns
    SUSPECT; ``down_after`` consecutive *transport* failures (unreachable,
    not merely a missing blob) turn it DOWN.  DOWN providers are re-probed
    on demand, at most once per ``probe_min_interval`` wall-clock seconds,
    so a recovered provider is readmitted automatically.

    :attr:`distrusted` maps each provider whose verdict is not HEALTHY to
    its held ``read_members_rerouted_total`` counter.  It is replaced, not
    mutated, under the lock wherever a verdict can change, so a read tests
    it without the lock: on a healthy fleet, one empty-dict test.
    """

    def __init__(
        self,
        registry: "ProviderRegistry",
        *,
        ewma_alpha: float = 0.3,
        suspect_threshold: float = 0.5,
        down_after: int = 3,
        probe_min_interval: float = 1.0,
        time_fn=time.monotonic,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        if not 0.0 < suspect_threshold <= 1.0:
            raise ValueError(
                f"suspect_threshold must be in (0, 1], got {suspect_threshold}"
            )
        if down_after < 1:
            raise ValueError(f"down_after must be >= 1, got {down_after}")
        if probe_min_interval < 0:
            raise ValueError(
                f"probe_min_interval must be >= 0, got {probe_min_interval}"
            )
        self.registry = registry
        self.ewma_alpha = ewma_alpha
        self.suspect_threshold = suspect_threshold
        self.down_after = down_after
        self.probe_min_interval = probe_min_interval
        self._time = time_fn
        self.metrics = metrics if metrics is not None else get_metrics()
        self._lock = threading.RLock()
        self._records: dict[str, ProviderHealth] = {}
        self.distrusted: dict[str, Counter] = {}

    def _record(self, name: str) -> ProviderHealth:
        record = self._records.get(name)
        if record is None:
            record = self._records[name] = ProviderHealth(
                name, metrics=self.metrics
            )
        return record

    # -- passive signals (fed by distributor traffic) ----------------------

    def record_success(self, name: str, count: int = 1) -> None:
        """Record *count* consecutive successful requests as one update."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        with self._lock:
            record = self._record(name)
            record.count_success(count)
            record.consecutive_failures = 0
            record.marked_down = False
            record.error_ewma *= (1.0 - self.ewma_alpha) ** count
            if name in self.distrusted:  # (success never distrusts)
                self._judge(record)

    def record_failure(
        self, name: str, transport: bool = True, count: int = 1
    ) -> None:
        """Record *count* consecutive failed requests as one update, the
        record left exactly as *count* single ones leave it.

        ``transport=False`` marks an *application* failure (missing or
        corrupt blob): it raises the error EWMA (the provider is degrading
        data) but does not count toward the consecutive-failure DOWN
        threshold -- a provider that answers "not found" is reachable.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        keep = 1.0 - self.ewma_alpha
        with self._lock:
            record = self._record(name)
            record.count_failure(count)
            ewma = record.error_ewma
            for _ in range(count):  # step by step: the same float
                ewma = ewma * keep + self.ewma_alpha
            record.error_ewma = ewma
            if transport:
                record.consecutive_failures += count
                if record.consecutive_failures >= self.down_after:
                    record.marked_down = True
            self._judge(record)

    # -- active probes -----------------------------------------------------

    def probe(self, name: str) -> bool:
        """Actively probe one provider and fold the result into its record."""
        provider = self.registry.get(name).provider
        ok = probe_provider(provider)
        with self._lock:
            record = self._record(name)
            record.last_probe_ok = ok
            record.last_probe_at = self._time()
            if ok:
                record.consecutive_failures = 0
                record.marked_down = False
            else:
                record.marked_down = True
            self._judge(record)
        return ok

    def probe_all(self) -> dict[str, bool]:
        """Probe every registered provider; returns name -> reachable."""
        return {name: self.probe(name) for name in self.registry.names()}

    # -- verdicts ----------------------------------------------------------

    def _judge(self, record: ProviderHealth) -> None:
        """Bring :attr:`distrusted` in line with *record*'s verdict (lock
        held): a new dict when the verdict crossed HEALTHY's edge."""
        distrusted = record.marked_down or record.error_ewma >= self.suspect_threshold
        if distrusted is not (record.name in self.distrusted):
            changed = dict(self.distrusted)
            if distrusted:
                changed[record.name] = record.rerouted
            else:
                del changed[record.name]
            self.distrusted = changed

    def state(self, name: str) -> HealthState:
        """Current verdict from the recorded evidence (no probing)."""
        with self._lock:
            record = self._records.get(name)
            if record is None:
                return HealthState.HEALTHY
            if record.marked_down:
                return HealthState.DOWN
            if record.error_ewma >= self.suspect_threshold:
                return HealthState.SUSPECT
            return HealthState.HEALTHY

    def healthy(self, name: str) -> bool:
        return self.state(name) is HealthState.HEALTHY

    def suspect(self, name: str) -> bool:
        return self.state(name) is HealthState.SUSPECT

    def down(self, name: str) -> bool:
        return self.state(name) is HealthState.DOWN

    def is_usable(self, name: str) -> bool:
        """May new work be sent to *name*?

        HEALTHY and SUSPECT providers are usable (suspect ones are merely
        deprioritized by placement).  A DOWN provider gets one fresh active
        probe -- rate-limited by ``probe_min_interval`` -- so recovery is
        noticed at the next placement decision instead of never.
        """
        if self.state(name) is not HealthState.DOWN:
            return True
        with self._lock:
            record = self._record(name)
            stale = (
                self._time() - record.last_probe_at >= self.probe_min_interval
            )
        if stale:
            return self.probe(name)
        return False

    # -- reporting ---------------------------------------------------------

    def report_rows(self) -> list[list[object]]:
        """Table rows (provider, state, EWMA, consec, ops, last probe)."""
        rows: list[list[object]] = []
        with self._lock:
            for name in self.registry.names():
                record = self._records.get(name) or ProviderHealth(
                    name, metrics=self.metrics
                )
                probe = (
                    "-"
                    if record.last_probe_ok is None
                    else ("ok" if record.last_probe_ok else "failed")
                )
                rows.append(
                    [
                        name,
                        self.state(name).value,
                        f"{record.error_ewma:.2f}",
                        record.consecutive_failures,
                        record.successes + record.failures,
                        probe,
                    ]
                )
        return rows
