"""``ChaosProvider``: seeded, deterministic fault injection over any backend.

The seed's :class:`FailureInjector` can only fault *simulated* providers;
the real disk and socket backends introduced with the network layer ran
fault-free, so the retry / circuit-breaker / degraded-read / failover stack
was never exercised where it matters.  ``ChaosProvider`` closes that gap:
it implements the full :class:`CloudProvider` contract over *any* inner
backend (memory, disk, remote socket) and injects faults according to a
:class:`FaultPlan` -- per-operation error probabilities, latency spikes,
detected and silent read corruption, torn write acknowledgements, and
periodic blackout windows.

Determinism is the point: the fault schedule is a pure function of the
seed and the operation sequence, so a chaos soak run is exactly
reproducible, and every injected fault is appended to :attr:`fault_log`
for post-run auditing.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass

from repro.core.errors import BlobCorruptedError, ProviderUnavailableError
from repro.providers.base import BlobStat, CloudProvider
from repro.util.rng import SeedLike, derive_rng


@dataclass(frozen=True)
class FaultPlan:
    """Probabilities and schedules for every supported fault kind.

    * ``error_rate`` -- any operation fails with
      :class:`ProviderUnavailableError` before reaching the backend;
    * ``partial_write_rate`` -- a ``put`` stores the bytes, then loses the
      acknowledgement (the torn-write case rollback must clean up);
    * ``corrupt_rate`` -- a ``get`` fails with :class:`BlobCorruptedError`
      (the provider noticed its own rot);
    * ``silent_corrupt_rate`` -- a ``get`` returns flipped bytes with no
      error (rot the provider did *not* notice; only end-to-end shard
      checksums catch it);
    * ``latency_rate`` / ``latency_s`` -- the operation stalls for
      ``latency_s`` wall-clock seconds before proceeding;
    * ``blackout_every`` / ``blackout_ops`` -- every ``blackout_every``
      operations, the first ``blackout_ops`` of the cycle fail as if the
      provider were dark (an outage window measured in requests, keeping
      the schedule independent of wall time);
    * ``key_prefix`` -- when non-empty, faults only *fire* for keys with
      this prefix.  The schedule still advances for every operation (the
      draws are identical either way), so narrowing the blast radius does
      not change which faults other keys would have seen -- essential for
      chaos drills that target one shard's namespace on a shared backend.
    """

    error_rate: float = 0.0
    partial_write_rate: float = 0.0
    corrupt_rate: float = 0.0
    silent_corrupt_rate: float = 0.0
    latency_rate: float = 0.0
    latency_s: float = 0.0
    blackout_every: int = 0
    blackout_ops: int = 0
    key_prefix: str = ""

    def __post_init__(self) -> None:
        for attr in (
            "error_rate",
            "partial_write_rate",
            "corrupt_rate",
            "silent_corrupt_rate",
            "latency_rate",
        ):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{attr} must be in [0, 1], got {value}")
        if self.latency_s < 0:
            raise ValueError(f"latency_s must be >= 0, got {self.latency_s}")
        if self.blackout_every < 0 or self.blackout_ops < 0:
            raise ValueError("blackout parameters must be >= 0")
        if self.blackout_ops > self.blackout_every > 0:
            raise ValueError(
                "blackout_ops must not exceed blackout_every "
                f"({self.blackout_ops} > {self.blackout_every})"
            )

    @property
    def quiet(self) -> bool:
        """True when the plan injects nothing (conformance-mode chaos)."""
        return (
            self.error_rate
            == self.partial_write_rate
            == self.corrupt_rate
            == self.silent_corrupt_rate
            == self.latency_rate
            == 0.0
            and self.blackout_ops == 0
        )


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for the reproducibility audit trail."""

    op_index: int
    op: str
    key: str
    kind: str  # blackout | error | corrupt | silent-corrupt | partial-write | latency


class ChaosProvider(CloudProvider):
    """Deterministic fault-injecting wrapper around any provider backend."""

    def __init__(
        self,
        inner: CloudProvider,
        plan: FaultPlan | None = None,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(inner.name)
        self.inner = inner
        self.plan = plan or FaultPlan()
        self._rng = derive_rng(seed)
        self._lock = threading.Lock()
        self.enabled = True
        self.op_index = 0
        self.fault_log: list[FaultEvent] = []

    # -- fault schedule ----------------------------------------------------

    def disable(self) -> None:
        """Stop injecting (the schedule keeps advancing deterministically)."""
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True

    def fault_summary(self) -> dict[str, int]:
        """Injected fault counts by kind."""
        with self._lock:
            return dict(Counter(event.kind for event in self.fault_log))

    def _draw(
        self, op: str, key: str, *, read: bool = False, write: bool = False
    ) -> tuple[str | None, float]:
        """Advance the schedule one op; returns (fault kind | None, delay).

        The same uniform draws happen for every operation regardless of
        kind or the ``enabled`` flag, so the schedule stays a function of
        (seed, op sequence) alone.
        """
        plan = self.plan
        with self._lock:
            index = self.op_index
            self.op_index += 1
            r_error = float(self._rng.random())
            r_corrupt = float(self._rng.random())
            r_silent = float(self._rng.random())
            r_partial = float(self._rng.random())
            r_latency = float(self._rng.random())
            if not self.enabled:
                return None, 0.0
            if plan.key_prefix and not key.startswith(plan.key_prefix):
                # Out-of-scope key: the draws above already advanced the
                # schedule; just never let the fault fire.
                return None, 0.0
            fault: str | None = None
            if (
                plan.blackout_every > 0
                and index % plan.blackout_every < plan.blackout_ops
            ):
                fault = "blackout"
            elif r_error < plan.error_rate:
                fault = "error"
            elif read and r_corrupt < plan.corrupt_rate:
                fault = "corrupt"
            elif read and r_silent < plan.silent_corrupt_rate:
                fault = "silent-corrupt"
            elif write and r_partial < plan.partial_write_rate:
                fault = "partial-write"
            delay = plan.latency_s if r_latency < plan.latency_rate else 0.0
            if fault is not None:
                self.fault_log.append(FaultEvent(index, op, key, fault))
            elif delay > 0:
                self.fault_log.append(FaultEvent(index, op, key, "latency"))
            return fault, delay

    def _apply(self, fault: str | None, delay: float, op: str, key: str) -> None:
        if delay > 0:
            time.sleep(delay)
        if fault in ("blackout", "error"):
            raise ProviderUnavailableError(
                f"chaos: provider {self.name!r} injected {fault} on "
                f"{op} {key!r}"
            )

    # -- CloudProvider interface -------------------------------------------

    def put(self, key: str, data: bytes, checksum: bytes | None = None) -> None:
        fault, delay = self._draw("put", key, write=True)
        self._apply(fault, delay, "put", key)
        self.inner.put(key, data, checksum=checksum)
        if fault == "partial-write":
            # The bytes landed but the acknowledgement was lost: the caller
            # sees a failure while the object exists (torn write).
            raise ProviderUnavailableError(
                f"chaos: provider {self.name!r} lost the put ack for {key!r}"
            )

    def get(self, key: str) -> bytes:
        fault, delay = self._draw("get", key, read=True)
        self._apply(fault, delay, "get", key)
        data = self.inner.get(key)
        if fault == "corrupt":
            raise BlobCorruptedError(
                f"chaos: provider {self.name!r} injected detected rot on "
                f"{key!r}"
            )
        if fault == "silent-corrupt" and data:
            flipped = bytearray(data)
            flipped[0] ^= 0xFF
            return bytes(flipped)
        return data

    def delete(self, key: str) -> None:
        fault, delay = self._draw("delete", key)
        self._apply(fault, delay, "delete", key)
        self.inner.delete(key)

    def keys(self) -> list[str]:
        fault, delay = self._draw("keys", "*")
        self._apply(fault, delay, "keys", "*")
        return self.inner.keys()

    def head(self, key: str) -> BlobStat:
        fault, delay = self._draw("head", key)
        self._apply(fault, delay, "head", key)
        return self.inner.head(key)


def plan_from_query(query: str) -> tuple[FaultPlan, SeedLike]:
    """Parse a ``chaos+<url>?...`` query string into (plan, seed).

    Recognized keys are the :class:`FaultPlan` field names plus ``seed``::

        chaos+memory://?seed=7&error_rate=0.05&latency_rate=0.1&latency_s=0.02
    """
    fields = {
        "error_rate": float,
        "partial_write_rate": float,
        "corrupt_rate": float,
        "silent_corrupt_rate": float,
        "latency_rate": float,
        "latency_s": float,
        "blackout_every": int,
        "blackout_ops": int,
        "key_prefix": str,
    }
    kwargs: dict[str, float | int | str] = {}
    seed: SeedLike = None
    if query:
        for pair in query.split("&"):
            if not pair:
                continue
            name, sep, value = pair.partition("=")
            if not sep:
                raise ValueError(f"malformed chaos parameter {pair!r}")
            if name == "seed":
                seed = int(value)
            elif name in fields:
                kwargs[name] = fields[name](value)
            else:
                raise ValueError(f"unknown chaos parameter {name!r}")
    return FaultPlan(**kwargs), seed
