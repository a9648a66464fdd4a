"""Bounded pool of persistent client connections to one chunk server.

Opening a TCP connection per request would put connection setup on every
hot path; the pool keeps a small stack of idle sockets and hands them out
one request at a time.  It is thread-safe, which is what lets a single
:class:`~repro.net.remote.RemoteProvider` be driven concurrently by the
distributor's transport executor.
"""

from __future__ import annotations

import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs.events import EventLog, get_events
from repro.obs.metrics import MetricsRegistry, get_metrics

#: Checkout wait (pop-or-dial seconds) above which the pool reports
#: saturation: the request had to dial a fresh connection (or the dial
#: itself crawled), which means the idle stack was empty under load.
SATURATION_THRESHOLD_S = 0.05


class StaleConnectionError(OSError):
    """A *reused* pooled socket failed before delivering a response.

    The classic cause is a server restart: every socket parked in the idle
    stack is silently dead, and the first request on each one fails even
    though the server is back up and a fresh dial would succeed.  Clients
    treat this as "redial now, for free" rather than a verdict about the
    server -- it must not burn retry budget, trip circuit breakers, or
    feed failure evidence to health monitors.
    """


def classify_stale(exc: Exception, fresh: bool) -> Exception:
    """Reclassification of transport failures on pooled sockets.

    A failure on a *reused* socket is pool staleness -- the park-then-die
    pattern -- and comes back as :class:`StaleConnectionError` so callers
    redial for free instead of burning retry budget.  A failure on a
    freshly dialed socket is returned unchanged: that one really is
    evidence about the server.
    """
    if fresh or isinstance(exc, StaleConnectionError):
        return exc
    return StaleConnectionError(
        f"reused pooled connection failed mid-exchange: {exc}"
    )


@dataclass
class Lease:
    """One checked-out pool connection plus how it was obtained.

    ``fresh`` is True when the socket was dialed for this checkout; False
    means it was reused from the idle stack and may have died while parked
    (see :class:`StaleConnectionError`).
    """

    sock: socket.socket
    fresh: bool


class ConnectionPool:
    """Stack of reusable sockets to ``(host, port)``.

    ``checkout()`` hands out a connected socket and ``checkin()`` takes
    it back, for reuse (up to *size* idle sockets are retained) or, after
    an error, to close it; ``lease()`` is the pair around a ``with``
    block.

    Checkout waits (idle pop or fresh dial) feed the
    ``net_pool_checkout_wait_seconds`` histogram; a wait above
    *saturation_threshold* additionally emits one warning-level
    ``pool_saturation`` structured-log event carrying the opcode that was
    kept waiting.
    """

    def __init__(
        self,
        host: str,
        port: int,
        size: int = 4,
        connect_timeout: float = 2.0,
        *,
        metrics: MetricsRegistry | None = None,
        events: EventLog | None = None,
        saturation_threshold: float = SATURATION_THRESHOLD_S,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.host = host
        self.port = port
        self.size = size
        self.connect_timeout = connect_timeout
        self.metrics = metrics if metrics is not None else get_metrics()
        self.events = events if events is not None else get_events()
        self.saturation_threshold = saturation_threshold
        self.label = f"{host}:{port}"
        self._idle: list[socket.socket] = []
        self._wait_seconds = None  # the checkout-wait histogram, once resolved
        self._lock = threading.Lock()
        self._closed = False

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def checkout(self, op: str = "") -> Lease:
        """Take a socket for one request/response exchange; hand it back
        with :meth:`checkin`.

        *op* names the wire operation waiting on the checkout, purely for
        telemetry -- it labels the saturation event when the wait crosses
        the threshold.  The caller also learns *how* the socket was
        obtained (:attr:`Lease.fresh`), which tells a dead reused socket
        (a pool-staleness artifact, fixed by redialing) from a dead
        freshly dialed one (the server really is unreachable).
        """
        if self._closed:
            raise RuntimeError("connection pool is closed")
        t0 = time.perf_counter()
        with self._lock:
            sock = self._idle.pop() if self._idle else None
        fresh = sock is None
        if sock is None:
            sock = self._connect()
        wait = time.perf_counter() - t0
        if self._wait_seconds is None:
            self._wait_seconds = self.metrics.histogram(
                "net_pool_checkout_wait_seconds", pool=self.label
            )
        self._wait_seconds.observe(wait)
        if wait > self.saturation_threshold:
            self.events.emit(
                "pool_saturation",
                level="warning",
                pool=self.label,
                op=op,
                wait_s=round(wait, 6),
            )
        return Lease(sock=sock, fresh=fresh)

    def checkin(self, lease: Lease, reuse: bool = True) -> None:
        """Return a checked-out socket: parked for reuse (up to *size*
        idle sockets), or closed when *reuse* is false -- a connection
        that failed mid-request is never reused, because the stream
        position can no longer be trusted."""
        if reuse:
            with self._lock:
                if not self._closed and len(self._idle) < self.size:
                    self._idle.append(lease.sock)
                    return
        lease.sock.close()

    @contextmanager
    def lease(self, op: str = "") -> Iterator[Lease]:
        """:meth:`checkout` for the span of a ``with`` block: the socket
        goes back on clean exit and is closed on error."""
        leased = self.checkout(op)
        try:
            yield leased
        except BaseException:
            self.checkin(leased, reuse=False)
            raise
        self.checkin(leased)

    def discard_idle(self) -> None:
        """Drop every idle socket (e.g. after the server restarted)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            sock.close()

    def close(self) -> None:
        """Close the pool and every idle socket."""
        self._closed = True
        self.discard_idle()

    @property
    def idle_count(self) -> int:
        with self._lock:
            return len(self._idle)
