"""``RemoteProvider``: the full ``CloudProvider`` contract over a socket.

The distributor never learns it is talking across a network: a
``RemoteProvider`` keyed into the registry behaves exactly like the
in-process backends -- same methods, same exception types -- but every
operation becomes a framed request to a :class:`~repro.net.server.ChunkServer`.

Failure handling mirrors a production object-store client:

* per-operation socket timeouts (a hung server cannot wedge the distributor);
* bounded exponential-backoff retries on *transport* failures (refused
  connection, reset, timeout) -- retried operations are idempotent at the
  chunk layer because ``put`` overwrites and ``get``/``head``/``keys`` read;
* wire error statuses translated back into the :mod:`repro.core.errors`
  hierarchy, so RAID degraded reads and repair treat a dead server exactly
  like a dead simulated provider.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from typing import Callable

from repro.core.errors import (
    BlobCorruptedError,
    DeadlineExceeded,
    ProviderError,
    ProviderUnavailableError,
    ResourceExhaustedError,
)
from repro.net.pool import ConnectionPool, StaleConnectionError, classify_stale
from repro.net.protocol import (
    HEADER,
    MAX_BUDGET_MS,
    Frame,
    OpCode,
    ProtocolError,
    Status,
    decode_batch_results,
    decode_keys,
    decode_stat,
    decode_stream_count,
    decode_traced_response,
    deadline_prefix,
    encode_digest,
    encode_keys,
    encode_multi_put,
    error_for_status,
    frame_segments,
    read_frame,
    recv_frame,
    sendmsg_all,
    traced_prefix,
)
from repro.net.resilience import current_retry_budget
from repro.util.deadline import Deadline, current_deadline
from repro.obs.events import EventLog, get_events
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.trace import Tracer, get_tracer
from repro.providers.base import BlobStat, CloudProvider, blob_checksum

#: Soft cap on one MULTI_PUT/MULTI_GET frame's payload.  Oversized batches
#: are split into several frames *pipelined* on one connection (all requests
#: written before the responses are read), so splitting costs no extra
#: round-trips.  Well under protocol.MAX_PAYLOAD so per-item framing
#: overhead can never push a frame over the hard limit.
BATCH_BYTES = 32 * 1024 * 1024

#: Cap on items per batch frame, bounding server-side decode allocations.
BATCH_ITEMS = 1024

#: Max DELETE frames pipelined in one window of ``delete_many``.  A
#: window's requests are all written before any answer is read, and here
#: both directions are many small frames, so "never both large" (see
#: ``_send``) is restated as a number: 64 frames of header + shard key
#: are about 2 KiB bare and under 6 KiB inside both envelopes (DEADLINE
#: wrapping TRACED with its context), below the 16 KiB a send buffer
#: starts at, so the client always finishes writing and turns to reading
#: however slowly the server drains; the 64 answers (a bare header each,
#: a few hundred bytes each with shipped span records) fit the receive
#: side the same way.  256 and 1,024 measured within noise of 64.
DELETE_WINDOW = 64

#: Max unacknowledged STREAM_SEG frames in flight during a stream session.
#: Acks are tiny (~100 bytes), so this bounds the server's ack backlog to a
#: few kilobytes -- far below any socket buffer -- while still letting the
#: sender run a full window ahead of the receiver.
STREAM_ACK_WINDOW = 64

#: STREAM_SEG frames coalesced into one sendmsg() call.  Segments are tiny
#: (a shard of one PL-sized chunk), so a syscall per frame would dominate
#: the wire phase; batching keeps the send path at ~one syscall per ack
#: window.  Must not exceed STREAM_ACK_WINDOW or the ack drain between
#: batches could not keep the in-flight count bounded.
STREAM_SEND_BATCH = STREAM_ACK_WINDOW

#: Each op's pool label and span name, formatted once, not a window.
_LABELS = {op: (op.name, f"net.{op.name}") for op in OpCode}


def _raise(exc: Exception):
    """The reader of a window whose send half failed."""
    raise exc


def _next_frame(rfile) -> Frame:
    """The next frame of a stream session; the server must not hang up."""
    frame = read_frame(rfile)
    if frame is None:
        raise ProtocolError("server closed connection mid-stream")
    return frame


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transport-level failures.

    Attempt *i* (0-based) sleeps ``min(max_delay, base_delay * 2**i)``
    before retrying; after *attempts* total tries the operation fails with
    :class:`ProviderUnavailableError`.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")

    def delay(self, attempt: int) -> float:
        return min(self.max_delay, self.base_delay * (2**attempt))


class RemoteProvider(CloudProvider):
    """Socket-backed provider client with pooling, timeouts and retries."""

    splits = frozenset({"get_many", "put_many", "delete_many"})

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        *,
        op_timeout: float = 10.0,
        connect_timeout: float = 2.0,
        retry: RetryPolicy | None = None,
        pool_size: int = 4,
        failfast_window: float = 0.0,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        events: EventLog | None = None,
    ) -> None:
        super().__init__(name)
        if op_timeout <= 0:
            raise ValueError(f"op_timeout must be positive, got {op_timeout}")
        if failfast_window < 0:
            raise ValueError(
                f"failfast_window must be >= 0, got {failfast_window}"
            )
        self.host = host
        self.port = port
        self.op_timeout = op_timeout
        self.retry = retry or RetryPolicy()
        self.failfast_window = failfast_window
        self.metrics = metrics if metrics is not None else get_metrics()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.events = events if events is not None else get_events()
        self._down_until = 0.0
        self._op_metrics: dict[OpCode, tuple] = {}  # _account's handles
        self.pool = ConnectionPool(
            host, port, size=pool_size, connect_timeout=connect_timeout,
            metrics=self.metrics, events=self.events,
        )

    # -- transport ---------------------------------------------------------

    def _check_deadline(self, what: str) -> Deadline | None:
        """Ambient deadline, checked (and counted) before starting I/O."""
        deadline = current_deadline()
        if deadline is not None and deadline.expired:
            self._tally("net_client_deadline_exceeded_total")
            deadline.check(what)  # raises DeadlineExceeded
        return deadline

    def _tally(self, name: str) -> None:
        """One more event on this provider's counter *name*."""
        self.metrics.counter(name, provider=self.name).inc()

    def _time(self, sock, deadline: Deadline | None) -> None:
        """Give *sock* one exchange's timeout, op_timeout capped by the budget,
        by a call only when it changes (no deadline: once a dialed socket)."""
        timeout = self.op_timeout if deadline is None else deadline.timeout(cap=self.op_timeout)
        if sock.gettimeout() != timeout:
            sock.settimeout(timeout)

    def _send(self, requests: list[tuple]) -> Callable[[], list[Frame]]:
        """Write a window of frames on one pooled connection; returns its
        reader, which reads the answers and hands the socket back.

        Every request is written before any answer is read, so N frames
        cost one round trip (a one-frame op is the window of one), and a
        caller that sends to several servers before it reads from any pays
        about one for them all.  No batch op makes both directions large
        (MULTI_PUT answers small status lists, MULTI_GET asks with small key
        lists, :data:`DELETE_WINDOW` caps a window of DELETE frames), so
        full socket buffers cannot deadlock it.  The answers of several
        frames are read through one buffered reader.

        A request is ``(op, key, *payload_parts)``, the arguments of
        :func:`~repro.net.protocol.frame_segments`, inside up to two
        envelopes, outermost first: DEADLINE (remaining budget) wrapping
        TRACED (trace context).  An envelope is one more frame over its
        prefix and the inner frame's segments, so the window leaves as one
        scatter-gather list of small headers and views of the callers'
        payloads.  A server that does not know an envelope answers
        BAD_REQUEST, like any other error status.

        A failure of either half -- a spent deadline, a refused dial, a
        broken send or read -- is raised by the reader, one on a reused
        socket as :class:`StaleConnectionError` (:func:`classify_stale`).
        """
        name, label = _LABELS[requests[0][0]]
        try:
            deadline = self._check_deadline(label)
            leased = self.pool.checkout(op=name)
        except (OSError, DeadlineExceeded) as exc:
            return functools.partial(_raise, exc)
        context = self.tracer.wire_context()
        sock = leased.sock
        try:
            self._time(sock, deadline)
            if deadline is not None:
                budget_ms = int(deadline.remaining() * 1000)
                budget = deadline_prefix(max(1, min(MAX_BUDGET_MS, budget_ms)))
            segments: list[bytes | memoryview] = []
            for request in requests:
                frame = frame_segments(*request)
                if context is not None:
                    frame = frame_segments(OpCode.TRACED, "", traced_prefix(context), *frame)
                if deadline is not None:
                    frame = frame_segments(OpCode.DEADLINE, "", budget, *frame)
                segments.extend(frame)
            sendmsg_all(sock, segments)
        except (OSError, ProtocolError) as exc:
            self.pool.checkin(leased, reuse=False)
            return functools.partial(_raise, classify_stale(exc, leased.fresh))

        def receive() -> list[Frame]:
            rfile = sock.makefile("rb") if len(requests) > 1 else None
            try:
                frames: list[Frame] = []
                for _ in requests:
                    frame = recv_frame(sock) if rfile is None else read_frame(rfile)
                    if frame is None:
                        raise ProtocolError("server closed connection before responding")
                    if context is not None and frame.code == Status.OK:
                        # The envelope decoded; the inner frame carries the
                        # operation's status, the records the server's spans.
                        records, frame = decode_traced_response(frame.payload)
                        if records:
                            self.tracer.attach_remote(records)
                    frames.append(frame)
            except (OSError, ProtocolError) as exc:
                self.pool.checkin(leased, reuse=False)
                raise classify_stale(exc, leased.fresh) from exc
            finally:
                if rfile is not None:
                    rfile.close()
            self.pool.checkin(leased)
            return frames

        return receive

    def _circuit_open(self) -> bool:
        return self.failfast_window > 0 and time.monotonic() < self._down_until

    def _with_retries(self, exchange, first=None):
        """Run *exchange* under the retry budget and circuit breaker.

        *first*, when given, is the first attempt, already under way (a
        window's reader, :meth:`_send`); the circuit was checked before it
        was sent.  Error statuses (NOT_FOUND, CORRUPTED, ...) are answers
        from a live server and are never retried; connection failures,
        timeouts and malformed frames are.

        A :class:`StaleConnectionError` -- a *reused* pooled socket died
        while parked, typically because the server restarted -- is no
        verdict: the idle sockets are discarded and the exchange redials at
        once, without consuming an attempt, sleeping, or (once the free
        redials run out, which takes a flapping server) opening the circuit
        any earlier than a plain transport failure would.  With
        ``failfast_window > 0`` the client is a circuit breaker: once the
        attempts are spent, operations fail at once for that many seconds
        instead of re-dialing a server known to be down, so a degraded read
        over hundreds of chunks pays the retries once.

        Two ambient scopes bound the loop further: a shared
        :class:`~repro.net.resilience.RetryBudget` (once one hop of a
        logical request spends it, no hop retries, stopping retry storms at
        the source) and the deadline (no sleep extends past it).  A
        ``RESOURCE_EXHAUSTED`` answer -- the server shed us at admission --
        is retried like a transport failure, after the server's retry-after
        hint with jitter instead of our own backoff.
        """
        if first is None and self._circuit_open():
            raise ProviderUnavailableError(
                f"provider {self.name!r} at {self.host}:{self.port} "
                f"failing fast (circuit open)"
            )
        last_exc: Exception | None = None
        # One free redial per idle socket the pool could have handed us,
        # plus the one that failed: after discard_idle every subsequent
        # checkout dials fresh, so this bound is never hit by a healthy
        # restarted server -- only by a genuinely flapping one.
        stale_budget = self.pool.size + 1
        attempt = 0
        retry_after: float | None = None
        while True:
            retry_after = None
            attempt_now, first = first or exchange, None
            try:
                result = attempt_now()
            except StaleConnectionError as exc:
                self.pool.discard_idle()
                self._tally("net_client_stale_connections_total")
                if stale_budget > 0:
                    stale_budget -= 1
                    continue  # immediate redial; no budget consumed
                last_exc = exc
                attempt += 1
            except (OSError, ProtocolError) as exc:
                last_exc = exc
                attempt += 1
            else:
                shed = self._find_shed(result)
                if shed is None:
                    self._down_until = 0.0
                    return result
                # The server refused us at admission and closed the socket;
                # drop parked siblings (they are dead too) and back off for
                # roughly the hinted interval before trying again.
                self.pool.discard_idle()
                self._tally("net_client_shed_total")
                last_exc = shed
                retry_after = shed.retry_after
                attempt += 1
            if attempt >= self.retry.attempts:
                break
            budget = current_retry_budget()
            if budget is not None and not budget.try_spend():
                self._tally("net_client_retry_budget_exhausted_total")
                break
            self._tally("net_client_retries_total")
            if retry_after is not None:
                # Cap the hint at our own longest backoff, then jitter it upward
                # so a crowd of shed clients does not return in one herd.
                delay = min(retry_after, self.retry.max_delay) * random.uniform(1.0, 1.5)
            else:
                delay = self.retry.delay(attempt - 1)
            deadline = current_deadline()
            if deadline is not None and deadline.remaining() <= delay:
                self._tally("net_client_deadline_exceeded_total")
                raise DeadlineExceeded(
                    f"deadline expires before the next retry of provider "
                    f"{self.name!r} (backoff {delay:.3f}s)"
                ) from last_exc
            time.sleep(delay)
            # The server may have restarted; pre-restart sockets would
            # fail again and burn the remaining attempts.
            self.pool.discard_idle()
        if self.failfast_window > 0:
            self._down_until = time.monotonic() + self.failfast_window
            self._tally("net_client_circuit_open_total")
            self.events.emit(
                "circuit_open",
                level="warning",
                provider=self.name,
                window_s=self.failfast_window,
                error=str(last_exc),
            )
        if isinstance(last_exc, ResourceExhaustedError):
            raise last_exc  # keep the typed shed verdict (and its hint)
        raise ProviderUnavailableError(
            f"provider {self.name!r} at {self.host}:{self.port} unreachable "
            f"after {self.retry.attempts} attempt(s): {last_exc}"
        ) from last_exc

    @staticmethod
    def _frame_error(frame: Frame) -> ProviderError:
        """The exception an error-status response frame stands for."""
        return error_for_status(frame.code, frame.payload.decode("utf-8", "replace"))

    @staticmethod
    def _find_shed(result) -> ResourceExhaustedError | None:
        """The shed verdict, if a frame of *result* was RESOURCE_EXHAUSTED
        (a stream session that went through returns item tuples: none)."""
        for frame in result if isinstance(result, list) else [result]:
            if getattr(frame, "code", None) == Status.RESOURCE_EXHAUSTED:
                return RemoteProvider._frame_error(frame)
        return None

    def _account(
        self, op: OpCode, frames: int, sent: int, received: int, t0: float
    ) -> None:
        """A window of *frames* *op* frames exchanged: the request count
        moves by *frames*, the wire bytes by its totals, and it is one
        latency sample (its frames share a round trip).  Handles held by op."""
        held = self._op_metrics.get(op)
        if held is None:
            held = self._op_metrics[op] = (
                self.metrics.counter("net_client_requests_total", op=op.name, provider=self.name),
                self.metrics.counter("net_client_wire_bytes_total", direction="out"),
                self.metrics.counter("net_client_wire_bytes_total", direction="in"),
                self.metrics.histogram("net_client_request_seconds", op=op.name),
            )
        for counter, value in zip(held, (frames, sent, received)):
            counter.inc(value)
        held[3].observe(time.perf_counter() - t0)

    def _start(self, requests: list[tuple]) -> Callable[[], list[Frame]]:
        """Send a window of frames of one op now; returns its finish, which
        reads the response frames, whatever their statuses, traced and
        accounted.

        A transport failure of either half replays the whole window
        through :meth:`_with_retries`, whose first attempt the sent window
        is -- idempotent at this layer because PUT overwrites whole
        objects, GET reads, and a DELETE replayed after it took effect
        answers NOT_FOUND for an object that is gone either way.  With the
        circuit open nothing is sent, and the finish raises.
        """
        t0 = time.perf_counter()
        op = requests[0][0]
        # The span is active while _send reads wire_context(), so
        # server-side spans shipped back parent under this net span.
        span = self.tracer.span(_LABELS[op][1], provider=self.name, frames=len(requests))
        with span:
            context = self.tracer.capture()
            first = None if self._circuit_open() else self._send(requests)

        def finish() -> list[Frame]:
            try:
                with self.tracer.adopt(context):
                    frames = self._with_retries(lambda: self._send(requests)(), first)
            except Exception as exc:
                if span.span is not None:
                    span.span.status = type(exc).__name__
                raise
            finally:
                if span.span is not None:  # the span spans both halves
                    span.span.duration = time.perf_counter() - t0
            sent = received = 0
            expired = False
            for (_, key, *parts), frame in zip(requests, frames):
                sent += HEADER.size + len(key.encode()) + sum(map(len, parts))
                received += HEADER.size + len(frame.key.encode()) + len(frame.payload)
                expired = expired or frame.code == Status.DEADLINE_EXCEEDED
            self._account(op, len(requests), sent, received, t0)
            if expired:
                self._tally("net_client_deadline_exceeded_total")
            return frames

        return finish

    def _request(self, requests: list[tuple], decode=None):
        """:meth:`_start` a window and finish it, checked (:meth:`_checked`)."""
        return self._checked(self._start(requests), requests[0][0], decode)

    def _checked(self, finish, op: OpCode, decode=None):
        """Finish a started window: its frames once each answered OK (else
        the first error status raised), or ``decode(frames)``, whose
        :class:`ProtocolError` -- a CRC-correct answer of junk -- is raised
        as a :class:`ProviderError` a degraded read goes around."""
        frames = finish()
        for frame in frames:
            if frame.code != Status.OK:
                raise self._frame_error(frame)
        if decode is None:
            return frames
        try:
            return decode(frames)
        except ProtocolError as exc:
            raise ProviderError(
                f"provider {self.name!r} answered a malformed "
                f"{op.name} payload: {exc}"
            ) from exc

    def ping(self) -> float:
        """Round-trip one empty frame; returns the wall-clock seconds."""
        started = time.perf_counter()
        self._request([(OpCode.PING, "", b"ping")])
        return time.perf_counter() - started

    def reset_circuit(self) -> None:
        """Forget a fail-fast verdict (e.g. the server is known restarted)."""
        self._down_until = 0.0

    def close(self) -> None:
        """Release every pooled connection."""
        self.pool.close()

    def __enter__(self) -> "RemoteProvider":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- CloudProvider interface -------------------------------------------

    def put(self, key: str, data: bytes, checksum: bytes | None = None) -> None:
        (frame,) = self._request([(OpCode.PUT, key, bytes(data))])
        (error,) = self._put_outcomes(
            [(key, data)], None if checksum is None else [checksum], [(frame.code, frame.payload)]
        )
        if error is not None:
            raise error

    def get(self, key: str) -> bytes:
        return self._request([(OpCode.GET, key, b"")])[0].payload

    def put_many(
        self,
        items: list[tuple[str, bytes]],
        checksums: list[bytes] | None = None,
    ) -> list[ProviderError | None]:
        """Store many objects in one MULTI_PUT round-trip per batch frame.

        Transport failure raises (the whole window is in doubt); per-item
        backend failures come back as exceptions in the result list, so a
        partially failed batch still tells the caller exactly which shards
        need failover.  A batch frame's payload leaves as one buffer.
        """
        return self.start_put_many(items, checksums)()

    def start_put_many(self, items: list[tuple[str, bytes]], checksums=None):
        """:meth:`put_many` in two halves (:meth:`_start_batches`)."""
        return self._start_batches(
            OpCode.MULTI_PUT, items, lambda item: len(item[1]), encode_multi_put,
            lambda results: self._put_outcomes(items, checksums, results),
        )

    def get_many(self, keys: list[str]) -> list["bytes | ProviderError"]:
        """Fetch many objects in one MULTI_GET round-trip per batch frame."""
        return self.start_get_many(keys)()

    def start_get_many(self, keys: list[str]):
        """:meth:`get_many` in two halves (:meth:`_start_batches`)."""
        return self._start_batches(
            OpCode.MULTI_GET, keys, len, encode_keys, self._get_outcomes
        )

    def _start_batches(self, op: OpCode, items: list, weigh, encode, outcomes):
        """Send *items* now as *op* batch frames (:meth:`_split_batches`);
        returns the finish, which reads the answers -- one ``(status,
        body)`` an item asked, or the call fails -- for *outcomes*."""
        if not items:
            return lambda: []
        batches = self._split_batches(items, weigh)
        finish = self._start([(op, "", encode(batch)) for batch in batches])

        def answers(frames: list[Frame]) -> list[tuple[int, bytes]]:
            results: list[tuple[int, bytes]] = []
            for batch, frame in zip(batches, frames):
                answered = decode_batch_results(frame.payload)
                if len(answered) != len(batch):
                    raise ProtocolError(
                        f"batch frame answered {len(answered)} results for "
                        f"{len(batch)} items"
                    )
                results += answered
            return results

        return lambda: outcomes(self._checked(finish, op, answers))

    @staticmethod
    def _split_batches(items: list, weigh) -> list[list]:
        """Split *items* into frame-sized batches (bytes and count caps)."""
        batches: list[list] = []
        weight = 0
        for item in items:
            size = weigh(item)
            if not batches or weight + size > BATCH_BYTES or len(batches[-1]) >= BATCH_ITEMS:
                batches.append([])
                weight = 0
            batches[-1].append(item)
            weight += size
        return batches

    def _put_outcomes(
        self,
        items: list[tuple[str, bytes]],
        checksums: list[bytes] | None,
        results: list[tuple[int, bytes]],
    ) -> list[ProviderError | None]:
        """Per-item outcomes of a put from its ``(status, echo)`` answers:
        the server's error, ``None``, or a :class:`BlobCorruptedError` for
        an echo -- the digest the server's backend recorded, in hex -- that
        is not the item's digest (*checksums*, when the caller holds them):
        the transport CRC passed but the server stored something else.  A
        batch that all answered OK is checked whole first, its echoes
        joined against its digests joined.  An echo is never parsed: each
        is compared with its digest spelled as the wire spells it
        (:func:`encode_digest`), so one that is no hex digest at all fails
        its item like any other wrong echo."""
        if checksums is None:
            checksums = [blob_checksum(data) for _, data in items]
        statuses, echoes = zip(*results)
        if not any(statuses) and (  # Status.OK is 0
            list(map(len, echoes)) == [64] * len(echoes)
            and b"".join(echoes) == encode_digest(b"".join(checksums))
        ):
            return [None] * len(items)
        return [
            error_for_status(status, echo.decode("utf-8", "replace"))
            if status != Status.OK
            else None
            if echo == encode_digest(checksum)
            else BlobCorruptedError(
                f"checksum echo mismatch from provider {self.name!r} "
                f"for key {key!r}"
            )
            for (key, _), checksum, status, echo in zip(
                items, checksums, statuses, echoes, strict=True
            )
        ]

    @staticmethod
    def _get_outcomes(
        results: list[tuple[int, bytes]]
    ) -> list["bytes | ProviderError"]:
        """Per-item outcomes of a batched get from its ``(status, body)``
        answers: the object's bytes, or the server's error."""
        return [
            body
            if status == Status.OK
            else error_for_status(status, body.decode("utf-8", "replace"))
            for status, body in results
        ]

    def _session(self, op: OpCode, count: int, converse):
        """One stream session of *op* on a leased socket, traced and retried:
        ``converse(sock, rfile)`` returns its answers, or a refused
        session's error frame, which is raised.  Sessions are never split."""

        name, label = _LABELS[op]

        def exchange():
            deadline = self._check_deadline(label)
            with self.pool.lease(op=name) as leased:
                try:
                    self._time(leased.sock, deadline)
                    with leased.sock.makefile("rb") as rfile:
                        return converse(leased.sock, rfile)
                except (OSError, ProtocolError) as exc:
                    raise classify_stale(exc, leased.fresh) from exc

        with self.tracer.span(label, provider=self.name, frames=count):
            result = self._with_retries(exchange)
        if isinstance(result, Frame):
            raise self._frame_error(result)
        return result

    @staticmethod
    def _converse_put(items: list[tuple[str, bytes]], sock, rfile):
        """A stream-upload session's conversation (open, segments, commit).

        Segments are pipelined behind the open frame with a sliding window
        of at most :data:`STREAM_ACK_WINDOW` unacknowledged frames, so a
        whole window costs ~1 round-trip of latency while the ack backlog
        stays bounded.  Returns per-item ``(status, body)`` pairs, or the
        error frame of a refused session: the shed frame when the server
        refused us at admission (``_with_retries`` turns that into hinted
        backoff), else the first non-OK open or commit answer, with every
        ack drained so the connection stays in sync.  A segment ack must
        echo the key of the segment at its position, or the session is a
        :class:`ProtocolError`.
        """
        acked = 0
        refused: Frame | None = None
        results: list[tuple[int, bytes]] = []

        def read_ack() -> None:
            nonlocal acked, refused
            frame = _next_frame(rfile)
            index = acked  # 0 = open ack, 1..N = segments, N+1 = end
            acked += 1
            if frame.code == Status.RESOURCE_EXHAUSTED:
                refused = frame
            elif 1 <= index <= len(items):
                asked = items[index - 1][0]
                if frame.key != asked:
                    raise ProtocolError(
                        f"STREAM_SEG ack {index} is for key {frame.key!r}, "
                        f"not {asked!r}"
                    )
                results.append((int(frame.code), frame.payload))
            elif frame.code != Status.OK and refused is None:
                refused = frame

        sendmsg_all(sock, frame_segments(OpCode.STREAM_PUT))
        sent = 1
        batch: list[bytes | memoryview] = []
        batched = 0
        for key, data in items:
            if refused is not None:
                break
            batch.extend(frame_segments(OpCode.STREAM_SEG, key, data))
            batched += 1
            if batched >= STREAM_SEND_BATCH:
                sendmsg_all(sock, batch)
                sent += batched
                batch.clear()
                batched = 0
                while sent - acked > STREAM_ACK_WINDOW:
                    read_ack()
        if refused is None:
            batch.extend(frame_segments(OpCode.STREAM_END))
            sendmsg_all(sock, batch)
            sent += batched + 1
        # Drain every outstanding ack so the connection is back in sync (a
        # shed server closed it already; stop there).
        while acked < sent and (
            refused is None or refused.code != Status.RESOURCE_EXHAUSTED
        ):
            read_ack()
        if refused is not None:
            return refused
        if len(results) != len(items):
            raise ProtocolError(
                f"stream session answered {len(results)} segment acks for "
                f"{len(items)} segments"
            )
        return results

    @staticmethod
    def _converse_get(keys: list[str], sock, rfile):
        """A STREAM_GET conversation: count header, then one frame per key.

        Returns the per-key frames, or the header frame when it is not OK
        (the shed frame on admission refusal, or the server's error).
        Each frame must echo the key asked at its position, or the
        exchange is a :class:`ProtocolError`: a server answering out of
        order would otherwise hand one key's bytes back as another's.
        """
        sendmsg_all(sock, frame_segments(OpCode.STREAM_GET, "", encode_keys(keys)))
        header = _next_frame(rfile)
        if header.code != Status.OK:
            return header
        count = decode_stream_count(header.payload)
        if count != len(keys):
            raise ProtocolError(
                f"STREAM_GET answered {count} frames for {len(keys)} keys"
            )
        frames = [_next_frame(rfile) for _ in keys]
        for key, frame in zip(keys, frames):
            if frame.key != key:
                raise ProtocolError(
                    f"STREAM_GET answered key {frame.key!r} where {key!r} was asked"
                )
        return frames

    def put_stream(
        self,
        items: list[tuple[str, bytes]],
        checksums: list[bytes] | None = None,
    ) -> list[ProviderError | None]:
        """Store many objects over one stream session (frame per shard).

        Same contract as :meth:`put_many` -- per-item outcomes, checksum
        echoes verified -- but neither side ever materializes the window
        into one aggregate buffer.  A refused session raises its error.
        """
        if not items:
            return []
        t0 = time.perf_counter()
        results = self._session(
            OpCode.STREAM_PUT, len(items), functools.partial(self._converse_put, items)
        )
        sent = 2 * HEADER.size + sum(
            HEADER.size + len(key.encode()) + len(data) for key, data in items
        )
        received = 2 * HEADER.size + sum(
            HEADER.size + len(key.encode()) + len(body)
            for (key, _), (_, body) in zip(items, results)
        )
        self._account(OpCode.STREAM_PUT, 1, sent, received, t0)
        return self._put_outcomes(items, checksums, results)

    def get_stream(self, keys: list[str]) -> list["bytes | ProviderError"]:
        """Fetch many objects as one frame per key (no aggregate payload).

        Same contract as :meth:`get_many`; a refused request raises.
        """
        if not keys:
            return []
        t0 = time.perf_counter()
        frames = self._session(
            OpCode.STREAM_GET, len(keys), functools.partial(self._converse_get, keys)
        )
        sent = HEADER.size + 4 + sum(len(key.encode()) + 2 for key in keys)
        received = HEADER.size + 4 + sum(
            HEADER.size + len(frame.key.encode()) + len(frame.payload)
            for frame in frames
        )
        self._account(OpCode.STREAM_GET, 1, sent, received, t0)
        return self._get_outcomes([(frame.code, frame.payload) for frame in frames])

    def delete(self, key: str) -> None:
        (error,) = self.delete_many([key])
        if error is not None:
            raise error

    def delete_many(self, keys: list[str]) -> list[ProviderError | None]:
        """Remove many objects: plain DELETE frames, pipelined
        :data:`DELETE_WINDOW` at a time, one round-trip per window.

        Each key's outcome is its own frame's status.  A window the
        transport could not deliver after its retries answers every key
        of it, and of the windows behind it, with that error: the
        provider is down, and asking again per window would only pay the
        retries again.
        """
        return self.start_delete_many(keys)()

    def start_delete_many(self, keys: list[str]):
        """:meth:`delete_many` in two halves: the first window is sent now,
        and the finish reads its answers, then sends and reads each window
        behind it."""
        windows = [
            [(OpCode.DELETE, key, b"") for key in keys[at : at + DELETE_WINDOW]]
            for at in range(0, len(keys), DELETE_WINDOW)
        ]
        first = self._start(windows[0]) if windows else None

        def finish() -> list[ProviderError | None]:
            outcomes: list[ProviderError | None] = []
            for at, window in enumerate(windows):
                try:
                    frames = (self._start(window) if at else first)()
                except ProviderError as exc:
                    return outcomes + [exc] * (len(keys) - len(outcomes))
                outcomes += [
                    None if frame.code == Status.OK else self._frame_error(frame)
                    for frame in frames
                ]
            return outcomes

        return finish

    def keys(self) -> list[str]:
        return self._request(
            [(OpCode.KEYS, "", b"")],
            lambda frames: decode_keys(frames[0].payload),
        )

    def head(self, key: str) -> BlobStat:
        return self._request(
            [(OpCode.HEAD, key, b"")],
            lambda frames: decode_stat(key, frames[0].payload),
        )
